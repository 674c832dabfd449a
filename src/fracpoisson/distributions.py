"""Analytic distributions of fractional counting processes.

Closed forms where they exist (three-parameter Mittag-Leffler pmf,
half-order Gaussian densities), Laplace inversion where they do not
(general subordinator pmfs, waiting-time survivals, renewal means), and
deliberately independent second routes for cross-validation: the
spectral survival formula for distributed-order waiting times and the
first-passage quadrature of the inverse-subordinator density built on
the one-sided stable density.  NaN, infinities, out-of-range values and
non-integer counts raise DomainError.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, EvaluationError, _count, _nonnegative, _positive, _unit_interval
from .special import (
    _asymptotic_envelope,
    _asymptotic_series,
    _effective_switch,
    _prabhakar_series,
    _series_rows,
    ml_waiting_survival,
)
from .transforms import (
    DistributedOrder,
    Stable,
    _invert_talbot_array,
    _require_spec,
    _talbot_contour,
    _talbot_error,
    _talbot_guard,
    _talbot_rule,
    integrate,
    laplace_exponent,
    spec_to_json,
)

__all__ = [
    "fpp_pmf",
    "pmf_laplace",
    "general_pmf",
    "waiting_survival_general",
    "distributed_order_survival_kochubei",
    "stable_unit_density",
    "inverse_stable_density",
    "inverse_stable_density_quadrature",
    "fpp_pmf_mixture",
    "renewal_mean",
    "PmfTable",
    "fpp_pmf_table",
    "general_pmf_table",
]

_FAR_TAIL_REACH = 4.0  # the far tail's remainder is bounded up to n = 4z


# ---------------------------------------------------------------------------
# fractional Poisson pmf, closed form
# ---------------------------------------------------------------------------

def fpp_pmf(beta, lam, t, n):
    """P(N(t) = n) for the fractional Poisson process.

    Closed form (lam t**beta)**n E^{n+1}_{beta, beta n + 1}(-lam t**beta)
    in terms of the three-parameter Mittag-Leffler function; beta = 1
    reduces to the Poisson pmf and n = 0 to the waiting-time survival.
    """
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    _nonnegative("time", t)
    n = _count("count", n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    if beta == 1.0:
        return math.exp(-lam * t + n * math.log(lam * t) - gammaln(n + 1))
    z = lam * t ** beta
    if n == 0:
        return ml_waiting_survival(beta, lam, t)
    if z == 0.0:
        # lam t**beta underflowed, and P(N >= 1) = 1 - E_beta(-z) <= 1.2 z
        # lies below the smallest double with it
        return 0.0
    far, ok = _pmf_route(beta, z, n)
    if far:
        try:
            return min(max(_pmf_far_tail(beta, z, n), 0.0), 1.0)
        except EvaluationError:
            return _pmf_by_inversion(beta, lam, t, n)
    if not ok:
        return 0.0
    try:
        series, max_term = _prabhakar_series(n + 1.0, beta, beta * n + 1.0, -z)
    except EvaluationError:
        return _pmf_by_inversion(beta, lam, t, n)
    value = _pmf_from_series(z, n, series, max_term)
    return _pmf_by_inversion(beta, lam, t, n) if value is None else value


def _pmf_route(beta, z, n):
    """(far, ok): ``fpp_pmf``'s route for counts n >= 1 (an int or array) at
    0 < z = lam t**beta, beta < 1.  Past the series switch (far) the far tail
    may answer where ok, n <= 4z, and inversion the rest; below it the series
    answers where ok, n log z <= 700, and the rest is 0.0 (z <= 18.4**beta, so
    beta n > 240 and log p <= n log z - lgamma(beta n + 1) < -370 < log 1e-10)."""
    far = z > _effective_switch(beta)
    return far, n <= _FAR_TAIL_REACH * z if far else n * math.log(z) <= 700.0


def _pmf_from_series(z, n, series, max_term):
    """z**n times the Prabhakar series sum, or None where its roundoff is too large.

    z**n times a series that cancels down from its largest term carries an
    absolute roundoff of about z**n max_term eps, which must stay below
    1e-10.  The log-term is concave in r (gamma = n + 1 > 1), so the loop
    met that term before it stopped; terms that all underflow round nothing.
    """
    if max_term > 0.0 and n * math.log(z) + math.log(max_term) + math.log(4.4e-16) > math.log(1e-10):
        return None
    value = math.exp(n * math.log(z)) * series
    # deep-tail values below series roundoff may surface as tiny negatives
    return min(max(value, 0.0), 1.0)


def _fpp_pmf_grid(beta, lam, ts, n):
    """[fpp_pmf(beta, lam, t, n) for t in ts], bit for bit, in one series pass.

    The points on the plain series route, 0 < z = lam t**beta <= the
    series switch with beta < 1, have their series summed together by
    ``special._series_rows``, with z from the same scalar ``pow`` as
    ``fpp_pmf`` (array ``ts**beta`` differs in the last bit).  Every other
    point is a scalar ``fpp_pmf`` call: t = 0, beta = 1, z past the switch,
    an overflowing prefactor, and a row that the array pass or a guard
    sends elsewhere.
    """
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    n = _count("count", n)
    values = [None] * len(ts)
    if beta < 1.0:
        switch = _effective_switch(beta)
        points = []
        for i, t in enumerate(ts):
            if 0.0 < t < math.inf:
                z = lam * t ** beta
                if 0.0 < z <= switch and n * math.log(z) <= 700.0:
                    points.append((i, z))
        if points:
            sums, tops = _series_rows(n + 1.0, beta, beta * n + 1.0, [-z for _, z in points])
            for (i, z), total, top in zip(points, sums.tolist(), tops.tolist()):
                if not math.isnan(total):
                    values[i] = total if n == 0 else _pmf_from_series(z, n, total, top)
    return [fpp_pmf(beta, lam, t, n) if v is None else v for t, v in zip(ts, values)]


def _pmf_far_tail(beta, z, n):
    """Large-z pmf via the folded Mittag-Leffler asymptotic expansion.

    Folding z**n into the asymptotic series of the three-parameter
    Mittag-Leffler factor makes the gamma argument independent of n:

        p(n) ~ sum_k (-1)**k C(n+k, k) z**(-1-k) / Gamma(1 - beta (k+1)),

    the term-wise inverse transform of the s -> 0 binomial expansion of
    s**(beta-1) (1 + s**beta / z)**(-(n+1)) at t = 1.  Every factor stays
    in range for any n.  Truncated at the smallest term of a pole-free
    envelope; raises when that floor is too coarse for a pmf value.  For
    n above a few multiples of z the remainder is no longer bounded by
    the smallest term (the expansion misses a saddle contribution), so
    that regime is rejected outright.
    """
    if n > _FAR_TAIL_REACH * z:
        raise EvaluationError(f"count n={n} too large relative to z={z} for the far-tail expansion")
    try:
        total, ln_floor = _asymptotic_series(n + 1.0, 1.0, beta, 1.0, math.log(z), 300)
    except (ValueError, OverflowError):  # math.fsum of +inf and -inf, or overflow
        total = math.nan
    if not math.isfinite(total):
        raise EvaluationError(f"far-tail sum is not finite at z={z}, n={n}")
    floor = math.exp(ln_floor)
    if _far_tail_too_coarse(floor, total):
        raise EvaluationError(f"far-tail truncation floor {floor:.2e} too large at z={z}, n={n}",
                              partial=total)
    return total


def _far_tail_too_coarse(floor, total):
    """Whether a far-tail floor is too coarse for a pmf near total, elementwise."""
    return (floor > 1e-10) & (floor > 1e-6 * abs(total))


def _far_tail_screen(beta, z, counts):
    """Which counts of the array (each <= 4z) certainly fail ``_pmf_far_tail``'s
    floor: its envelope summed up to the last summed term bounds |total|, and
    the margin covers the few ulps between rgamma and exp(-gammaln)."""
    ln_env, kstar, _, _ = _asymptotic_envelope(counts[:, None] + 1.0, 1.0, beta, 1.0,
                                               math.log(z), 300)
    with np.errstate(over="ignore"):
        bound = np.where(np.arange(300) <= kstar[:, None], np.exp(ln_env), 0.0).sum(axis=1)
    return _far_tail_too_coarse(np.exp(ln_env.min(axis=1)) / (1.0 + 1e-9), bound)


def _pmf_by_inversion(beta, lam, t, n):
    """Pmf by contour inversion of the transform built in log space, where z**n
    and lam**n overflow long before the pmf does: a ``_general_pmf_rows`` row."""
    return _row_value(_general_pmf_rows(Stable(beta), lam, t, np.array([n]), 1e-9)[0])


# ---------------------------------------------------------------------------
# Laplace-domain pmf and its inversions
# ---------------------------------------------------------------------------

def pmf_laplace(spec, lam, n, s):
    """Laplace transform (in t) of P(N_D(t) = n) for a general subordinator.

    Closed form psi(s)/s * lam**n / (lam + psi(s))**(n+1); accepts real
    s > 0 or nonzero complex s off the negative real axis, both finite,
    so it can be handed directly to the contour inverter.
    """
    _positive("rate", lam)
    n = _count("count", n)
    if s == 0:
        raise DomainError(f"pmf transform needs s != 0, got {s!r}")
    value = _pmf_transform(laplace_exponent(spec, s), s, lam, n)
    return complex(value) if isinstance(s, complex) else float(value)


def _pmf_transform(psi, s, lam, n):
    """pmf_laplace at s, given psi = psi(s) and checked lam and n.

    Elementwise on arrays: s and psi may be ndarrays of contour nodes and
    n an integer or a column of counts, one row per count.
    """
    # log-space assembly: lam**n and (lam + psi)**(n+1) overflow for large
    # counts even though their ratio is a bounded transform value
    w = np.log(psi) - np.log(s) + n * math.log(lam) - (n + 1.0) * np.log(lam + psi)
    return np.exp(w)


def general_pmf(spec, lam, t, n):
    """P(N_D(t) = n) for a general subordinator, by Laplace inversion.

    The n-fold waiting-time convolution has no closed form, so the
    transform pmf_laplace is inverted numerically; the stable case
    agrees with fpp_pmf to inversion accuracy.
    """
    _positive("time", t)
    _positive("rate", lam)
    n = _count("count", n)
    _require_spec(spec)
    return _row_value(_general_pmf_rows(spec, lam, t, np.array([n]), 1e-10)[0], n)


_TABLE_BLOCK = 2048  # counts per array of contour terms, 1 MB at 32 nodes


def _general_pmf_rows(spec, lam, t, counts, noise_floor):
    """general_pmf(spec, lam, t, n) for n in the integer array counts, from one psi call.

    The transforms of the counts form (counts x nodes) arrays on one Talbot
    contour, and each block of rows passes the noise guard at noise_floor in
    one array pass.  Each entry is the value clamped into [0, 1], or where
    the guard fails (cancellation, a transform not finite on the contour)
    the error ``_row_value`` raises."""
    out = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, weights = _talbot_rule(t)
        psi = spec.psi(s)
        for lo in range(0, len(counts), _TABLE_BLOCK):
            # a point call's count is an int: one-row arrays cost it 40% more
            col = counts[lo:lo + _TABLE_BLOCK, None] if len(counts) > 1 else int(counts[0])
            terms = weights * _pmf_transform(psi, s, lam, col)
            max_term = np.abs(terms).max(axis=-1)
            values, ok = _talbot_guard(terms.real.sum(axis=-1), max_term, t, noise_floor)
            for v, top, good in zip(*(a.reshape(-1).tolist() for a in (values, max_term, ok))):
                out.append(min(max(v, 0.0), 1.0) if good else _talbot_error(v, top))
    return out


def _row_value(row, count=None):
    """A ``_general_pmf_rows`` row's value, or its error raised, naming count if given."""
    if isinstance(row, EvaluationError):
        where = "" if count is None else f"count {count}: "
        raise EvaluationError(f"{where}{row}", partial=row.partial)
    return row


def waiting_survival_general(spec, lam, t):
    """P(J > t) for the waiting times of the general renewal process.

    Inverts the closed-form transform psi(s)/(s (lam + psi(s))), which
    also equals E[exp(-lam E(t))] for the inverse subordinator E.
    """
    _positive("time", t)
    _positive("rate", lam)
    _require_spec(spec)

    def transform(s):
        psi = spec.psi(s)
        return psi / (s * (lam + psi))

    value = _invert_talbot_array(transform, t, noise_floor=1e-10)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# distributed-order survival, spectral route
# ---------------------------------------------------------------------------

def _order_derivatives(p):
    """p^(j)(0) and p^(j)(1), j = 0..deg, for a DistributedOrder or its coefficients."""
    try:
        spec = p if isinstance(p, DistributedOrder) else DistributedOrder(tuple(p))
    except (TypeError, ValueError):
        raise DomainError(
            "weight must be a DistributedOrder spec or polynomial coefficients"
        ) from None
    coef, at0, at1 = list(spec.poly), [], []
    while coef:
        at0.append(coef[0])
        at1.append(math.fsum(coef))
        coef = [k * a for k, a in enumerate(coef)][1:]
    return at0, at1


def _kochubei_inner(at0, at1, u):
    """(S1, S0) with A(r) + i B(r) = exp(-u) S1 + S0, r = exp(-u).

    A + i B = int_0^1 p(beta) exp(c beta) dbeta with c = -u + i pi, and
    exp(c) = -exp(-u).  Integrating by parts until p is used up gives

        sum_j (-1)**j (p^(j)(1) exp(c) - p^(j)(0)) / c**(j+1),

    exact for a polynomial p and free of small divisors since |c| >= pi.
    The sum is taken by Horner's rule in -1/c, split by the exp(-u)
    factor so that the caller can scale it out.
    """
    inv_c = 1.0 / complex(-u, math.pi)
    s0 = s1 = 0j
    for a0, a1 in zip(reversed(at0), reversed(at1)):
        s0 = a0 - s0 * inv_c
        s1 = a1 - s1 * inv_c
    return -s1 * inv_c, -s0 * inv_c


def distributed_order_survival_kochubei(p, lam, t):
    """P(J > t) for distributed-order waiting times, by spectral quadrature.

    Independent of the Laplace-inversion route: integrates the spectral
    (Bromwich branch-cut) representation

        P(J > t) = (lam/pi) int_0^inf r**-1 exp(-t r)
                   B(r) / ((A(r) + lam)**2 + B(r)**2) dr,

    where A + i B = int_0^1 r**beta exp(i pi beta) p(beta) dbeta is the
    analytically continued Laplace exponent at s = r exp(i pi).  ``p``
    is a ``DistributedOrder`` spec or its polynomial coefficients; for a
    polynomial order density the beta-integral has a closed form (see
    ``_kochubei_inner``), so only the r-integral is numerical.  It runs
    on the log axis with a 1/u substitution for the slowly decaying
    r -> 0 end, and the result is accurate to about 1e-12.
    """
    _positive("time", t)
    _positive("rate", lam)
    at0, at1 = _order_derivatives(p)
    ln_t = math.log(t)

    def outer(u):
        damp = -math.exp(ln_t - u)
        if damp < -700.0:
            return 0.0
        s1, s0 = _kochubei_inner(at0, at1, u)
        # B / ((A + lam)**2 + B**2) = -Im 1/(A + lam + i B), with the
        # exp(-u) factor divided out where it is large
        if u >= 0.0:
            q = 1.0 / (math.exp(-u) * s1 + s0 + lam)
        else:
            g = math.exp(u)
            q = g / (s1 + g * (s0 + lam))
        return -math.exp(damp) * q.imag

    total = err = 0.0
    # the r -> 0 tail beyond u = 50 runs in v = 1/u, where the integrand
    # tends to p(0) pi / lam**2
    for f, lo, hi in (
        (outer, ln_t - 10.0, 50.0),
        (lambda v: outer(1.0 / v) / v ** 2, 0.0, 1.0 / 50.0),
    ):
        val, e = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)
        total += val
        err += e
    result = lam / math.pi * total
    if err * lam / math.pi > 1e-6:
        raise EvaluationError(
            f"spectral quadrature error {err:.2e} too large", partial=result
        )
    if not 0.0 <= result <= 1.0 + 1e-9:
        raise EvaluationError(
            f"spectral survival {result} outside [0, 1]", partial=result
        )
    return min(result, 1.0)


# ---------------------------------------------------------------------------
# one-sided stable density and the inverse-subordinator density
# ---------------------------------------------------------------------------

def _zolotarev_a(beta, phi):
    return (
        math.sin(beta * phi) ** beta
        * math.sin((1.0 - beta) * phi) ** (1.0 - beta)
        / math.sin(phi)
    ) ** (1.0 / (1.0 - beta))


def stable_unit_density(beta, v):
    """Density of D(1), the unit one-sided stable law with E[e^{-sD}]=e^{-s^beta}.

    beta = 1/2 uses the closed half-order form; otherwise Zolotarev's
    single-integral representation

        g(v) = beta/(1-beta) v^{-1/(1-beta)}
               int_0^1 A(pi u) exp(-A(pi u) v^{-beta/(1-beta)}) du

    is evaluated by adaptive quadrature, at any finite v with v**beta < 5.
    Past that the convergent large-v series answers: the integrand then
    peaks in a sliver of width about (1-beta) sin(pi beta)/(pi v**beta)
    below u = 1 that the quadrature can step over (it came out 17% low at
    beta = 0.9, v = 3600).
    """
    _unit_interval("stability index", beta)
    if not math.isfinite(v):
        raise DomainError(f"point must be finite, got {v!r}")
    return _stable_density(beta, v)


def _stable_density(beta, v):
    """g(v) for finite v; an exact 0.0, without quadrature, once A(0+)
    v^{-beta/(1-beta)} passes 701: A(phi) rises on (0, pi) from A(0+) =
    (beta^beta (1-beta)^(1-beta))^(1/(1-beta)), so every integrand node is
    then past its 700 cutoff.  The test is in logs, so no power overflows."""
    if v <= 0.0:
        return 0.0
    if beta == 0.5:
        return math.exp(-1.0 / (4.0 * v)) / (2.0 * math.sqrt(math.pi) * v ** 1.5)
    if beta * (math.log(beta) - math.log(v)) / (1.0 - beta) + math.log1p(-beta) > math.log(701.0):
        return 0.0
    if beta * math.log(v) >= math.log(5.0):
        return _stable_tail_series(beta, v)
    scale = v ** (-beta / (1.0 - beta))

    def integrand(u):
        a = _zolotarev_a(beta, math.pi * u)
        arg = a * scale
        if arg > 700.0:
            return 0.0
        return a * math.exp(-arg)

    try:
        val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200)
    except OverflowError:  # A(pi u) past the double range, at beta near 1
        raise EvaluationError(f"stable density quadrature overflows at v={v}") from None
    out = beta / (1.0 - beta) * v ** (-1.0 / (1.0 - beta)) * val
    if not math.isfinite(out):
        raise EvaluationError(f"stable density quadrature failed at v={v}")
    return out


def _stable_tail_series(beta, v):
    """g(v) = (1/pi) sum_{k>=1} (-1)**(k+1) Gamma(beta k + 1)/k! sin(pi beta k)
    v**(-beta k - 1), the convergent large-v series, for v**beta >= 5.
    Without its sine, term k + 1 is at most v**-beta times term k, so the
    terms past the fortieth add less than 1e-28/sin(pi beta) of the first;
    against mpmath the sum is within 2e-14 relative for beta up to 0.999."""
    lv = math.log(v)
    terms = [
        (-1.0) ** (k + 1)
        * math.exp(gammaln(beta * k + 1.0) - gammaln(k + 1.0) - (beta * k + 1.0) * lv)
        * math.sin(math.pi * beta * k)
        for k in range(1, 41)
    ]
    return math.fsum(terms) / math.pi


_DENSITY_RULES = (32, 28)  # node counts of the two Talbot rules that must agree


@functools.lru_cache(maxsize=16)
def _density_contour(beta, t):
    """log(g_k s_k**(beta-1)), s_k**beta and (beta-1) log|s_k| over the
    nodes of each rule in _DENSITY_RULES in turn, for the transform
    s**(beta-1) exp(-x s**beta) of h(x, t).  Where the rule is not finite
    (t below about 7e-308) neither are these, and no row is kept."""
    rules = [_talbot_contour(t, m) for m in _DENSITY_RULES]
    with np.errstate(over="ignore", invalid="ignore"):
        ln_s = np.log(np.concatenate([s for s, _ in rules]))
        ln_g = np.log(np.concatenate([g for _, g in rules]))
        return ln_g + (beta - 1.0) * ln_s, np.exp(beta * ln_s), (beta - 1.0) * ln_s.real


def inverse_stable_density(beta, x, t):
    """Density h(x, t) of the inverse stable subordinator E(t) in x.

    beta = 1/2: first-passage quadrature with the closed half-order
    forms (cross-checked against exp(-x**2/(4t))/sqrt(pi t)); other
    beta: fixed-Talbot inversion of the transform s**(beta-1)
    exp(-x s**beta) in s -> t, on the contour that ``laplace_invert``
    uses, with the terms of a 32-node and a 28-node rule evaluated as
    one array.  Where that contour sum is not to be trusted (see
    ``_density_talbot``) the first-passage quadrature answers.
    """
    _unit_interval("stability index", beta)
    _positive("state", x)
    _positive("time", t)
    if beta == 0.5:
        return inverse_stable_density_quadrature(beta, x, t)
    return float(_inverse_stable_density_grid(beta, np.array([x], dtype=float), t)[0][0])


def _inverse_stable_density_grid(beta, xs, t):
    """(h(x, t), error estimate) at every x > 0 of the float array xs.

    One (len(xs) x 60) contour pass; the rows it does not keep take the
    first-passage quadrature.  This is ``inverse_stable_density`` row by row,
    but at beta = 1/2 it keeps contour sums.  A kept row's error estimate is
    the spread of its two Talbot rules, 0 for the others.
    """
    values, spread, kept = _density_talbot(beta, xs, t)
    for i in np.flatnonzero(~kept).tolist():
        values[i] = inverse_stable_density_quadrature(beta, float(xs[i]), t)
        spread[i] = 0.0
    return values, spread


def _density_talbot(beta, xs, t):
    """(h(x, t), |32-node - 28-node rule|, kept) at every x of the array xs.

    A row is kept unless the transform overflows on the contour
    (Re w > 700) or a term is as large as that, either rule fails the
    ``_talbot_guard`` noise guard at a 1e-9 floor, or the 32- and 28-node
    rules disagree.  In the far field (x well past the bulk of h(., t))
    the true value sits below what the contour sum can resolve: both
    roundoff and the M-term discretization error dwarf it.  Roundoff is
    caught by the noise guard, discretization by the two node counts.
    """
    ln_factor, s_beta, ln_power = _density_contour(beta, t)
    cut = _DENSITY_RULES[0]
    with np.errstate(over="ignore", invalid="ignore"):
        xsb = xs[:, None] * s_beta
        expo = ln_factor - xsb
        kept = ((ln_power - xsb.real).max(axis=1) <= 700.0) & (expo.real.max(axis=1) <= 700.0)
        terms = np.exp(expo)
        re, mag = terms.real, np.abs(terms)
        rules = []
        for part in (slice(None, cut), slice(cut, None)):
            result, ok = _talbot_guard(re[:, part].sum(axis=1), mag[:, part].max(axis=1), t, 1e-9)
            kept &= ok
            rules.append(result)
        v32, v28 = rules
        spread = np.abs(v32 - v28)
        kept &= spread <= np.maximum(1e-9, 1e-7 * np.abs(v32))
        return np.maximum(v32, 0.0), spread, kept


def inverse_stable_density_quadrature(beta, x, t):
    """h(x, t) by the first-passage representation, an independent route.

    Integrates the defining identity

        h(x, t) = int_0^t levy_tail(t - y) P_{D(x)}(dy)

    with the density of D(x) expressed through the unit stable density
    (Zolotarev quadrature; closed form at beta = 1/2).  The (t-y)**-beta
    endpoint singularity is handled by weighted Gauss quadrature.  Where
    quad cannot find D(x)'s mass near y = x**(1/beta), EvaluationError is
    raised: where t x**(-1/beta) overflows, and below x t**(-2 beta) =
    10**(-10.8 - 4.2 beta) Gamma(1-beta)**2, 0.5 to 1 decade above where quad
    went wrong against the contour (10**-13.4 at beta = 1/2), in x t**(-2 beta)
    the same for t from 1e-8 to 1e8.  At t = 1 its error check also raises from
    x = 3e-4 (beta 0.05), 1e-8 (0.1) and 0.1 (0.99) down."""
    _unit_interval("stability index", beta)
    _positive("state", x)
    _positive("time", t)
    ln_gamma, ln_x, ln_t = gammaln(1.0 - beta), math.log(x), math.log(t)
    if (ln_x - 2.0 * beta * ln_t < 2.0 * ln_gamma - (10.8 + 4.2 * beta) * math.log(10.0)
            or max(ln_t, 0.0) - ln_x / beta > 709.78):  # t x**(-1/beta) overflows
        raise EvaluationError(f"x = {x!r} too small for the quadrature to find D(x) at t = {t!r}")
    scale = x ** (-1.0 / beta)  # D(x) =_d x**(1/beta) D(1)
    norm = math.exp(-ln_gamma)

    def smooth_part(y):
        return norm * scale * _stable_density(beta, y * scale)

    val, err = integrate.quad(
        smooth_part, 0.0, t,
        weight="alg", wvar=(0.0, -beta),
        epsabs=1e-12, epsrel=1e-10, limit=300,
    )
    if err > 1e-8 * max(1.0, abs(val)):
        raise EvaluationError(
            f"first-passage quadrature error {err:.2e} too large", partial=val
        )
    return max(val, 0.0)


def fpp_pmf_mixture(beta, lam, t, n):
    """P(N(t) = n) by conditioning on the inverse subordinator.

    Integrates e^{-lam x} (lam x)^n / n! h(x, t) over x in [0, X] on
    21-point Gauss-Kronrod panels that share their nodes across counts,
    with h(x, t) from the array form of the production density route
    (``inverse_stable_density`` row by row, at beta = 1/2 its contour sum
    where that passes its checks).  X is where the Chernoff bound on the
    dropped mass P(E(t) > X) falls to e^-40.  That bound, the panels'
    |Kronrod - Gauss| estimates and the density's own error estimate add
    up to the error, and a total outside [-error, 1 + error] raises
    EvaluationError.  beta = 1 degenerates to the Poisson pmf (h
    collapses to a point mass at t).
    """
    _unit_interval("order", beta, closed=True)
    _positive("time", t)
    _positive("rate", lam)
    n = _count("count", n)
    return _fpp_pmf_mixture_rows(beta, lam, t, [n])[0]


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): the nodes, the
# Kronrod weights, and the Kronrod minus the embedded 10-point Gauss weights
_GK_HALF = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
            0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
            0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
            0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
            0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_GK_KRONROD = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
               0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
               0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
               0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
               0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
               0.149445554002916905664936468389821)
_GK_GAUSS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
_GK_NODES = np.concatenate([-np.array(_GK_HALF), [0.0], _GK_HALF[::-1]])
_GK_WEIGHTS = np.array(_GK_KRONROD + _GK_KRONROD[-2::-1])
_GK_DIFF = _GK_WEIGHTS.copy()
_GK_DIFF[1:10:2] -= _GK_GAUSS
_GK_DIFF[11:20:2] -= _GK_GAUSS[::-1]

_MIXTURE_TAIL = 40.0  # the dropped mass P(E(t) > X) is at most exp(-40)
_MIXTURE_PANEL_TOL = 1e-13  # |Kronrod - Gauss| every row meets on an accepted panel
_MIXTURE_ROUNDS = 40
_MIXTURE_PANELS = 512  # open panels per round: 10 752 nodes, 10 MB per contour array


def _fpp_pmf_mixture_rows(beta, lam, t, ns):
    """[fpp_pmf_mixture(beta, lam, t, n) for n in ns] on one set of x nodes.

    The panels start with edges at 0, at t**beta 2**k (k >= -2) and at the
    marks max(n, 1)/lam below X.  Each round evaluates the density at the
    nodes of every open panel in one ``_inverse_stable_density_grid``
    call.  It accepts a panel when every row's |Kronrod - Gauss| is at
    most _MIXTURE_PANEL_TOL or at most the density's own error over the
    panel (the Kronrod sum of the Poisson weight times twice the kernel's
    error estimate), and bisects the others: refining further would only chase
    the small jump where the kernel hands over to the first-passage
    quadrature.  A row's error is the sum of both over its panels plus
    e^-40.  X solves

        P(E(t) > X) = P(D(X) < t) <= min_s exp(s t - X s**beta)
                    = exp(-(1 - beta)/beta t (X beta/t)**(1/(1 - beta))) = e^-40,

    so X = t**beta (40 beta/(1 - beta))**(1 - beta) / beta.  The counts
    are checked by the caller.
    """
    if beta == 1.0:
        return [math.exp(-lam * t + n * math.log(lam * t) - gammaln(n + 1)) for n in ns]
    scale = t ** beta
    top = scale * (_MIXTURE_TAIL * beta / (1.0 - beta)) ** (1.0 - beta) / beta
    if not 0.0 < top < math.inf:
        raise EvaluationError(f"mixture range {top} not representable at beta={beta}, t={t}")
    # top / scale <= 41, so 2**6 reaches past it
    marks = {max(n, 1) / lam for n in ns} | {scale * 2.0 ** k for k in range(-2, 7)}
    edges = np.array(sorted({0.0, top} | {m for m in marks if m < top}))
    counts = np.array(ns, dtype=float)[:, None]
    ln_coef = counts * math.log(lam) - gammaln(counts + 1.0)
    total = np.zeros(len(ns))
    err = np.full(len(ns), math.exp(-_MIXTURE_TAIL))
    lo, hi = edges[:-1], edges[1:]
    for _ in range(_MIXTURE_ROUNDS):
        if lo.size > _MIXTURE_PANELS:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        h, h_err = _inverse_stable_density_grid(beta, x, t)
        with np.errstate(over="ignore"):  # lam x = inf is a Poisson weight of 0
            poisson = np.exp(counts * np.log(x) - lam * x + ln_coef)
        f = (poisson * h).reshape(len(ns), lo.size, -1)
        if not np.isfinite(f).all():
            raise EvaluationError("mixture integrand not finite")
        kronrod = (f @ _GK_WEIGHTS) * half
        spread = np.abs((f @ _GK_DIFF) * half)
        # what the density's own error contributes over the panel, taken
        # as twice the spread of its two Talbot rules
        floor = 2.0 * ((poisson * h_err).reshape(f.shape) @ _GK_WEIGHTS) * half
        done = (spread <= np.maximum(floor, _MIXTURE_PANEL_TOL)).all(axis=0)
        total += kronrod[:, done].sum(axis=1)
        err += (spread + floor)[:, done].sum(axis=1)
        lo, hi = lo[~done], hi[~done]
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    if lo.size:
        raise EvaluationError(
            f"mixture quadrature left {lo.size} panels open at beta={beta}, lam={lam}, t={t}",
            partial=total.tolist(),
        )
    out = []
    for value, bound in zip(total.tolist(), err.tolist()):
        if not -bound <= value <= 1.0 + bound:
            raise EvaluationError(
                f"mixture pmf {value} outside [0, 1] beyond its error estimate {bound:.2e}",
                partial=value,
            )
        out.append(min(max(value, 0.0), 1.0))
    return out


# ---------------------------------------------------------------------------
# renewal mean
# ---------------------------------------------------------------------------

def renewal_mean(spec, lam, t):
    """M(t) = E[N_D(t)], by inverting lam/(s psi(s)).

    The stable case has the closed form lam t**beta / Gamma(1 + beta),
    which tests use as the oracle.
    """
    _positive("time", t)
    _positive("rate", lam)
    _require_spec(spec)

    def transform(s):
        return lam / (s * spec.psi(s))

    return _invert_talbot_array(transform, t, noise_floor=1e-12)


# ---------------------------------------------------------------------------
# pmf tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmfTable:
    """Truncated pmf with a rigorous bound on the discarded tail mass.

    rows hold (n, P(N(t) = n)) for n = 0..N*; tail_mass_bound bounds
    P(N(t) > N*) via the Chernoff inequality
    P(N(t) >= n) <= e^t (lam/(lam + psi(1)))**n, so the rows plus the
    bound account for all probability mass.
    """

    t: float
    params: dict
    rows: tuple
    tail_mass_bound: float

    def __post_init__(self):
        rows = tuple((int(n), float(p)) for n, p in self.rows)
        object.__setattr__(self, "rows", rows)
        if [n for n, _ in rows] != list(range(len(rows))):
            raise DomainError("rows must cover n = 0..N* contiguously")
        if any(p < 0.0 for _, p in rows):
            raise DomainError("probabilities must be nonnegative")
        _positive("time", self.t)
        _nonnegative("tail bound", self.tail_mass_bound)
        total = math.fsum(p for _, p in rows) + self.tail_mass_bound
        if not 1.0 - 1e-8 <= total <= 1.0 + 1e-8:
            raise DomainError(
                f"rows plus tail bound account for {total}, not 1 within 1e-8"
            )

    def to_csv(self):
        meta = " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                        for k, v in sorted(self.params.items()))
        lines = [
            f"# t={self.t!r} {meta} tail_mass_bound={self.tail_mass_bound!r}",
            "n,prob",
        ]
        lines += [f"{n},{p!r}" for n, p in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "t": self.t,
            "params": self.params,
            "rows": [[n, p] for n, p in self.rows],
            "tail_mass_bound": self.tail_mass_bound,
        }


def _truncation_index(lam, psi_one, t):
    if t > 709.782712893384:  # log of the largest double: math.exp(t) overflows
        raise EvaluationError(f"the Chernoff tail bound e^t overflows at t={t!r}")
    ratio = lam / (lam + psi_one)
    n = 1
    # design rule: ratio**N < 1e-10, and the Chernoff bound itself below 1e-9
    while ratio ** n >= 1e-10 or math.exp(t) * ratio ** (n + 1) >= 1e-9:
        n += 1
        if n > 100000:
            raise EvaluationError("pmf truncation index did not converge")
    return n, math.exp(t) * ratio ** (n + 1)


def _computed_table(t, params, rows, bound):
    """PmfTable from computed rows; a failed check is a numerical failure."""
    try:
        return PmfTable(t=t, params=params, rows=rows, tail_mass_bound=bound)
    except DomainError as exc:
        raise EvaluationError(f"computed pmf table is invalid: {exc}") from None


def fpp_pmf_table(beta, lam, t, params_extra=None):
    """Tabulate the fractional Poisson pmf with a certified tail bound.

    Row n is ``fpp_pmf(beta, lam, t, n)`` bit for bit, on the routes of
    ``_pmf_route`` taken in three array passes, and the table raises the
    error of the lowest failing count: (1) below the series switch one
    ``_series_rows`` pass at per-row gamma = n + 1, theta = beta n + 1;
    (2) above it blocks of ``_far_tail_screen``, after which only the rows
    whose floor may pass call ``_pmf_far_tail``; (3) one ``_general_pmf_rows``
    block for every row they reject.  n = 0, beta = 1, z = 0, the 0.0 rows
    and rows off the series' plain route are scalar ``fpp_pmf`` calls.
    """
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    _positive("time", t)
    n_star, bound = _truncation_index(lam, 1.0, t)  # psi(1) = 1 for any stable index
    rows = tuple(enumerate(_fpp_pmf_rows(beta, lam, t, n_star)))
    params = {"process": "fpp", "beta": beta, "lam": lam}
    if params_extra:
        params.update(params_extra)
    return _computed_table(t, params, rows, bound)


def _fpp_pmf_rows(beta, lam, t, n_star):
    """The rows of ``fpp_pmf_table``, n = 0..n_star, by the passes it describes."""
    rows = [None] * (n_star + 1)  # None: a scalar fpp_pmf call
    z = lam * t ** beta
    if beta < 1.0 and z > 0.0:
        ns = np.arange(1, n_star + 1)
        far, ok = _pmf_route(beta, z, ns)
        invert, ns = ns[~ok].tolist() if far else [], ns[ok]  # ~ok below the switch: fpp_pmf's 0.0
        if far:  # in blocks, which bound the (rows x 300) envelope arrays
            for near in np.split(ns, range(_TABLE_BLOCK, ns.size, _TABLE_BLOCK)):
                fails = _far_tail_screen(beta, z, near)
                invert += near[fails].tolist()
                for n in near[~fails].tolist():
                    try:
                        rows[n] = min(max(_pmf_far_tail(beta, z, n), 0.0), 1.0)
                    except EvaluationError:
                        invert.append(n)
        else:
            sums, tops = _series_rows(ns + 1.0, beta, beta * ns + 1.0, -z)
            for n, total, top in zip(ns.tolist(), sums.tolist(), tops.tolist()):
                rows[n] = None if math.isnan(total) else _pmf_from_series(z, n, total, top)
                if rows[n] is None and top != math.inf:  # the series raised, or rounds off
                    invert.append(n)
        inverted = _general_pmf_rows(Stable(beta), lam, t, np.array(invert), 1e-9) if invert else []
        for n, row in zip(invert, inverted):
            rows[n] = row
    return [fpp_pmf(beta, lam, t, n) if row is None else _row_value(row)
            for n, row in enumerate(rows)]


def general_pmf_table(spec, lam, t):
    """Tabulate the general-subordinator pmf with a certified tail bound."""
    _positive("rate", lam)
    _positive("time", t)
    if isinstance(spec, Stable):
        return fpp_pmf_table(spec.beta, lam, t, params_extra={"spec": spec_to_json(spec)})
    psi_one = laplace_exponent(spec, 1.0)
    n_star, bound = _truncation_index(lam, psi_one, t)
    rows = _general_pmf_rows(spec, lam, t, np.arange(n_star + 1), 1e-10)
    rows = tuple((n, _row_value(row, n)) for n, row in enumerate(rows))
    params = {"process": "timechange", "spec": spec_to_json(spec), "lam": lam}
    return _computed_table(t, params, rows, bound)
