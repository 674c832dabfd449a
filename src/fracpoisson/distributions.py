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
    _DEFAULT_CONTROL,
    _asymptotic_series,
    _effective_switch,
    _prabhakar_series,
    _series_rows,
    ml_waiting_survival,
)
from .transforms import (
    DistributedOrder,
    Stable,
    _ContourOverflow,
    _invert_talbot_array,
    _power,
    _require_spec,
    _talbot_contour,
    _talbot_result,
    _talbot_rule,
    _talbot_sum,
    integrate,
    laplace_exponent,
    laplace_invert,
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
    if z > _effective_switch(beta, _DEFAULT_CONTROL):
        try:
            return min(max(_pmf_far_tail(beta, z, n), 0.0), 1.0)
        except EvaluationError:
            return _pmf_by_inversion(beta, lam, t, n)
    if n * math.log(z) > 700.0:
        # With z capped by the series switch (<= 18.4**beta), an
        # overflowing prefactor forces beta*n > 240, and then
        # log p <= n log z - lgamma(beta n + 1) < -370: the true value
        # sits far below the 1e-10 absolute floor of every branch.
        return 0.0
    try:
        series, max_term = _prabhakar_series(n + 1.0, beta, beta * n + 1.0, -z, _DEFAULT_CONTROL)
    except EvaluationError:
        return _pmf_by_inversion(beta, lam, t, n)
    value = _pmf_from_series(z, n, series, max_term)
    return _pmf_by_inversion(beta, lam, t, n) if value is None else value


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
        switch = _effective_switch(beta, _DEFAULT_CONTROL)
        points = []
        for i, t in enumerate(ts):
            if 0.0 < t < math.inf:
                z = lam * t ** beta
                if 0.0 < z <= switch and n * math.log(z) <= 700.0:
                    points.append((i, z))
        if points:
            # n = 0 is ml_one's power series: the same terms, its own stop rule
            sums, tops = _series_rows(
                n + 1.0, beta, beta * n + 1.0, [-z for _, z in points], ml=n == 0
            )
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
    if n > 4.0 * z:
        raise EvaluationError(
            f"count n={n} too large relative to z={z} for the far-tail expansion"
        )
    try:
        total, ln_floor = _asymptotic_series(n + 1.0, 1.0, beta, 1.0, math.log(z), 300)
    except (ValueError, OverflowError):  # math.fsum of +inf and -inf, or overflow
        total = math.nan
    if not math.isfinite(total):
        raise EvaluationError(f"far-tail sum is not finite at z={z}, n={n}")
    floor = math.exp(ln_floor)
    if floor > max(1e-10, 1e-6 * abs(total)):
        raise EvaluationError(
            f"far-tail truncation floor {floor:.2e} too large at z={z}, n={n}",
            partial=total,
        )
    return total


def _pmf_by_inversion(beta, lam, t, n):
    """Pmf via contour inversion with the transform built in log space.

    Covers the regimes the closed form cannot reach in floating point:
    counts comparable to or beyond lam t**beta at large times, where both
    z**n and lam**n overflow long before the pmf value does.
    """
    value = _invert_with_fallback(
        lambda s: _pmf_transform(_power(s, beta), s, lam, n), t, noise_floor=1e-9
    )
    return min(max(value, 0.0), 1.0)


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


def _invert_with_fallback(F, t, noise_floor=0.0):
    """Talbot on the node array first; where its noise guard fails, retry
    with Gaver-Stehfest.  A transform that overflows on the contour is an
    error, not retried."""
    try:
        return _invert_talbot_array(F, t, noise_floor)
    except _ContourOverflow:
        raise
    except EvaluationError as first:
        return _stehfest_retry(F, t, noise_floor, first)


def _stehfest_retry(F, t, noise_floor, first):
    """Gaver-Stehfest inversion after the Talbot failure first; F is
    called at real scalars."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return laplace_invert(F, t, method="stehfest", noise_floor=noise_floor)
    except EvaluationError as second:
        raise EvaluationError(
            f"both inversion methods failed: talbot ({first}), "
            f"stehfest ({second})"
        ) from second


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
    return _general_pmf_rows(spec, lam, t, n, n + 1)[0]


_TABLE_BLOCK = 2048  # counts per array of contour terms, 1 MB at 32 nodes


def _general_pmf_rows(spec, lam, t, first, stop):
    """general_pmf(spec, lam, t, n) for n in range(first, stop), from one psi call.

    The transforms of the counts form (counts x nodes) arrays on one
    Talbot contour.  Each row keeps its own noise guard; a row that fails
    it is retried with Gaver-Stehfest alone, and a row whose transform
    overflows on the contour raises.
    """
    noise_floor = 1e-10
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, weights = _talbot_rule(t)
        psi = spec.psi(s)
    out = []
    for lo in range(first, stop, _TABLE_BLOCK):
        counts = np.arange(lo, min(lo + _TABLE_BLOCK, stop))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = weights * _pmf_transform(psi, s, lam, counts[:, None])
        for n, row in zip(counts.tolist(), terms):
            try:
                value = _talbot_sum(row, t, noise_floor)
            except _ContourOverflow:
                raise
            except EvaluationError as exc:
                value = _stehfest_retry(
                    lambda x: _pmf_transform(spec.psi(x), x, lam, n), t, noise_floor, exc
                )
            out.append(min(max(value, 0.0), 1.0))
    return out


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

    value = _invert_with_fallback(transform, t, noise_floor=1e-10)
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

    is evaluated by adaptive quadrature, at any finite v.
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
    scale = v ** (-beta / (1.0 - beta))

    def integrand(u):
        a = _zolotarev_a(beta, math.pi * u)
        arg = a * scale
        if arg > 700.0:
            return 0.0
        return a * math.exp(-arg)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200)
    out = beta / (1.0 - beta) * v ** (-1.0 / (1.0 - beta)) * val
    if not math.isfinite(out):
        raise EvaluationError(f"stable density quadrature failed at v={v}")
    return out


_DENSITY_RULES = (32, 28)  # node counts of the two Talbot rules that must agree


@functools.lru_cache(maxsize=16)
def _density_contour(beta, t):
    """log(g_k s_k**(beta-1)), s_k**beta and (beta-1) log|s_k| over the
    nodes of each rule in _DENSITY_RULES in turn, for the transform
    s**(beta-1) exp(-x s**beta) of h(x, t)."""
    rules = [_talbot_contour(t, m) for m in _DENSITY_RULES]
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
    one array.
    """
    _unit_interval("stability index", beta)
    _positive("state", x)
    _positive("time", t)
    if beta == 0.5:
        return inverse_stable_density_quadrature(beta, x, t)
    ln_factor, s_beta, ln_power = _density_contour(beta, t)
    xs = x * s_beta
    expo = ln_factor - xs
    # The transform overflowing on the contour (Re w > 700), or a term as
    # large as that, leaves nothing the noise guard would accept.
    if (ln_power - xs.real).max() > 700.0 or expo.real.max() > 700.0:
        return inverse_stable_density_quadrature(beta, x, t)
    terms = np.exp(expo)
    re, mag = terms.real, np.abs(terms)
    cut = _DENSITY_RULES[0]
    # In the far field (x well past the bulk of h(., t)) the true value
    # sits below what the contour sum can resolve: both roundoff and the
    # M-term discretization error dwarf it.  Roundoff is caught by the
    # noise guard; discretization is caught by demanding two node counts
    # agree.  Either failure reroutes to the first-passage quadrature,
    # which stays accurate at any x.
    try:
        v32 = _talbot_result(float(re[:cut].sum()), float(mag[:cut].max()), t, 1e-9)
        v28 = _talbot_result(float(re[cut:].sum()), float(mag[cut:].max()), t, 1e-9)
    except EvaluationError:
        return inverse_stable_density_quadrature(beta, x, t)
    if abs(v32 - v28) > max(1e-9, 1e-7 * abs(v32)):
        return inverse_stable_density_quadrature(beta, x, t)
    return max(v32, 0.0)


def inverse_stable_density_quadrature(beta, x, t):
    """h(x, t) by the first-passage representation, an independent route.

    Integrates the defining identity

        h(x, t) = int_0^t levy_tail(t - y) P_{D(x)}(dy)

    with the density of D(x) expressed through the unit stable density
    (Zolotarev quadrature; closed form at beta = 1/2).  The (t-y)**-beta
    endpoint singularity is handled by weighted Gauss quadrature.
    """
    _unit_interval("stability index", beta)
    _positive("state", x)
    _positive("time", t)
    scale = x ** (-1.0 / beta)  # D(x) =_d x**(1/beta) D(1)
    norm = math.exp(-gammaln(1.0 - beta))

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

    Evaluates int_0^inf e^{-lam x} (lam x)^n / n! h(x, t) dx against the
    production density route; beta = 1 degenerates to the Poisson pmf
    (h collapses to a point mass at t).
    """
    _unit_interval("order", beta, closed=True)
    _positive("time", t)
    _positive("rate", lam)
    n = _count("count", n)
    if beta == 1.0:
        return math.exp(-lam * t + n * math.log(lam * t) - gammaln(n + 1))

    log_lam = math.log(lam)

    def integrand(x):
        log_pois = -lam * x + n * (log_lam + math.log(x)) - gammaln(n + 1)
        if log_pois < -700.0:
            return 0.0
        return math.exp(log_pois) * inverse_stable_density(beta, x, t)

    # h(x, t) concentrates on x of order t**beta; the Poisson factor peaks
    # near n/lam.  Split at both scales so the adaptive rule sees them.
    marks = sorted({t ** beta, max(n, 1) / lam})
    total = 0.0
    err = 0.0
    for lo, hi in zip([0.0] + marks, marks + [np.inf]):
        val, e = integrate.quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-9, limit=200)
        total += val
        err += e
    if not (math.isfinite(total) and -err <= total <= 1.0 + err):
        raise EvaluationError(
            f"mixture pmf {total} outside [0, 1] beyond its error estimate {err:.2e}",
            partial=total,
        )
    return min(max(total, 0.0), 1.0)


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

    return _invert_with_fallback(transform, t, noise_floor=1e-12)


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
    """Tabulate the fractional Poisson pmf with a certified tail bound."""
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    _positive("time", t)
    n_star, bound = _truncation_index(lam, 1.0, t)  # psi(1) = 1 for any stable index
    rows = tuple((n, fpp_pmf(beta, lam, t, n)) for n in range(n_star + 1))
    params = {"process": "fpp", "beta": beta, "lam": lam}
    if params_extra:
        params.update(params_extra)
    return _computed_table(t, params, rows, bound)


def general_pmf_table(spec, lam, t):
    """Tabulate the general-subordinator pmf with a certified tail bound."""
    _positive("rate", lam)
    _positive("time", t)
    if isinstance(spec, Stable):
        return fpp_pmf_table(spec.beta, lam, t, params_extra={"spec": spec_to_json(spec)})
    psi_one = laplace_exponent(spec, 1.0)
    n_star, bound = _truncation_index(lam, psi_one, t)
    rows = tuple(enumerate(_general_pmf_rows(spec, lam, t, 0, n_star + 1)))
    params = {"process": "timechange", "spec": spec_to_json(spec), "lam": lam}
    return _computed_table(t, params, rows, bound)
