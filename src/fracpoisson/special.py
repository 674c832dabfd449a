"""Mittag-Leffler type special functions.

The public functions are scalar, pure, and thread-safe, and take finite
arguments only.  The one-parameter function ``ml_one`` and the
three-parameter (Prabhakar) function ``prabhakar`` are evaluated by
their defining power series on a bounded disk and by algebraic
asymptotic expansions deep on the negative axis.
Series summation uses exact compensated accumulation (``math.fsum``) so
truncation, not rounding, dominates the error.  One private array
kernel, ``_series_rows``, sums the same series for many ``z`` at once,
bit for bit as the scalar loops do; ``distributions`` samples pmf grids
with it.

Accuracy notes
--------------
The power series in double precision suffers catastrophic cancellation
once the largest term reaches ``exp(|z|**(1/beta))``, so the switch to
the asymptotic branch is capped at ``|z| = 18.4**beta`` (where both
branches deliver roughly 1e-8 absolute error) rather than at a fixed
radius.  Near that crossover the absolute error is about 1e-8 for
``beta <= 0.7`` and up to a few 1e-7 as ``beta`` approaches 1; relative
error at the crossover degrades for ``beta >= 0.9`` because the function
itself becomes exponentially small there.

One routine, ``_asymptotic_series``, sums the asymptotic expansion for
``ml_one``, ``prabhakar`` and the far-tail pmf of ``distributions``.  It
truncates at the smallest term of a pole-free envelope, so the absolute
error of the asymptotic branch is about that envelope floor; ``prabhakar``
and the far-tail pmf raise ``EvaluationError`` when the floor is too
coarse for the value, ``ml_one`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import DomainError, EvaluationError, _count, _nonnegative, _positive, _unit_interval

__all__ = [
    "SeriesControl",
    "ml_one",
    "prabhakar",
    "ml_waiting_survival",
    "ml_waiting_pdf",
]

# Largest x with Gamma(x) finite in double precision.
_GAMMA_OVERFLOW = 171.0
# exp(G) * eps ~ exp(-G): cancellation/truncation balance point.
_CANCEL_BUDGET = 18.4


@dataclass(frozen=True)
class SeriesControl:
    """Tuning knobs for the series evaluations.

    abs_tol
        Absolute truncation target for series tails.
    max_terms
        Hard cap on the number of series terms.
    asymptotic_switch
        ``|z|`` above which the asymptotic branch is preferred.  The
        effective switch is ``min(asymptotic_switch, 18.4**beta, budget)``
        where the last two caps keep the power series inside its
        double-precision cancellation and term budgets.
    """

    abs_tol: float = 1e-12
    max_terms: int = 500
    asymptotic_switch: float = 10.0

    def __post_init__(self):
        _positive("abs_tol", self.abs_tol)
        object.__setattr__(self, "max_terms", _count("max_terms", self.max_terms, least=10))
        _positive("asymptotic_switch", self.asymptotic_switch)


_DEFAULT_CONTROL = SeriesControl()


def _effective_switch(beta: float, control: SeriesControl) -> float:
    # Cancellation cap: the largest power-series term is ~exp(|z|**(1/beta)).
    cancel = _CANCEL_BUDGET ** beta
    # Convergence-budget cap: the series needs ~e*|z|**(1/beta)/beta terms.
    budget = (max(beta * (control.max_terms - 50) / math.e, 1e-3)) ** beta
    return min(control.asymptotic_switch, cancel, budget)


def _ml_power_series(beta: float, z: float, control: SeriesControl) -> float:
    stop = 1e-3 * control.abs_tol
    terms = [1.0]
    zk = 1.0
    small = 0
    for k in range(1, control.max_terms):
        zk *= z
        arg = 1.0 + beta * k
        if arg < _GAMMA_OVERFLOW and math.isfinite(zk):
            t = zk * rgamma(arg)
        else:
            mag = math.exp(k * math.log(abs(z)) - gammaln(arg)) if z != 0.0 else 0.0
            t = -mag if (z < 0.0 and k % 2) else mag
        terms.append(t)
        small = small + 1 if abs(t) < stop else 0
        if small >= 3:
            return math.fsum(terms)
    raise EvaluationError(
        f"Mittag-Leffler series did not converge in {control.max_terms} terms "
        f"(beta={beta}, z={z})",
        partial=math.fsum(terms),
    )


def _asymptotic_series(g, h, alpha, theta, lx, n_terms, reflect=False):
    """Optimally truncated algebraic expansion deep on the negative axis.

    Sums sum_k (-1)^k (g)_k / k! * x^-(h+k) / Gamma(theta - alpha (h+k))
    over k < n_terms, with ``lx = log x``: the asymptotic series of
    ``ml_one`` (g = h = theta = 1), of ``prabhakar`` (h = g) and of the
    far-tail pmf (g = n + 1, h = theta = 1).  The sum stops at the
    smallest term of a pole-free envelope, or earlier once the envelope
    falls below 1e-18.  The envelope bounds |1/Gamma(y)| by
    Gamma(1-y)/pi (reflection, |sin| <= 1), except that it takes the
    exact value where y >= 1/2 unless ``reflect`` is set.  Returns
    (total, ln_floor), ln_floor being the log of the smallest envelope
    term, which is about the absolute error.
    """
    ks = np.arange(float(n_terms))
    m = h + ks
    y = theta - alpha * m
    cut = math.inf if reflect else 0.5
    env = np.where(
        y >= cut,
        -gammaln(np.maximum(y, 0.5)),
        gammaln(1.0 - np.minimum(y, cut)) - math.log(math.pi),
    )
    ln_env = gammaln(g + ks) - gammaln(g) - gammaln(ks + 1.0) - m * lx + env
    kstar = int(np.argmin(ln_env))
    deep = np.nonzero(ln_env < math.log(1e-18))[0]
    if deep.size:
        kstar = min(kstar, int(deep[0]))
    # float(): a term whose 1/Gamma overflows turns inf or nan without a
    # numpy warning; a caller that can reach such terms checks the sum
    terms = [
        (-1.0) ** k
        * math.exp(gammaln(g + k) - gammaln(g) - gammaln(k + 1.0) - (h + k) * lx)
        * float(rgamma(theta - alpha * (h + k)))
        for k in range(kstar + 1)
    ]
    return math.fsum(terms), float(np.min(ln_env))


def ml_one(beta: float, z: float, control: SeriesControl | None = None) -> float:
    """One-parameter Mittag-Leffler function ``E_beta(z)``.

    ``E_beta(z) = sum_k z^k / Gamma(1 + beta k)``, the stretched-
    exponential generalization of ``exp``; for negative arguments it is
    completely monotone and interpolates between a stretched exponential
    near zero and the power tail ``-1/(z Gamma(1-beta))``.

    Parameters
    ----------
    beta : float
        Order, in ``(0, 1]``.  ``beta = 1`` is routed to ``exp``.
    z : float
        Finite real argument.  Arbitrary ``z <= 0``; positive ``z`` only
        within the power-series radius (see ``SeriesControl``).
    control : SeriesControl, optional
        Series evaluation controls.

    Raises
    ------
    DomainError
        If ``beta`` is outside ``(0, 1]``, ``z`` is not finite, or
        positive ``z`` exceeds the supported series radius.
    EvaluationError
        If the series fails to converge within ``max_terms``; the
        exception carries the partial sum.
    """
    ctrl = control or _DEFAULT_CONTROL
    _unit_interval("order", beta, closed=True)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if beta == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0
    switch = _effective_switch(beta, ctrl)
    if z > 0.0:
        if z > switch:
            raise DomainError(
                f"positive z={z} exceeds the supported series radius {switch:.3g} "
                f"for beta={beta}"
            )
        return _ml_power_series(beta, z, ctrl)
    if -z <= switch:
        return _ml_power_series(beta, z, ctrl)
    # E_beta(-x) ~ sum_{k=1}^{N-1} (-1)^{k+1} x^{-k} / Gamma(1 - beta k) with
    # N = max(max_terms, 300), truncated on the reflection bound
    # x^{-k} Gamma(beta k)/pi for every term (the exact head of the envelope
    # would drop a ~1e-18 term at some beta < 0.2 and change the last bits)
    total, _ = _asymptotic_series(
        1.0, 1.0, beta, 1.0, math.log(-z), max(ctrl.max_terms, 300) - 1, reflect=True
    )
    return total


def prabhakar(
    gamma: float,
    alpha: float,
    theta: float,
    z: float,
    control: SeriesControl | None = None,
) -> float:
    """Three-parameter (Prabhakar) Mittag-Leffler function.

    ``E^gamma_{alpha,theta}(z) = sum_r (gamma)_r z^r / (r! Gamma(alpha r + theta))``
    with ``(gamma)_r`` the rising factorial.  ``gamma = 1`` reduces to the
    two-parameter function ``E_{alpha,theta}``; ``gamma = theta = 1`` to
    ``E_alpha``.

    Deep on the negative axis (beyond the series switch) the value comes
    from the algebraic asymptotic expansion; absolute accuracy there is
    the optimal-truncation floor, roughly ``exp(-|z|**(1/alpha))`` up to
    a combinatorial factor, so relative accuracy degrades for values
    below that floor.

    Parameters
    ----------
    gamma, alpha, theta : float
        Finite positive shape parameters (the asymptotic branch needs
        ``alpha < 1``; otherwise only the series disk is supported).
    z : float
        Finite real argument; arbitrary ``z <= 0``, positive ``z`` within
        the series convergence budget.
    control : SeriesControl, optional
        Series evaluation controls.
    """
    ctrl = control or _DEFAULT_CONTROL
    for name, value in (("gamma", gamma), ("alpha", alpha), ("theta", theta)):
        _positive(name, value)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if alpha < 1.0 and z < -_effective_switch(alpha, ctrl):
        # E^g_{a,th}(-x) ~ sum_k (-1)^k (g)_k / k! * x^{-g-k} / Gamma(th - a(g+k)),
        # the term-wise inverse transform of the s -> 0 binomial expansion
        # of s^{a g - th} (s^a + x)^{-g}; absolute error about the floor
        total, ln_floor = _asymptotic_series(
            gamma, gamma, alpha, theta, math.log(-z), max(ctrl.max_terms, 300)
        )
        floor = math.exp(ln_floor)
        if floor > 1e-6 * max(1.0, abs(total)):
            raise EvaluationError(
                f"asymptotic truncation floor {floor:.2e} too large at z={z} "
                f"(gamma={gamma}, alpha={alpha}, theta={theta})",
                partial=total,
            )
        return total
    return _prabhakar_series(gamma, alpha, theta, z, ctrl)[0]


def _prabhakar_series(gamma, alpha, theta, z, ctrl):
    """(sum, largest |term|) of the defining series, raising as ``prabhakar`` does."""
    stop = 1e-3 * ctrl.abs_tol
    lgamma0 = gammaln(gamma)
    terms = []
    poch_over_fact = 1.0  # (gamma)_r / r!
    zk = 1.0
    small = 0
    max_mag = 0.0
    prev_mag = math.inf
    converged = False
    for r in range(ctrl.max_terms):
        arg = alpha * r + theta
        if arg < _GAMMA_OVERFLOW and math.isfinite(poch_over_fact) and math.isfinite(zk):
            t = poch_over_fact * zk * rgamma(arg)
        else:
            ln_mag = (
                gammaln(gamma + r)
                - lgamma0
                - gammaln(r + 1.0)
                + (r * math.log(abs(z)) if z != 0.0 else -math.inf)
                - gammaln(arg)
            )
            mag = math.exp(ln_mag)
            t = -mag if (z < 0.0 and r % 2) else mag
        terms.append(t)
        # For large theta the terms start far below any absolute cutoff
        # and climb for many orders before decaying, so a term only counts
        # as negligible once magnitudes stop growing and it sits below the
        # roundoff scale of the largest term seen.
        mag_t = abs(t)
        max_mag = max(max_mag, mag_t)
        small = (
            small + 1
            if (mag_t <= prev_mag and mag_t <= stop * min(1.0, max_mag))
            else 0
        )
        prev_mag = mag_t
        if small >= 3:
            converged = True
            break
        poch_over_fact *= (gamma + r) / (r + 1.0)
        zk *= z
    total = math.fsum(terms)
    if not converged:
        raise EvaluationError(
            f"Prabhakar series did not converge in {ctrl.max_terms} terms "
            f"(gamma={gamma}, alpha={alpha}, theta={theta}, z={z})",
            partial=total,
        )
    if _cancels(total, max_mag):
        raise EvaluationError(
            f"Prabhakar series cancellation exceeds tolerance at z={z} "
            f"(noise ~ {max_mag * 1.1e-16:.2e})",
            partial=total,
        )
    return total, max_mag


def _cancels(total, max_mag):
    """Whether a series summed to total from terms up to max_mag lost too
    much to rounding for ``prabhakar``."""
    return max_mag * 1.1e-16 > 1e-6 * max(1.0, abs(total))


_SERIES_BLOCK = 1 << 12  # terms per array of series rows, 32 kB: faster and leaner than 0.5 MB


def _series_rows(gamma, alpha, theta, zs, ml=False):
    """``_prabhakar_series`` at every z of zs, bit for bit, from array passes.

    Returns (totals, max_mags) as float arrays.  The columns follow the
    scalar loop's arithmetic: the coefficients (gamma)_r / r! and
    1/Gamma(alpha r + theta) are its recurrences computed once, z**r is a
    row cumprod, each term is (coefficient * z**r) / Gamma in that order,
    and each row is summed with ``math.fsum`` up to the index where the
    scalar loop stops.  With ``ml`` the rows are ``_ml_power_series``
    (gamma = theta = 1, alpha = beta): the same terms under its own stop
    rule and with no cancellation guard.  A row that the scalar loop would
    not sum this way is NaN in both arrays: one that reaches the lgamma
    branch or a non-finite term before it stops, does not stop within
    ``max_terms``, or fails the cancellation guard.
    """
    ctrl = _DEFAULT_CONTROL
    stop = 1e-3 * ctrl.abs_tol
    zs = np.asarray(zs, dtype=float)
    totals = np.full(zs.size, np.nan)
    max_mags = np.full(zs.size, np.nan)
    r = np.arange(ctrl.max_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.cumprod(np.concatenate(([1.0], (gamma + r[:-1]) / (r[:-1] + 1.0))))
        arg = alpha * r + theta
        rg = rgamma(arg)
        plain = (arg < _GAMMA_OVERFLOW) & np.isfinite(coef)
        # most rows stop within 64 terms; only the others are widened
        pending, width = np.arange(zs.size), min(64, ctrl.max_terms)
        while pending.size:
            longer = []
            block = max(1, _SERIES_BLOCK // width)
            for lo in range(0, pending.size, block):
                rows = pending[lo:lo + block]
                terms, running, ends = _series_block(
                    zs[rows], coef[:width], rg[:width], plain[:width], stop, ml
                )
                for i, row, top, end in zip(rows.tolist(), terms, running, ends.tolist()):
                    if end == width:
                        longer.append(i)
                    elif end >= 0:
                        total = math.fsum(row[: end + 1].tolist())
                        if ml or not _cancels(total, top[end]):
                            totals[i], max_mags[i] = total, top[end]
            if width == ctrl.max_terms:
                break
            pending, width = np.array(longer, dtype=int), min(4 * width, ctrl.max_terms)
    return totals, max_mags


def _series_block(z, coef, rg, plain, stop, ml):
    """(terms, running max |term|, stop index) of the series rows at z.

    The stop index is the last term the scalar loop sums, -1 where a row
    leaves the plain route (lgamma branch, non-finite term) at or before
    it, and the width where a row on the plain route has not stopped.
    """
    width = coef.size
    zk = np.empty((z.size, width))
    zk[:, 0] = 1.0
    zk[:, 1:] = z[:, None]
    np.cumprod(zk, axis=1, out=zk)
    terms = coef * zk
    terms *= rg
    mag = np.abs(terms)
    running = np.maximum.accumulate(mag, axis=1)
    if ml:
        small = mag < stop
    else:
        prev = np.empty_like(mag)
        prev[:, 0] = np.inf
        prev[:, 1:] = mag[:, :-1]
        small = (mag <= prev) & (mag <= stop * np.minimum(1.0, running))
    # the scalar loops stop at the third small term in a row
    third = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    ends = np.where(third.any(axis=1), third.argmax(axis=1) + 2, width)
    off = ~(plain & np.isfinite(zk) & np.isfinite(terms))
    firsts = np.where(off.any(axis=1), off.argmax(axis=1), width)
    return terms, running, np.where((firsts < width) & (firsts <= ends), -1, ends)


def ml_waiting_survival(beta: float, lam: float, t: float) -> float:
    """Survival function ``P(J > t) = E_beta(-lam t^beta)`` of a
    Mittag-Leffler waiting time with order ``beta``, finite rate ``lam``."""
    _positive("rate", lam)
    _nonnegative("time", t)
    return ml_one(beta, -lam * t**beta)  # ml_one checks beta; E_beta(0) = 1


def ml_waiting_pdf(beta: float, lam: float, t: float) -> float:
    """Density ``lam t^{beta-1} E_{beta,beta}(-lam t^beta)`` of the
    Mittag-Leffler waiting time; unbounded at ``t = 0`` for ``beta < 1``."""
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    _positive("time", t)
    if beta == 1.0:
        return lam * math.exp(-lam * t)
    return lam * t ** (beta - 1.0) * prabhakar(1.0, beta, beta, -lam * t**beta)
