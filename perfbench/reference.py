"""Reference values computed without fracpoisson, from mpmath and scipy.

Series are summed in mpmath at a working precision chosen from float
estimates of the largest term, so cancellation in the alternating sums
costs nothing; Laplace inversions use mpmath's own Talbot contour at 30
digits; the half-order forms use scipy.
"""

from __future__ import annotations

import math

import mpmath as mp
from scipy import integrate, special

_LN10 = math.log(10.0)


def _log10_rgamma_envelope(x):
    """log10 of a smooth bound on |1/Gamma(x)|: exact for x >= 1/2, and
    Gamma(1-x)/pi below, by reflection with |sin| <= 1.  Smooth, so the
    poles of Gamma do not make a term look negligible too early."""
    if x >= 0.5:
        return -math.lgamma(x) / _LN10
    return (math.lgamma(1.0 - x) - math.log(math.pi)) / _LN10


def _series(term_log10, make_term, digits=45):
    """Sum the terms for k = 0, 1, ... until the float magnitude estimate
    term_log10(k) is below 10**-digits and falling.

    ``make_term()`` is called at the working precision and returns the
    term function, so its inputs are rounded at that precision: these
    sums cancel by many orders and a float-rounded argument would not do.
    """
    k = 0
    peak = -math.inf
    prev = math.inf
    while True:
        lt = term_log10(k)
        peak = max(peak, lt)
        if k > 2 and lt < -digits and lt < prev:
            break
        prev = lt
        k += 1
        if k > 200_000:
            raise ArithmeticError("reference series did not settle")
    with mp.workdps(int(max(peak, 0.0) + digits + 20)):
        term = make_term()
        return +mp.fsum(term(j) for j in range(k + 1))


def prabhakar(gamma, alpha, theta, z, scale_log10=0.0, exact_z=None):
    """E^gamma_{alpha,theta}(z) = sum (gamma)_k z^k / (k! Gamma(alpha k + theta)).

    ``scale_log10`` is the log10 of a factor the caller multiplies the
    result by; the sum is carried to an absolute 1e-45 after that factor.
    ``exact_z()``, when given, returns z at the working precision.
    """
    lz = math.log10(abs(z)) if z != 0.0 else -math.inf

    def term_log10(k):
        return scale_log10 + (
            math.lgamma(gamma + k) - math.lgamma(gamma) - math.lgamma(k + 1.0)
        ) / _LN10 + (k * lz if k else 0.0) + _log10_rgamma_envelope(alpha * k + theta)

    def make_term():
        g, a, th = mp.mpf(gamma), mp.mpf(alpha), mp.mpf(theta)
        zz = exact_z() if exact_z is not None else mp.mpf(z)
        return lambda k: mp.rf(g, k) / mp.factorial(k) * zz ** k * mp.rgamma(a * k + th)

    return _series(term_log10, make_term)


def ml_one(beta, z):
    """E_beta(z); at beta = 1/2 and z <= 0 it is scipy's erfcx(-z)."""
    if beta == 0.5 and z <= 0.0:
        return float(special.erfcx(-z))
    return float(prabhakar(1.0, beta, 1.0, z))


def fpp_pmf(beta, lam, t, n):
    """P(N(t) = n) = z**n E^{n+1}_{beta, beta n + 1}(-z), z = lam t**beta."""
    def exact_z():
        return mp.mpf(lam) * mp.mpf(t) ** mp.mpf(beta)

    z = lam * t ** beta
    scale = n * math.log10(z)
    s = prabhakar(n + 1.0, beta, beta * n + 1.0, -z, scale_log10=scale,
                  exact_z=lambda: -exact_z())
    with mp.workdps(int(60 + abs(scale))):
        return float(exact_z() ** n * s)


def inverse_stable_density(beta, x, t):
    """h(x, t) = t**-beta M_beta(x t**-beta), M_beta the Wright function
    sum_k (-y)**k / (k! Gamma(1 - beta - beta k)); closed form at 1/2."""
    if beta == 0.5:
        return math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
    y = x * t ** (-beta)
    ly = math.log10(y)

    def term_log10(k):
        return k * ly - math.lgamma(k + 1.0) / _LN10 + _log10_rgamma_envelope(1.0 - beta - beta * k)

    def make_term():
        b = mp.mpf(beta)
        yy = mp.mpf(x) * mp.mpf(t) ** (-b)
        return lambda k: (-yy) ** k / mp.factorial(k) * mp.rgamma(1 - b - b * k)

    m = _series(term_log10, make_term)
    with mp.workdps(40):
        return float(mp.mpf(t) ** (-mp.mpf(beta)) * m)


def halforder_pmf(lam, t, n):
    """P(N(t) = n) at beta = 1/2 as the scipy quadrature of
    int_0^inf Poisson(n; lam x) exp(-x**2/(4t)) / sqrt(pi t) dx."""
    ln_norm = -0.5 * math.log(math.pi * t) - math.lgamma(n + 1.0) + n * math.log(lam)

    def integrand(x):
        if x <= 0.0:
            return 0.0 if n > 0 else math.exp(ln_norm)
        return math.exp(ln_norm + n * math.log(x) - lam * x - x * x / (4.0 * t))

    # the integrand peaks near the root of n/x = lam + x/(2t)
    peak = (-lam + math.sqrt(lam * lam + 2.0 * n / t)) * t
    edges = [0.0, peak, peak + 40.0 * math.sqrt(t) + 40.0 / lam]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)
            total += val
    val, _ = integrate.quad(integrand, edges[-1], math.inf, epsabs=1e-15, epsrel=1e-12, limit=400)
    return total + val


def psi(spec, s):
    """Laplace exponent of a spec given as its JSON dict, in mpmath."""
    kind = spec["variant"]
    if kind == "Stable":
        return s ** mp.mpf(spec["beta"])
    if kind == "TemperedStable":
        a, b = mp.mpf(spec["a"]), mp.mpf(spec["beta"])
        return (s + a) ** b - a ** b
    if kind == "StableMixture":
        return mp.fsum(mp.mpf(w) * s ** mp.mpf(b) for w, b in zip(spec["weights"], spec["betas"]))
    if kind == "DistributedOrder":
        # int_0^1 b**m s**b db = I_m with I_0 = (s - 1)/L, L = log s, and
        # I_m = (s - m I_{m-1})/L by parts
        L = mp.log(s)
        moment = (s - 1) / L
        total = 0
        for m, c in enumerate(spec.get("poly", [1.0])):
            if m:
                moment = (s - m * moment) / L
            total += mp.mpf(c) * moment
        return total
    raise ValueError(f"unknown spec {spec!r}")


def invert(transform, t):
    """mpmath Talbot inversion at 30 digits."""
    with mp.workdps(30):
        return float(mp.invertlaplace(transform, t, method="talbot"))


def general_pmf(spec, lam, t, n):
    """P(N(t) = n) by inverting psi(s)/s lam**n / (lam + psi(s))**(n+1)."""
    def transform(s):
        p = psi(spec, s)
        return p / s * mp.mpf(lam) ** n / (lam + p) ** (n + 1)

    return invert(transform, t)


def renewal_mean(spec, lam, t):
    """E[N(t)] by inverting lam / (s psi(s))."""
    return invert(lambda s: lam / (s * psi(spec, s)), t)
