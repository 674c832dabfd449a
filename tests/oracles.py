"""Independent reference values in mpmath, for the tests.

mpmath is a test dependency: a test calls ``pytest.importorskip("mpmath")``
before it uses these, so that it skips where mpmath is missing.
"""

import math


def fpp_pmf_series(beta, z, n, digits=20):
    """P(N = n) = sum_k (-1)**k C(n+k, k) z**(n+k) / Gamma(beta (n+k) + 1)
    at z = lam t**beta, as an mpf; n = 0 gives E_beta(-z).

    The terms climb to about exp(z**(1/beta)) before they fall and cancel,
    so the working precision is sized from the largest term, z**n factor
    included, and then ``digits`` more; beta (n+k) is formed in mpmath,
    where a double's 1e-16 would be multiplied by that largest term.
    """
    import mpmath

    def ln_term(k):
        return (math.lgamma(n + k + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n + 1.0)
                + (n + k) * math.log(z) - math.lgamma(beta * (n + k) + 1.0))

    # the log-terms are concave in k: walk up to the peak
    peak, ln_top = 0, ln_term(0)
    while ln_term(peak + 1) > ln_top:
        peak, ln_top = peak + 1, ln_term(peak + 1)
    dps = max(0, int(ln_top / math.log(10.0))) + digits + 10
    with mpmath.workdps(dps):
        b, x = mpmath.mpf(beta), mpmath.mpf(z)
        total, tiny = mpmath.mpf(0), mpmath.mpf(10) ** -(digits + 10)
        for k in range(10 ** 6):
            m = n + k
            term = (-1) ** k * mpmath.binomial(m, k) * x ** m * mpmath.rgamma(b * m + 1)
            total += term
            if k > peak and abs(term) < tiny:
                return +total
    raise ArithmeticError(f"the series did not fall below 1e-{digits + 10} in 1e6 terms")
