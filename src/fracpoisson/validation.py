"""Statistical tests and the named identity-check suites.

Each suite re-derives one block of closed-form claims by an independent
route (simulation against transforms, quadrature against inversion,
stencils against analytic solutions) and reports observed statistics
next to their thresholds.  Reports are deterministic functions of
(suite, seed): every stochastic case draws from its own counter-based
stream, so case order does not matter.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaln, kolmogorov, xlog1py, xlogy

from .distributions import (
    _fpp_pmf_mixture_rows,
    distributed_order_survival_kochubei,
    fpp_pmf,
    general_pmf,
    inverse_stable_density,
    pmf_laplace,
    waiting_survival_general,
)
from .errors import DomainError, _count, _nonnegative
from .fraccalc import SampledFunction, caputo, governing_residual
from .processes import _ctrw_positions, _prelimit_values
from .samplers import (
    RngStream,
    sample_brownian_running_max,
    sample_inverse_stable_marginal,
    sample_ml_waiting,
    sample_tempered_ml_waiting,
)
from .special import ml_one, prabhakar
from .transforms import (
    DistributedOrder,
    JumpDist,
    Stable,
    StableMixture,
    TemperedStable,
    bern_identity_check,
    laplace_exponent,
    laplace_forward,
    laplace_invert,
)

__all__ = [
    "KSResult",
    "ks_two_sample",
    "empirical_laplace",
    "SuiteCase",
    "SuiteReport",
    "run_suite",
    "SUITE_NAMES",
]


# ---------------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSResult:
    """Two-sample KS statistic with its asymptotic p-value."""

    statistic: float
    p_value: float
    n1: int
    n2: int


def ks_two_sample(a, b):
    """Exact sup-distance of two empirical CDFs with asymptotic p-value.

    The supremum of |F1 - F2| over the line is attained at a data point
    when both CDFs are evaluated from the right, so scanning the merged
    sample gives the exact statistic.  The p-value uses the asymptotic
    Kolmogorov distribution at the two-sample effective size
    n1 n2 / (n1 + n2); samples must be finite and large enough (>= 25
    each) for that asymptotic to be meaningful.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n1, n2 = a.size, b.size
    if n1 < 25 or n2 < 25 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError(
            f"need at least 25 finite points per sample for the asymptotic "
            f"p-value, got {n1} and {n2}"
        )
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n1
    cdf_b = np.searchsorted(b, grid, side="right") / n2
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(n1 * n2 / (n1 + n2))
    return KSResult(stat, float(kolmogorov(stat * effective)), n1, n2)


def empirical_laplace(samples, s):
    """Mean and standard error of exp(-s X) over finite samples, finite s >= 0."""
    _nonnegative("transform argument", s)
    samples = np.asarray(samples, dtype=float).ravel()
    if not np.isfinite(samples).all():
        raise DomainError("samples must be finite")
    vals = np.exp(-s * samples)
    n = vals.size
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# suite report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteCase:
    """One named check: the observed statistic against its threshold."""

    name: str
    observed: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [
                {
                    "name": c.name,
                    "observed": c.observed,
                    "threshold": c.threshold,
                    "pass": bool(c.passed),
                }
                for c in self.cases
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _case(name, observed, threshold, higher_passes=False):
    observed = float(observed)
    if higher_passes:
        return SuiteCase(name, observed, threshold, observed > threshold)
    return SuiteCase(name, observed, threshold, observed <= threshold)


# ---------------------------------------------------------------------------
# suite building blocks
# ---------------------------------------------------------------------------

def _first_epochs(spec, lam, n, rng):
    """D(V_1) with V_1 ~ Exp(lam) for n independent paths.

    This is the first jump epoch of the time-changed count N(E(t)): the
    Poisson clock first rings at V_1, and the inverse subordinator E
    first reaches V_1 at time D(V_1).
    """
    gen = rng.generator
    return spec.increments(gen.standard_exponential(n) / lam, gen)


def _suite_theorem22(seed, base):
    """Renewal vs time-change equivalence of the counting process."""
    cases = []
    n = 100_000
    lam = 1.0
    for i, beta in enumerate((0.3, 0.5, 0.7, 0.9)):
        a = sample_ml_waiting(beta, lam, RngStream(seed, base + 2 * i), size=n)
        b = _first_epochs(Stable(beta), lam, n, RngStream(seed, base + 2 * i + 1))
        res = ks_two_sample(a, b)
        cases.append(
            _case(f"ks_first_waiting_beta{beta:g}", res.p_value, 0.01,
                  higher_passes=True)
        )
    # joint transform of the first two jump epochs of the time-change
    # construction, tau1 = D(V_1) and tau2 = tau1 + D'(V_2 - V_1) with an
    # independent copy D': E[exp(-tau1 - tau2)] =
    # lam**2 / ((lam+psi(2))(lam+psi(1)))
    spec = Stable(0.5)
    stream = RngStream(seed, base + 8)
    m = 20_000
    tau1 = _first_epochs(spec, lam, m, stream)
    tau2 = tau1 + _first_epochs(spec, lam, m, stream)
    vals = np.exp(-tau1 - tau2)
    target = lam * lam / (
        (lam + laplace_exponent(spec, 2.0)) * (lam + laplace_exponent(spec, 1.0))
    )
    se = float(np.std(vals, ddof=1)) / math.sqrt(m)
    z = abs(float(np.mean(vals)) - target) / se
    cases.append(_case("joint_epoch_laplace_z", z, 3.0))
    return cases


def _pmf_rows(beta, lam, t):
    """fpp_pmf rows from n = 0 to the first row past the mean below 1e-16."""
    mean = lam * t ** beta / math.gamma(1.0 + beta)
    rows = [fpp_pmf(beta, lam, t, 0)]
    while len(rows) <= mean or rows[-1] >= 1e-16:
        rows.append(fpp_pmf(beta, lam, t, len(rows)))
    return np.array(rows)


def _binomial_pmf(trials, p):
    """Binomial(trials, p) pmf at 0..trials, from log-gamma terms."""
    k = np.arange(trials + 1)
    return np.exp(gammaln(trials + 1) - gammaln(k + 1) - gammaln(trials - k + 1)
                  + xlogy(k, p) + xlog1py(trials - k, -p))


def _prelimit_law(beta, lam, c, t):
    """Exact pmf of the Bernoulli prelimit value, and the mass of R's rows.

    P(K = k) = sum_m P(R(c t) = m) Binom(floor(lam m), c**-beta)(k), with
    R the rate-1 fractional count, summed over its ``_pmf_rows``.
    """
    rows = _pmf_rows(beta, 1.0, c * t)
    trials = np.floor(lam * np.arange(rows.size)).astype(np.intp)
    law = np.zeros(trials[-1] + 1)
    for r, m in zip(rows, trials):
        law[: m + 1] += r * _binomial_pmf(m, c ** (-beta))
    return law, math.fsum(rows)


def _tv(a, b):
    """Total-variation distance of two pmf arrays (the shorter one padded)."""
    size = max(a.size, b.size)
    a, b = np.pad(a, (0, size - a.size)), np.pad(b, (0, size - b.size))
    return 0.5 * float(np.abs(a - b).sum())


def _chi2_p(draws, law):
    """Pearson chi-square p-value of integer draws against a pmf array.

    Counts from the first one expected fewer than 5 times upward share
    one tail cell, itself widened until it expects 5 or more.
    """
    n = draws.size
    expected = n * law
    sparse = expected < 5.0
    k = int(np.argmax(sparse)) if sparse.any() else law.size
    while n - expected[:k].sum() < 5.0:
        k -= 1
    observed = np.bincount(np.minimum(draws, k), minlength=k + 1)
    expected = np.append(expected[:k], n - expected[:k].sum())
    return float(chdtrc(k, ((observed - expected) ** 2 / expected).sum()))


def _suite_theorem23(seed, base):
    """Bernoulli-prelimit values against their exact law, and that law's
    convergence to the fractional counting pmf.

    At lam = 1 the prelimit is a Bernoulli thinning of R(c t) and has the
    limit law exactly for every c; at lam = 2.5 floor(lam R) is no
    thinning, and the exact distance falls about like c**-beta.
    """
    beta, lam, t = 0.5, 2.5, 1.0
    n = 10_000
    limit = _pmf_rows(beta, lam, t)
    cases = []
    tvs = []
    for i, c in enumerate((10.0, 100.0, 1000.0)):
        law, mass = _prelimit_law(beta, lam, c, t)
        draws = _prelimit_values(beta, lam, c, t, n, RngStream(seed, base + i).generator)
        cases.append(_case(f"r_mass_dev_c{c:g}", abs(mass - 1.0), 1e-6))
        cases.append(_case(f"chi2_p_c{c:g}", _chi2_p(draws, law), 1e-3, higher_passes=True))
        tvs.append(_tv(law, limit))
    return cases + [
        SuiteCase("tv_exact_drop_c10_c100", tvs[1] - tvs[0], 0.0, tvs[1] < tvs[0]),
        SuiteCase("tv_exact_drop_c100_c1000", tvs[2] - tvs[1], 0.0, tvs[2] < tvs[1]),
        _case("tv_exact_c1000", tvs[2], 0.01),
    ]


def _suite_theorem31(seed, base):
    """Three routes to the counting pmf agree and normalize."""
    lam = 1.0
    worst_pair = 0.0
    worst_sum = 0.0
    for beta in (0.4, 0.6):
        spec = Stable(beta)
        for t in (0.5, 2.0):
            series = [fpp_pmf(beta, lam, t, k) for k in range(41)]
            mixture = _fpp_pmf_mixture_rows(beta, lam, t, range(41))
            inverted = [general_pmf(spec, lam, t, k) for k in range(41)]
            for n in range(11):
                worst_pair = max(
                    worst_pair,
                    abs(series[n] - mixture[n]),
                    abs(series[n] - inverted[n]),
                    abs(mixture[n] - inverted[n]),
                )
            for row in (series, mixture, inverted):
                worst_sum = max(worst_sum, abs(math.fsum(row) - 1.0))
    cases = [
        _case("pmf_pairwise_max_err", worst_pair, 1e-5),
        _case("pmf_sum_dev", worst_sum, 1e-6),
    ]
    ml_err = abs(ml_one(0.5, -1.0) - 0.4275835761558070)
    cases.append(_case("ml_one_golden", ml_err, 1e-12))
    pr_err = 0.0
    for beta in (0.3, 0.7):
        for z in (-2.0, -0.5, 1.0):
            pr_err = max(
                pr_err, abs(prabhakar(1.0, beta, 1.0, z) - ml_one(beta, z))
            )
    cases.append(_case("prabhakar_reduction_err", pr_err, 1e-12))
    return cases


def _suite_theorem32(seed, base):
    """Half-order closed forms and the running-maximum representation."""
    worst = 0.0
    for x in (0.25, 0.5, 1.0, 1.5, 2.0):
        for t in (0.5, 1.0, 2.0, 4.0):
            closed = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
            worst = max(worst, abs(inverse_stable_density(0.5, x, t) - closed))
    cases = [_case("halforder_density_lattice", worst, 1e-6)]
    n = 100_000
    a = sample_inverse_stable_marginal(0.5, 1.0, RngStream(seed, base), size=n)
    b = sample_brownian_running_max(1.0, 10_000, RngStream(seed, base + 1), size=n)
    res = ks_two_sample(a, b)
    cases.append(_case("ks_runningmax_p", res.p_value, 0.01, higher_passes=True))
    return cases


def _suite_theorem41(seed, base):
    """Laplace-domain pmf formulas against forward numerical transforms."""
    lam = 1.0
    beta = 0.6
    spec = Stable(beta)
    worst = 0.0
    # the transforms at the three s share most quadrature nodes, so each
    # row's pmf is evaluated once per node, by a memo that dies with the row
    for n in (0, 1, 2):
        pmf = functools.cache(lambda t, k=n: fpp_pmf(beta, lam, t, k))
        for s in (0.5, 1.0, 2.0):
            target = pmf_laplace(spec, lam, n, s)
            got = laplace_forward(pmf, s)
            worst = max(worst, abs(got - target) / target)
    cases = [_case("pmf_lt_roundtrip_stable", worst, 1e-6)]

    tempered = TemperedStable(0.5, 1.0)
    worst = 0.0
    for n in (0, 1):
        pmf = functools.cache(lambda t, k=n: general_pmf(tempered, lam, t, k))
        for s in (0.5, 1.0, 2.0):
            target = pmf_laplace(tempered, lam, n, s)
            got = laplace_forward(pmf, s)
            worst = max(worst, abs(got - target) / target)
    cases.append(_case("pmf_lt_roundtrip_tempered", worst, 1e-6))

    specs = (
        Stable(0.6),
        TemperedStable(0.5, 1.0),
        StableMixture((0.5, 0.5), (0.3, 0.7)),
        DistributedOrder((1.0,)),
    )
    worst = 0.0
    for sub in specs:
        for _, _, rel in bern_identity_check(sub, (0.5, 1.0, 2.0)):
            worst = max(worst, rel)
    cases.append(_case("levy_tail_transform_identity", worst, 1e-5))
    return cases


def _suite_theorem51(seed, base):
    """Fourier-Laplace formula for the compound process on the inverse clock."""
    beta, lam, k, t = 0.5, 1.0, 1.0, 1.0
    spec = Stable(beta)
    jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
    psi_a = float(np.real(jumps.fourier_symbol(k, lam)))
    model = laplace_invert(
        lambda s: laplace_exponent(spec, s)
        / (s * (psi_a + laplace_exponent(spec, s))),
        t,
    )
    n = 20_000
    positions = _ctrw_positions(spec, lam, jumps, t, n, RngStream(seed, base).generator)
    # jumps are symmetric, so the transform is real and equals E[cos kX]
    vals = np.cos(k * positions)
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    z = abs(float(np.mean(vals)) - model) / se
    return [_case("ctrw_transform_z", z, 3.0)]


def _suite_tempered(seed, base):
    """Tempered waiting-time sampler against its closed transform."""
    beta, a, lam = 0.5, 1.0, 2.0
    spec = TemperedStable(beta, a)
    draws = sample_tempered_ml_waiting(
        beta, a, lam, RngStream(seed, base), size=1_000_000
    )
    cases = []
    for s in (0.5, 1.0, 2.0):
        est, se = empirical_laplace(draws, s)
        target = lam / (lam + laplace_exponent(spec, s))
        z = abs(est - target) / se
        cases.append(_case(f"tempered_lt_z_s{s:g}", z, 3.0))
    direct = sample_tempered_ml_waiting(
        beta, a, lam, RngStream(seed, base + 1), size=100_000
    )
    via_timechange = _first_epochs(spec, lam, 100_000, RngStream(seed, base + 2))
    res = ks_two_sample(direct, via_timechange)
    cases.append(
        _case("ks_tempered_timechange", res.p_value, 0.01, higher_passes=True)
    )
    return cases


def _suite_distributed(seed, base):
    """Distributed-order survival: spectral route, inversion, simulation."""
    lam = 1.0
    uniform = DistributedOrder((1.0,))
    cases = []
    for t in (0.5, 1.0, 2.0):
        spectral = distributed_order_survival_kochubei(uniform, lam, t)
        inverted = waiting_survival_general(uniform, lam, t)
        cases.append(_case(f"kochubei_vs_lt_t{t:g}", abs(spectral - inverted), 1e-4))
    mix = StableMixture((0.5, 0.5), (0.3, 0.7))
    n = 20_000
    waits = _first_epochs(mix, lam, n, RngStream(seed, base))
    for t in (0.5, 1.0):
        p_emp = float(np.mean(waits > t))
        target = waiting_survival_general(mix, lam, t)
        se = math.sqrt(p_emp * (1.0 - p_emp) / n)
        z = abs(p_emp - target) / se
        cases.append(_case(f"mixture_survival_z_t{t:g}", z, 3.0))
    return cases


def _suite_fraccalc(seed, base):
    """Governing-equation residuals and fractional-derivative golden values."""
    worst = 0.0
    for n in (0, 1, 2):
        for t in (0.5, 1.0, 2.0):
            worst = max(
                worst,
                governing_residual(
                    "fpp_master", {"beta": 0.5, "lam": 1.0, "step": 1e-3}, (n, t)
                ),
            )
    cases = [_case("master_residual_max", worst, 5e-3)]

    r_transport = governing_residual("inverse_density", {"step": 1e-3}, (1.0, 1.0))
    cases.append(_case("transport_residual", r_transport, 5e-3))
    r_heat = governing_residual("brownian_time", {"step": 1e-3}, (0.5, 1.0))
    cases.append(_case("heat_residual", r_heat, 1e-3))
    r_wave = governing_residual(
        "diffusion_wave_halves", {"step": 1e-3}, (0.5, 1.0)
    )
    cases.append(_case("wave_form_residual", r_wave, 1e-3))

    # halving the step must at least halve each residual (20% slack)
    ratios = []
    for kind, point, params in (
        ("fpp_master", (0, 1.0), {"beta": 0.5, "lam": 1.0}),
        ("inverse_density", (1.0, 1.0), {}),
        ("brownian_time", (0.5, 1.0), {}),
    ):
        coarse = governing_residual(kind, {**params, "step": 1e-3}, point)
        fine = governing_residual(kind, {**params, "step": 5e-4}, point)
        ratios.append(fine / coarse)
    cases.append(_case("residual_halving_ratio", max(ratios), 0.6))

    # monomial golden values for the memory-integral derivative
    grid = SampledFunction.from_function(lambda r: r, 1.0, 1e-3)
    err_lin = abs(caputo(grid, 0.5, 1.0) - 1.0 / math.gamma(1.5))
    grid2 = SampledFunction.from_function(lambda r: r * r, 1.0, 1e-3)
    err_quad = abs(
        caputo(grid2, 0.3, 0.8) - 2.0 * 0.8 ** 1.7 / math.gamma(2.7)
    )
    cases.append(_case("caputo_monomial_err", max(err_lin, err_quad), 1e-5))
    return cases


_SUITES = {
    "theorem22": (_suite_theorem22, 0),
    "theorem23": (_suite_theorem23, 100),
    "theorem31": (_suite_theorem31, 200),
    "theorem32": (_suite_theorem32, 300),
    "theorem41": (_suite_theorem41, 400),
    "theorem51": (_suite_theorem51, 500),
    "tempered": (_suite_tempered, 600),
    "distributed": (_suite_distributed, 700),
    "fraccalc": (_suite_fraccalc, 800),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name, seed):
    """Execute one named identity-check suite and return its report.

    ``all`` concatenates every suite.  Stochastic cases use fixed
    per-case stream ids, so a sub-suite's cases inside ``all`` match a
    standalone run with the same seed.
    """
    seed = _count("seed", seed)
    if name == "all":
        cases = []
        for fn, b in _SUITES.values():
            cases.extend(fn(seed, b))
        return SuiteReport("all", seed, tuple(cases))
    try:
        fn, b = _SUITES[name]
    except KeyError:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return SuiteReport(name, seed, tuple(fn(seed, b)))
