"""Tests for the KS machinery, empirical transforms, and check suites.

The heavyweight simulation suites (theorem22, theorem32, tempered) are
exercised by the acceptance tests; here the cheap suites run end to end
at a fixed seed and the statistical primitives are pinned against hand
computations and scipy.
"""

import collections
import json
import math

import numpy as np
import pytest
from scipy import stats

from fracpoisson import processes, validation
from fracpoisson.errors import DomainError
from fracpoisson.samplers import sample_ml_waiting
from fracpoisson.transforms import DistributedOrder, Stable, StableMixture, TemperedStable
from fracpoisson.validation import (
    SUITE_NAMES,
    KSResult,
    SuiteCase,
    SuiteReport,
    _chi2_p,
    _pmf_rows,
    _prelimit_law,
    _tv,
    empirical_laplace,
    ks_two_sample,
    run_suite,
)

CHEAP_SUITES = ("theorem23", "theorem31", "theorem41", "theorem51",
                "distributed", "fraccalc")


class TestKsTwoSample:
    def test_hand_computed_statistic(self):
        # evens vs odds interleave: the CDF gap is exactly one step, 1/25
        a = np.arange(0.0, 50.0, 2.0)
        b = np.arange(1.0, 51.0, 2.0)
        res = ks_two_sample(a, b)
        assert res.statistic == pytest.approx(0.04, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-6)
        assert (res.n1, res.n2) == (25, 25)

    def test_disjoint_samples(self):
        res = ks_two_sample(np.arange(25.0), np.arange(100.0, 125.0))
        assert res.statistic == 1.0
        assert res.p_value < 1e-10

    def test_identical_samples(self):
        a = np.linspace(0.0, 1.0, 40)
        res = ks_two_sample(a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_near_identical_large_samples(self):
        # one differing point of 1e5 puts the scaled statistic near 2e-3,
        # where the Kolmogorov survival function is 1 to double precision
        a = np.linspace(0.0, 1.0, 100_000)
        b = a.copy()
        b[0] = -1.0
        res = ks_two_sample(a, b)
        assert res.statistic == pytest.approx(1e-5, abs=1e-15)
        assert res.p_value >= 0.99

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=300)
        b = rng.normal(0.2, 1.1, size=400)
        res = ks_two_sample(a, b)
        sp = stats.ks_2samp(a, b, method="asymp")
        assert res.statistic == pytest.approx(sp.statistic, abs=1e-14)
        # same asymptotic family; scipy applies a finite-size refinement
        assert res.p_value == pytest.approx(sp.pvalue, rel=0.15)

    def test_p_values_uniform_under_null(self):
        # same-distribution resampling: the asymptotic test should reject
        # at 5% roughly 5% of the time (slightly conservative at n=200)
        rng = np.random.default_rng(0)
        hits = sum(
            ks_two_sample(rng.normal(size=200), rng.normal(size=200)).p_value < 0.05
            for _ in range(200)
        )
        assert 0.02 <= hits / 200.0 <= 0.09

    def test_size_guards(self):
        with pytest.raises(DomainError):
            ks_two_sample(np.arange(10.0), np.arange(30.0))
        with pytest.raises(DomainError):
            ks_two_sample(np.arange(30.0), [])

    def test_result_is_frozen(self):
        res = ks_two_sample(np.arange(25.0), np.arange(25.0) + 0.5)
        assert isinstance(res, KSResult)
        with pytest.raises(AttributeError):
            res.statistic = 0.0


class TestEmpiricalLaplace:
    def test_hand_values(self):
        samples = [0.0, math.log(2.0)]
        mean, stderr = empirical_laplace(samples, 1.0)
        assert mean == pytest.approx(0.75, rel=1e-15)
        assert stderr == pytest.approx(0.25, rel=1e-12)

    def test_zero_argument(self):
        mean, stderr = empirical_laplace([1.0, 2.0, 3.0], 0.0)
        assert mean == 1.0
        assert stderr == 0.0

    def test_single_sample_has_no_stderr(self):
        mean, stderr = empirical_laplace([2.0], 1.0)
        assert mean == pytest.approx(math.exp(-2.0))
        assert stderr == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            empirical_laplace([1.0], -0.5)


class TestRunSuite:
    @pytest.mark.parametrize("suite", CHEAP_SUITES)
    def test_cheap_suites_pass_at_reference_seed(self, suite):
        report = run_suite(suite, 42)
        assert report.suite == suite
        assert report.seed == 42
        assert report.passed, [c for c in report.cases if not c.passed]

    def test_deterministic(self):
        a = run_suite("theorem41", 123)
        b = run_suite("theorem41", 123)
        assert a == b

    def test_report_serialization(self):
        report = run_suite("fraccalc", 42)
        d = report.to_dict()
        assert set(d) == {"suite", "seed", "cases"}
        assert all(
            set(c) == {"name", "observed", "threshold", "pass"} for c in d["cases"]
        )
        assert json.loads(report.to_json()) == d

    def test_case_fields(self):
        report = run_suite("fraccalc", 42)
        case = report.cases[0]
        assert isinstance(case, SuiteCase)
        assert isinstance(case.name, str)
        assert isinstance(case.observed, float)
        assert isinstance(case.threshold, float)
        assert isinstance(case.passed, bool)

    def test_suite_names_exposed(self):
        assert "all" in SUITE_NAMES
        for suite in CHEAP_SUITES + ("theorem22", "theorem32", "tempered",
                                     "theorem51"):
            assert suite in SUITE_NAMES

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("theorem99", 42)

    def test_negative_seed(self):
        with pytest.raises(DomainError):
            run_suite("fraccalc", -1)

    def test_reports_are_value_objects(self):
        report = run_suite("fraccalc", 42)
        assert isinstance(report, SuiteReport)
        with pytest.raises(AttributeError):
            report.seed = 0


class TestTheorem41:
    def test_integrands_are_evaluated_once_per_node(self, monkeypatch):
        # the forward transforms at s = 0.5, 1 and 2 share most of their
        # quadrature nodes; within one run no pmf or Levy tail call repeats
        calls = collections.Counter()

        def counted(label, fn):
            def wrapper(*args):
                calls[(label,) + args] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(validation, "fpp_pmf", counted("fpp_pmf", validation.fpp_pmf))
        monkeypatch.setattr(
            validation, "general_pmf", counted("general_pmf", validation.general_pmf)
        )
        for cls in (Stable, TemperedStable, StableMixture, DistributedOrder):
            def tail(self, t, original=cls.tail):
                calls[("tail", self) + tuple(t)] += 1
                return original(self, t)

            monkeypatch.setattr(cls, "tail", tail)
        assert run_suite("theorem41", 42).passed
        assert {key[0] for key in calls} == {"fpp_pmf", "general_pmf", "tail"}
        assert {type(key[1]) for key in calls if key[0] == "tail"} == {
            Stable, TemperedStable, StableMixture, DistributedOrder
        }
        repeated = {key: n for key, n in calls.items() if n > 1}
        assert not repeated, f"{len(repeated)} of {len(calls)} argument tuples repeat"


class TestTheorem23:
    """The exact Bernoulli-prelimit law behind ``theorem23``, its
    goodness-of-fit test, and the suite's power against a wrong order."""

    @pytest.mark.parametrize("c", [10.0, 100.0, 1000.0])
    def test_thinning_identity_at_unit_rate(self, c):
        # at lam = 1, Binomial(R(c t), c**-beta) is a Bernoulli thinning of
        # the fractional count Poisson(E(c t)), E(c t) =d c**beta E(t): the
        # prelimit law equals the limit law for every c
        law, _ = _prelimit_law(0.5, 1.0, c, 1.0)
        assert _tv(law, _pmf_rows(0.5, 1.0, 1.0)) < 1e-8

    def test_distance_falls_in_c_off_unit_rate(self):
        # floor(2.5 R) is no thinning; the distance falls about like c**-1/2
        limit = _pmf_rows(0.5, 2.5, 1.0)
        tvs = [_tv(_prelimit_law(0.5, 2.5, c, 1.0)[0], limit) for c in (10.0, 100.0, 1000.0)]
        assert tvs[0] > tvs[1] > tvs[2]
        assert 0.05 < tvs[0] < 0.1 and 0.005 < tvs[2] < 0.01

    @pytest.mark.parametrize("c", [10.0, 1000.0])
    def test_law_is_a_pmf(self, c):
        law, mass = _prelimit_law(0.5, 2.5, c, 1.0)
        assert (law >= 0.0).all()
        assert abs(mass - 1.0) < 1e-6 and abs(math.fsum(law) - mass) < 1e-12

    def test_chi2_hand_values(self):
        law = np.array([0.5, 0.3, 0.2])
        exact = np.repeat([0, 1, 2], [50, 30, 20])
        assert _chi2_p(exact, law) == pytest.approx(1.0)
        # statistic 10**2/50 + 10**2/30 on 2 degrees of freedom, whose
        # survival function is exp(-x/2)
        off = np.repeat([0, 1, 2], [60, 20, 20])
        assert _chi2_p(off, law) == pytest.approx(math.exp(-(2.0 + 10.0 / 3.0) / 2.0))

    def test_chi2_pools_the_sparse_tail(self):
        # expected 90, 8, 1.5, 0.4, 0.1: counts from 1 up share one cell of
        # 10, so these draws (one beyond the law's support) fit exactly
        law = np.array([0.9, 0.08, 0.015, 0.004, 0.001])
        draws = np.repeat([0, 1, 7], [90, 4, 6])
        assert _chi2_p(draws, law) == pytest.approx(1.0)

    def test_fails_with_wrong_waiting_order(self, monkeypatch):
        # power: order-0.45 waits behind the order-0.5 law fail every
        # goodness-of-fit case at the reference seed; the exact cases
        # do not depend on the sampler
        monkeypatch.setattr(
            processes, "_ml_batch",
            lambda beta, lam, rng, size=None: sample_ml_waiting(0.45, lam, rng, size),
        )
        report = run_suite("theorem23", 42)
        assert {c.name for c in report.cases if not c.passed} == {
            "chi2_p_c10", "chi2_p_c100", "chi2_p_c1000"
        }
