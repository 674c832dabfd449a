"""Tests for the counting pmf, densities, and pmf tables.

The frozen pmf constants come from extended-precision Talbot inversion
of the exact transform (psi(s)/s) lam^n / (lam + psi(s))^(n+1) in
mpmath, computed at two precisions and cross-checked before freezing;
density constants additionally agree with the convergent series for the
stable density and the first-passage scaling relation.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

from fracpoisson import distributions, transforms
from fracpoisson.cli import main
from fracpoisson.distributions import (
    PmfTable,
    distributed_order_survival_kochubei,
    fpp_pmf,
    fpp_pmf_mixture,
    fpp_pmf_table,
    general_pmf,
    general_pmf_table,
    inverse_stable_density,
    inverse_stable_density_quadrature,
    pmf_laplace,
    renewal_mean,
    stable_unit_density,
    waiting_survival_general,
)
from fracpoisson.errors import DomainError, EvaluationError
from fracpoisson.special import (
    _effective_switch,
    _prabhakar_series,
    ml_one,
    prabhakar,
)
from fracpoisson.transforms import (
    DistributedOrder,
    Stable,
    StableMixture,
    TemperedStable,
    laplace_exponent,
    spec_to_json,
)

from oracles import fpp_pmf_series

# P(N(t) = n) for beta = 0.5, lam = 1: (t, n, probability, rel tolerance).
# Most points resolve through the power series or the numerical inversion
# fallback and hold ~1e-12 relative; rows served by the large-argument
# expansion carry its looser contract, absolute error below 1e-6 of the
# bulk mass, hence the wider budget on the (100, 30) row.
FPP_PMF_VALUES = [
    (1.0, 0, 0.42758357615580694, 1e-8),
    (1.0, 1, 0.27321201478389857, 1e-8),
    (1.0, 2, 0.15437156137190844, 1e-8),
    (1.0, 5, 0.016661869090414362, 1e-8),
    (2.0, 0, 0.3362040024463, 1e-8),
    (2.0, 3, 0.1072684407579, 1e-8),
    (2.0, 8, 4.604256278415e-03, 1e-8),
    (10.0, 0, 0.1705777183260, 1e-8),
    (10.0, 1, 0.15669386579, 1e-8),
    (10.0, 2, 0.13883852540, 1e-8),
    (10.0, 5, 8.0083953984e-02, 1e-8),
    (10.0, 15, 0.0028369142206802527, 1e-8),
    (10.0, 30, 1.0601664185282045e-06, 1e-8),
    (100.0, 0, 5.614099274382e-02, 1e-8),
    (100.0, 2, 5.478705532140e-02, 1e-8),
    (100.0, 5, 5.098356931126e-02, 1e-8),
    (100.0, 15, 3.010897127725e-02, 1e-8),
    (100.0, 30, 6.508063492159e-03, 3e-6),
    (100.0, 60, 3.266315444948e-05, 1e-8),
    (1000.0, 5, 1.765557882077e-02, 1e-8),
    (1000.0, 30, 1.397731840333e-02, 1e-8),
    (1000.0, 36, 1.263623322263e-02, 1e-8),
    (1000.0, 60, 7.128539542964e-03, 1e-8),
    (1000.0, 150, 8.482874188915e-05, 1e-8),
    (1000.0, 210, 6.848035274526e-07, 1e-8),
]

# (beta, v) -> density of D(1)
STABLE_DENSITY_VALUES = [
    (0.4, 0.5, 0.34650514905217872),
    (0.4, 1.0, 0.16409343761753074),
    (0.4, 2.0, 0.07215173347323669),
    (0.7, 0.5, 0.96511911846936176),
    (0.7, 1.0, 0.38739501014659244),
    (0.7, 2.0, 0.10768834487433713),
]

# (beta, x, t) -> density of E(t)
INVERSE_DENSITY_VALUES = [
    (0.75, 0.2, 1.0, 0.33725798848003816),
    (0.75, 1.0, 1.0, 0.60659854359027598),
    (0.75, 2.5, 1.0, 0.024491540550029374),
    (0.6, 1.0, 2.0, 0.33616350362806167),
]


class TestFppPmf:
    @pytest.mark.parametrize("t, n, expected, rel", FPP_PMF_VALUES)
    def test_frozen_values(self, t, n, expected, rel):
        assert fpp_pmf(0.5, 1.0, t, n) == pytest.approx(expected, rel=rel)

    def test_deep_tail_absolute_floor(self):
        # far past the bulk the contract is absolute accuracy ~1e-9
        assert fpp_pmf(0.5, 1.0, 10.0, 45) == pytest.approx(
            3.9208986879e-11, abs=2e-9
        )
        assert fpp_pmf(0.5, 1.0, 1000.0, 250) == pytest.approx(
            1.275466793881e-08, abs=2e-9
        )

    @pytest.mark.parametrize("t", [
        10.0024,  # z = t**0.999 = 9.979, below the series switch at 10
        # z = 10.0024, just past it: 1.3226e-4 against 1.7570e-4
        pytest.param(10.0255, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: ml_one past its series switch as beta -> 1")),
    ])
    def test_empty_count_near_beta_one_either_side_of_the_switch(self, t):
        pytest.importorskip("mpmath")
        exact = float(fpp_pmf_series(0.999, t ** 0.999, 0))
        assert abs(fpp_pmf(0.999, 1.0, t, 0) - exact) <= 1e-10

    def test_far_tail_overflow_reroutes(self):
        # the far-tail series overflows for these n; no NaN, ValueError or
        # numpy warning may leak out of the reroute
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in range(218, 270):
                try:
                    value = fpp_pmf(0.7, 5.0, 50.0, n)
                except EvaluationError:
                    continue
                assert math.isfinite(value) and 0.0 <= value <= 1.0, n

    def test_n_zero_is_ml_survival(self):
        for beta, lam, t in [(0.5, 1.0, 1.0), (0.7, 2.0, 3.0), (0.3, 1.0, 50.0)]:
            assert fpp_pmf(beta, lam, t, 0) == pytest.approx(
                ml_one(beta, -lam * t**beta), rel=1e-12
            )

    def test_beta_one_is_poisson(self):
        lam, t = 2.0, 3.0
        for n in range(15):
            assert fpp_pmf(1.0, lam, t, n) == pytest.approx(
                stats.poisson.pmf(n, lam * t), rel=1e-12
            )

    def test_at_time_zero(self):
        assert fpp_pmf(0.5, 1.0, 0.0, 0) == 1.0
        assert fpp_pmf(0.5, 1.0, 0.0, 3) == 0.0

    def test_normalization(self):
        for beta, t in [(0.4, 0.5), (0.6, 2.0), (0.8, 10.0)]:
            total = math.fsum(fpp_pmf(beta, 1.0, t, n) for n in range(400))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_identity(self):
        # E[N(t)] = lam t^beta / Gamma(1 + beta)
        beta, lam, t = 0.6, 1.0, 2.0
        mean = math.fsum(n * fpp_pmf(beta, lam, t, n) for n in range(400))
        assert mean == pytest.approx(
            lam * t**beta / math.gamma(1.0 + beta), rel=1e-8
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fpp_pmf(0.5, 1.0, -1.0, 0)
        with pytest.raises(DomainError):
            fpp_pmf(0.5, 1.0, 1.0, -1)
        with pytest.raises(DomainError):
            fpp_pmf(0.5, 0.0, 1.0, 0)
        with pytest.raises(DomainError):
            fpp_pmf(1.5, 1.0, 1.0, 0)

    @given(
        beta=st.floats(0.2, 0.95),
        lam=st.floats(0.2, 3.0),
        t=st.floats(0.05, 50.0),
        n=st.integers(0, 80),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_function_in_unit_interval(self, beta, lam, t, n):
        # every branch (series, far tail, inversion) returns a probability
        val = fpp_pmf(beta, lam, t, n)
        assert 0.0 <= val <= 1.0


def _series_guard_2000_terms(beta, z, n):
    """The closed form's roundoff guard as a 2000-term gammaln array.

    z**n E^{n+1}_{beta, beta n + 1}(-z) cancels down from its largest term
    max_r |term_r|, so it carries an absolute roundoff of about
    z**n max_term eps; the series route stands while that is below 1e-10.
    """
    lz = math.log(z)
    rs = np.arange(2000.0)
    ln_term = (
        gammaln(n + 1.0 + rs) - gammaln(n + 1.0) - gammaln(rs + 1.0)
        + rs * lz - gammaln(beta * rs + beta * n + 1.0)
    )
    return n * lz + float(np.max(ln_term)) + math.log(4.4e-16) <= math.log(1e-10)


class TestSeriesRoundoffGuard:
    """fpp_pmf reads the largest term off the series it sums; it must take
    the route the 2000-term guard gave, then the series or inversion."""

    GRID = list(itertools.product(
        (0.1, 0.5, 0.9, 0.999), (0.3, 1.0, 7.0), (0.01, 0.5, 2.0, 10.0), (1, 5, 12, 30, 200)
    ))

    def test_route_matches_the_2000_term_guard(self, monkeypatch):
        inverted = []
        inversion = distributions._pmf_by_inversion

        def counted(*args):
            inverted.append(args)
            return inversion(*args)

        monkeypatch.setattr(distributions, "_pmf_by_inversion", counted)
        routes = {"guard": 0, "series error": 0, "series": 0, "underflow": 0}
        for beta, lam, t, n in self.GRID:
            z = lam * t**beta
            if z > _effective_switch(beta) or n * math.log(z) > 700.0:
                continue  # far-tail and zero-prefactor routes come before the guard
            if not _series_guard_2000_terms(beta, z, n):
                route = "guard"
            else:
                try:
                    prabhakar(n + 1.0, beta, beta * n + 1.0, -z)
                    route = "series"
                except EvaluationError:
                    route = "series error"
            inverted.clear()
            value = fpp_pmf(beta, lam, t, n)
            assert inverted == ([] if route == "series" else [(beta, lam, t, n)]), (
                beta, lam, t, n, route,
            )
            routes[route] += 1
            if route == "series" and _prabhakar_series(n + 1.0, beta, beta * n + 1.0, -z)[1] == 0.0:
                # every term underflows: nothing to round, and the pmf is 0
                assert value == 0.0
                routes["underflow"] += 1
        assert min(routes.values()) > 0, routes  # underflow: beta >= 0.9 at n = 200


class TestPmfGrid:
    """The grid route is fpp_pmf at each point, value and type, and calls
    fpp_pmf itself only for the points off the plain series route."""

    FRACCALC = 1e-3 * np.arange(2001)  # SampledFunction.from_function(., 2.0, 1e-3)
    CASES = [
        # fraccalc's grids: every point but t = 0 on the series route
        (0.5, 1, 0, FRACCALC, 1),
        (0.5, 1.0, 1, FRACCALC, 1),
        (0.5, 1.0, 2, FRACCALC, 1),
        # beta = 1: Poisson at every point
        (1.0, 2.0, 3, 0.01 * np.arange(101), 101),
        # z = 7 t**0.7 crosses the series switch (7.68) at t = 1.14
        (0.7, 7.0, 0, 0.05 * np.arange(61), 39),
        (0.7, 7.0, 12, 0.05 * np.arange(61), None),
        # n log z > 700 below the switch, rows on the lgamma branch
        (0.9, 1.0, 400, 0.1 * np.arange(151), 151),
        # rows that fail the cancellation guard or the roundoff guard
        (0.5, 7.0, 12, 7e-3 * np.arange(61), None),
        # array ts**0.3 differs from scalar pow in the last bit at 59 of
        # these times with numpy's SIMD pow on x86-64
        (0.3, 0.3, 5, 7e-3 * np.arange(1001), 1),
    ]

    @pytest.mark.parametrize("beta, lam, n, ts, scalar", CASES)
    def test_grid_equals_the_point_calls(self, monkeypatch, beta, lam, n, ts, scalar):
        expected = [repr(fpp_pmf(beta, lam, t, n)) for t in ts]
        calls = TestWorkCounts._count(monkeypatch, distributions, "fpp_pmf")
        assert [repr(v) for v in distributions._fpp_pmf_grid(beta, lam, ts, n)] == expected
        if scalar is None:
            assert 1 < len(calls) < len(ts)
        else:
            assert len(calls) == scalar

    def test_checks_its_arguments(self):
        ts = 0.1 * np.arange(20)
        for beta, lam, n in ((1.5, 1.0, 1), (0.5, 0.0, 1), (0.5, 1.0, -1), (0.5, 1.0, 2.5)):
            with pytest.raises(DomainError):
                distributions._fpp_pmf_grid(beta, lam, ts, n)
        with pytest.raises(DomainError):
            distributions._fpp_pmf_grid(0.5, 1.0, [0.5, math.nan], 1)


def _rows_outcome(rows):
    """The reprs of a table's rows, or the type and message of its error."""
    try:
        return [repr(v) for v in rows()]
    except Exception as exc:  # the error is part of the outcome
        return type(exc).__name__, str(exc)


# the pmf tables of perfbench's ``pmf`` workload
WORKLOAD_TABLES = [
    (0.3, 1.0, 10.0), (0.3, 1.0, 60.0), (0.5, 1.0, 2.0), (0.5, 1.0, 60.0), (0.5, 2.0, 20.0),
    (0.7, 1.0, 5.0), (0.7, 1.0, 60.0), (0.9, 1.0, 10.0), (0.9, 1.0, 40.0),
    (0.999, 1.0, 2.0), (0.999, 1.0, 25.0),
]


class TestPmfTableRows:
    """fpp_pmf_table takes every row through fpp_pmf's route in array
    passes: each row is the point call's value, bit for bit, or the
    table raises the point calls' first error."""

    # 36 of these tables miss normalization, so the rows, not the tables, are compared
    GRID = list(itertools.product(
        (0.3, 0.5, 0.7, 0.9, 0.999), (0.5, 1.0, 2.0),
        (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0),
    ))
    # rows that leave the series' plain route (11 at (0.5, 0.2, 300)),
    # a row whose contour is not finite (n = 574 of 1176 at (0.999, 50, 5)),
    # beta = 1, z = lam t**beta underflowing, and beta below 0.1
    EDGES = [(0.5, 0.2, 300.0), (0.7, 0.05, 600.0), (0.999, 50.0, 5.0), (1.0, 1.0, 5.0),
             (0.5, 1e-200, 1e-300), (0.05, 3.0, 100.0)]

    @staticmethod
    def _check(tables):
        for beta, lam, t in tables:
            n_star, _ = distributions._truncation_index(lam, 1.0, t)
            expected = _rows_outcome(lambda: [fpp_pmf(beta, lam, t, n) for n in range(n_star + 1)])
            got = _rows_outcome(lambda: distributions._fpp_pmf_rows(beta, lam, t, n_star))
            assert got == expected, (beta, lam, t)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9, 0.999])
    def test_grid_rows_equal_the_point_calls(self, beta):
        self._check([table for table in self.GRID if table[0] == beta])

    def test_edge_rows_equal_the_point_calls(self):
        self._check(self.EDGES)

    def test_table_raises_the_lowest_failing_count(self):
        with pytest.raises(EvaluationError, match="^transform not finite on the talbot contour"):
            fpp_pmf_table(0.999, 50.0, 5.0)
        with pytest.raises(EvaluationError, match="^transform not finite on the talbot contour"):
            fpp_pmf(0.999, 50.0, 5.0, 574)
        assert fpp_pmf(0.999, 50.0, 5.0, 573) >= 0.0


class TestPmfTableWorkCounts:
    """One contour per table, and scalar work only where a pass sends it."""

    def _counted(self, monkeypatch):
        calls = {}
        for owner, name in ((distributions, "_talbot_rule"), (transforms, "_talbot_rule"),
                            (distributions, "_prabhakar_series"), (distributions, "fpp_pmf"),
                            (distributions, "_pmf_far_tail")):
            calls.setdefault(name, [])
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def _passes_the_screen(beta, z, n):
        """Whether fpp_pmf's route and the far-tail envelope leave row n to _pmf_far_tail."""
        far, ok = distributions._pmf_route(beta, z, n)
        return far and ok and not distributions._far_tail_screen(beta, z, np.array([n]))[0]

    @pytest.mark.parametrize("beta, lam, t", WORKLOAD_TABLES)
    def test_workload_tables(self, monkeypatch, beta, lam, t):
        calls = self._counted(monkeypatch)
        rows = fpp_pmf_table(beta, lam, t).rows
        assert len(calls["_talbot_rule"]) <= 1
        # every row below the switch stays on the plain series route
        assert calls["_prabhakar_series"] == []
        assert [args[3] for args in calls["fpp_pmf"]] == [0]
        z = lam * t**beta
        for b, z_call, n in calls["_pmf_far_tail"]:
            assert (b, z_call) == (beta, z) and self._passes_the_screen(beta, z, n), n
        assert len(rows) > 30

    def test_fallback_rows_take_the_scalar_series(self, monkeypatch):
        calls = self._counted(monkeypatch)
        fpp_pmf_table(0.5, 0.2, 300.0)
        fallbacks = [args[3] for args in calls["fpp_pmf"]]
        assert len(fallbacks) == 12 and fallbacks[0] == 0
        assert [args[0] - 1.0 for args in calls["_prabhakar_series"]] == fallbacks[1:]
        assert len(calls["_talbot_rule"]) <= 1

    def test_far_tail_screen_runs_in_bounded_blocks(self, monkeypatch):
        # 510 rows n <= 4z at z = 127: one (510 x 300) envelope pass traces 3.9 MB,
        # blocks of 100 rows 0.8 MB, with the same rows
        beta, lam, t, n_star = 0.9, 30.0, 5.0, distributions._truncation_index(30.0, 1.0, 5.0)[0]
        whole = [repr(p) for p in distributions._fpp_pmf_rows(beta, lam, t, n_star)]
        sizes, screen = [], distributions._far_tail_screen
        monkeypatch.setattr(distributions, "_far_tail_screen",
                            lambda *args: sizes.append(args[2].size) or screen(*args))
        monkeypatch.setattr(distributions, "_TABLE_BLOCK", 100)
        tracemalloc.start()
        try:
            rows = [repr(p) for p in distributions._fpp_pmf_rows(beta, lam, t, n_star)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == whole and sizes == [100] * 5 + [10]
        assert peak < 2e6


class TestPmfLaplace:
    def test_closed_form(self):
        spec = Stable(0.5)
        lam, n, s = 1.0, 2, 1.5
        psi = s**0.5
        expected = (psi / s) * lam**n / (lam + psi) ** (n + 1)
        assert pmf_laplace(spec, lam, n, s) == pytest.approx(expected, rel=1e-12)

    def test_n_sum_telescopes(self):
        # sum_n LT(pmf_n)(s) = 1/s exactly
        spec = TemperedStable(0.5, 1.0)
        s, lam = 0.8, 1.0
        total = math.fsum(pmf_laplace(spec, lam, n, s) for n in range(2000))
        assert total == pytest.approx(1.0 / s, rel=1e-6)


class TestGeneralPmf:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, 0.22451918779953368), (1, 0.2426762104230643), (3, 0.14256782115056521)],
    )
    def test_tempered_frozen_values(self, n, expected):
        spec = TemperedStable(0.5, 0.5)
        assert general_pmf(spec, 1.0, 1.0, n) == pytest.approx(expected, rel=1e-7)

    def test_stable_agrees_with_direct(self):
        spec = Stable(0.6)
        for n in (0, 1, 4):
            assert general_pmf(spec, 1.0, 1.5, n) == pytest.approx(
                fpp_pmf(0.6, 1.0, 1.5, n), abs=1e-8
            )

    @pytest.mark.parametrize(
        "n, expected",
        [(0, 0.41945902726280818), (1, 0.27360551998159144)],
    )
    def test_mixture_frozen_values(self, n, expected):
        spec = StableMixture((0.5, 0.5), (0.3, 0.7))
        assert general_pmf(spec, 1.0, 1.0, n) == pytest.approx(expected, abs=1e-9)


class TestWaitingSurvivalGeneral:
    def test_stable_is_ml(self):
        for beta, t in [(0.5, 1.0), (0.7, 2.0)]:
            assert waiting_survival_general(Stable(beta), 1.0, t) == pytest.approx(
                ml_one(beta, -t**beta), rel=1e-9
            )

    @pytest.mark.parametrize(
        "t, expected",
        [(0.5, 0.37616632485277682), (2.0, 0.096199796032459485)],
    )
    def test_tempered_frozen_values(self, t, expected):
        spec = TemperedStable(0.5, 0.5)
        assert waiting_survival_general(spec, 1.0, t) == pytest.approx(
            expected, rel=1e-8
        )

    def test_tempered_second_parameter_set(self):
        spec = TemperedStable(0.7, 1.0)
        assert waiting_survival_general(spec, 2.0, 1.0) == pytest.approx(
            0.083146722632551019, rel=1e-8
        )

    @pytest.mark.parametrize(
        "t, expected",
        [(0.5, 0.50689475322824089), (2.0, 0.33557712239695253)],
    )
    def test_distributed_order_frozen_values(self, t, expected):
        spec = DistributedOrder((1.0,))
        assert waiting_survival_general(spec, 1.0, t) == pytest.approx(
            expected, rel=1e-7
        )

    def test_mixture_frozen_value(self):
        spec = StableMixture((0.5, 0.5), (0.3, 0.7))
        assert waiting_survival_general(spec, 1.0, 1.0) == pytest.approx(
            0.41945902726280818, rel=1e-8
        )


class TestKochubeiSurvival:
    @pytest.mark.parametrize(
        "t, expected",
        [(0.5, 0.50689475322824089), (2.0, 0.33557712239695253)],
    )
    def test_uniform_weight_frozen_values(self, t, expected):
        got = distributed_order_survival_kochubei(DistributedOrder((1.0,)), 1.0, t)
        assert got == pytest.approx(expected, abs=5e-5)

    def test_accepts_polynomial_coefficients(self):
        a = distributed_order_survival_kochubei((1.0,), 1.0, 1.0)
        b = distributed_order_survival_kochubei(DistributedOrder((1.0,)), 1.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            distributed_order_survival_kochubei(3.5, 1.0, 1.0)


class TestKochubeiClosedForm:
    """The spectral route with the beta-integral in closed form."""

    # mpmath fixed-Talbot inversion of the uniform-weight survival
    # transform, equal at 30 and 45 digits
    @pytest.mark.parametrize(
        "t, expected",
        [
            (0.5, 0.50689475322824089),
            (1.0, 0.41030550159102619),
            (2.0, 0.33557712239695253),
        ],
    )
    def test_uniform_weight_matches_mpmath(self, t, expected):
        got = distributed_order_survival_kochubei(DistributedOrder((1.0,)), 1.0, t)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("poly", [(0.0, 2.0), (0.2, 1.0, 0.6, 0.3)])
    @pytest.mark.parametrize("lam, t", [(1.0, 0.3), (1.0, 1.0), (2.5, 4.0)])
    def test_agrees_with_laplace_inversion(self, poly, lam, t):
        spectral = distributed_order_survival_kochubei(poly, lam, t)
        inverted = waiting_survival_general(DistributedOrder(poly), lam, t)
        assert abs(spectral - inverted) <= 1e-9

    @pytest.mark.parametrize(
        "poly",
        [
            (1.0,),
            (0.0, 2.0),
            (3.0, -6.0, 3.0),
            (0.2, 1.0, 0.6, 0.3),
            (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0),
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0),
            (0.0, 0.0, 60.0, -180.0, 180.0, -60.0),  # 60 b**2 (1 - b)**3
        ],
    )
    def test_inner_integral_matches_mpmath(self, poly):
        # reference: int_0^1 b**k exp(c b) db = gamma(k+1, -c) / (-c)**(k+1)
        # with mpmath's lower incomplete gamma at 30 digits, and mpmath.quad
        # where tanh-sinh resolves the integrand (its mass sits within 1/u
        # of 0 for large u, a layer quad misses at 1e-8 relative)
        mpmath = pytest.importorskip("mpmath")
        at0, at1 = distributions._order_derivatives(poly)
        for u in (-12.0, 0.0, 2.0, 50.0, 1e3, 1e8):
            s1, s0 = distributions._kochubei_inner(at0, at1, u)
            got = math.exp(-u) * s1 + s0
            with mpmath.workdps(30):
                c = mpmath.mpc(-u, mpmath.pi)
                ref = sum(
                    a * mpmath.gammainc(k + 1, 0, -c) / (-c) ** (k + 1)
                    for k, a in enumerate(poly)
                )
                if abs(u) <= 50.0:
                    by_quad = mpmath.quad(
                        lambda b: mpmath.polyval(poly[::-1], b) * mpmath.exp(c * b),
                        [0, 1],
                    )
                    assert abs(by_quad - ref) <= 1e-25 * abs(ref)
                ref = complex(ref)
            assert abs(got - ref) <= 1e-13 * abs(ref)
            assert abs(got.imag - ref.imag) <= 1e-13 * abs(ref.imag)

    @pytest.mark.parametrize("t", [1e-12, 1e-300])
    def test_tiny_times_stay_in_the_package_contract(self, t):
        try:
            got = distributed_order_survival_kochubei(DistributedOrder((1.0,)), 1.0, t)
        except EvaluationError:
            return
        assert 0.0 <= got <= 1.0

    def test_rejects_callable_weight(self):
        with pytest.raises(DomainError):
            distributed_order_survival_kochubei(lambda b: 1.0, 1.0, 1.0)


class TestStableUnitDensity:
    @pytest.mark.parametrize("beta, v, expected", STABLE_DENSITY_VALUES)
    def test_frozen_values(self, beta, v, expected):
        assert stable_unit_density(beta, v) == pytest.approx(expected, rel=1e-8)

    def test_half_order_closed_form(self):
        for v in (0.3, 1.0, 3.0):
            expected = math.exp(-1.0 / (4.0 * v)) / (
                2.0 * math.sqrt(math.pi) * v**1.5
            )
            assert stable_unit_density(0.5, v) == pytest.approx(expected, rel=1e-14)

    def test_normalizes(self):
        with warnings.catch_warnings():
            # the outer integral probes extreme v where the inner adaptive
            # quadrature reports its requested 1e-14 as below roundoff; the
            # returned best values are still far inside this test's budget
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            mass, err = integrate.quad(
                lambda v: stable_unit_density(0.7, v), 0.0, np.inf, limit=200
            )
        assert mass == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9, 0.99])
    def test_large_v_series_matches_mpmath(self, beta):
        # the same series in mpmath at 30 and 45 digits, from v**beta = 5,
        # where the series takes over from the quadrature, up to 1e4;
        # at beta = 0.9, v = 3600 the quadrature came out 17% low
        mpmath = pytest.importorskip("mpmath")

        def oracle(v, dps):
            with mpmath.workdps(dps):
                b, vv = mpmath.mpf(beta), mpmath.mpf(v)
                return mpmath.nsum(
                    lambda k: (-1) ** (k + 1) * mpmath.gamma(b * k + 1) / mpmath.factorial(k)
                    * mpmath.sin(mpmath.pi * b * k) * vv ** (-b * k - 1),
                    [1, mpmath.inf],
                ) / mpmath.pi

        for vb in (5.0, 100.0, 1e4):
            v = vb ** (1.0 / beta)
            ref30, ref45 = oracle(v, 30), oracle(v, 45)
            assert abs(ref30 - ref45) < 1e-16 * abs(ref45)
            assert stable_unit_density(beta, v) == pytest.approx(float(ref45), rel=1e-13)
        if beta <= 0.9:  # the quadrature just below the switch agrees
            v = 4.999 ** (1.0 / beta)
            assert stable_unit_density(beta, v) == pytest.approx(float(oracle(v, 45)), rel=1e-12)

    def test_zero_below_origin(self):
        assert stable_unit_density(0.6, 0.0) == 0.0
        assert stable_unit_density(0.6, -1.0) == 0.0

    CUT_BETAS = [round(0.05 * k, 2) for k in range(1, 20)]

    @staticmethod
    def _a0(beta):
        # A(0+) of Zolotarev's function
        return (beta**beta * (1.0 - beta) ** (1.0 - beta)) ** (1.0 / (1.0 - beta))

    @pytest.mark.parametrize("beta", CUT_BETAS)
    def test_zolotarev_a_rises_from_its_limit_at_zero(self, beta):
        a = np.array([
            distributions._zolotarev_a(beta, math.pi * u) for u in np.linspace(0.0, 1.0, 4001)[1:-1]
        ])
        assert a.min() >= self._a0(beta) * (1.0 - 1e-13)
        assert a[0] == pytest.approx(self._a0(beta), rel=1e-6)
        assert (np.diff(a) >= -1e-13 * a[1:]).all()

    @pytest.mark.parametrize("beta", [b for b in CUT_BETAS if b != 0.5])  # 0.5: closed form
    def test_exact_zero_past_the_underflow_cut(self, beta):
        # past A(0+) v**(-beta/(1-beta)) = 701 the density is 0.0 without
        # a quadrature, and the quadrature it skips gives that same 0.0
        v = (self._a0(beta) / 701.0) ** ((1.0 - beta) / beta) * (1.0 - 1e-9)
        assert stable_unit_density(beta, v) == 0.0
        scale = v ** (-beta / (1.0 - beta))

        def integrand(u):
            arg = distributions._zolotarev_a(beta, math.pi * u) * scale
            return 0.0 if arg > 700.0 else math.exp(-arg)

        assert integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11)[0] == 0.0
        assert stable_unit_density(beta, 1e-300) == 0.0  # no power overflows
        # short of 700 the quadrature still runs and resolves a positive value
        assert stable_unit_density(beta, (self._a0(beta) / 650.0) ** ((1.0 - beta) / beta)) > 0.0

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            stable_unit_density(1.0, 1.0)


class TestInverseStableDensity:
    @pytest.mark.parametrize("beta, x, t, expected", INVERSE_DENSITY_VALUES)
    def test_frozen_values(self, beta, x, t, expected):
        assert inverse_stable_density(beta, x, t) == pytest.approx(expected, rel=1e-7)

    def test_half_order_closed_form(self):
        for x in (0.25, 1.0, 2.0):
            for t in (0.5, 2.0):
                expected = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
                assert inverse_stable_density(0.5, x, t) == pytest.approx(
                    expected, rel=1e-8
                )

    def test_quadrature_route_agrees(self):
        # independent first-passage representation
        for beta, x, t, expected in INVERSE_DENSITY_VALUES:
            got = inverse_stable_density_quadrature(beta, x, t)
            assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("x, t", [(1e-10, 1.0), (1e-8, 1e4), (1e-3, 1e8), (1e-20, 1e-8)])
    def test_quadrature_answers_at_tiny_x_above_its_bound(self, x, t):
        # x t**(-2 beta) = 1e-10 .. 1e-12, above the bound 10**-12.4 at beta = 1/2
        expected = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
        assert inverse_stable_density_quadrature(0.5, x, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x, t", [(1e-14, 1.0), (1e-6, 1e8), (1e-23, 1e-8)])
    def test_quadrature_raises_below_its_bound(self, x, t):
        # x t**(-2 beta) = 1e-14, 1e-14, 1e-15: unguarded, quad returned 1.3e-13
        # t**-0.5, wrong by about 12 orders, whatever x t**-beta (1e-14, 1e-10, 1e-19)
        with pytest.raises(EvaluationError, match="too small for the quadrature"):
            inverse_stable_density_quadrature(0.5, x, t)

    def test_normalizes_in_x(self):
        beta, t = 0.75, 1.0
        mass, err = integrate.quad(
            lambda x: inverse_stable_density(beta, x, t), 0.0, np.inf, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [1e-307, 5e-308, 1e-310])
    def test_time_below_the_contour_scale_takes_the_quadrature(self, t):
        # r = 64/(5t) overflows, so no contour row is kept, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not distributions._density_talbot(0.7, np.array([1.0]), t)[2].any()
            expected = inverse_stable_density_quadrature(0.7, 1.0, t)
            assert repr(inverse_stable_density(0.7, 1.0, t)) == repr(expected)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["eval", "density", "--beta", "0.7", "--x", "1", "--t", repr(t)])
            assert code == 0 and float(out.getvalue()) == expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            inverse_stable_density(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            inverse_stable_density(0.5, 1.0, 0.0)


class TestInverseStableDensityArrayRoute:
    """The contour sum over both Talbot rules as one array."""

    # (beta, x, t) that reroute to the first-passage quadrature: the
    # transform overflows on the contour, or the 32- and 28-node rules
    # disagree
    REROUTED = [
        (0.6, 30.0, 0.5), (0.6, 100.0, 0.5), (0.6, 100.0, 2.0),
        (0.9, 1.0, 0.5), (0.9, 3.0, 0.5), (0.9, 10.0, 0.5), (0.9, 30.0, 0.5),
        (0.9, 100.0, 0.5), (0.9, 3.0, 2.0), (0.9, 10.0, 2.0), (0.9, 30.0, 2.0),
        (0.9, 100.0, 2.0), (0.9, 30.0, 10.0), (0.9, 100.0, 10.0),
    ]
    KEPT = [(0.3, 30.0, 0.5), (0.6, 1.0, 2.0), (0.9, 3.0, 10.0), (0.3, 1e-3, 0.5)]

    def test_seeded_sweep_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def oracle(beta, x, t, dps):
            with mpmath.workdps(dps):
                b = mpmath.mpf(beta)
                return mpmath.invertlaplace(
                    lambda s: s ** (b - 1) * mpmath.exp(-x * s**b), t, method="talbot"
                )

        rng = np.random.default_rng(20240611)
        for _ in range(24):
            beta = float(rng.choice([0.3, 0.4, 0.6, 0.7, 0.9]))
            x = float(np.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
            t = float(rng.choice([0.5, 2.0, 10.0]))
            ref30, ref40 = oracle(beta, x, t, 30), oracle(beta, x, t, 40)
            assert abs(ref30 - ref40) <= 1e-20
            ref = float(ref40)
            got = inverse_stable_density(beta, x, t)
            assert abs(got - ref) <= max(1e-9, 1e-7 * ref), (beta, x, t)

    def test_far_field_reroutes_to_quadrature(self, monkeypatch):
        calls = []
        quadrature = distributions.inverse_stable_density_quadrature

        def counted(*args):
            calls.append(args)
            return quadrature(*args)

        monkeypatch.setattr(distributions, "inverse_stable_density_quadrature", counted)
        for point in self.REROUTED:
            inverse_stable_density(*point)
        assert calls == self.REROUTED
        calls.clear()
        for point in self.KEPT:
            inverse_stable_density(*point)
        assert calls == []

    def test_quadrature_route_small_x(self):
        # mpmath fixed-Talbot at 30 and 45 digits; the contour route
        # returns it within 3e-12.  D(x)'s density at y <= t = 10 reaches
        # v = y x**(-1/beta) = 3600, where the Zolotarev quadrature of the
        # stable density came out 17% low and the large-v series now answers.
        got = inverse_stable_density_quadrature(0.9, 0.005059059557310797, 10.0)
        assert got == pytest.approx(0.013247013325335087, rel=1e-7)


class TestDensityGrid:
    """The array density kernel against the scalar route, row by row."""

    # x per (beta, t) from the bulk through the far field, where the two
    # Talbot rules disagree, to the overflow of the transform on the contour
    XS = np.geomspace(1e-3, 120.0, 97)
    GRID = list(itertools.product((0.3, 0.6, 0.75, 0.9), (0.5, 2.0, 10.0)))

    @staticmethod
    def _talbot_row(beta, x, t):
        """(contour value or None, why) by the scalar checks spelled out
        with 1-D sums and the noise guard on Python floats."""
        ln_factor, s_beta, ln_power = distributions._density_contour(beta, t)
        w = x * s_beta
        if (ln_power - w.real).max() > 700.0 or (ln_factor - w).real.max() > 700.0:
            return None, "overflow"
        terms = np.exp(ln_factor - w)
        scale = 2.0 / (5.0 * t)
        v32, v28 = (scale * float(part.real.sum()) for part in (terms[:32], terms[32:]))
        for value, part in ((v32, terms[:32]), (v28, terms[32:])):
            noise = float(np.abs(part).max()) * 2.3e-16 * scale
            if not math.isfinite(value) or noise > max(1e-6 * abs(value), 1e-9):
                return None, "noise"
        if abs(v32 - v28) > max(1e-9, 1e-7 * abs(v32)):
            return None, "disagree"
        return max(v32, 0.0), "kept"

    # sha256 of the scalar values' reprs over GRID x XS, one a line, pinned
    # from the scalar function that ran a one-row contour of its own
    SCALAR_DIGEST = "72167e1ce08a15df0039a185ca8b7593d66d532629efa48f13a4fe8e69956914"

    def test_rows_equal_the_scalar_function(self, monkeypatch):
        quadrature = distributions.inverse_stable_density_quadrature
        fallbacks = []

        def counted(beta, x, t):
            fallbacks.append((beta, x, t))
            return quadrature(beta, x, t)

        monkeypatch.setattr(distributions, "inverse_stable_density_quadrature", counted)
        grids = {(b, t): distributions._inverse_stable_density_grid(b, self.XS, t) for b, t in self.GRID}
        monkeypatch.undo()
        reasons = {"kept": 0, "disagree": 0, "overflow": 0}
        scalar = []
        for (beta, t), (values, spread) in grids.items():
            for x, value, err in zip(self.XS.tolist(), values.tolist(), spread.tolist()):
                scalar.append(repr(distributions.inverse_stable_density(beta, x, t)))
                assert repr(value) == scalar[-1], (beta, x, t)
                why = self._talbot_row(beta, x, t)[1]
                reasons[why] += 1
                assert ((beta, x, t) in fallbacks) == (why != "kept"), (beta, x, t)
                assert err >= 0.0 and (why == "kept" or err == 0.0)
        # the first-passage fallbacks are exactly the far-field and overflow rows
        assert reasons == {"kept": 974, "disagree": 65, "overflow": 125}
        assert len(fallbacks) == 65 + 125
        assert hashlib.sha256("\n".join(scalar).encode()).hexdigest() == self.SCALAR_DIGEST

    def test_checks_match_talbot_result(self):
        for beta, t in self.GRID:
            values, _, kept = distributions._density_talbot(beta, self.XS, t)
            for x, value, keep in zip(self.XS.tolist(), values.tolist(), kept.tolist()):
                expected, _ = self._talbot_row(beta, x, t)
                assert keep == (expected is not None), (beta, x, t)
                assert not keep or repr(value) == repr(expected)

    def test_agreement_check_at_its_threshold(self):
        # at beta = 0.9, t = 1 the spread of the two rules crosses 1e-7 |h|
        # near x = 1.4027: the kernel keeps the rows below it, row by row
        xs = np.linspace(1.38, 1.43, 51)
        _, spread, kept = distributions._density_talbot(0.9, xs, 1.0)
        expected = [self._talbot_row(0.9, x, 1.0)[1] == "kept" for x in xs.tolist()]
        assert kept.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    def test_noise_guard_rejects_a_cancelling_contour(self, monkeypatch):
        # terms of +1e8 and -1e8 in each rule sum to about 0 with a noise
        # of about 1e8 eps: only the noise guard rejects the row, since the
        # two rules agree
        crafted = np.full(60, -50.0 + 0j)
        crafted[[1, 33]] = math.log(1e8)
        crafted[[2, 34]] = complex(math.log(1e8), math.pi)
        monkeypatch.setattr(
            distributions, "_density_contour",
            lambda beta, t: (crafted, np.zeros(60, complex), np.zeros(60)),
        )
        assert self._talbot_row(0.6, 1.0, 1.0)[1] == "noise"
        _, spread, kept = distributions._density_talbot(0.6, np.array([1.0, 2.0]), 1.0)
        assert not kept.any()
        assert spread.max() <= 1e-9

    def test_half_order_keeps_the_contour_sums(self):
        xs = np.array([0.25, 1.0, 2.0])
        values, spread = distributions._inverse_stable_density_grid(0.5, xs, 2.0)
        closed = np.exp(-xs * xs / 8.0) / math.sqrt(2.0 * math.pi)
        assert np.abs(values - closed).max() < 1e-10
        assert (spread > 0.0).all()  # contour sums, not the quadrature


class TestFppPmfMixture:
    def test_matches_series_route(self):
        for n in (0, 1, 3):
            assert fpp_pmf_mixture(0.5, 1.0, 1.0, n) == pytest.approx(
                fpp_pmf(0.5, 1.0, 1.0, n), abs=1e-7
            )

    def test_beta_one_poisson(self):
        assert fpp_pmf_mixture(1.0, 2.0, 1.0, 3) == pytest.approx(
            stats.poisson.pmf(3, 2.0), rel=1e-12
        )

    def test_point_is_the_rows_function_at_one_count(self):
        for n in (0, 3, 17):
            assert fpp_pmf_mixture(0.6, 1.5, 2.0, n) == (
                distributions._fpp_pmf_mixture_rows(0.6, 1.5, 2.0, [n])[0]
            )

    def test_rows_match_mpmath(self):
        # z**n E^{n+1}_{beta, beta n + 1}(-z), z = lam t**beta, summed in
        # mpmath at 40 and 60 digits (the series cancels by up to 20 digits
        # at n = 40); the rows carry the density's Talbot accuracy, 1e-11
        mpmath = pytest.importorskip("mpmath")

        def oracle(beta, lam, t, n, dps):
            with mpmath.workdps(dps):
                b, z = mpmath.mpf(beta), mpmath.mpf(lam) * mpmath.mpf(t) ** mpmath.mpf(beta)
                total, r = mpmath.mpf(0), 0
                while True:
                    term = mpmath.rf(n + 1, r) / mpmath.factorial(r) * (-z) ** r * mpmath.rgamma(
                        b * (r + n) + 1
                    )
                    total += term
                    if r > 5 and abs(term) < mpmath.mpf(10) ** (-dps):
                        return z**n * total
                    r += 1

        for beta, lam, t in ((0.4, 1.0, 0.5), (0.6, 1.0, 2.0), (0.75, 2.0, 1.0)):
            rows = distributions._fpp_pmf_mixture_rows(beta, lam, t, range(0, 41, 4))
            for n, value in zip(range(0, 41, 4), rows):
                ref40, ref60 = oracle(beta, lam, t, n, 40), oracle(beta, lam, t, n, 60)
                assert abs(ref40 - ref60) < 1e-20
                assert abs(value - float(ref60)) < 2e-11, (beta, lam, t, n)

    def test_half_order_rows_match_the_closed_form_mixture(self):
        # h(x, t) = exp(-x**2/(4t))/sqrt(pi t) at beta = 1/2, integrated
        # against the Poisson weight by scipy on both sides of its peak
        def closed(lam, t, n):
            def integrand(x):
                return math.exp(
                    n * math.log(lam * x) - lam * x - gammaln(n + 1) - x * x / (4.0 * t)
                ) / math.sqrt(math.pi * t) if x > 0.0 else (1.0 / math.sqrt(math.pi * t) if n == 0 else 0.0)

            peak = (-lam + math.sqrt(lam * lam + 2.0 * n / t)) * t
            return sum(
                integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                for lo, hi in ((0.0, peak), (peak, np.inf))
            )

        for lam, t in ((1.0, 1.0), (2.0, 3.0)):
            rows = distributions._fpp_pmf_mixture_rows(0.5, lam, t, range(21))
            for n, value in enumerate(rows):
                assert abs(value - closed(lam, t, n)) < 1e-10, (lam, t, n)


class TestFppPmfMixtureGuard:
    """The mixture pmf raises instead of clamping a wrong total.

    The mixture takes its density values, with their error estimates,
    from the array kernel, one call per refinement round, so the wrong
    densities are patched in there.
    """

    @staticmethod
    def _kernel(density):
        return lambda beta, xs, t: (density(xs, t), np.zeros(xs.shape))

    @staticmethod
    def _half_order_density(xs, t):
        return np.exp(-xs * xs / (4.0 * t)) / math.sqrt(math.pi * t)

    def test_density_with_extra_mass_raises(self, monkeypatch):
        monkeypatch.setattr(
            distributions, "_inverse_stable_density_grid",
            self._kernel(lambda xs, t: 3.0 * self._half_order_density(xs, t)),
        )
        with pytest.raises(EvaluationError):
            fpp_pmf_mixture(0.5, 1.0, 1.0, 0)

    def test_negative_density_raises(self, monkeypatch):
        monkeypatch.setattr(
            distributions, "_inverse_stable_density_grid",
            self._kernel(lambda xs, t: -self._half_order_density(xs, t)),
        )
        with pytest.raises(EvaluationError):
            fpp_pmf_mixture(0.5, 1.0, 1.0, 2)

    def test_non_finite_density_raises(self, monkeypatch):
        monkeypatch.setattr(
            distributions, "_inverse_stable_density_grid",
            self._kernel(lambda xs, t: np.full(xs.shape, math.nan)),
        )
        with pytest.raises(EvaluationError):
            fpp_pmf_mixture(0.5, 1.0, 1.0, 1)

    def test_exact_density_passes(self, monkeypatch):
        monkeypatch.setattr(
            distributions, "_inverse_stable_density_grid", self._kernel(self._half_order_density)
        )
        for n in (0, 1, 4):
            assert fpp_pmf_mixture(0.5, 1.0, 1.0, n) == pytest.approx(
                fpp_pmf(0.5, 1.0, 1.0, n), abs=1e-9
            )


class TestWorkCounts:
    """Nested numerical work stays out of the spectral and density routes."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def _count_quad(self, monkeypatch):
        # only the quad calls made from distributions, not scipy-wide
        monkeypatch.setattr(
            distributions, "integrate", types.SimpleNamespace(quad=integrate.quad)
        )
        return self._count(monkeypatch, distributions.integrate, "quad")

    def test_kochubei_makes_two_flat_quad_calls(self, monkeypatch):
        calls = self._count_quad(monkeypatch)
        distributed_order_survival_kochubei(DistributedOrder((0.2, 1.0, 0.6)), 1.0, 1.0)
        assert len(calls) == 2

    def test_far_field_first_passage_skips_the_stable_density_quadrature(self, monkeypatch):
        # every D(x) density value inside [0, t] is past the underflow cut
        calls = self._count_quad(monkeypatch)
        assert inverse_stable_density_quadrature(0.6, 22.4, 0.5) == 0.0
        assert len(calls) == 1

    def test_master_residual_samples_its_grid_in_one_series_pass(self, monkeypatch):
        # the two right-hand-side values and the t = 0 point; the 1000
        # other grid points come from the array series pass
        from fracpoisson.fraccalc import governing_residual

        calls = self._count(monkeypatch, distributions, "fpp_pmf")
        governing_residual("fpp_master", {"beta": 0.5, "lam": 1, "step": 1e-3}, (2, 1.0))
        assert len(calls) <= 3

    def test_density_off_far_field_does_no_inversion_or_quadrature(self, monkeypatch):
        # the Talbot entry points: _invert_talbot is behind every
        # laplace_invert, and distributions binds _invert_talbot_array itself
        inversions = [
            self._count(monkeypatch, owner, name)
            for owner, name in (
                (transforms, "_invert_talbot"),
                (transforms, "_invert_talbot_array"),
                (distributions, "_invert_talbot_array"),
            )
        ]
        quads = self._count_quad(monkeypatch)
        for beta, x, t in ((0.3, 1.0, 1.0), (0.7, 0.5, 2.0), (0.9, 0.2, 10.0)):
            inverse_stable_density(beta, x, t)
        assert inversions == [[], [], []]
        assert quads == []

    def test_mixture_table_makes_few_kernel_passes(self, monkeypatch):
        # theorem31's four 41-row tables: a few refinement rounds each, one
        # kernel call per round, and (almost) no far-field node reaches
        # the scalar route's first-passage quadrature
        passes = self._count(monkeypatch, distributions, "_inverse_stable_density_grid")
        scalar = self._count(monkeypatch, distributions, "inverse_stable_density")
        for beta in (0.4, 0.6):
            for t in (0.5, 2.0):
                passes.clear()
                distributions._fpp_pmf_mixture_rows(beta, 1.0, t, range(41))
                assert 1 <= len(passes) <= 3
        assert len(scalar) <= 5

    def test_mixture_rows_off_the_contour_skip_a_second_contour(self, monkeypatch):
        # at beta = 0.9 the pass hands about a hundred far-field rows to the
        # first-passage quadrature, each without a one-row contour of its own
        passes = self._count(monkeypatch, distributions, "_inverse_stable_density_grid")
        contours = self._count(monkeypatch, distributions, "_density_talbot")
        handed = self._count(monkeypatch, distributions, "inverse_stable_density_quadrature")
        distributions._fpp_pmf_mixture_rows(0.9, 1.0, 1.0, range(20))
        assert len(contours) == len(passes) and len(handed) > 50


class TestRenewalMean:
    def test_stable_closed_form(self):
        for beta, t in [(0.5, 1.0), (0.7, 3.0)]:
            expected = t**beta / math.gamma(1.0 + beta)
            assert renewal_mean(Stable(beta), 1.0, t) == pytest.approx(
                expected, rel=1e-9
            )

    def test_tempered_frozen_value(self):
        assert renewal_mean(TemperedStable(0.5, 0.5), 1.0, 1.0) == pytest.approx(
            2.0147738001686314, rel=1e-8
        )

    def test_scales_linearly_in_rate(self):
        spec = Stable(0.6)
        assert renewal_mean(spec, 3.0, 1.0) == pytest.approx(
            3.0 * renewal_mean(spec, 1.0, 1.0), rel=1e-9
        )


class TestPmfTable:
    def test_rows_plus_bound_account_for_unit_mass(self):
        table = fpp_pmf_table(0.5, 1.0, 1.0)
        total = math.fsum(p for _, p in table.rows)
        assert total + table.tail_mass_bound == pytest.approx(1.0, abs=1e-8)

    def test_chernoff_bound_formula(self):
        # bound = e^t (lam/(lam + psi(1)))^(N*+1) by construction
        lam, t = 1.0, 1.0
        table = fpp_pmf_table(0.5, lam, t)
        n_star = len(table.rows) - 1
        expected = math.exp(t) * (lam / (lam + 1.0)) ** (n_star + 1)
        assert table.tail_mass_bound == pytest.approx(expected, rel=1e-12)
        assert table.tail_mass_bound < 1e-9

    def test_validation_rejects_gaps_and_negatives(self):
        with pytest.raises(DomainError):
            PmfTable(1.0, {}, ((0, 0.5), (2, 0.5)), 0.0)
        with pytest.raises(DomainError):
            PmfTable(1.0, {}, ((0, -0.1), (1, 1.1)), 0.0)
        with pytest.raises(DomainError):
            PmfTable(1.0, {}, ((0, 0.4), (1, 0.4)), 0.0)  # mass unaccounted

    def test_computed_rows_missing_mass_are_evaluation_errors(self, monkeypatch):
        monkeypatch.setattr("fracpoisson.distributions.fpp_pmf", lambda *args: 0.0)
        monkeypatch.setattr(
            "fracpoisson.distributions._general_pmf_rows",
            lambda spec, lam, t, first, stop: [0.0] * (stop - first),
        )
        with pytest.raises(EvaluationError):
            fpp_pmf_table(0.5, 1.0, 1.0)
        with pytest.raises(EvaluationError):
            general_pmf_table(TemperedStable(0.5, 1.0), 1.0, 1.0)

    def test_csv_and_json_carry_identical_numbers(self):
        table = fpp_pmf_table(0.5, 1.0, 1.0)
        csv_text = table.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[1] == "n,prob"
        csv_probs = [float(ln.split(",")[1]) for ln in lines[2:]]
        json_probs = [p for _, p in table.to_json()["rows"]]
        assert csv_probs == json_probs  # repr round trip preserves every bit

    def test_csv_header_metadata(self):
        table = fpp_pmf_table(0.5, 1.0, 2.0)
        header = table.to_csv().splitlines()[0]
        assert header.startswith("# t=2.0")
        assert "tail_mass_bound=" in header
        assert '"beta": 0.5' in header or "beta=0.5" in header

    def test_general_table_stable_delegates(self):
        direct = fpp_pmf_table(0.5, 1.0, 1.0)
        via_spec = general_pmf_table(Stable(0.5), 1.0, 1.0)
        assert [p for _, p in via_spec.rows] == [p for _, p in direct.rows]
        assert via_spec.params["spec"] == {"variant": "Stable", "beta": 0.5}

    def test_general_table_tempered(self):
        spec = TemperedStable(0.5, 0.5)
        table = general_pmf_table(spec, 1.0, 1.0)
        total = math.fsum(p for _, p in table.rows)
        assert total + table.tail_mass_bound == pytest.approx(1.0, abs=1e-7)
        assert table.rows[0][1] == pytest.approx(0.22451918779953368, rel=1e-7)


TABLE_SPECS = [
    TemperedStable(0.5, 1.0),
    StableMixture((0.5, 0.5), (0.4, 0.8)),
    DistributedOrder((0.5, 1.0)),
]


class TestArrayInversionRoute:
    """Each inversion evaluates its transform once, on the Talbot node array."""

    @staticmethod
    def _count_psi(monkeypatch, cls):
        shapes = []
        original = cls.psi

        def counted(self, s):
            shapes.append(np.shape(s))
            return original(self, s)

        monkeypatch.setattr(cls, "psi", counted)
        return shapes

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: type(s).__name__)
    def test_table_rows_are_the_point_values(self, spec):
        for lam, t in ((1.0, 0.5), (2.0, 3.0), (0.5, 0.01)):
            table = general_pmf_table(spec, lam, t)
            assert [repr(p) for _, p in table.rows] == [
                repr(general_pmf(spec, lam, t, n)) for n, _ in table.rows
            ]

    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch):
        spec = TemperedStable(0.5, 1.0)
        whole = general_pmf_table(spec, 1.0, 0.5).rows
        monkeypatch.setattr(distributions, "_TABLE_BLOCK", 7)
        assert general_pmf_table(spec, 1.0, 0.5).rows == whole

    def test_general_pmf_calls_psi_once_per_inversion(self, monkeypatch):
        shapes = self._count_psi(monkeypatch, TemperedStable)
        general_pmf(TemperedStable(0.5, 1.0), 1.0, 1.0, 3)
        assert shapes == [(32,)]

    def test_general_pmf_table_calls_psi_once_per_table(self, monkeypatch):
        shapes = self._count_psi(monkeypatch, StableMixture)
        table = general_pmf_table(StableMixture((0.5, 0.5), (0.4, 0.8)), 1.0, 0.5)
        assert len(table.rows) > 30
        # psi(1) sets the truncation index; one node array serves every row
        assert shapes == [(), (32,)]

    def test_a_failing_row_raises_naming_its_count(self, monkeypatch):
        spec, lam, t = TemperedStable(0.5, 1.0), 1.0, 0.5
        expected = general_pmf(spec, lam, t, 2)
        original = distributions._talbot_guard
        blocks = []

        def third_row_fails(*args):
            value, ok = original(*args)
            blocks.append(ok.shape)
            ok = ok.copy()
            ok[2] = False
            return value, ok

        monkeypatch.setattr(distributions, "_talbot_guard", third_row_fails)
        with pytest.raises(EvaluationError, match="^count 2: talbot cancellation swamped") as info:
            general_pmf_table(spec, lam, t)
        # the whole block passes the guard at once; the row is not retried
        assert len(blocks) == 1 and blocks[0][0] > 30
        assert info.value.partial == expected

    def test_overflow_on_the_contour_is_not_retried(self, monkeypatch):
        # the Talbot terms of these counts are not finite, where the pmf is
        # below 1e-50: one contour pass each, and it raises
        inversions = []
        rule = distributions._talbot_rule
        monkeypatch.setattr(
            distributions,
            "_talbot_rule",
            lambda *args, **kw: inversions.append(args) or rule(*args, **kw),
        )
        for n in (574, 600):
            with pytest.raises(EvaluationError, match="not finite on the talbot contour"):
                general_pmf(Stable(0.999), 50.0, 5.0, n)
            with pytest.raises(EvaluationError, match="not finite on the talbot contour"):
                fpp_pmf(0.999, 50.0, 5.0, n)
        # general_pmf and fpp_pmf's inversion route each sum one table row
        # on one contour per call
        assert len(inversions) == 4


class TestInversionOracle:
    """Values pinned from the array Talbot route, against mpmath's Talbot
    inversion of the exact transform at 40 and at 60 digits."""

    @staticmethod
    def _mp_psi(mpmath, spec):
        if isinstance(spec, Stable):
            return lambda s: s ** mpmath.mpf(spec.beta)
        if isinstance(spec, TemperedStable):
            b, a = mpmath.mpf(spec.beta), mpmath.mpf(spec.a)
            return lambda s: (s + a) ** b - a ** b
        if isinstance(spec, StableMixture):
            pairs = [(mpmath.mpf(w), mpmath.mpf(b)) for w, b in zip(spec.weights, spec.betas)]
            return lambda s: sum(w * s ** b for w, b in pairs)
        c0, c1 = (mpmath.mpf(c) for c in spec.poly)  # int_0^1 s**b (c0 + c1 b) db

        def psi(s):
            ln_s = mpmath.log(s)
            return c0 * (s - 1) / ln_s + c1 * (s / ln_s - (s - 1) / ln_s ** 2)

        return psi

    def _oracle(self, spec, lam, t, n):
        mpmath = pytest.importorskip("mpmath")
        values = []
        for dps in (40, 60):
            with mpmath.workdps(dps):
                psi = self._mp_psi(mpmath, spec)
                lam_mp = mpmath.mpf(lam)

                def F(s):
                    p = psi(s)
                    return p / s * lam_mp ** n / (lam_mp + p) ** (n + 1)

                values.append(mpmath.invertlaplace(F, mpmath.mpf(t), method="talbot"))
        assert abs(values[0] - values[1]) < 1e-30
        return float(values[1])

    @pytest.mark.parametrize(
        "beta, lam, t, n", [(0.5, 1.0, 30.0, 10), (0.7, 2.0, 10.0, 5), (0.9, 1.0, 20.0, 3)]
    )
    def test_inversion_routed_fpp_pmf(self, beta, lam, t, n):
        assert fpp_pmf(beta, lam, t, n) == pytest.approx(
            self._oracle(Stable(beta), lam, t, n), abs=1e-10
        )

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: type(s).__name__)
    def test_pinned_pmf_spec_table_rows(self, spec):
        # the rows of ``pmf --spec <spec> --lambda 1 --t 0.5``, as pinned
        # in test_golden_bytes.py
        out = io.StringIO()
        argv = ["pmf", "--spec", json.dumps(spec_to_json(spec)), "--lambda", "1", "--t", "0.5"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        rows = [line.split(",") for line in out.getvalue().splitlines()[2:]]
        for n in (0, 1, 5, 10, len(rows) - 1):
            assert int(rows[n][0]) == n
            assert float(rows[n][1]) == pytest.approx(
                self._oracle(spec, 1.0, 0.5, n), abs=1e-10
            )
