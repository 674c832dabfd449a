"""Tests for the Mittag-Leffler family against extended-precision values.

Frozen constants were computed with mpmath: power series at adaptive
precision, the completely-monotone spectral integral, and Talbot
inversion of the known Laplace transforms, cross-checked against each
other to well below float64 resolution before freezing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpoisson.errors import DomainError, EvaluationError
from fracpoisson.special import (
    _ASYMPTOTIC_TERMS,
    _asymptotic_series,
    _effective_switch,
    _prabhakar_series,
    _series_rows,
    ml_one,
    ml_waiting_pdf,
    ml_waiting_survival,
    prabhakar,
)

from oracles import fpp_pmf_series

# (beta, z) -> E_beta(z), series/spectral/inversion routes agreeing
ML_ONE_VALUES = [
    (0.3, -0.5, 0.63264900594355523),
    (0.3, -2.0, 0.29023222616787536),
    (0.5, -0.5, 0.61569034419292587),
    (0.5, -1.0, 0.42758357615580700),
    (0.5, -2.0, 0.25539567631050574),
    (0.7, -0.5, 0.60514759205956427),
    (0.7, -2.0, 0.21378672701529728),
    (0.7, -10.0, 0.036173265542309158),
    (0.9, -2.0, 0.16352830001693004),
    # deep negative: asymptotic branch
    (0.3, -50.0, 0.015228201501814695),
    (0.5, -30.0, 0.018795888861416751),
    (0.7, -40.0, 0.0085261702309107444),
    (0.9, -100.0, 0.001068972418287089),
    # positive, inside the series radius
    (0.5, 1.0, 5.0089800807622835),
    (0.7, 2.0, 20.966433131481956),
]

# (gamma, alpha, theta, z) -> E^gamma_{alpha,theta}(z)
PRABHAKAR_VALUES = [
    (2.0, 0.6, 1.6, -0.5, 0.53203845637793438),
    (3.0, 0.5, 2.5, -5.75, 0.0037832082246033671),
    (1.5, 0.4, 1.0, -2.0, 0.13358489633499604),
    (11.0, 0.5, 6.5, -5.75, 9.2003649218006577e-10),
    (1.0, 0.5, 0.5, -1.0, 0.13660600739194928),
    (1.0, 0.5, 1.5, -4.0, 0.21575013559373465),
    (2.5, 0.8, 3.0, 1.2, 2.0330424167297452),
    # deep negative: asymptotic branch
    (2.0, 0.6, 1.6, -26.4, 0.0006643237979094903),
    (4.0, 0.3, 2.2, -100.0, 9.6963333600990392e-9),
    (2.0, 0.5, 2.0, -900.0, 1.2330200579231294e-6),
]


class TestMlOne:
    @pytest.mark.parametrize("beta, z, expected", ML_ONE_VALUES)
    def test_frozen_values(self, beta, z, expected):
        assert ml_one(beta, z) == pytest.approx(expected, rel=1e-10)

    def test_golden_point(self):
        # the half-order value also equals e * erfc(1)
        assert abs(ml_one(0.5, -1.0) - 0.4275835761558070) < 1e-12

    def test_half_order_closed_form(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        from scipy.special import erfc

        for x in (0.25, 1.0, 3.0):
            assert ml_one(0.5, -x) == pytest.approx(
                math.exp(x * x) * erfc(x), rel=1e-10
            )

    def test_beta_one_is_exp(self):
        for z in (-3.0, -1.0, 0.5, 2.0):
            assert ml_one(1.0, z) == pytest.approx(math.exp(z), rel=1e-14)

    def test_at_zero(self):
        assert ml_one(0.5, 0.0) == 1.0

    def test_deep_tail_asymptote(self):
        # leading algebraic tail: E_beta(-x) ~ 1/(x Gamma(1-beta))
        beta, x = 0.5, 1e6
        lead = 1.0 / (x * math.gamma(1.0 - beta))
        assert ml_one(beta, -x) == pytest.approx(lead, rel=1e-2)

    @pytest.mark.parametrize("beta", [-0.1, 0.0, 1.5])
    def test_bad_beta(self, beta):
        with pytest.raises(DomainError):
            ml_one(beta, -1.0)

    def test_positive_z_outside_radius(self):
        with pytest.raises(DomainError):
            ml_one(0.3, 1e6)

    def test_nonfinite_z(self):
        with pytest.raises(DomainError):
            ml_one(0.5, math.nan)

    @given(
        beta=st.floats(0.1, 0.95),
        x=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_negative_axis(self, beta, x):
        val = ml_one(beta, -x)
        assert 0.0 < val < 1.0

    @given(beta=st.floats(0.2, 0.9), x=st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_decreasing(self, beta, x):
        assert ml_one(beta, -1.01 * x) < ml_one(beta, -x)

    @pytest.mark.parametrize("beta", [0.1, 0.15, 0.2])
    def test_series_converges_up_to_the_switch_at_small_beta(self, beta):
        # the series needs up to ~720 terms here; its term budget once let
        # the switch sit past the z where 500 terms sufficed, and z from
        # -1.324 to -1.256 raised at beta = 0.1 (a sliver at beta = 0.15)
        mpmath = pytest.importorskip("mpmath")

        def oracle(z, dps):
            with mpmath.workdps(dps):
                b, zz = mpmath.mpf(beta), mpmath.mpf(z)
                total, k = mpmath.mpf(0), 0
                while True:
                    term = zz**k * mpmath.rgamma(1 + b * k)
                    total += term
                    if k > 10 and abs(term) < mpmath.mpf(10) ** (-dps):
                        return total
                    k += 1

        switch = _effective_switch(beta)
        for z in np.linspace(-switch, switch, 17).tolist():
            ref30, ref40 = oracle(z, 30), oracle(z, 40)
            assert abs(ref30 - ref40) < 1e-20
            # the series' rounding near the cancellation cap: up to 2e-7
            # absolute on the negative axis, 1e-15 relative on the positive
            assert abs(ml_one(beta, z) - float(ref40)) <= 5e-7 * max(1.0, abs(float(ref40))), z

    def test_series_asymptotic_branch_agreement(self):
        # evaluate the same point with both branches; they may only differ
        # by the asymptotic optimal-truncation floor near the switch
        for beta in (0.4, 0.6, 0.8):
            z = -0.95 * _effective_switch(beta)
            series_val = ml_one(beta, z)
            asym_val, _ = _asymptotic_series(
                1.0, 1.0, beta, 1.0, math.log(-z), _ASYMPTOTIC_TERMS - 1, reflect=True
            )
            assert abs(series_val - asym_val) < 1e-7
            assert abs(series_val - asym_val) < 2e-6 * series_val

    # (beta, worst absolute error on the series side, z from -0.8 switch to
    # -switch, and past it, out to max(60, 3 switch)), as the module's
    # accuracy note gives them; None where the note gives no figure
    @pytest.mark.parametrize("beta, series_error, past_error", [
        (0.1, 6.5e-8, None), (0.2, 1.65e-7, None), (0.3, 9.1e-8, None),
        (0.4, 7.6e-8, None), (0.5, 1.6e-8, None), (0.7, 7.5e-9, 1.4e-9),
        (0.8, 2.3e-8, 3.3e-9), (0.9, 1e-9, 3.1e-7), (0.95, 1e-9, 3.9e-6),
        (0.99, 1e-9, 2.9e-5), (0.999, 1e-9, 4.4e-5),
    ])
    def test_errors_within_the_accuracy_note(self, beta, series_error, past_error):
        pytest.importorskip("mpmath")
        switch = _effective_switch(beta)
        sides = [(np.linspace(0.8 * switch, switch, 6), series_error)]
        if past_error is not None:
            far = max(60.0, 3.0 * switch)
            sides.append((np.geomspace(math.nextafter(switch, math.inf), far, 6), past_error))
        for xs, bound in sides:
            for x in xs.tolist():
                exact = float(fpp_pmf_series(beta, x, 0))
                # the note's figures are rounded from a finer grid
                assert abs(ml_one(beta, -x) - exact) <= 1.1 * bound, x


class TestPrabhakar:
    @pytest.mark.parametrize("g, a, th, z, expected", PRABHAKAR_VALUES)
    def test_frozen_values(self, g, a, th, z, expected):
        assert prabhakar(g, a, th, z) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("z", [-2.0, -0.5, 1.0])
    def test_reduces_to_ml_one(self, beta, z):
        assert abs(prabhakar(1.0, beta, 1.0, z) - ml_one(beta, z)) < 1e-12

    def test_at_zero(self):
        # E^g_{a,th}(0) = 1/Gamma(th)
        assert prabhakar(2.0, 0.5, 1.5, 0.0) == pytest.approx(
            1.0 / math.gamma(1.5), rel=1e-14
        )

    @pytest.mark.parametrize("bad", [(0.0, 0.5, 1.0), (2.0, -0.5, 1.0), (2.0, 0.5, 0.0)])
    def test_bad_parameters(self, bad):
        g, a, th = bad
        with pytest.raises(DomainError):
            prabhakar(g, a, th, -1.0)

    @given(
        g=st.floats(0.5, 4.0),
        a=st.floats(0.3, 0.9),
        slack=st.floats(0.0, 1.5),
        x=st.floats(0.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_on_negative_axis(self, g, a, slack, x):
        # complete monotonicity holds for alpha*gamma <= theta; outside
        # that wedge the function genuinely changes sign
        th = a * g + slack
        assert prabhakar(g, a, th, -x) > 0.0

    @pytest.mark.xfail(raises=EvaluationError, strict=True,
                       reason="asymptotic truncation floor 1.31e-06 just past the series switch")
    def test_positive_just_past_the_series_switch(self):
        # a counterexample hypothesis finds for the test above about once in
        # ten random runs: -z is just past the switch for alpha = 0.34375
        assert prabhakar(3.0, 0.34375, 1.03125, -2.75) > 0.0

    def test_sign_change_outside_monotone_wedge(self):
        # alpha*gamma > theta: oracle value -0.0045791606893... at z = -2
        assert prabhakar(3.0, 0.5, 1.0, -2.0) == pytest.approx(
            -0.00457916068938, rel=1e-9
        )


class TestSeriesRows:
    """The array series pass sums each row exactly as the scalar loops do."""

    @pytest.mark.parametrize("gamma, alpha, theta", [
        (1.0, 0.5, 1.0),      # E_1/2
        (3.0, 0.5, 2.0),      # fpp_pmf's series at beta = 1/2, n = 2
        (41.0, 0.9, 37.0),    # n = 40 at beta = 0.9
        (2.5, 0.4, 0.7),
        (1.0, 0.3, 60.0),     # terms climb for many orders before decaying
    ])
    def test_rows_equal_the_scalar_loop(self, gamma, alpha, theta):
        # z up to the switch needs rows wider than the first 64 columns
        switch = _effective_switch(alpha)
        zs = np.linspace(-switch, 0.5 * switch, 151)
        sums, tops = _series_rows(gamma, alpha, theta, zs)
        for z, total, top in zip(zs.tolist(), sums.tolist(), tops.tolist()):
            try:
                expected = _prabhakar_series(gamma, alpha, theta, z)
            except EvaluationError:
                assert math.isnan(total) and math.isnan(top), z
            else:
                assert (repr(total), top) == (repr(expected[0]), expected[1]), z

    @pytest.mark.parametrize("beta, z", [(0.3, -2.0), (0.5, -4.0), (0.9, -7.0), (0.999, -10.0)])
    def test_per_row_gamma_and_theta_equal_the_scalar_loop(self, beta, z):
        # the series pass of a pmf table at one z: gamma = n + 1 and
        # theta = beta n + 1, with rows that raise, rows wider than 64
        # columns and, at large n, rows that reach the lgamma branch
        ns = np.arange(1, 400)
        sums, tops = _series_rows(ns + 1.0, beta, beta * ns + 1.0, z)
        seen = set()
        for n, total, top in zip(ns.tolist(), sums.tolist(), tops.tolist()):
            if top == math.inf:
                seen.add("lgamma branch")
                assert math.isnan(total), n
                continue
            try:
                expected = _prabhakar_series(n + 1.0, beta, beta * n + 1.0, z)
            except EvaluationError:
                seen.add("raises")
                assert math.isnan(total) and math.isnan(top), n
            else:
                seen.add("sums")
                assert (repr(total), top) == (repr(expected[0]), expected[1]), n
        assert "sums" in seen and len(seen) > 1, seen

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 0.9, 0.999])
    def test_ml_rows_equal_the_power_series(self, beta):
        # ml_one's series answers on the whole disk |z| <= switch, where
        # the rows need up to ~720 terms (beta = 0.1) and none is guarded off
        switch = _effective_switch(beta)
        zs = np.linspace(-switch, switch, 151)
        sums, _ = _series_rows(1.0, beta, 1.0, zs)
        for z, total in zip(zs.tolist(), sums.tolist()):
            assert repr(total) == repr(ml_one(beta, z)), z

    def test_rows_the_loop_sums_otherwise_are_nan(self):
        # cancellation guard (the loop raises), lgamma branch (the loop
        # answers by another formula), no stop within max_terms (raises)
        sums, tops = _series_rows(1.0, 0.5, 1.0, [-5.5])
        with pytest.raises(EvaluationError):
            _prabhakar_series(1.0, 0.5, 1.0, -5.5)
        assert math.isnan(sums[0]) and math.isnan(tops[0])
        assert math.isnan(_series_rows(1.0, 0.5, 170.0, [-1.0])[0][0])


class TestWaitingTime:
    def test_survival_is_ml(self):
        for beta, lam, t in [(0.5, 1.0, 1.0), (0.7, 2.0, 0.5)]:
            assert ml_waiting_survival(beta, lam, t) == pytest.approx(
                ml_one(beta, -lam * t**beta), rel=1e-14
            )

    def test_survival_at_zero(self):
        assert ml_waiting_survival(0.5, 1.0, 0.0) == 1.0

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 1: ml_one past its series switch as beta -> 1")
    def test_survival_near_beta_one_past_the_switch(self):
        pytest.importorskip("mpmath")
        # z = 15**0.999 = 14.96, past the switch at 10: off by 3.0e-7
        exact = float(fpp_pmf_series(0.999, 15.0 ** 0.999, 0))
        assert abs(ml_waiting_survival(0.999, 1.0, 15.0) - exact) <= 1e-10

    @pytest.mark.parametrize(
        "beta, lam, t, expected",
        [
            (0.5, 1.0, 1.0, 0.13660600739194928),
            (0.8, 2.0, 0.7, 0.32064105204053478),
            (0.3, 0.5, 2.0, 0.037741082622293901),
        ],
    )
    def test_pdf_frozen_values(self, beta, lam, t, expected):
        assert ml_waiting_pdf(beta, lam, t) == pytest.approx(expected, rel=1e-9)

    def test_pdf_matches_survival_slope(self):
        # f = -dS/dt, via a central difference
        beta, lam, t, h = 0.6, 1.0, 1.3, 1e-6
        slope = (
            ml_waiting_survival(beta, lam, t + h)
            - ml_waiting_survival(beta, lam, t - h)
        ) / (2.0 * h)
        assert ml_waiting_pdf(beta, lam, t) == pytest.approx(-slope, rel=1e-7)

    def test_pdf_beta_one_exponential(self):
        assert ml_waiting_pdf(1.0, 2.0, 0.3) == pytest.approx(
            2.0 * math.exp(-0.6), rel=1e-14
        )

    def test_pdf_integrates_to_cdf(self):
        from scipy import integrate

        beta, lam, t = 0.5, 1.0, 2.0
        mass, _ = integrate.quad(
            lambda u: ml_waiting_pdf(beta, lam, u), 0.0, t, points=[1e-6]
        )
        assert mass == pytest.approx(1.0 - ml_waiting_survival(beta, lam, t), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml_waiting_survival(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            ml_waiting_survival(0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml_waiting_pdf(0.5, 1.0, 0.0)

