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
    _DEFAULT_CONTROL,
    _effective_switch,
    _ml_power_series,
    _prabhakar_series,
    _series_rows,
    SeriesControl,
    ml_one,
    ml_waiting_pdf,
    ml_waiting_survival,
    prabhakar,
)

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

    def test_series_asymptotic_branch_agreement(self):
        # evaluate the same point with both branches; they may only differ
        # by the asymptotic optimal-truncation floor near the switch
        force_asym = SeriesControl(asymptotic_switch=1e-3)
        for beta in (0.4, 0.6, 0.8):
            z = -0.95 * _effective_switch(beta, _DEFAULT_CONTROL)
            series_val = ml_one(beta, z)
            asym_val = ml_one(beta, z, force_asym)
            assert abs(series_val - asym_val) < 1e-7
            assert abs(series_val - asym_val) < 2e-6 * series_val


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
        switch = _effective_switch(alpha, _DEFAULT_CONTROL)
        zs = np.linspace(-switch, 0.5 * switch, 151)
        sums, tops = _series_rows(gamma, alpha, theta, zs)
        for z, total, top in zip(zs.tolist(), sums.tolist(), tops.tolist()):
            try:
                expected = _prabhakar_series(gamma, alpha, theta, z, _DEFAULT_CONTROL)
            except EvaluationError:
                assert math.isnan(total) and math.isnan(top), z
            else:
                assert (repr(total), top) == (repr(expected[0]), expected[1]), z

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.999])
    def test_ml_rows_equal_the_power_series(self, beta):
        # ml_one's loop has no cancellation guard: rows past the switch
        # (up to ~250 terms at beta = 1/2) are summed as the loop sums them
        switch = _effective_switch(beta, _DEFAULT_CONTROL)
        zs = np.linspace(-1.5 * switch, switch, 151)
        sums, _ = _series_rows(1.0, beta, 1.0, zs, ml=True)
        for z, total in zip(zs.tolist(), sums.tolist()):
            try:
                expected = _ml_power_series(beta, z, _DEFAULT_CONTROL)
            except EvaluationError:
                assert math.isnan(total), z
            else:
                assert repr(total) == repr(expected), z

    def test_rows_the_loop_sums_otherwise_are_nan(self):
        # cancellation guard (the loop raises), lgamma branch (the loop
        # answers by another formula), no stop within max_terms (raises)
        sums, tops = _series_rows(1.0, 0.5, 1.0, [-5.5])
        with pytest.raises(EvaluationError):
            _prabhakar_series(1.0, 0.5, 1.0, -5.5, _DEFAULT_CONTROL)
        assert math.isnan(sums[0]) and math.isnan(tops[0])
        assert math.isnan(_series_rows(1.0, 0.5, 170.0, [-1.0])[0][0])
        with pytest.raises(EvaluationError):
            _ml_power_series(0.3, -4.0, _DEFAULT_CONTROL)
        assert math.isnan(_series_rows(1.0, 0.3, 1.0, [-4.0], ml=True)[0][0])


class TestWaitingTime:
    def test_survival_is_ml(self):
        for beta, lam, t in [(0.5, 1.0, 1.0), (0.7, 2.0, 0.5)]:
            assert ml_waiting_survival(beta, lam, t) == pytest.approx(
                ml_one(beta, -lam * t**beta), rel=1e-14
            )

    def test_survival_at_zero(self):
        assert ml_waiting_survival(0.5, 1.0, 0.0) == 1.0

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


class TestSeriesControl:
    def test_custom_control_accepted(self):
        ctrl = SeriesControl(max_terms=5000)
        assert ml_one(0.5, -1.0, ctrl) == pytest.approx(0.4275835761558070, rel=1e-12)

    def test_defaults_sane(self):
        ctrl = SeriesControl()
        assert ctrl.max_terms >= 100
        assert 0.0 < ctrl.abs_tol <= 1e-10

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            SeriesControl(abs_tol=-1.0)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=3)
