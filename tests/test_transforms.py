"""Tests for subordinator specs, Laplace machinery, and jump laws.

Levy-tail constants were frozen from mpmath quadrature of the defining
integrals, cross-checked against the incomplete-gamma closed forms.
"""

import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpoisson.distributions import fpp_pmf, general_pmf
from fracpoisson.errors import DomainError, EvaluationError
from fracpoisson.processes import simulate_timechange_renewal
from fracpoisson.samplers import RngStream, sample_subordinator_at
from fracpoisson.special import ml_one
from fracpoisson.transforms import (
    _invert_talbot_array,
    _talbot_rule,
    DistributedOrder,
    JumpDist,
    Stable,
    StableMixture,
    TemperedStable,
    bern_identity_check,
    laplace_exponent,
    laplace_forward,
    laplace_invert,
    levy_tail,
    spec_from_json,
    spec_to_json,
)

ALL_SPECS = [
    Stable(0.6),
    TemperedStable(0.5, 1.0),
    StableMixture((0.5, 0.5), (0.3, 0.7)),
    DistributedOrder((1.0,)),
    DistributedOrder((0.5, 1.0)),
]


class TestSpecs:
    def test_stable_validation(self):
        with pytest.raises(DomainError):
            Stable(0.0)
        with pytest.raises(DomainError):
            Stable(1.0)

    def test_tempered_validation(self):
        with pytest.raises(DomainError):
            TemperedStable(0.5, 0.0)
        with pytest.raises(DomainError):
            TemperedStable(1.2, 1.0)

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            StableMixture((), ())
        with pytest.raises(DomainError):
            StableMixture((0.5,), (0.3, 0.7))
        with pytest.raises(DomainError):
            StableMixture((-0.5, 0.5), (0.3, 0.7))

    def test_distributed_order_validation(self):
        with pytest.raises(DomainError):
            DistributedOrder(())
        # negative on [0, 1]
        with pytest.raises(DomainError):
            DistributedOrder((-1.0, 0.3))
        with pytest.raises(DomainError):
            DistributedOrder((0.0,))

    def test_distributed_order_weight(self):
        spec = DistributedOrder((0.5, 1.0))
        assert spec.weight(0.0) == pytest.approx(0.5)
        assert spec.weight(1.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_json_round_trip(self, spec):
        data = spec_to_json(spec)
        assert spec_from_json(data) == spec
        # string form too
        assert spec_from_json(json.dumps(data)) == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DomainError):
            spec_from_json({"variant": "Cauchy", "beta": 0.5})
        with pytest.raises(DomainError):
            spec_from_json([1, 2, 3])
        with pytest.raises(DomainError):
            spec_from_json({"variant": "Stable"})
        # missing, ill-typed and unparseable fields, a non-string variant,
        # truncated JSON
        with pytest.raises(DomainError):
            spec_from_json({"variant": "StableMixture"})
        with pytest.raises(DomainError):
            spec_from_json({"variant": "StableMixture", "weights": 5, "betas": [0.5]})
        with pytest.raises(DomainError):
            spec_from_json({"variant": "DistributedOrder", "poly": "ab"})
        with pytest.raises(DomainError):
            spec_from_json({"variant": ["Stable"], "beta": 0.5})
        with pytest.raises(DomainError):
            spec_from_json('{"variant": "Stable", "beta": ')


class TestNonSpecArguments:
    """Anything that is not a spec is a DomainError, at every entry point."""

    @pytest.mark.parametrize("bad", ["Stable", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: laplace_exponent(spec, 1.0),
            lambda spec: levy_tail(spec, 1.0),
            lambda spec: bern_identity_check(spec, 1.0),
            lambda spec: sample_subordinator_at(spec, [1.0], RngStream(1)),
            lambda spec: simulate_timechange_renewal(spec, 1.0, 1.0, RngStream(1)),
            lambda spec: general_pmf(spec, 1.0, 1.0, 0),
            spec_to_json,
        ],
        ids=[
            "laplace_exponent",
            "levy_tail",
            "bern_identity_check",
            "sample_subordinator_at",
            "simulate_timechange_renewal",
            "general_pmf",
            "spec_to_json",
        ],
    )
    def test_domain_error(self, call, bad):
        with pytest.raises(DomainError):
            call(bad)


class TestLaplaceExponent:
    def test_stable_power(self):
        assert laplace_exponent(Stable(0.5), 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_tempered_closed_form(self):
        spec = TemperedStable(0.5, 1.0)
        expected = math.sqrt(3.0) - 1.0
        assert laplace_exponent(spec, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_mixture_sum(self):
        spec = StableMixture((0.5, 0.5), (0.3, 0.7))
        s = 2.0
        expected = 0.5 * s**0.3 + 0.5 * s**0.7
        assert laplace_exponent(spec, s) == pytest.approx(expected, rel=1e-14)

    def test_distributed_order_uniform(self):
        # int_0^1 s^b db = (s - 1)/log s
        spec = DistributedOrder((1.0,))
        for s in (0.5, 2.0, 10.0):
            expected = (s - 1.0) / math.log(s)
            assert laplace_exponent(spec, s) == pytest.approx(expected, rel=1e-10)

    def test_vanishes_at_zero(self):
        for spec in ALL_SPECS:
            assert laplace_exponent(spec, 0.0) == 0.0

    def test_complex_conjugate_symmetry(self):
        for spec in ALL_SPECS:
            v = laplace_exponent(spec, 1.0 + 2.0j)
            w = laplace_exponent(spec, 1.0 - 2.0j)
            assert v == pytest.approx(w.conjugate(), rel=1e-12)

    def test_negative_real_axis_rejected(self):
        with pytest.raises(DomainError):
            laplace_exponent(Stable(0.5), -1.0)
        with pytest.raises(DomainError):
            laplace_exponent(Stable(0.5), complex(-1.0, 0.0))

    @given(s=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_monotone_concave_stable(self, s):
        # psi is a Bernstein function: increasing, concave
        spec = Stable(0.7)
        h = 1e-4 * s
        lo, mid, hi = (laplace_exponent(spec, x) for x in (s - h, s, s + h))
        assert lo < mid < hi
        assert hi - 2.0 * mid + lo <= 1e-12 * mid


class TestLevyTail:
    def test_stable_closed_form(self):
        beta = 0.6
        for t in (0.25, 1.0, 4.0):
            expected = t ** (-beta) / math.gamma(1.0 - beta)
            assert levy_tail(Stable(beta), t) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "beta, a, t, expected",
        [
            (0.5, 1.0, 0.5, 0.1666309411753726),
            (0.5, 1.0, 2.0, 0.0084907026168296375),
            (0.7, 0.5, 1.0, 0.088134394883769615),
            (0.3, 2.0, 0.25, 0.16347269485855999),
        ],
    )
    def test_tempered_frozen_values(self, beta, a, t, expected):
        assert levy_tail(TemperedStable(beta, a), t) == pytest.approx(
            expected, rel=1e-10
        )

    @pytest.mark.parametrize(
        "t, expected",
        [(0.5, 0.69414001223264401), (1.0, 0.54123573432867053), (0.1, 1.3824472979976426)],
    )
    def test_distributed_order_frozen_values(self, t, expected):
        assert levy_tail(DistributedOrder((1.0,)), t) == pytest.approx(
            expected, rel=1e-9
        )

    def test_distributed_order_deep_tail_continuity(self):
        # the moment expansion takes over below t = exp(-40)
        spec = DistributedOrder((1.0,))
        t_hi = math.exp(-39.9)
        t_lo = math.exp(-40.1)
        hi = levy_tail(spec, t_hi)
        lo = levy_tail(spec, t_lo)
        assert lo > hi > 0.0
        # both sides of the switch follow ~ e^u/u^2 within a few percent
        ratio = lo / hi
        model = math.exp(40.1 - 39.9) * (39.9 / 40.1) ** 2
        assert ratio == pytest.approx(model, rel=1e-2)

    def test_mixture_additivity(self):
        mix = StableMixture((0.4, 0.6), (0.3, 0.8))
        t = 0.7
        expected = 0.4 * levy_tail(Stable(0.3), t) + 0.6 * levy_tail(Stable(0.8), t)
        assert levy_tail(mix, t) == pytest.approx(expected, rel=1e-13)

    def test_vectorized(self):
        t = np.array([0.5, 1.0, 2.0])
        out = levy_tail(Stable(0.5), t)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            levy_tail(Stable(0.5), 0.0)

    @given(t=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_tempered_below_stable(self, t):
        # damping can only remove mass
        assert levy_tail(TemperedStable(0.5, 1.0), t) <= levy_tail(Stable(0.5), t)


class TestJumpDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            JumpDist(())
        with pytest.raises(DomainError):
            JumpDist(((1.0, 0.6), (-1.0, 0.6)))
        with pytest.raises(DomainError):
            JumpDist(((1.0, 1.5), (-1.0, -0.5)))

    def test_char_fn_symmetric(self):
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        k = np.array([0.0, 0.5, 1.0, 2.0])
        vals = jumps.char_fn(k)
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(vals.real, np.cos(k), rtol=1e-14)

    def test_char_fn_at_zero_is_one(self):
        jumps = JumpDist(((2.0, 0.25), (0.5, 0.75)))
        assert jumps.char_fn(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_fourier_symbol(self):
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        lam, k = 2.0, 1.0
        expected = lam * (1.0 - math.cos(k))
        assert jumps.fourier_symbol(k, lam) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            jumps.fourier_symbol(k, 0.0)

    def test_json_round_trip(self):
        jumps = JumpDist(((1.5, 0.25), (-0.5, 0.75)))
        assert JumpDist.from_json(jumps.to_json()) == jumps
        assert JumpDist.from_json(json.dumps(jumps.to_json())) == jumps

    def test_arrays_built_once_and_read_only(self):
        jumps = JumpDist(((1.5, 0.25), (-0.5, 0.75)))
        assert jumps.locations is jumps.locations
        assert jumps.probabilities is jumps.probabilities
        assert jumps.locations.tolist() == [1.5, -0.5]
        assert jumps.probabilities.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            jumps.locations[0] = 0.0
        assert hash(jumps) == hash(JumpDist(((1.5, 0.25), (-0.5, 0.75))))

    @pytest.mark.parametrize("atoms", [
        ((1.0, 0.5), (-2.0, 0.25), (0.5, 0.25)),
        ((3.0, 1.0),),
        ((0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)),
        ((-1.0, 1.0 / 3.0), (0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0)),
    ])
    def test_draws_equal_generator_choice(self, atoms):
        jumps = JumpDist(atoms)
        for seed in range(20):
            for size in (0, 1, 7, 40):
                mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
                want = numpys.choice(jumps.locations, size=size, p=jumps.probabilities)
                assert jumps._draw(mine, size).tolist() == want.tolist()
                assert mine.random() == numpys.random()  # same stream position


class TestLaplaceForward:
    def test_exponential_pair(self):
        for s in (0.5, 1.0, 2.0):
            got = laplace_forward(lambda t: math.exp(-t), s)
            assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-9)

    def test_polynomial_pair(self):
        got = laplace_forward(lambda t: t, 1.5)
        assert got == pytest.approx(1.0 / 1.5**2, rel=1e-8)

    def test_singular_origin(self):
        # t^{-1/2} -> sqrt(pi/s)
        got = laplace_forward(lambda t: t ** -0.5, 2.0)
        assert got == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-7)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(DomainError):
            laplace_forward(lambda t: math.exp(-t), 0.0)


class TestLaplaceInvert:
    def test_exponential(self):
        for t in (0.5, 1.0, 3.0):
            got = laplace_invert(lambda s: 1.0 / (s + 1.0), t)
            assert got == pytest.approx(math.exp(-t), rel=1e-9)

    def test_ramp(self):
        got = laplace_invert(lambda s: 1.0 / s**2, 2.0)
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_ml_survival_transform(self):
        # s^{beta-1}/(s^beta + 1) inverts to E_beta(-t^beta)
        beta = 0.5
        for t in (0.5, 1.0, 2.0):
            got = laplace_invert(
                lambda s: s ** (beta - 1.0) / (s**beta + 1.0), t
            )
            assert got == pytest.approx(ml_one(beta, -t**beta), rel=1e-8)

    def test_talbot_precision_on_decaying_pair(self):
        t = 1.5
        got = laplace_invert(lambda s: 1.0 / (s + 1.0) ** 2, t, method="talbot")
        assert got == pytest.approx(t * math.exp(-t), rel=1e-9)

    def test_method_aliases(self):
        f = lambda s: 1.0 / (s + 1.0)
        a = laplace_invert(f, 1.0, method="fixed-talbot")
        b = laplace_invert(f, 1.0, method="talbot")
        assert a == b

    def test_unknown_method(self):
        # fixed-Talbot is the only rule; Gaver-Stehfest is no longer offered
        for method in ("fourier", "stehfest", "gaver-stehfest"):
            with pytest.raises(DomainError):
                laplace_invert(lambda s: 1.0 / s, 1.0, method=method)

    @pytest.mark.parametrize("t", [1e-307, 5e-308, 1e-310])
    def test_time_below_the_contour_scale_is_an_evaluation_error(self, t):
        # r = 64/(5t) overflows, so the contour is not finite: the rule is
        # built and summed without a warning, and the guard rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="not finite on the talbot contour"):
                laplace_invert(lambda s: 1.0 / (s + 1.0), t)
            with pytest.raises(EvaluationError, match="not finite on the talbot contour"):
                _invert_talbot_array(lambda s: 1.0 / (s + 1.0), t, 0.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            laplace_invert(lambda s: 1.0 / s, 0.0)

    @staticmethod
    def _talbot_loop(F, t, M):
        """The fixed-Talbot sum written out node by node, as a reference."""
        r = 2.0 * M / (5.0 * t)
        s0 = complex(r, 0.0)
        acc = (0.5 * cmath.exp(t * s0) * F(s0)).real
        for k in range(1, M):
            theta = k * math.pi / M
            cot = math.cos(theta) / math.sin(theta)
            sk = r * theta * complex(cot, 1.0)
            gamma = cmath.exp(t * sk) * complex(
                1.0 + theta * (1.0 + cot * cot) * 1j - cot * 1j
            )
            acc += (gamma * F(sk)).real
        return (2.0 / (5.0 * t)) * acc

    @pytest.mark.parametrize("terms", [32, 28, 16])
    @pytest.mark.parametrize("t", [0.3171, 1.9, 7.5])
    def test_talbot_bytes_match_the_node_loop(self, t, terms):
        beta = 0.6
        F = lambda s: s ** (beta - 1.0) / (s**beta + 1.0)
        expected = repr(self._talbot_loop(F, t, terms))
        for _ in range(2):  # the contour is built once, then read from the cache
            assert repr(laplace_invert(F, t, terms=terms)) == expected


def _node_doubling_psi(spec, s):
    """DistributedOrder.psi at one complex s, written out as the scalar
    loop over 48, 96 and 192 Gauss-Legendre nodes, as a reference.
    Returns the value and the node count of the rule it stopped at."""
    ln_s = cmath.log(s)
    prev = None
    for n in (48, 96, 192):
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (x + 1.0)
        total = (0.5 * w * spec.weight(nodes) * np.exp(nodes * ln_s)).sum()
        if prev is not None and abs(total - prev) <= 1e-12 * max(1.0, abs(total)):
            break
        prev = total
    return total, n


class TestArrayPsi:
    """Every family's psi takes an ndarray of complex s, elementwise."""

    @staticmethod
    def _scalar_psi(spec, s):
        if isinstance(spec, DistributedOrder):
            return _node_doubling_psi(spec, s)[0]
        return spec.psi(s)

    @pytest.mark.parametrize("t", [0.01, 1.0, 30.0])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_array_matches_scalar_at_the_talbot_nodes(self, spec, t):
        s = _talbot_rule(t)[0]
        expected = np.array([self._scalar_psi(spec, complex(sk)) for sk in s])
        np.testing.assert_allclose(spec.psi(s), expected, rtol=1e-13, atol=0.0)

    def test_distributed_order_takes_the_finest_rule_node_by_node(self):
        # at |log s| ~ 460 the 48- and 96-node rules disagree, so the
        # scalar loop goes on to 192 nodes; the array keeps that choice
        # for those entries only
        spec = DistributedOrder((0.5, 1.0))
        s = np.array([1e-200 + 0j, 0.5 + 2.0j, 1e200 + 0j, 3.0 + 0j])
        reference = [_node_doubling_psi(spec, complex(sk)) for sk in s]
        assert [n for _, n in reference] == [192, 96, 192, 96]
        np.testing.assert_allclose(
            spec.psi(s), [v for v, _ in reference], rtol=1e-13, atol=0.0
        )

    def test_scalar_types_are_kept(self):
        for spec in ALL_SPECS:
            assert type(spec.psi(2.0)) is float
            assert type(spec.psi(2.0 + 1.0j)) is complex


class TestArrayTalbot:
    """The package's own inversions: one call of F on the node array."""

    @pytest.mark.parametrize("t", [0.3171, 1.9, 7.5])
    def test_agrees_with_the_node_loop_within_contour_roundoff(self, t):
        # the two sums differ only by the roundoff of terms that cancel
        # from about 1e5 times the result, so not bit for bit
        beta = 0.6
        F = lambda s: s ** (beta - 1.0) / (s**beta + 1.0)
        got = _invert_talbot_array(F, t, 0.0)
        assert got == pytest.approx(laplace_invert(F, t), rel=1e-10)
        assert got == pytest.approx(ml_one(beta, -t**beta), rel=1e-10)

    def test_one_call_per_inversion(self):
        calls = []

        def F(s):
            calls.append(s.shape)
            return 1.0 / (s + 1.0)

        assert _invert_talbot_array(F, 2.0, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-10)
        assert calls == [(32,)]

    def test_overflow_on_the_contour_is_an_evaluation_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                _invert_talbot_array(lambda s: np.exp(1000.0 * s), 1.0, 0.0)
            with pytest.raises(EvaluationError):
                _invert_talbot_array(lambda s: np.log(s * 0.0), 1.0, 0.0)

    def test_general_pmf_where_the_transform_overflows_on_the_contour(self):
        # lam/(lam + psi) exceeds 1 in modulus at some nodes, so its n-th
        # power overflows there.  The pmf there lies far below what the
        # contour resolves, so the result must be an EvaluationError or a
        # value under the Chernoff bound exp(t s) (lam/(lam + psi(s)))**n,
        # with no warning
        spec, lam, t = Stable(0.999), 50.0, 5.0
        s = np.logspace(-2.0, 6.0, 4001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (574, 600, 2000):
                chernoff = math.exp(
                    (t * s + n * (math.log(lam) - np.log(lam + spec.psi(s)))).min()
                )
                assert chernoff < 1e-50
                with pytest.raises(EvaluationError):
                    _invert_talbot_array(
                        lambda s: spec.psi(s) / s * np.exp(
                            n * math.log(lam) - (n + 1.0) * np.log(lam + spec.psi(s))
                        ),
                        t,
                        1e-10,
                    )
                for pmf in (
                    lambda: general_pmf(spec, lam, t, n),
                    lambda: fpp_pmf(spec.beta, lam, t, n),
                ):
                    try:
                        value = pmf()
                    except EvaluationError:
                        continue
                    assert 0.0 <= value <= chernoff


class TestBernsteinIdentity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_tail_transform_is_exponent_over_s(self, spec, s):
        lhs, rhs, rel = bern_identity_check(spec, s)
        assert rel < 1e-5
        assert lhs == pytest.approx(rhs, rel=2e-5)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_sequence_gives_the_scalar_triples(self, spec):
        # the shared tail memo changes no node and no sum
        assert repr(bern_identity_check(spec, (0.5, 1.0, 2.0))) == repr(
            [bern_identity_check(spec, s) for s in (0.5, 1.0, 2.0)]
        )

    def test_rejects_nonpositive_s(self):
        with pytest.raises(DomainError):
            bern_identity_check(Stable(0.5), 0.0)
