"""Tests for the variate samplers.

Law-level checks compare empirical Laplace transforms against the
closed-form targets at fixed seeds with 4-sigma budgets; construction
identities (self-similar scaling, inverse-marginal transform) are
checked exactly by replaying the same counter-based stream.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from fracpoisson import processes, samplers
from fracpoisson.errors import DomainError, SamplingError, UnsupportedSamplingError
from fracpoisson.samplers import (
    RngStream,
    sample_brownian_running_max,
    sample_inverse_stable_marginal,
    sample_ml_waiting,
    sample_stable_increment,
    sample_stable_unit,
    sample_subordinator_at,
    sample_tempered_ml_waiting,
    sample_tempered_stable_increment,
)
from fracpoisson.transforms import (
    DistributedOrder,
    Stable,
    StableMixture,
    TemperedStable,
)
from fracpoisson.validation import empirical_laplace, ks_two_sample

SEED = 20260825


def assert_laplace_matches(draws, s_grid, target_fn, sigmas=4.0):
    for s in s_grid:
        est, se = empirical_laplace(draws, s)
        target = target_fn(s)
        assert abs(est - target) <= sigmas * se, (
            f"s={s}: est={est:.6f} target={target:.6f} se={se:.2e}"
        )


class TestRngStream:
    def test_reproducible(self):
        a = sample_stable_unit(0.5, RngStream(SEED, 3), size=100)
        b = sample_stable_unit(0.5, RngStream(SEED, 3), size=100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = sample_stable_unit(0.5, RngStream(SEED, 0), size=100)
        b = sample_stable_unit(0.5, RngStream(SEED, 1), size=100)
        assert np.all(a != b)

    def test_spawn(self):
        base = RngStream(SEED, 0)
        child = base.spawn(7)
        assert child.seed == SEED and child.stream_id == 7
        np.testing.assert_array_equal(
            child.generator.random(5), RngStream(SEED, 7).generator.random(5)
        )

    @pytest.mark.parametrize("stream_id", [0, 1, 17, 2**40, 2**64 - 1])
    def test_rekey_matches_fresh_stream(self, stream_id):
        stream = RngStream(SEED, 5)
        stream.generator.random(3, dtype=np.float32)  # leave a half-used draw behind
        stream._rekey(stream_id)
        fresh = RngStream(SEED, stream_id)
        assert stream == fresh
        draws = (
            lambda g: g.random(7),
            lambda g: g.standard_exponential(7),
            lambda g: g.choice([1.0, -1.0, 2.0], size=9, p=[0.5, 0.3, 0.2]),
        )
        for draw in draws:
            np.testing.assert_array_equal(draw(stream.generator), draw(fresh.generator))

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2**64)
        with pytest.raises(DomainError):
            RngStream(1, -2)

    def test_plain_generator_accepted(self):
        gen = np.random.default_rng(0)
        val = sample_stable_unit(0.5, gen)
        assert isinstance(val, float) and val > 0.0

    def test_bad_rng_rejected(self):
        with pytest.raises(DomainError):
            sample_stable_unit(0.5, 12345)

    def test_size_semantics(self):
        one = sample_stable_unit(0.5, RngStream(SEED))
        assert isinstance(one, float)
        arr = sample_stable_unit(0.5, RngStream(SEED), size=4)
        assert arr.shape == (4,)
        empty = sample_stable_unit(0.5, RngStream(SEED), size=0)
        assert empty.shape == (0,)
        with pytest.raises(DomainError):
            sample_stable_unit(0.5, RngStream(SEED), size=-1)


class TestStableUnit:
    @pytest.mark.parametrize("beta", [0.4, 0.8])
    def test_laplace_transform(self, beta):
        draws = sample_stable_unit(beta, RngStream(SEED, 10), size=200_000)
        assert_laplace_matches(draws, (0.5, 1.0, 2.0), lambda s: math.exp(-(s**beta)))

    def test_half_order_exact_law(self):
        # D(1) at beta = 1/2 equals 1/(2 Z^2) in law for standard normal Z
        draws = sample_stable_unit(0.5, RngStream(SEED, 11), size=50_000)
        z = np.random.default_rng(SEED).standard_normal(50_000)
        reference = 1.0 / (2.0 * z * z)
        res = ks_two_sample(draws, reference)
        assert res.p_value > 0.01

    def test_positive(self):
        draws = sample_stable_unit(0.3, RngStream(SEED, 12), size=10_000)
        assert np.all(draws > 0.0)

    def test_small_beta_out_of_range_factors(self):
        # at beta = 0.01, sin(pi U)**100 and W**-99 leave the float range for
        # about one draw in 900; the others keep the direct formula's bits
        beta, n = 0.01, 300_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_stable_unit(beta, RngStream(SEED, 13), size=n)
        u, w = samplers._kanter_draws(RngStream(SEED, 13).generator, n)
        with np.errstate(all="ignore"):
            direct = [
                np.sin(beta * x) * np.sin((1.0 - beta) * x) ** (1.0 / beta - 1.0)
                / np.sin(x) ** (1.0 / beta) * y ** (1.0 - 1.0 / beta)
                for x, y in ((u * math.pi, w), (np.longdouble(u * math.pi), np.longdouble(w)))
            ]
        kept = (direct[0] > 0.0) & (direct[0] < math.inf)
        assert not np.isnan(draws).any()
        assert np.array_equal(draws[kept], direct[0][kept])
        redone = ~kept & np.isfinite(draws)
        assert (~kept).sum() > 200 and redone.sum() > 50
        if np.finfo(np.longdouble).maxexp > 1024:  # the redone entries against extended range
            np.testing.assert_allclose(draws[redone], direct[1][redone].astype(float), rtol=1e-9)
        laplace = np.exp(-draws)  # a draw that really overflows is +inf and counts as 0
        assert abs(laplace.mean() - math.exp(-1.0)) <= 5.0 * laplace.std() / math.sqrt(n)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    def test_bad_beta(self, beta):
        with pytest.raises(DomainError):
            sample_stable_unit(beta, RngStream(SEED))


class TestStableIncrement:
    def test_self_similar_scaling_exact(self):
        # same stream: D(dt) must be exactly dt**(1/beta) * D(1)
        beta, dt = 0.6, 0.25
        inc = sample_stable_increment(beta, dt, RngStream(SEED, 13), size=1000)
        unit = sample_stable_unit(beta, RngStream(SEED, 13), size=1000)
        np.testing.assert_allclose(inc, dt ** (1.0 / beta) * unit, rtol=1e-15)

    def test_overflow_is_inf_without_warning(self):
        # at beta = 0.02 the scale 2.0**50 takes a few finite unit draws past
        # the float range: those increments are +inf, as an overflowing unit draw is
        beta, dt, n = 0.02, 2.0, 10 ** 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_stable_increment(beta, dt, RngStream(0, 1), size=n)
        unit = sample_stable_unit(beta, RngStream(0, 1), size=n)
        assert (np.isinf(draws) & np.isfinite(unit)).any()
        with np.errstate(over="ignore"):
            assert np.array_equal(draws, unit * dt ** (1.0 / beta))

    def test_laplace_transform(self):
        beta, dt = 0.5, 2.0
        draws = sample_stable_increment(beta, dt, RngStream(SEED, 14), size=200_000)
        assert_laplace_matches(
            draws, (0.25, 1.0), lambda s: math.exp(-dt * s**beta)
        )

    def test_bad_dt(self):
        with pytest.raises(DomainError):
            sample_stable_increment(0.5, 0.0, RngStream(SEED))


class TestMlWaiting:
    def test_laplace_transform(self):
        beta, lam = 0.5, 1.0
        draws = sample_ml_waiting(beta, lam, RngStream(SEED, 15), size=200_000)
        assert_laplace_matches(
            draws, (0.5, 1.0, 2.0), lambda s: lam / (lam + s**beta)
        )

    def test_survival_at_golden_point(self):
        # P(J > 1) = E_{1/2}(-1) = 0.4275835761558070 at lam = 1
        n = 200_000
        draws = sample_ml_waiting(0.5, 1.0, RngStream(SEED, 16), size=n)
        p_emp = float(np.mean(draws > 1.0))
        target = 0.4275835761558070
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(p_emp - target) <= 4.0 * se

    def test_beta_one_is_exponential(self):
        lam = 2.0
        draws = sample_ml_waiting(1.0, lam, RngStream(SEED, 17), size=50_000)
        reference = np.random.default_rng(SEED).exponential(1.0 / lam, 50_000)
        assert ks_two_sample(draws, reference).p_value > 0.01

    def test_heavy_tail_moment_divergence_proxy(self):
        # beta < 1 waiting times have infinite mean: the sample mean grows
        draws = sample_ml_waiting(0.5, 1.0, RngStream(SEED, 18), size=100_000)
        small = float(np.mean(draws[:1000]))
        big = float(np.mean(draws))
        assert big > small  # heavier and heavier excursions keep arriving

    @pytest.mark.parametrize("beta", [0.01, 0.005])
    def test_small_beta_out_of_range_products(self, beta):
        # lam**(-1/beta) W**(1/beta) D(1) over- or underflows, or is 0 * inf,
        # for about one wait in 500 at beta = 0.01 and one in 15 at 0.005;
        # those are redone in logs, the others keep the direct product's bits
        n, lam = 300_000, 1.5
        w, u, e = samplers._ml_draws(RngStream(SEED, 19).generator, beta, n)
        x = u * math.pi
        with np.errstate(all="ignore"):
            direct = w ** (1.0 / beta) * lam ** (-1.0 / beta) * samplers._kanter(beta, u.copy(), e)
            p, (xl, wl, el) = 1.0 / beta, (np.longdouble(v) for v in (x, w, e))
            extended = (lam ** -np.longdouble(p) * wl ** p * np.sin(beta * xl)
                        * np.sin((1.0 - beta) * xl) ** (p - 1.0) / np.sin(xl) ** p
                        * el ** (1.0 - p)).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            waits = samplers._ml_waits(beta, lam, (w, u, e))
        kept = (direct > 0.0) & (direct < math.inf)
        assert not np.isnan(waits).any()
        assert np.array_equal(waits[kept], direct[kept])
        redone = ~kept & (waits > 0.0) & (waits < math.inf)
        assert (~kept).sum() > 500 and redone.sum() > 100
        if np.finfo(np.longdouble).maxexp > 1024:  # against extended range, true inf and 0 too
            np.testing.assert_allclose(waits[~kept], extended[~kept], rtol=1e-9, atol=1e-323)
        laplace = np.exp(-waits)  # E[exp(-J)] = lam / (lam + 1)
        assert abs(laplace.mean() - lam / (lam + 1.0)) <= 5.0 * laplace.std() / math.sqrt(n)
        with pytest.raises(SamplingError):  # some waits really overflow
            sample_ml_waiting(beta, lam, RngStream(SEED, 19), size=n)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_ml_waiting(0.0, 1.0, RngStream(SEED))
        with pytest.raises(DomainError):
            sample_ml_waiting(0.5, 0.0, RngStream(SEED))


class TestTemperedSamplers:
    def test_increment_laplace_single_chunk(self):
        beta, a, dt = 0.5, 1.0, 0.5
        draws = sample_tempered_stable_increment(
            beta, a, dt, RngStream(SEED, 19), size=100_000
        )
        assert_laplace_matches(
            draws,
            (0.5, 1.0, 2.0),
            lambda s: math.exp(-dt * ((s + a) ** beta - a**beta)),
        )

    def test_increment_laplace_multi_chunk(self):
        # dt above a**-beta exercises the chunked path
        beta, a, dt = 0.5, 1.0, 3.0
        draws = sample_tempered_stable_increment(
            beta, a, dt, RngStream(SEED, 20), size=100_000
        )
        assert_laplace_matches(
            draws,
            (0.5, 1.0),
            lambda s: math.exp(-dt * ((s + a) ** beta - a**beta)),
        )

    def test_waiting_laplace(self):
        beta, a, lam = 0.5, 1.0, 2.0
        draws = sample_tempered_ml_waiting(
            beta, a, lam, RngStream(SEED, 21), size=200_000
        )
        assert_laplace_matches(
            draws,
            (0.5, 1.0, 2.0),
            lambda s: lam / (lam + (s + a) ** beta - a**beta),
        )

    def test_waiting_has_finite_mean(self):
        # tempering restores all moments; mean = d/ds (s+a)^b |_{s=0} ... / lam
        beta, a, lam = 0.5, 1.0, 2.0
        n = 200_000
        draws = sample_tempered_ml_waiting(beta, a, lam, RngStream(SEED, 22), size=n)
        # E[J] = psi'(0)/lam = beta a^{beta-1} / lam
        target = beta * a ** (beta - 1.0) / lam
        se = float(np.std(draws, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(draws)) - target) <= 4.0 * se

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr("fracpoisson.samplers._MAX_REJECTION_ROUNDS", 0)
        with pytest.raises(SamplingError):
            sample_tempered_stable_increment(0.5, 1.0, 1.0, RngStream(SEED))
        with pytest.raises(SamplingError):
            sample_tempered_ml_waiting(0.5, 1.0, 2.0, RngStream(SEED))

    def test_rate_convention_guard(self):
        # lam <= a**beta leaves no mass for the tempered law
        with pytest.raises(DomainError):
            sample_tempered_ml_waiting(0.5, 4.0, 1.0, RngStream(SEED))

    def test_chunk_cap_is_checked_before_drawing(self, monkeypatch):
        # dt = 2 at a = 1 takes two chunks a draw: five draws stay below 11
        monkeypatch.setattr(samplers, "_MAX_CHUNKS", 11)
        draws = sample_tempered_stable_increment(0.5, 1.0, 2.0, RngStream(SEED), size=5)
        assert draws.shape == (5,)
        rng = RngStream(SEED)
        with pytest.raises(SamplingError, match="11 or more rejection chunks"):
            sample_tempered_stable_increment(0.5, 1.0, 2.0, rng, size=6)
        with pytest.raises(SamplingError, match="11 or more rejection chunks"):
            sample_tempered_stable_increment(0.5, 1.0, 100.0, rng, size=1)
        assert rng.generator.random() == RngStream(SEED).generator.random()  # nothing drawn

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_tempered_stable_increment(0.5, 0.0, 1.0, RngStream(SEED))
        with pytest.raises(DomainError):
            sample_tempered_stable_increment(0.5, 1.0, -1.0, RngStream(SEED))


def one_duration_at_a_time(beta, a, dts, gen):
    """Tempered increments by a separate rejection loop per duration and chunk."""
    out = []
    for dt in dts:
        n_chunks = max(1, math.ceil(dt * a**beta))
        total = 0.0
        for _ in range(n_chunks):
            while True:
                x = sample_stable_increment(beta, dt / n_chunks, gen)
                if gen.random() < math.exp(-a * x):
                    total += x
                    break
        out.append(total)
    return np.array(out)


class TestBatchedTemperedIncrements:
    """``TemperedStable.increments``: one rejection pass over all chunks."""

    SPEC = TemperedStable(0.6, 2.0)
    SCALED = (0.3, 2.5, 12.0)  # dt a**beta: one chunk, 3 chunks, 12 or 13 chunks

    def durations(self, scaled):
        return np.asarray(scaled) / self.SPEC.a ** self.SPEC.beta

    def assert_laplace(self, draws, dt):
        assert_laplace_matches(
            draws, (0.5, 1.0, 2.0), lambda s: math.exp(-dt * self.SPEC.psi(s)), sigmas=5.0
        )

    @pytest.mark.parametrize("scaled", SCALED)
    def test_laplace_equal_durations(self, scaled):
        dt = float(self.durations(scaled))
        draws = self.SPEC.increments(np.full(100_000, dt), RngStream(SEED, 40).generator)
        self.assert_laplace(draws, dt)

    def test_laplace_mixed_durations(self):
        which = np.random.default_rng(7).integers(0, 3, size=150_000)
        dts = self.durations(self.SCALED)
        draws = self.SPEC.increments(dts[which], RngStream(SEED, 41).generator)
        for k, dt in enumerate(dts):
            self.assert_laplace(draws[which == k], dt)

    @pytest.mark.parametrize("scaled", (0.3, 2.5))
    def test_ks_against_one_duration_at_a_time(self, scaled):
        dts = np.full(10_000, float(self.durations(scaled)))
        batched = self.SPEC.increments(dts, RngStream(SEED, 42).generator)
        looped = one_duration_at_a_time(
            self.SPEC.beta, self.SPEC.a, dts, RngStream(SEED, 43).generator
        )
        assert ks_two_sample(batched, looped).p_value > 0.01

    def test_scalar_sampler_is_the_equal_durations_case(self):
        beta, a, dt = self.SPEC.beta, self.SPEC.a, 1.7
        np.testing.assert_array_equal(
            sample_tempered_stable_increment(beta, a, dt, RngStream(SEED, 44), size=500),
            self.SPEC.increments(np.full(500, dt), RngStream(SEED, 44).generator),
        )


class TestInverseStableMarginal:
    def test_marginal_identity_exact(self):
        # same stream: E(t) must be exactly (t / D(1))**beta
        beta, t = 0.5, 2.0
        vals = sample_inverse_stable_marginal(beta, t, RngStream(SEED, 23), size=1000)
        unit = sample_stable_unit(beta, RngStream(SEED, 23), size=1000)
        np.testing.assert_allclose(vals, (t / unit) ** beta, rtol=1e-15)

    @pytest.mark.parametrize("beta, t", [(0.5, 1.0), (0.7, 2.0)])
    def test_moments(self, beta, t):
        # E[E(t)^k] = k! t^{k beta} / Gamma(1 + k beta)
        n = 200_000
        draws = sample_inverse_stable_marginal(beta, t, RngStream(SEED, 24), size=n)
        m1 = t**beta / math.gamma(1.0 + beta)
        m2 = 2.0 * t ** (2.0 * beta) / math.gamma(1.0 + 2.0 * beta)
        se1 = float(np.std(draws, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(draws)) - m1) <= 4.0 * se1
        sq = draws * draws
        se2 = float(np.std(sq, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - m2) <= 4.0 * se2

    def test_overflowing_ratio_is_taken_in_logs(self):
        # t / D(1) overflows for about a third of these draws, (t / D(1))**beta for
        # none: those are exp(beta (log t - log D(1))), and the rest keep their bits
        beta, t, n = 0.3, 1e308, 100_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_inverse_stable_marginal(beta, t, RngStream(1), size=n)
        unit = sample_stable_unit(beta, RngStream(1), size=n)
        with np.errstate(over="ignore"):
            direct = (t / unit) ** beta
        over = np.isinf(direct)
        assert over.sum() > n // 4 and np.isfinite(draws).all()
        assert np.array_equal(draws[~over], direct[~over])
        np.testing.assert_allclose(draws[over], np.exp(beta * (math.log(t) - np.log(unit[over]))),
                                   rtol=1e-15)

    def test_zero_time(self):
        vals = sample_inverse_stable_marginal(0.5, 0.0, RngStream(SEED), size=5)
        np.testing.assert_array_equal(vals, np.zeros(5))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_inverse_stable_marginal(1.0, 1.0, RngStream(SEED))
        with pytest.raises(DomainError):
            sample_inverse_stable_marginal(0.5, -1.0, RngStream(SEED))


class TestBrownianRunningMax:
    @pytest.mark.parametrize("t, stream_id", [(1.0, 25), (40.0, 26)])
    def test_exact_reflection_law(self, t, stream_id):
        # M(t) = |B(t)| in law: P(M <= x) = erf(x / (2 sqrt(t))) at one step
        draws = sample_brownian_running_max(t, 1, RngStream(SEED, stream_id), size=50_000)
        assert stats.kstest(draws / (2.0 * math.sqrt(t)), special.erf).pvalue > 0.01

    def test_steps_do_not_change_the_draws(self):
        # the law has no step count, and neither have the draws
        draws = [sample_brownian_running_max(1.0, k, RngStream(SEED, 27), size=1000).tobytes()
                 for k in (1, 40, 10_000, 10 ** 12)]
        assert draws.count(draws[0]) == 4

    def test_nonnegative_and_zero_time(self):
        draws = sample_brownian_running_max(1.0, 64, RngStream(SEED, 27), size=1000)
        assert np.all(draws >= 0.0)
        zeros = sample_brownian_running_max(0.0, 64, RngStream(SEED), size=3)
        np.testing.assert_array_equal(zeros, np.zeros(3))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_brownian_running_max(1.0, 0, RngStream(SEED))
        with pytest.raises(DomainError):
            sample_brownian_running_max(-1.0, 64, RngStream(SEED))


class TestBlocks:
    """The last stream is drawn and its math run one block at a time, over a draw array."""

    # (sampler, its arguments before the source, the arrays of n floats it
    # holds: its leading draw arrays, and for the tempered samplers the
    # rejection's bookkeeping and its two chunks per draw)
    BULK = [
        (sample_ml_waiting, (0.6, 1.0), 2),
        (sample_inverse_stable_marginal, (0.7, 1.0), 1),
        (sample_stable_increment, (0.6, 2.0), 1),
        (sample_tempered_ml_waiting, (0.5, 1.0, 2.0), 3),
        (sample_tempered_stable_increment, (0.5, 1.0, 2.0), 12),
        (sample_brownian_running_max, (1.0, 4), 1),
    ]

    @pytest.mark.parametrize("sampler, args, arrays", BULK, ids=[f.__name__ for f, _, _ in BULK])
    def test_bulk_draw_holds_its_draws_and_a_few_blocks(self, sampler, args, arrays):
        # whole streams held one more array of n draws (three more for the
        # tempered waits) and whole-array math three or four more
        n = 10 ** 6
        tracemalloc.start()
        try:
            sampler(*args, RngStream(SEED, 40), size=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (arrays * n + 6 * samplers._BLOCK)

    def test_stacked_rows_are_the_rows(self):
        # the n-path kernel hands _kanter 2-d stacked rows, one row of
        # renewals per open path of a pass: within one block
        shape = (processes._PASS_PATHS, processes._BATCH)
        assert shape[0] * shape[1] <= samplers._BLOCK
        u, e = (x.reshape(shape) for x in samplers._kanter_draws(
            RngStream(SEED, 41).generator, shape[0] * shape[1]))
        rows = [samplers._kanter(0.6, u[i].copy(), e[i]) for i in range(shape[0])]
        stacked = samplers._kanter(0.6, u, e)
        assert stacked.shape == shape
        assert stacked.tobytes() == np.concatenate(rows).tobytes()


class TestSubordinatorAt:
    @pytest.mark.parametrize(
        "spec", [Stable(0.5), TemperedStable(0.5, 1.0), StableMixture((0.5, 0.5), (0.3, 0.7))],
        ids=lambda s: type(s).__name__,
    )
    def test_size_zero_is_an_empty_stack(self, spec):
        # np.stack of no paths raised ValueError
        paths = sample_subordinator_at(spec, [1.0, 2.0], RngStream(SEED), size=0)
        assert paths.shape == (0, 2)

    def test_paths_strictly_increasing(self):
        times = np.linspace(0.1, 2.0, 20)
        path = sample_subordinator_at(Stable(0.6), times, RngStream(SEED, 28))
        assert path.shape == (20,)
        assert np.all(np.diff(path) > 0.0)

    def test_size_stacks_paths(self):
        times = [0.5, 1.0, 1.5]
        paths = sample_subordinator_at(
            Stable(0.5), times, RngStream(SEED, 29), size=7
        )
        assert paths.shape == (7, 3)
        assert np.all(np.diff(paths, axis=1) > 0.0)

    @pytest.mark.parametrize(
        "spec",
        [Stable(0.5), TemperedStable(0.5, 1.0), StableMixture((0.5, 0.5), (0.3, 0.7))],
        ids=lambda s: type(s).__name__,
    )
    def test_terminal_laplace(self, spec):
        from fracpoisson.transforms import laplace_exponent

        t_end = 1.5
        paths = sample_subordinator_at(
            spec, [0.5, 1.0, t_end], RngStream(SEED, 30), size=50_000
        )
        draws = paths[:, -1]
        assert_laplace_matches(
            draws,
            (0.5, 1.0),
            lambda s: math.exp(-t_end * laplace_exponent(spec, s)),
        )

    def test_distributed_order_unsupported(self):
        with pytest.raises(UnsupportedSamplingError):
            sample_subordinator_at(
                DistributedOrder((1.0,)), [0.5, 1.0], RngStream(SEED)
            )

    def test_bad_times(self):
        with pytest.raises(DomainError):
            sample_subordinator_at(Stable(0.5), [], RngStream(SEED))
        with pytest.raises(DomainError):
            sample_subordinator_at(Stable(0.5), [0.0, 1.0], RngStream(SEED))
        with pytest.raises(DomainError):
            sample_subordinator_at(Stable(0.5), [1.0, 1.0], RngStream(SEED))
