"""Tests for path simulation, grid inversion, and CSV round trips.

Law-level checks run at fixed seeds with explicit error budgets; the
renewal/time-change comparisons are the executable form of the
process-equality statements the samplers implement.
"""

import io
import math
import warnings

import numpy as np
import pytest

from fracpoisson import processes
from fracpoisson.distributions import fpp_pmf
from fracpoisson.errors import (
    DomainError,
    SamplingError,
    TruncationError,
    UnsupportedSamplingError,
)
from fracpoisson.processes import (
    CTRWPath,
    GridPath,
    RenewalPath,
    ctrw_prelimit_bernoulli,
    inverse_path_on_grid,
    lemma1_check,
    paths_from_csv,
    paths_to_csv,
    simulate_ctrw,
    simulate_fpp,
    simulate_timechange_renewal,
)
from fracpoisson.samplers import (
    RngStream,
    _ml_draws,
    _ml_waits,
    sample_ml_waiting,
    sample_subordinator_at,
)
from fracpoisson.transforms import (
    DistributedOrder,
    JumpDist,
    Stable,
    StableMixture,
    TemperedStable,
)
from fracpoisson.validation import ks_two_sample

SEED = 31415926
TINY = 1e-9  # horizon small enough that each path stops at its first jump


def empirical_count_tv(counts, beta, lam, t):
    """Total-variation distance between sampled counts and the model pmf."""
    counts = np.asarray(counts)
    nmax = max(int(counts.max()), 20)
    model = np.array([fpp_pmf(beta, lam, t, k) for k in range(nmax + 1)])
    emp = np.bincount(counts, minlength=nmax + 1)[: nmax + 1] / counts.size
    tail = max(0.0, 1.0 - float(model.sum()))
    return 0.5 * (float(np.abs(emp - model).sum()) + tail)


def loop_fpp_times(beta, lam, horizon, gen):
    """Renewal jump times built one jump at a time, in 32-draw batches."""
    times, t = [], 0.0
    while True:
        for j in sample_ml_waiting(beta, lam, gen, size=32):
            t = t + j if t + j > t else math.nextafter(t, math.inf)
            times.append(float(t))
            if t > horizon:
                return tuple(times)


def loop_timechange_times(spec, lam, horizon, gen):
    """Time-change jump times D(V_n) built one jump at a time, in 32-draw batches."""
    times, tau, v_last = [], 0.0, 0.0
    while True:
        arrivals = v_last + np.cumsum(gen.standard_exponential(32) / lam)
        dts = np.diff(arrivals, prepend=v_last)
        for d in np.cumsum(spec.increments(dts, gen)) + tau:
            tau = float(d) if d > tau else math.nextafter(tau, math.inf)
            times.append(tau)
            if tau > horizon:
                return tuple(times)
        v_last = float(arrivals[-1])


class TestPathContainers:
    def test_renewal_validation(self):
        with pytest.raises(DomainError):
            RenewalPath((0.0, 1.0), 2.0)
        with pytest.raises(DomainError):
            RenewalPath((1.0, 1.0), 2.0)
        with pytest.raises(DomainError):
            RenewalPath((1.0,), 0.0)

    def test_count_at(self):
        path = RenewalPath((0.5, 1.2, 2.1), 2.0)
        assert path.count_at(0.0) == 0
        assert path.count_at(0.5) == 1
        assert path.count_at(1.9) == 2
        with pytest.raises(DomainError):
            path.count_at(2.5)

    def test_ctrw_validation(self):
        with pytest.raises(DomainError):
            CTRWPath((0.5, 1.0), (1.0,), 2.0)

    def test_position_at(self):
        path = CTRWPath((0.5, 1.2, 2.1), (1.0, -1.0, 1.0), 2.5)
        assert path.position_at(0.4) == 0.0
        assert path.position_at(0.5) == 1.0
        assert path.position_at(2.0) == 0.0
        assert path.position_at(2.2) == 1.0

    def test_gridpath_validation(self):
        with pytest.raises(DomainError):
            GridPath((0.0,), (1.0,))
        with pytest.raises(DomainError):
            GridPath((0.0, 1.0, 3.0), (1.0, 2.0, 3.0))
        with pytest.raises(DomainError):
            GridPath((0.0, 1.0, 2.0), (1.0, 0.5, 3.0))
        path = GridPath((0.0, 0.5, 1.0), (0.1, 0.1, 0.4))
        assert path.step == pytest.approx(0.5)


class TestSimulateFpp:
    def test_path_invariants(self):
        path = simulate_fpp(0.5, 1.0, 2.0, RngStream(SEED, 0))
        times = np.asarray(path.jump_times)
        assert times[0] > 0.0
        assert np.all(np.diff(times) > 0.0)
        assert times[-1] > path.horizon  # first overshoot retained

    def test_first_wait_survival_golden(self):
        # P(J > 1) = E_{1/2}(-1) at lam = 1
        n = 100_000
        stream = RngStream(SEED, 2)
        waits = np.array(
            [simulate_fpp(0.5, 1.0, TINY, stream).jump_times[0] for _ in range(n)]
        )
        target = 0.4275835761558070
        p_emp = float(np.mean(waits > 1.0))
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(p_emp - target) <= 4.0 * se

    def test_count_law_tv(self):
        beta, lam, t, n = 0.6, 1.0, 1.0, 10_000
        stream = RngStream(SEED, 3)
        counts = [
            simulate_fpp(beta, lam, t, stream).count_at(t) for _ in range(n)
        ]
        assert empirical_count_tv(counts, beta, lam, t) < 0.05

    def test_beta_one_poisson_mean(self):
        lam, t, n = 2.0, 3.0, 5_000
        stream = RngStream(SEED, 4)
        counts = np.array(
            [simulate_fpp(1.0, lam, t, stream).count_at(t) for _ in range(n)]
        )
        se = math.sqrt(lam * t / n)
        assert abs(float(counts.mean()) - lam * t) <= 4.0 * se

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simulate_fpp(0.5, 1.0, 0.0, RngStream(SEED))

    def test_overflow_raises_only_when_kept(self):
        # lam**(-10) = 1e300: about one wait in eight overflows to inf.  A path
        # keeps its jumps up to the first past the horizon, and raises only
        # when that one is inf; the one-path and the n-path routes agree.
        beta, lam, horizon = 0.1, 1e-30, 1e200
        law = processes._fpp_law(beta, lam, horizon)
        kinds, ok = set(), []
        for i in range(20):
            with np.errstate(over="ignore"):
                waits = _ml_waits(beta, lam, _ml_draws(RngStream(SEED, i).generator, beta, 32))
                times = np.cumsum(waits).tolist()
            k = next(k for k, x in enumerate(times) if x > horizon)
            kinds.add((times[k] == math.inf, times[-1] == math.inf))
            if times[k] == math.inf:
                with pytest.raises(SamplingError, match="overflows a float"):
                    simulate_fpp(beta, lam, horizon, RngStream(SEED, i))
            else:
                assert simulate_fpp(beta, lam, horizon, RngStream(SEED, i)).jump_times == \
                    tuple(times[:k + 1])
                ok.append((i, tuple(times[:k + 1])))
        assert kinds == {(True, True), (False, True)}  # both cases met, each past an inf
        paths = processes._renewal_paths(law, horizon, RngStream(SEED), [i for i, _ in ok])
        assert [p.jump_times for p in paths] == [want for _, want in ok]


class TestSubSpacingWaits:
    """Waits below the float spacing near t must not repeat a jump time."""

    @staticmethod
    def _boundary_batches():
        # the first draw of the second batch is lost against the carried time
        second = np.full(32, 0.1)
        second[0], second[-1] = 1e-17, 5.0
        return iter([np.full(32, 0.1), second])

    @staticmethod
    def _assert_bumped_at_boundary(times):
        assert len(times) == 64
        assert np.all(np.diff(times) > 0.0)
        assert times[32] == math.nextafter(times[31], math.inf)

    def test_fpp(self, monkeypatch):
        waits = np.full(32, 1e-17)
        waits[0], waits[-1] = 1.0, 5.0
        monkeypatch.setattr(
            "fracpoisson.processes._ml_batch", lambda *args, **kwargs: waits
        )
        times = np.asarray(simulate_fpp(0.5, 1.0, 3.0, RngStream(SEED)).jump_times)
        assert len(times) == 32
        assert np.all(np.diff(times) > 0.0)
        assert times[1] == math.nextafter(1.0, math.inf)

    def test_timechange(self, monkeypatch):
        def increments(self, dts, gen):
            out = np.full(len(dts), 1e-17)
            out[0], out[-1] = 1.0, 5.0
            return out

        monkeypatch.setattr(Stable, "increments", increments)
        path = simulate_timechange_renewal(Stable(0.5), 1.0, 3.0, RngStream(SEED))
        times = np.asarray(path.jump_times)
        assert len(times) == 32
        assert np.all(np.diff(times) > 0.0)
        assert times[1] == math.nextafter(1.0, math.inf)

    def test_fpp_tie_at_batch_boundary(self, monkeypatch):
        batches = self._boundary_batches()
        monkeypatch.setattr(
            "fracpoisson.processes._ml_batch", lambda *args, **kwargs: next(batches)
        )
        times = simulate_fpp(0.5, 1.0, 8.0, RngStream(SEED)).jump_times
        self._assert_bumped_at_boundary(times)
        assert times[33] == times[32] + 0.1  # the waits go on from the bumped time

    def test_timechange_tie_at_batch_boundary(self, monkeypatch):
        batches = self._boundary_batches()
        monkeypatch.setattr(Stable, "increments", lambda self, dts, gen: next(batches))
        path = simulate_timechange_renewal(Stable(0.5), 1.0, 8.0, RngStream(SEED))
        self._assert_bumped_at_boundary(path.jump_times)


class TestArrayAssembly:
    """The array passes give the bytes of the jump-at-a-time loops.

    (lam, horizon) = (1, 1) ends most paths in the first batch; (50, 5)
    needs several, and at beta = 0.3 it also meets waits below the float
    spacing, which the loops bump to the next float.
    """

    BETAS = (0.3, 0.5, 0.8)
    RUNS = ((1.0, 1.0), (50.0, 5.0))
    N_PATHS = 200

    @pytest.mark.parametrize("lam, horizon", RUNS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_fpp(self, beta, lam, horizon):
        for i in range(self.N_PATHS):
            want = RenewalPath(loop_fpp_times(beta, lam, horizon, RngStream(SEED, i).generator),
                               horizon)
            assert repr(simulate_fpp(beta, lam, horizon, RngStream(SEED, i))) == repr(want)

    @pytest.mark.parametrize("lam, horizon", RUNS)
    @pytest.mark.parametrize("spec", [*map(Stable, BETAS), TemperedStable(0.5, 1.0),
                                      StableMixture((0.5, 0.5), (0.3, 0.8))], ids=repr)
    def test_timechange(self, spec, lam, horizon):
        for i in range(self.N_PATHS):
            gen = RngStream(SEED, i).generator
            want = RenewalPath(loop_timechange_times(spec, lam, horizon, gen), horizon)
            got = simulate_timechange_renewal(spec, lam, horizon, RngStream(SEED, i))
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("lam, horizon", RUNS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_ctrw(self, beta, lam, horizon):
        jumps = JumpDist(((1.0, 0.5), (-2.0, 0.25), (0.5, 0.25)))
        for i in range(self.N_PATHS):
            gen = RngStream(SEED, i).generator
            times = loop_timechange_times(Stable(beta), lam, horizon, gen)
            sizes = gen.choice(jumps.locations, size=len(times), p=jumps.probabilities)
            want = CTRWPath(times, tuple(float(x) for x in sizes), horizon)
            got = simulate_ctrw(Stable(beta), lam, jumps, horizon, RngStream(SEED, i))
            assert repr(got) == repr(want)


class TestTimechangeRenewal:
    def test_first_wait_matches_renewal_route(self):
        n = 20_000
        stream_a = RngStream(SEED, 5)
        a = np.array(
            [simulate_fpp(0.5, 1.0, TINY, stream_a).jump_times[0] for _ in range(n)]
        )
        stream = RngStream(SEED, 6)
        b = np.array(
            [
                simulate_timechange_renewal(Stable(0.5), 1.0, TINY, stream).jump_times[0]
                for _ in range(n)
            ]
        )
        assert ks_two_sample(a, b).p_value > 0.01

    @pytest.mark.parametrize(
        "spec",
        [Stable(0.7), TemperedStable(0.5, 1.0), StableMixture((0.5, 0.5), (0.3, 0.7))],
        ids=lambda s: type(s).__name__,
    )
    def test_runs_for_samplable_specs(self, spec):
        path = simulate_timechange_renewal(spec, 2.0, 1.0, RngStream(SEED, 7))
        times = np.asarray(path.jump_times)
        assert np.all(np.diff(times) > 0.0)
        assert times[-1] > 1.0

    def test_distributed_order_unsupported(self):
        with pytest.raises(UnsupportedSamplingError):
            simulate_timechange_renewal(
                DistributedOrder((1.0,)), 1.0, 1.0, RngStream(SEED)
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simulate_timechange_renewal(Stable(0.5), 0.0, 1.0, RngStream(SEED))


class TestSimulateCtrw:
    def test_path_structure(self):
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        path = simulate_ctrw(Stable(0.5), 1.0, jumps, 2.0, RngStream(SEED, 9))
        assert isinstance(path, CTRWPath)
        assert len(path.jump_times) == len(path.jump_sizes)
        assert set(path.jump_sizes) <= {1.0, -1.0}

    def test_position_is_prefix_sum(self):
        jumps = JumpDist(((2.0, 0.25), (-1.0, 0.75)))
        path = simulate_ctrw(Stable(0.6), 1.0, jumps, 1.0, RngStream(SEED, 10))
        t_query = path.horizon  # the final overshoot jump lies beyond it
        manual = math.fsum(
            x for tt, x in zip(path.jump_times, path.jump_sizes) if tt <= t_query
        )
        assert path.position_at(t_query) == pytest.approx(manual, abs=1e-12)

    def test_requires_jumpdist(self):
        with pytest.raises(DomainError):
            simulate_ctrw(Stable(0.5), 1.0, [(1.0, 0.5)], 1.0, RngStream(SEED))

    def test_jump_times_checked_once_per_path(self, monkeypatch):
        calls = []
        check = processes._jump_times
        monkeypatch.setattr(processes, "_jump_times", lambda path: calls.append(path) or check(path))
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        for i in range(5):
            simulate_ctrw(Stable(0.7), 1.0, jumps, 3.0, RngStream(SEED, i))
        assert len(calls) == 5


class TestPathKernel:
    """The n-path time-change kernel behind ``theorem51``.  It reads its
    stream in pass order, so it is checked by law against the one-path
    route (whose bytes ``TestArrayAssembly`` pins), not by bytes."""

    SPECS = [Stable(0.6), TemperedStable(0.5, 1.0), StableMixture((0.5, 0.5), (0.3, 0.8))]

    @pytest.mark.parametrize("beta, lam, t", [(0.5, 1.0, 1.0), (0.8, 3.0, 2.0)])
    def test_mean_count(self, beta, lam, t):
        counts = processes._timechange_counts(Stable(beta), lam, t, 20_000,
                                              RngStream(SEED, 40).generator)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - lam * t ** beta / math.gamma(1.0 + beta)) < 5.0 * se

    @pytest.mark.parametrize(
        "spec, lam", [(Stable(0.7), 20.0), *((s, 2.0) for s in SPECS)],
        ids=["Stable-many-passes", *(type(s).__name__ for s in SPECS)],
    )
    def test_counts_match_one_path_route(self, spec, lam):
        n, t = 4000, 1.0
        batched = processes._timechange_counts(spec, lam, t, n, RngStream(SEED, 41).generator)
        stream = RngStream(SEED, 42)
        single = [simulate_timechange_renewal(spec, lam, t, stream).count_at(t)
                  for _ in range(n)]
        assert ks_two_sample(batched, single).p_value > 0.01

    def test_positions_sum_each_paths_jumps(self):
        # positive sizes, so a position is 0.0 exactly when its path has no jump
        jumps = JumpDist(((1.0, 0.5), (3.0, 0.5)))
        spec, lam, t, n = Stable(0.5), 1.0, 0.3, 2000
        gen = RngStream(SEED, 43).generator
        counts = processes._timechange_counts(spec, lam, t, n, gen)
        sizes = jumps._draw(gen, int(counts.sum()))
        got = processes._ctrw_positions(spec, lam, jumps, t, n, RngStream(SEED, 43).generator)
        ends = np.cumsum(counts)
        want = [math.fsum(sizes[e - c:e]) for c, e in zip(counts, ends)]
        assert got.tolist() == want
        assert (counts == 0).any() and (counts > 0).any()
        assert (got[counts == 0] == 0.0).all() and (got[counts > 0] > 0.0).all()

    def test_passes_are_bounded(self):
        sizes = []

        class Recording(Stable):
            def increments(self, dts, gen):
                sizes.append(dts.size)
                return super().increments(dts, gen)

        processes._timechange_counts(Recording(0.5), 5.0, 2.0, 50_000,
                                     RngStream(SEED, 44).generator)
        assert len(sizes) > 1 and max(sizes) <= processes._PASS_DRAWS

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: type(spec).__name__)
    def test_timechange_waits_keep_the_stream_layout(self, spec):
        # the renewal kernel takes its waits as k = rows * width draws; the
        # time change must read them as the (rows, width) blocks it always
        # did.  The theorem51 report digest in test_golden_bytes pins the
        # same bytes end to end; this checks the counts of more specs.
        lam, t, n = 2.0, 1.0, 3000
        gen = RngStream(SEED, 46).generator
        counts, tau, open_ = np.zeros(n, dtype=np.intp), np.zeros(n), np.arange(n)
        while open_.size:
            width = min(max(processes._PASS_DRAWS // open_.size, 4), processes._BATCH)
            rows = open_[: processes._PASS_DRAWS // width]
            gaps = gen.standard_exponential((rows.size, width)) / lam
            d = np.cumsum(spec.increments(gaps.ravel(), gen).reshape(gaps.shape), axis=1)
            d += tau[rows, None]
            counts[rows] += (d <= t).sum(axis=1)
            tau[rows] = d[:, -1]
            open_ = np.concatenate((open_[rows.size:], rows[d[:, -1] <= t]))
        got = processes._timechange_counts(spec, lam, t, n, RngStream(SEED, 46).generator)
        assert np.array_equal(got, counts)

    def test_renewal_passes_are_bounded(self):
        gen = RngStream(SEED, 45).generator
        sizes = []

        def wait(k):
            sizes.append(k)
            return sample_ml_waiting(0.5, 1.0, gen, size=k)

        counts = processes._renewal_counts(wait, 1000.0, 10_000)
        assert len(sizes) > 1 and max(sizes) <= processes._PASS_DRAWS
        # each path reads up to its first jump past t
        assert sum(sizes) >= counts.sum() + counts.size

    def test_distributed_order_unsupported(self):
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        with pytest.raises(UnsupportedSamplingError):
            processes._ctrw_positions(DistributedOrder((1.0,)), 1.0, jumps, 1.0, 10,
                                      RngStream(SEED).generator)


class TestPrelimitBernoulli:
    def test_returns_nonnegative_int(self):
        stream = RngStream(SEED, 11)
        for _ in range(50):
            val = ctrw_prelimit_bernoulli(0.5, 1.0, 10.0, 1.0, stream)
            assert isinstance(val, int) and val >= 0

    def test_law_close_to_limit_at_large_c(self):
        n = 5_000
        stream = RngStream(SEED, 12)
        draws = np.array(
            [ctrw_prelimit_bernoulli(0.5, 1.0, 100.0, 1.0, stream) for _ in range(n)]
        )
        assert empirical_count_tv(draws, 0.5, 1.0, 1.0) < 0.06

    def test_deterministic(self):
        a = [ctrw_prelimit_bernoulli(0.5, 1.0, 10.0, 1.0, RngStream(SEED, 13)) for _ in range(5)]
        b = [ctrw_prelimit_bernoulli(0.5, 1.0, 10.0, 1.0, RngStream(SEED, 13)) for _ in range(5)]
        assert a == b

    def test_infinite_waits_only_close_paths(self):
        # at beta = 0.01 about one wait in 750 is inf, so some of these
        # 32-wait passes hold one; Kanter's ratio is 0/0 for a few draws there
        # and warns
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with np.errstate(over="ignore"):
                hit = sum(bool(np.isinf(_ml_waits(0.01, 1.0, _ml_draws(
                    RngStream(SEED, 50 + i).generator, 0.01, 32))).any()) for i in range(200))
            draws = [ctrw_prelimit_bernoulli(0.01, 1.0, 2.0, 1.0, RngStream(SEED, 50 + i))
                     for i in range(200)]
        assert hit > 0 and all(isinstance(v, int) and v >= 0 for v in draws)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ctrw_prelimit_bernoulli(0.5, 1.0, 1.0, 1.0, RngStream(SEED))
        with pytest.raises(DomainError):
            ctrw_prelimit_bernoulli(0.5, 1.0, 10.0, 0.0, RngStream(SEED))


class TestGridInversion:
    def test_hand_computed_inverse(self):
        d = GridPath((0.0, 1.0, 2.0, 3.0), (0.5, 1.0, 2.5, 4.0))
        t_grid = np.array([0.25, 0.75, 1.25, 1.75, 2.25])
        e = inverse_path_on_grid(d, t_grid)
        # first r-grid point where D exceeds t
        expected = []
        for t in t_grid:
            idx = next(i for i, v in enumerate(d.values) if v > t)
            expected.append(d.times[idx])
        assert e.values == tuple(expected)
        assert e.times == tuple(t_grid)

    def test_inverse_is_nondecreasing(self):
        times = np.linspace(0.01, 2.0, 400)
        vals = sample_subordinator_at(Stable(0.6), times, RngStream(SEED, 14))
        d = GridPath(tuple(times), tuple(vals))
        t_grid = np.linspace(0.0, float(vals[-1]) * 0.9, 200)
        e = inverse_path_on_grid(d, t_grid)
        assert np.all(np.diff(np.asarray(e.values)) >= 0.0)

    def test_truncation_error_beyond_path(self):
        d = GridPath((0.0, 1.0, 2.0), (0.5, 1.0, 1.5))
        with pytest.raises(TruncationError):
            inverse_path_on_grid(d, np.array([0.5, 2.0]))

    def test_input_validation(self):
        with pytest.raises(DomainError):
            inverse_path_on_grid("not a path", np.array([0.5, 1.0]))
        d = GridPath((0.0, 1.0), (0.5, 1.0))
        with pytest.raises(DomainError):
            inverse_path_on_grid(d, np.array([0.5]))


class TestLemmaCheck:
    def test_discrepancy_within_grid_bound(self):
        times = np.linspace(0.01, 1.0, 300)
        vals = sample_subordinator_at(Stable(0.7), times, RngStream(SEED, 15))
        d = GridPath(tuple(times), tuple(vals))
        worst = lemma1_check(d)
        max_inc = float(np.max(np.diff(np.asarray(d.values))))
        t_spacing = (vals[-1] - vals[0]) / len(times)
        assert worst <= max_inc + t_spacing

    def test_requires_strictly_increasing(self):
        d = GridPath((0.0, 1.0, 2.0), (0.5, 0.5, 1.0))
        with pytest.raises(DomainError):
            lemma1_check(d)


class TestCsvRoundTrip:
    def test_renewal_round_trip(self):
        stream = RngStream(SEED, 16)
        paths = [simulate_fpp(0.5, 1.0, 1.0, stream) for _ in range(3)]
        text = paths_to_csv(paths, Stable(0.5), SEED)
        back, spec_dict, seed = paths_from_csv(text)
        assert seed == SEED
        assert spec_dict == {"variant": "Stable", "beta": 0.5}
        assert len(back) == 3
        for orig, rt in zip(paths, back):
            assert rt.jump_times == orig.jump_times  # repr round trip is exact

    def test_ctrw_round_trip_with_sizes(self):
        jumps = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
        stream = RngStream(SEED, 17)
        paths = [
            simulate_ctrw(Stable(0.5), 1.0, jumps, 1.0, stream) for _ in range(2)
        ]
        text = paths_to_csv(paths, Stable(0.5), 7)
        assert text.splitlines()[1] == "index,jump_time,jump_size"
        back, _, seed = paths_from_csv(text)
        assert seed == 7
        for orig, rt in zip(paths, back):
            assert rt.jump_times == orig.jump_times
            assert rt.jump_sizes == orig.jump_sizes

    def test_single_path_accepted(self):
        path = simulate_fpp(0.5, 1.0, 1.0, RngStream(SEED, 18))
        text = paths_to_csv(path, Stable(0.5), 1)
        back, _, _ = paths_from_csv(text)
        assert len(back) == 1

    def test_horizon_override(self):
        path = simulate_fpp(0.5, 1.0, 1.0, RngStream(SEED, 19))
        text = paths_to_csv(path, Stable(0.5), 1)
        back, _, _ = paths_from_csv(text, horizon=100.0)
        assert back[0].horizon == 100.0

    def test_writes_to_stream(self):
        path = simulate_fpp(0.5, 1.0, 1.0, RngStream(SEED, 20))
        buf = io.StringIO()
        assert paths_to_csv(path, Stable(0.5), 1, stream=buf) is None
        assert buf.getvalue().startswith("# spec=")

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            paths_to_csv([], Stable(0.5), 1)
        renewal = simulate_fpp(0.5, 1.0, 1.0, RngStream(SEED, 21))
        walk = CTRWPath((1.0,), (1.0,), 2.0)
        with pytest.raises(DomainError):
            paths_to_csv([renewal, walk], Stable(0.5), 1)
        with pytest.raises(DomainError):
            paths_from_csv("index,jump_time\n0,1.0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "# spec={bad seed=1\nindex,jump_time\n0,1.0\n",
            '# spec={"variant":"Stable","beta":0.5} seed=x\nindex,jump_time\n0,1.0\n',
            '# spec={"variant":"Stable","beta":0.5} seed=1\nindex,jump_time\nzero,1.0\n',
            '# spec={"variant":"Stable","beta":0.5} seed=1\nindex,jump_time\n0,one\n',
            '# spec={"variant":"Stable","beta":0.5} seed=1\nindex,jump_time\n0\n',
            '# spec={"variant":"Stable","beta":0.5} seed=1\n',
        ],
        ids=["spec-json", "seed", "row-index", "row-time", "row-short", "no-columns"],
    )
    def test_malformed_document_is_domain_error(self, text):
        with pytest.raises(DomainError):
            paths_from_csv(text)
