"""Tests for the n-path kernel behind ``cli sample``.

``processes._renewal_paths`` builds the paths of many streams in array
rounds, path j from RngStream(seed, ids[j]); ``simulate_*`` are its
one-path calls.  These tests check that the two agree bit for bit where
the repair of waits below the float spacing runs, that one-path calls
keep their pinned bytes, that the Kanter math runs once per round rather
than once per path, and that the CSV writer gives the bytes of a
row-at-a-time loop.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest

from fracpoisson import processes, samplers, transforms
from fracpoisson.cli import main
from fracpoisson.processes import (
    CTRWPath,
    RenewalPath,
    paths_from_csv,
    paths_to_csv,
    simulate_ctrw,
    simulate_fpp,
    simulate_timechange_renewal,
)
from fracpoisson.samplers import RngStream
from fracpoisson.transforms import JumpDist, Stable, StableMixture, TemperedStable

SEED = 2718


class SubSpacing(np.random.Generator):
    """Philox draws with every fourth exponential scaled by 1e-40.

    At beta = 1/2 a Mittag-Leffler wait is W**2 D(1) and a stable
    increment dt**2 D(1), with D(1) proportional to 1/E: scaling W (or dt)
    and E at one index by 1e-40 makes that wait 1e-40 times smaller, far
    below the float spacing near a jump time of order 1.
    """

    def standard_exponential(self, size=None):
        x = super().standard_exponential(size)
        x[1::4] *= 1e-40
        return x


def _stream_gen(i):
    return SubSpacing(np.random.Philox(key=np.array([SEED, i], dtype=np.uint64)))


def _kernel(law, horizon, n, jumps=None):
    """Paths 0..n-1 of the n-path kernel on SubSpacing streams."""
    rng = RngStream(SEED, n - 1)
    rng.generator = _stream_gen(n - 1)
    return processes._renewal_paths(law, horizon, rng, list(range(n)), jumps)


class TestSubSpacingRepair:
    """The per-row ``_next_jump`` repair gives the one-path call's bytes.

    A one-path call runs a pass of one row in the same kernel;
    ``TestOnePathBytes`` pins its bytes on these streams.
    """

    N, HORIZON = 40, 30.0

    @pytest.fixture
    def bumps(self, monkeypatch):
        calls = []
        bump = processes._next_jump

        def counted(prev, t):
            calls.append(t <= prev)
            return bump(prev, t)

        monkeypatch.setattr(processes, "_next_jump", counted)
        return calls

    def _check(self, got, one_path, bumps):
        assert sum(bumps) > self.N  # the repair bumped jumps on many rows
        for i, path in enumerate(got):
            assert repr(path) == repr(one_path(_stream_gen(i)))
        times = np.concatenate([p.jump_times for p in got])
        assert np.isin(times[1:], np.nextafter(times[:-1], math.inf)).any()
        assert max(len(p.jump_times) for p in got) > processes._BATCH  # several rounds

    def test_fpp(self, bumps):
        lam = 20.0
        got = _kernel(processes._fpp_law(0.5, lam, self.HORIZON), self.HORIZON, self.N)
        self._check(got, lambda gen: simulate_fpp(0.5, lam, self.HORIZON, gen), bumps)

    @pytest.mark.parametrize("spec", [Stable(0.5), StableMixture((1.0,), (0.5,))], ids=repr)
    def test_timechange(self, spec, bumps):
        lam = 20.0
        got = _kernel(processes._timechange_law(spec, lam, self.HORIZON), self.HORIZON, self.N)
        self._check(got, lambda gen: simulate_timechange_renewal(spec, lam, self.HORIZON, gen),
                    bumps)

    def test_ctrw(self, bumps):
        spec, lam, jumps = Stable(0.5), 20.0, JumpDist(((1.0, 0.5), (-2.0, 0.5)))
        got = _kernel(processes._timechange_law(spec, lam, self.HORIZON), self.HORIZON, self.N,
                      jumps)
        self._check(got, lambda gen: simulate_ctrw(spec, lam, jumps, self.HORIZON, gen), bumps)


def _one_path_streams(part):
    """The one-path ``simulate_*`` calls of ``part``, in a fixed order.

    Over stream ids 0-39: beta in {0.3, 0.5, 0.8, 1} (fpp) or
    {0.3, 0.5, 0.8} under Stable, StableMixture and TemperedStable
    (timechange, ctrw), at (lam, horizon) = (1, 1), which ends most paths
    in their first round, and (50, 5), which takes several; "subspacing"
    holds the SubSpacing streams of ``TestSubSpacingRepair``.
    """
    jumps = JumpDist(((1.0, 0.5), (-2.0, 0.5)))
    if part == "subspacing":
        for i in range(TestSubSpacingRepair.N):
            lam, horizon = 20.0, TestSubSpacingRepair.HORIZON
            yield simulate_fpp(0.5, lam, horizon, _stream_gen(i))
            for spec in (Stable(0.5), StableMixture((1.0,), (0.5,))):
                yield simulate_timechange_renewal(spec, lam, horizon, _stream_gen(i))
            yield simulate_ctrw(Stable(0.5), lam, jumps, horizon, _stream_gen(i))
        return
    for lam, horizon in ((1.0, 1.0), (50.0, 5.0)):
        for i in range(40):
            if part == "fpp":
                for beta in (0.3, 0.5, 0.8, 1.0):
                    yield simulate_fpp(beta, lam, horizon, RngStream(SEED, i))
                continue
            for beta in (0.3, 0.5, 0.8):
                for spec in (Stable(beta), StableMixture((0.5, 0.5), (beta, 0.9)),
                             TemperedStable(beta, 1.0)):
                    rng = RngStream(SEED, i)
                    if part == "ctrw":
                        yield simulate_ctrw(spec, lam, jumps, horizon, rng)
                    else:
                        yield simulate_timechange_renewal(spec, lam, horizon, rng)


class TestOnePathBytes:
    """One-path ``simulate_*`` calls keep their bytes.

    The digests (sha256 of the paths' repr strings, one a line) were pinned
    from the kernel that ran a pass of one path through the one-row
    samplers, a route apart from the stacked rows of a larger pass; they
    stand in for that independent route in ``TestSubSpacingRepair``.
    """

    DIGESTS = {
        "fpp": "53fbbf6b6c39a9eae386bb236c30b39a5b19d3563ca59d7395c2df082f8ca06b",
        "timechange": "46cf2e2b5d7cdf4af2b0298c6db80a4440e91516e8eb9847c110a61131ddd9e5",
        "ctrw": "e0a179b5f7221904a2d317adbd35b98a68c5a07f164ba045abeff250d0a42f4b",
        "subspacing": "14f1e740ec88c82d3bcfcd4643aed6d245c9473fa162046e6615c62b953bdc60",
    }

    @pytest.mark.parametrize("part", sorted(DIGESTS))
    def test_digest(self, part):
        digest = hashlib.sha256()
        for path in _one_path_streams(part):
            digest.update(repr(path).encode() + b"\n")
        assert digest.hexdigest() == self.DIGESTS[part]


def _sample(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["sample", *argv, "--seed", str(SEED)]) == 0
    return paths_from_csv(out.getvalue())[0]


class TestKernelWork:
    """A 1 000-path ``sample`` makes one Kanter pass per block of paths, not one per path."""

    PATHS = 1000

    @pytest.fixture
    def kanter(self, monkeypatch):
        rows = []  # the paths (rows of _BATCH draws) of each Kanter call
        for owner in (samplers, transforms):
            kanter = owner._kanter

            def counted(beta, u, e, kanter=kanter):
                rows.append(len(u) if u.ndim == 2 else 1)
                return kanter(beta, u, e)

            monkeypatch.setattr(owner, "_kanter", counted)
        return rows

    @pytest.mark.parametrize("process", [
        ["--process", "fpp", "--beta", "0.6"],
        ["--process", "timechange", "--spec", '{"variant": "Stable", "beta": 0.6}'],
        ["--process", "ctrw", "--spec", '{"variant": "Stable", "beta": 0.6}'],
    ], ids=["fpp", "timechange", "ctrw"])
    @pytest.mark.parametrize("lam, horizon", [("1", "1e-9"), ("5", "4")])
    def test_one_kanter_pass_per_block(self, kanter, process, lam, horizon):
        paths = _sample([*process, "--lambda", lam, "--horizon", horizon,
                         "--paths", str(self.PATHS)])
        # a path closed in round r holds 32 (r - 1) + 1 to 32 r jump times
        rounds = [-(-len(p.jump_times) // processes._BATCH) for p in paths]
        block = processes._PASS_PATHS
        assert sum(kanter) == sum(rounds)  # each path's round in one call
        assert len(kanter) <= -(-sum(rounds) // block) + max(rounds)
        if horizon == "1e-9":
            assert kanter == [block] * (self.PATHS // block) + [self.PATHS % block]
        else:
            assert max(rounds) > 1


class TestPathsToCsv:
    @staticmethod
    def _row_loop(paths, spec, seed):
        # the writer of one row per write call
        buf = io.StringIO()
        buf.write(f"# spec={json.dumps(spec, separators=(',', ':'))} seed={seed}\n")
        walks = isinstance(paths[0], CTRWPath)
        buf.write("index,jump_time,jump_size\n" if walks else "index,jump_time\n")
        for i, path in enumerate(paths):
            sizes = path.jump_sizes if walks else [None] * len(path.jump_times)
            for t, x in zip(path.jump_times, sizes):
                buf.write(f"{i},{t!r},{x!r}\n" if walks else f"{i},{t!r}\n")
        return buf.getvalue()

    def test_bytes_of_the_row_loop(self):
        spec = {"variant": "Stable", "beta": 0.5}
        renewals = [RenewalPath((0.1, 1e-300 + 0.5, 2.0 / 3.0), 1.0), RenewalPath((), 1.0),
                    RenewalPath((5.0,), 1.0)]
        walks = [CTRWPath((0.25, 1.5), (-1.0, 1e-17), 1.0), CTRWPath((), (), 1.0),
                 CTRWPath((math.pi,), (2.0,), 3.0)]
        for paths in (renewals, walks):
            assert paths_to_csv(paths, spec, 7) == self._row_loop(paths, spec, 7)
