"""The benchmark's workloads: ``sampling``, ``pmf`` and ``suites``.

Each workload is a fixed list of operations, run in whole rounds.  An
operation is one ``fracpoisson.cli.main`` call or one call of a public
library function; each round has two phases, each a list of timed
(start, end) intervals, and nothing outside them (output parsing, check
bookkeeping) is timed.  The inputs of
round ``i`` come from ``(seed, i)`` alone, so a seed fixes every input.
The program is reached only through ``fracpoisson.cli.main`` and the
package namespace, looked up at call time so that the tracer's wrappers
are seen.

Checks compare outputs with ``reference`` (mpmath and scipy, not
fracpoisson) and with closed forms.  Monte Carlo checks pool the rounds
of a run and fail at ``Z_LIMIT`` standard errors, which a working
sampler exceeds with probability below 1e-6 per statistic.  The
reference module and ``scipy.stats`` are imported only by the checks,
after the rounds, so that ``peak_rss_mb`` (read before the checks) does
not hold modules the program does not use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import fracpoisson as fp
from fracpoisson import cli

ref = None  # the reference module, once _load_reference() has run
Z_LIMIT = 5.0
KS_P_FLOOR = 1e-6
LAPLACE_S = (0.5, 1.0, 2.0)
CHUNK = 1 << 16


def _load_reference():
    """Import the reference module; the checks call this first."""
    global ref
    import reference

    ref = reference


class Ops:
    """Runs operations and counts the attempted and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, label, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def call(self, label, fn, *args, **kwargs):
        """One library call; None when it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def cli(self, label, argv, accept=(0,)):
        """One ``cli.main`` call with its console output captured.

        Returns the exit code if it is in ``accept``, else None: the
        operation failed.
        """
        self.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if code not in accept:
            self._fail(label, f"exit {code}: {sink.getvalue().strip()[-300:]}")
            return None
        return code


def _round_seed(seed, index, salt=0):
    """A 32-bit seed for round ``index`` of the run with ``seed``."""
    return int(np.random.SeedSequence([seed, index, salt]).generate_state(1)[0])


def _zscore(values, target):
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) / se if se > 0 else math.inf


class LaplaceCheck:
    """Pooled empirical E[exp(-s X)] against a closed-form transform."""

    def __init__(self, label, transform):
        self.label = label
        self.transform = transform
        self.n = 0
        self.sums = {s: [0.0, 0.0] for s in LAPLACE_S}

    def add(self, x):
        x = np.asarray(x, dtype=float)
        self.n += x.size
        for start in range(0, x.size, CHUNK):  # small temporaries: see peak_rss_mb
            part = x[start:start + CHUNK]
            for s in LAPLACE_S:
                v = np.exp(-s * part)
                self.sums[s][0] += float(v.sum())
                self.sums[s][1] += float(np.dot(v, v))

    def failures(self):
        if self.n < 20:
            return [f"{self.label}: only {self.n} draws to check"]
        out = []
        for s, (tot, sq) in self.sums.items():
            mean = tot / self.n
            var = max(sq / self.n - mean * mean, 0.0) * self.n / (self.n - 1)
            target = self.transform(s)
            z = abs(mean - target) / math.sqrt(var / self.n)
            if not z <= Z_LIMIT:
                out.append(f"{self.label}: E[exp(-{s}X)] = {mean:.6f}, "
                           f"closed form {target:.6f}, z = {z:.2f}")
        return out


def _waiting_transform(spec, lam):
    """s -> lam / (lam + psi(s)), with psi from the reference module."""
    return lambda s: float(lam / (lam + ref.psi(spec, ref.mp.mpf(s))))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

STABLE_HALF = {"variant": "Stable", "beta": 0.5}
TEMPERED = {"variant": "TemperedStable", "beta": 0.5, "a": 1.0}
MIXTURE = {"variant": "StableMixture", "weights": [0.5, 0.5], "betas": [0.3, 0.7]}
HORIZON = 10.0

# Path laws have beta = 0.8: at beta = 1/2 a wait below the spacing of
# floats near t (P ~ 5e-8 per jump) makes two equal jump times and fails
# the whole `sample` call, a few times in a thousand runs (see the FOUND
# line in CHANGES.md); at 0.8 that chance is ~1e-12 per jump.
PATH_STABLE = {"variant": "Stable", "beta": 0.8}
PATH_TEMPERED = {"variant": "TemperedStable", "beta": 0.8, "a": 1.0}
PATH_MIXTURE = {"variant": "StableMixture", "weights": [0.5, 0.5], "betas": [0.4, 0.8]}

# (kind, argv after "sample", law of the waiting times, paths per round).
# Path counts put each kind near a fifth of the phase time.
ENSEMBLES = (
    ("fpp", ["--process", "fpp", "--beta", "0.8"], PATH_STABLE, 1600),
    ("timechange-stable", ["--process", "timechange", "--spec", json.dumps(PATH_STABLE)],
     PATH_STABLE, 1200),
    ("timechange-tempered", ["--process", "timechange", "--spec", json.dumps(PATH_TEMPERED)],
     PATH_TEMPERED, 40),
    ("timechange-mixture", ["--process", "timechange", "--spec", json.dumps(PATH_MIXTURE)],
     PATH_MIXTURE, 700),
    ("ctrw", ["--process", "ctrw", "--spec", json.dumps(PATH_STABLE)], PATH_STABLE, 600),
)

_TS_BETA, _TS_A, _TS_DT = 0.5, 1.0, 2.0
_RM_T, _RM_STEPS = 1.0, 40

# (sampler, its arguments before the source, draws per round, transform).
# The running maximum runs 1e5 paths, where its block holds 2 steps.
BULK = (
    ("sample_ml_waiting", (0.6, 1.0), 1_000_000, lambda s: 1.0 / (1.0 + s ** 0.6)),
    ("sample_tempered_ml_waiting", (0.5, 1.0, 2.0), 300_000,
     lambda s: 2.0 / (2.0 + (s + 1.0) ** 0.5 - 1.0)),
    ("sample_tempered_stable_increment", (_TS_BETA, _TS_A, _TS_DT), 200_000,
     lambda s: math.exp(-_TS_DT * ((s + _TS_A) ** _TS_BETA - _TS_A ** _TS_BETA))),
    ("sample_inverse_stable_marginal", (0.7, 1.0), 1_000_000,
     lambda s: ref.ml_one(0.7, -s)),
    ("sample_brownian_running_max", (_RM_T, _RM_STEPS), 100_000, None),
)


def _read_paths(path, walks):
    """(index, jump_time[, jump_size]) columns of a path CSV, header checked."""
    with open(path) as fh:
        first = fh.readline()
        second = fh.readline().strip()
    want = "index,jump_time,jump_size" if walks else "index,jump_time"
    if not first.startswith("# spec=") or " seed=" not in first or second != want:
        raise ValueError(f"unexpected CSV header {first.strip()!r} / {second!r}")
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


class Sampling:
    """Path ensembles through ``cli sample``, then bulk sampler draws."""

    name = "sampling"

    def __init__(self, seed, quick, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        shrink = 40 if quick else 1
        self.ensembles = [(k, a, law, max(8, n // shrink)) for k, a, law, n in ENSEMBLES]
        self.bulk = [(f, a, max(200, n // shrink), tr) for f, a, n, tr in BULK]
        self.paths_per_round = sum(e[3] for e in self.ensembles)
        self.draws_per_round = sum(b[2] for b in self.bulk)
        self.first_waits = {e[0]: [] for e in self.ensembles}
        self.counts = {e[0]: [] for e in self.ensembles}
        self.jump_signs = [0, 0]
        self.structure = []
        self.laplace = {f: LaplaceCheck(f, tr) for f, _, _, tr in self.bulk if tr}
        self.maxima = [0, 0.0, 0.0, math.inf]  # n, sum, sum of squares, min

    def run_round(self, index, ops, record=True):
        commands = [
            (kind, ["sample", *argv, "--lambda", "1", "--horizon", repr(HORIZON),
                    "--paths", str(paths), "--seed", str(_round_seed(self.seed, index, j)),
                    "--jobs", "1", "--output", os.path.join(self.tmpdir, f"{kind}.csv")])
            for j, (kind, argv, _, paths) in enumerate(self.ensembles)]
        bulk_seed = _round_seed(self.seed, index, len(commands))  # the next salt
        files = {}
        t0 = time.perf_counter()
        for kind, argv in commands:
            files[kind] = None if ops.cli(f"phase1.{kind}", argv) is None else argv[-1]
        t1 = time.perf_counter()
        draws = {}
        for j, (fn, params, size, _) in enumerate(self.bulk):
            rng = fp.RngStream(bulk_seed, j)
            draws[fn] = ops.call(f"phase2.{fn}", getattr(fp, fn), *params, rng, size=size)
        t2 = time.perf_counter()

        digest = hashlib.sha1()
        for kind, out in files.items():
            if out is None:
                continue
            with open(out, "rb") as fh:
                digest.update(fh.read())
            if record:
                self._record_paths(kind, out)
        for fn, x in draws.items():
            if x is None:
                continue
            digest.update(np.ascontiguousarray(x).tobytes())
            if record:
                self._record_draws(fn, x)
        return {"phase1": [(t0, t1)], "phase2": [(t1, t2)], "digest": digest.hexdigest()}

    def _record_paths(self, kind, out):
        walks = kind == "ctrw"
        paths = next(e[3] for e in self.ensembles if e[0] == kind)
        try:
            rows = _read_paths(out, walks)
        except ValueError as exc:
            self.structure.append(f"{kind}: {exc}")
            return
        idx = rows[:, 0].astype(int)
        times = rows[:, 1]
        ids, first, per_path = np.unique(idx, return_index=True, return_counts=True)
        last = first + per_path - 1
        same = idx[1:] == idx[:-1]
        problems = []
        if not np.array_equal(ids, np.arange(paths)):
            problems.append(f"path indices are not 0..{paths - 1}")
        if np.any(np.diff(idx) < 0):
            problems.append("rows not grouped by path")
        if np.any(np.diff(times)[same] <= 0.0) or np.any(times[first] <= 0.0):
            problems.append("jump times not positive and increasing")
        if np.any(times[last] <= HORIZON):
            problems.append("a path stops before passing the horizon")
        inside = np.ones(times.size, dtype=bool)
        inside[last] = False
        if np.any(times[inside] > HORIZON):
            problems.append("a path has two jumps past the horizon")
        if walks:
            sizes = rows[:, 2]
            if not np.all(np.isin(sizes, (-1.0, 1.0))):
                problems.append("jump sizes outside {-1, 1}")
            self.jump_signs[0] += int(np.sum(sizes > 0))
            self.jump_signs[1] += sizes.size
        self.structure += [f"{kind}: {p}" for p in problems]
        self.first_waits[kind].append(times[first])
        self.counts[kind].append(per_path - 1)

    def _record_draws(self, fn, x):
        if fn == "sample_brownian_running_max":
            m = self.maxima
            m[0] += x.size
            m[1] += float(x.sum())
            m[2] += float(np.dot(x, x))
            m[3] = min(m[3], float(x.min()))
        else:
            if np.any(~np.isfinite(x)) or np.any(x < 0.0):
                self.structure.append(f"{fn}: negative or non-finite draws")
            self.laplace[fn].add(x)

    def check(self, ops):
        from scipy import stats

        _load_reference()
        fails = list(self.structure)
        for kind, _, law, _ in self.ensembles:
            waits = np.concatenate(self.first_waits[kind]) if self.first_waits[kind] else []
            lc = LaplaceCheck(f"{kind} first waits", _waiting_transform(law, 1.0))
            lc.add(waits)
            fails += lc.failures()
            counts = np.concatenate(self.counts[kind]) if self.counts[kind] else np.zeros(0)
            if counts.size > 1:
                mean = float(ref.renewal_mean(law, 1.0, HORIZON))
                z = _zscore(counts, mean)
                if not z <= Z_LIMIT:
                    fails.append(f"{kind}: mean N({HORIZON:g}) = {counts.mean():.4f}, "
                                 f"renewal mean {mean:.4f}, z = {z:.2f}")
        a, b = self.first_waits["fpp"], self.first_waits["timechange-stable"]
        if a and b:
            # the paper's theorem: renewal and time-change first waits agree in law
            p = stats.ks_2samp(np.concatenate(a), np.concatenate(b)).pvalue
            if not p >= KS_P_FLOOR:
                fails.append(f"KS fpp vs timechange-stable first waits: p = {p:.2e}")
        up, total = self.jump_signs
        if total and abs(up - total / 2) > Z_LIMIT * math.sqrt(total / 4):
            fails.append(f"ctrw: {up} of {total} jumps are +1")
        for lc in self.laplace.values():
            fails += lc.failures()
        n, s1, s2, lowest = self.maxima
        if not n:
            fails.append("running max: no draws to check")
        else:
            # E max_{r<=t} B(r) = E|N(0, 2t)| = 2 sqrt(t/pi); the grid max is
            # below it by O(sqrt(t/n_steps)), about 0.58 sqrt(2t/n_steps)
            mean = s1 / n
            se = math.sqrt(max(s2 / n - mean * mean, 0.0) / n)
            bias = 2.0 * math.sqrt(_RM_T / math.pi) - mean
            allowed = math.sqrt(2.0 * _RM_T / _RM_STEPS)
            if lowest < 0.0 or not -Z_LIMIT * se <= bias <= allowed + Z_LIMIT * se:
                fails.append(f"running max: mean {mean:.5f}, grid bias {bias:.5f} "
                             f"outside [0, {allowed:.4f}] +- {Z_LIMIT:g} se")
        return fails

    def rates(self, phase1_s, phase2_s):
        return {"paths_per_s": self.paths_per_round / phase1_s,
                "draws_per_s": self.draws_per_round / phase2_s}


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------

# (beta, lam, t): the series route (z below the switch) and the far-tail
# route with its inversion fallback (z above it), 35 to 117 rows each.
BETA_TABLES = (
    (0.3, 1.0, 10.0), (0.3, 1.0, 60.0),
    (0.5, 1.0, 2.0), (0.5, 1.0, 60.0), (0.5, 2.0, 20.0),
    (0.7, 1.0, 5.0), (0.7, 1.0, 60.0),
    (0.9, 1.0, 10.0), (0.9, 1.0, 40.0),
    (0.999, 1.0, 2.0), (0.999, 1.0, 25.0),
)
SPEC_TABLES = (
    (TEMPERED, 2.0),
    (MIXTURE, 2.0),
    ({"variant": "DistributedOrder", "poly": [1.0]}, 1.0),
    ({"variant": "DistributedOrder", "poly": [0.0, 2.0]}, 2.0),
)

_PMF_SERIES = ((0.3, 1.0, 0.5, 3), (0.5, 1.0, 2.0, 3), (0.5, 1.0, 2.0, 20), (0.7, 1.0, 2.0, 8),
               (0.7, 2.0, 0.5, 40), (0.9, 1.0, 2.0, 3), (0.9, 2.0, 2.0, 20), (0.999, 1.0, 2.0, 8),
               (0.999, 2.0, 0.5, 1), (0.5, 2.0, 0.5, 8))
_PMF_INVERSION = ((0.3, 1.0, 10.0, 3), (0.3, 2.0, 0.5, 20), (0.5, 1.0, 10.0, 8),
                  (0.5, 2.0, 2.0, 20), (0.7, 1.0, 10.0, 3), (0.7, 1.0, 10.0, 40),
                  (0.9, 1.0, 10.0, 8), (0.999, 1.0, 10.0, 3))
_PMF_FAR_TAIL = ((0.5, 1.0, 25.0, 3), (0.5, 1.0, 40.0, 8), (0.5, 2.0, 10.0, 1),
                 (0.7, 1.0, 40.0, 3), (0.7, 2.0, 10.0, 3), (0.9, 1.0, 25.0, 1),
                 (0.9, 2.0, 40.0, 8), (0.999, 2.0, 25.0, 3), (0.999, 1.0, 40.0, 8),
                 (0.3, 2.0, 2.0, 1))
# far-tail regime where the expansion's floor is too coarse: inversion answers
_PMF_FAR_INVERSION = ((0.5, 1.0, 25.0, 20), (0.5, 2.0, 10.0, 20), (0.7, 1.0, 25.0, 40),
                      (0.7, 2.0, 10.0, 8), (0.9, 1.0, 40.0, 40), (0.9, 2.0, 10.0, 3),
                      (0.999, 1.0, 25.0, 8), (0.999, 2.0, 10.0, 40))

_ML_POOL = tuple((b, -x) for b in (0.3, 0.5, 0.7, 0.9)
                 for x in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 40.0)
                 if b == 0.5 or x ** (1.0 / b) <= 100.0)
# (2.5, 0.4, 0.7, -3.0) is left out: see the FOUND line on prabhakar in CHANGES.md
# the third z is past the series switch 18.4**alpha: the asymptotic route
_PRAB_POOL = tuple((g, a, th, z) for g in (0.5, 1.0, 2.5)
                   for a, zs in ((0.4, (-0.5, -3.0, -6.0, 0.8)), (0.7, (-0.5, -3.0, -12.0, 0.8)))
                   for th in (0.7, 1.6) for z in zs
                   if (g, a, th, z) != (2.5, 0.4, 0.7, -3.0))
_GEN_SPECS = (STABLE_HALF | {"beta": 0.6}, TEMPERED, MIXTURE,
              {"variant": "DistributedOrder", "poly": [1.0]})
_GEN_POOL = tuple((i, 1.0, t, n) for i in range(len(_GEN_SPECS))
                  for t in (0.5, 2.0, 5.0) for n in (0, 2, 6))
# beta = 1/2 takes the first-passage quadrature, the others Talbot
# inversion, or the quadrature in the far field (large x at small t)
_DENSITY_POOL = tuple((b, x, t) for b in (0.3, 0.5, 0.7) for x in (0.2, 1.0, 3.0, 8.0)
                      for t in (0.5, 2.0) if (b, x, t) != (0.7, 8.0, 0.5)) + (
    (0.9, 0.2, 0.5), (0.9, 0.2, 2.0), (0.9, 1.0, 2.0))
_MIX_POOL = tuple((b, 1.0, t, n) for b in (0.4, 0.6) for t in (0.5, 2.0) for n in (0, 3))

# (function, pool, evaluations per round, reference, tolerance(ref, args)),
# tolerances from the accuracy README.md states for each function
POINTS = (
    ("ml_one", _ML_POOL, 400, lambda b, z: ref.ml_one(b, z),
     lambda r, a: 1e-7 if a[0] <= 0.7 else 1e-6),
    ("prabhakar", _PRAB_POOL, 200, lambda *a: float(ref.prabhakar(*a)),
     lambda r, a: 1e-6 * max(1.0, abs(r))),
    ("fpp_pmf", _PMF_SERIES + _PMF_INVERSION + _PMF_FAR_TAIL + _PMF_FAR_INVERSION, 300,
     lambda *a: ref.fpp_pmf(*a), lambda r, a: max(1e-9, 1e-6 * r)),
    ("general_pmf", _GEN_POOL, 60,
     lambda i, lam, t, n: ref.general_pmf(_GEN_SPECS[i], lam, t, n),
     lambda r, a: max(1e-9, 1e-6 * r)),
    ("inverse_stable_density", _DENSITY_POOL, 100, lambda *a: ref.inverse_stable_density(*a),
     lambda r, a: max(1e-9, 1e-6 * r)),
    ("fpp_pmf_mixture", _MIX_POOL, 4, lambda *a: ref.fpp_pmf(*a),
     lambda r, a: max(1e-9, 1e-6 * r)),
)


def _parse_table(text, fmt):
    """(rows, tail_mass_bound) of a pmf table printed by ``cli pmf``."""
    if fmt == "json":
        doc = json.loads(text)
        return [(int(n), float(p)) for n, p in doc["rows"]], float(doc["tail_mass_bound"])
    lines = text.strip().splitlines()
    head = lines[0].split()
    if head[0] != "#" or lines[1] != "n,prob":
        raise ValueError(f"unexpected table header {lines[:2]!r}")
    bound = float(head[-1].split("=", 1)[1])
    rows = [(int(a), float(b)) for a, b in (ln.split(",") for ln in lines[2:])]
    return rows, bound


class Pmf:
    """Tables through ``cli pmf``, then point evaluations in the library."""

    name = "pmf"

    def __init__(self, seed, quick, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.tables = []
        for beta, lam, t in BETA_TABLES:
            self.tables.append((f"beta{beta:g}-lam{lam:g}-t{t:g}",
                                ["--beta", repr(beta), "--lambda", repr(lam), "--t", repr(t)],
                                {"beta": beta, "lam": lam, "t": t}))
        for i, (spec, t) in enumerate(SPEC_TABLES):
            self.tables.append((f"{spec['variant']}{i}-t{t:g}",
                                ["--spec", json.dumps(spec), "--lambda", "1.0", "--t", repr(t)],
                                {"spec": spec, "lam": 1.0, "t": t}))
        if quick:
            self.tables = self.tables[2:4] + self.tables[-2:-1]
        self.points = [(f, pool, max(1, n // (40 if quick else 1)), r, tol)
                       for f, pool, n, r, tol in POINTS]
        self.specs = [fp.spec_from_json(spec) for spec in _GEN_SPECS]
        self.rows_per_round = 0
        self.evals_per_round = sum(p[2] for p in self.points)
        self.table_text = {}
        self.values = {}
        self.problems = []

    def run_round(self, index, ops, record=True):
        texts = {}
        t0 = time.perf_counter()
        for j, (label, argv, _) in enumerate(self.tables):
            fmt = "json" if j % 2 else "csv"
            out = os.path.join(self.tmpdir, f"{label}.{fmt}")
            if ops.cli(f"phase1.{label}", ["pmf", *argv, "--format", fmt, "--output", out]) == 0:
                texts[label] = (out, fmt)
        t1 = time.perf_counter()
        rng = np.random.default_rng(_round_seed(self.seed, index))
        picks = []
        for fn, pool, n, _, _ in self.points:
            for k in rng.integers(len(pool), size=n):
                args = pool[k]
                call_args = ((self.specs[args[0]],) + args[1:]) if fn == "general_pmf" else args
                picks.append((fn, args, call_args))
        got = []
        t2 = time.perf_counter()
        for fn, args, call_args in picks:
            got.append((fn, args, ops.call(f"phase2.{fn}", getattr(fp, fn), *call_args)))
        t3 = time.perf_counter()

        digest = hashlib.sha1()
        for label, (out, fmt) in texts.items():
            with open(out) as fh:
                text = fh.read()
            digest.update(text.encode())
            if record:
                first = self.table_text.setdefault(label, (text, fmt))
                if first[0] != text:
                    self.problems.append(f"table {label} differs between rounds")
        for fn, args, value in got:
            if value is None:
                continue
            digest.update(repr((fn, args, value)).encode())
            if record:
                seen = self.values.setdefault((fn, args), value)
                if seen != value:
                    self.problems.append(f"{fn}{args} gave {seen!r} and then {value!r}")
        return {"phase1": [(t0, t1)], "phase2": [(t2, t3)], "digest": digest.hexdigest()}

    def check(self, ops):
        _load_reference()
        fails = list(self.problems)
        fails += [f"table {label}: no output in any round"
                  for label, _, _ in self.tables if label not in self.table_text]
        fails += [f"{fn}: no value in any round" for fn, *_ in self.points
                  if not any(key[0] == fn for key in self.values)]
        params = {label: p for label, _, p in self.tables}
        self.rows_per_round = 0
        for label, (text, fmt) in self.table_text.items():
            try:
                rows, bound = _parse_table(text, fmt)
            except (ValueError, KeyError, IndexError) as exc:
                fails.append(f"table {label}: unreadable: {exc}")
                continue
            self.rows_per_round += len(rows)
            fails += [f"table {label}: {m}" for m in self._check_table(params[label], rows, bound)]
        refs = {fn: (r, tol) for fn, _, _, r, tol in self.points}
        for (fn, args), value in self.values.items():
            r, tol = refs[fn]
            want = r(*args)
            if not abs(value - want) <= tol(want, args):
                fails.append(f"{fn}{args} = {value!r}, reference {want!r}")
        return fails

    @staticmethod
    def _check_table(p, rows, bound):
        out = []
        ns = [n for n, _ in rows]
        probs = np.array([q for _, q in rows])
        if ns != list(range(len(rows))):
            out.append("rows do not cover n = 0..N*")
        if np.any(probs < 0.0) or not bound >= 0.0:
            out.append("negative probability or tail bound")
        total = math.fsum(probs) + bound
        if not abs(total - 1.0) <= 1e-8:
            out.append(f"rows plus tail bound sum to {total!r}")
        lam, t = p["lam"], p["t"]
        if "beta" in p:
            mean = lam * t ** p["beta"] / math.gamma(1.0 + p["beta"])
        else:
            mean = ref.renewal_mean(p["spec"], lam, t)
        got = math.fsum(n * q for n, q in rows)
        # rows hold max(1e-9, 1e-6 p) each; the cut tail holds at most the bound
        tol = 1e-6 * mean + 1e-9 * len(rows) ** 2 + 10.0 * len(rows) * bound
        if not abs(got - mean) <= tol:
            out.append(f"mean {got!r}, expected {mean!r}")
        if p.get("beta") == 0.5:
            for n, q in rows:
                want = ref.halforder_pmf(lam, t, n)
                if not abs(q - want) <= max(1e-9, 1e-6 * want):
                    out.append(f"P(N={n}) = {q!r}, half-order quadrature {want!r}")
        return out

    def rates(self, phase1_s, phase2_s):
        return {"pmf_rows_per_s": self.rows_per_round / phase1_s,
                "evals_per_s": self.evals_per_round / phase2_s}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITE_SEED = 42
SUITE_PHASES = (("theorem23", "theorem51", "distributed"), ("theorem31", "theorem41", "fraccalc"))
# run again after the timed rounds: their reports must repeat byte for byte
SUITE_REPEATS = ("theorem23", "theorem41", "fraccalc")


class Suites:
    """``cli check`` on six suites at the reference seed; the seed is not used."""

    name = "suites"

    def __init__(self, seed, quick, tmpdir):
        self.tmpdir = tmpdir
        self.phases = ((("theorem23",), ("fraccalc",)) if quick else SUITE_PHASES)
        self.repeats = ("fraccalc",) if quick else SUITE_REPEATS
        self.reports = {}
        self.problems = []

    def _run(self, ops, suite, tag):
        """The report of one ``cli check`` call, or None if the call failed.

        Exit 1 means the suite ran and a case failed; the report is
        written all the same, and ``check`` fails on it.
        """
        out = os.path.join(self.tmpdir, f"{suite}-{tag}.json")
        code = ops.cli(f"suite.{suite}", ["check", "--suite", suite, "--seed", str(SUITE_SEED),
                                          "--output", out], accept=(0, 1))
        if code is None:
            return None
        with open(out, "rb") as fh:
            return fh.read()

    def run_round(self, index, ops, record=True):
        texts = {}
        intervals = []
        for phase in self.phases:
            intervals.append([])
            for suite in phase:
                start = time.perf_counter()
                texts[suite] = self._run(ops, suite, "round")
                intervals[-1].append((start, time.perf_counter()))
        digest = hashlib.sha1()
        for suite, text in texts.items():
            if text is None:
                continue
            digest.update(text)
            if record:
                first = self.reports.setdefault(suite, text)
                if first != text:
                    self.problems.append(f"{suite}: report differs between rounds")
        return {"phase1": intervals[0], "phase2": intervals[1], "digest": digest.hexdigest()}

    def check(self, ops):
        fails = list(self.problems)
        fails += [f"{suite}: no report in any round"
                  for phase in self.phases for suite in phase if suite not in self.reports]
        for suite, text in self.reports.items():
            try:
                doc = json.loads(text)
            except ValueError as exc:
                fails.append(f"{suite}: unreadable report: {exc}")
                continue
            if doc.get("suite") != suite or doc.get("seed") != SUITE_SEED:
                fails.append(f"{suite}: report names {doc.get('suite')!r} seed {doc.get('seed')!r}")
            bad = [c["name"] for c in doc.get("cases", []) if not c.get("pass")]
            if bad or not doc.get("cases"):
                fails.append(f"{suite}: failing cases {bad}")
        for suite in self.repeats:
            again = self._run(ops, suite, "repeat")
            if again is not None and again != self.reports.get(suite):
                fails.append(f"{suite}: a second run gave a different report")
        return fails

    def rates(self, phase1_s, phase2_s):
        return {}


WORKLOADS = {w.name: w for w in (Sampling, Pmf, Suites)}
