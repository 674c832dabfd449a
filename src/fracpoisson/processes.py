"""Path-level simulation of fractional counting processes.

Two constructions of the same counting process are implemented and kept
deliberately independent so they can be tested against each other:

* the renewal construction (``simulate_fpp``): cumulative sums of IID
  Mittag-Leffler waiting times;
* the time-change construction (``simulate_timechange_renewal``): a
  rate-lam Poisson process whose arrival times are warped through a
  subordinator path, giving the jump times of the inverse-subordinator
  count exactly, with no discretization.

Also here: CTRW paths driven by those renewal times, the Bernoulli
prelimit walk whose law converges to the fractional counting process,
and grid-path inversion with its left-limit consistency check.

Paths come from one n-path kernel, ``_renewal_paths``, which the
``simulate_*`` functions run for one path: each path draws on its own
stream, and a round's math runs in one array pass over up to _PASS_PATHS
open paths, so no ``--jobs`` split of the ids changes the bytes.  A
second, ``_renewal_counts``, counts many paths at one time t without
building them, from waits it reads from a callable: time-change waits
give N(t) and the CTRW position X(t) (``_timechange_counts``,
``_ctrw_positions``), Mittag-Leffler waits the prelimit values
(``_prelimit_values``; ``ctrw_prelimit_bernoulli`` runs one path).
Times, horizons, rates and jump data must be finite, else DomainError.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError, SamplingError, TruncationError, _count, _nonnegative, _positive, _unit_interval,
)
from .samplers import _generator, _ml_draws, _ml_waits
from .transforms import JumpDist, _require_spec, spec_to_json

__all__ = [
    "RenewalPath",
    "CTRWPath",
    "GridPath",
    "simulate_fpp",
    "simulate_timechange_renewal",
    "simulate_ctrw",
    "ctrw_prelimit_bernoulli",
    "inverse_path_on_grid",
    "lemma1_check",
    "paths_to_csv",
    "paths_from_csv",
]


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

def _jump_times(path):
    """Store ``path.jump_times`` as floats after checking them and the horizon."""
    jt = tuple(map(float, path.jump_times))
    object.__setattr__(path, "jump_times", jt)
    if jt and not (all(map(math.isfinite, jt)) and jt[0] > 0.0
                   and all(map(operator.lt, jt, jt[1:]))):
        raise DomainError("jump times must be finite, strictly increasing and positive")
    _positive("horizon", path.horizon)


def _jumps_before(path, t):
    """Number of jumps at or before time t, for finite 0 <= t <= horizon."""
    _nonnegative("time", t)
    if t > path.horizon:
        raise DomainError(f"paths are defined only up to the horizon {path.horizon}")
    return int(np.searchsorted(path.jump_times, t, side="right"))


@dataclass(frozen=True)
class RenewalPath:
    """Jump times of a counting process up to (and one past) a horizon.

    The last recorded jump may exceed the horizon: the first
    overshooting jump is retained so survival probabilities at t <=
    horizon can be estimated without censoring bias.
    """

    jump_times: tuple
    horizon: float

    def __post_init__(self):
        _jump_times(self)

    def count_at(self, t):
        """N(t): number of jumps at or before time t (right-continuous)."""
        return _jumps_before(self, t)


@dataclass(frozen=True)
class CTRWPath:
    """Jump times plus jump sizes; the walk position is the prefix sum."""

    jump_times: tuple
    jump_sizes: tuple
    horizon: float

    def __post_init__(self):
        _jump_times(self)
        js = tuple(map(float, self.jump_sizes))
        object.__setattr__(self, "jump_sizes", js)
        if len(self.jump_times) != len(js) or not all(map(math.isfinite, js)):
            raise DomainError("jump_sizes must be finite, one per jump time")

    def position_at(self, t):
        """X(t): sum of jump sizes with jump time <= t."""
        return float(math.fsum(self.jump_sizes[: _jumps_before(self, t)]))


@dataclass(frozen=True)
class GridPath:
    """A finite nondecreasing function sampled on a finite uniform time grid."""

    times: tuple
    values: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", tuple(t))
        object.__setattr__(self, "values", tuple(v))
        if t.size < 2:
            raise DomainError("grid needs at least two points")
        if t.size != v.size or not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DomainError("times and values must be finite, of equal length")
        steps = np.diff(t)
        if steps[0] <= 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise DomainError("times must form a uniform ascending grid")
        if np.any(np.diff(v) < 0.0):
            raise DomainError("values must be nondecreasing")

    @property
    def step(self):
        return (self.times[-1] - self.times[0]) / (len(self.times) - 1)


# ---------------------------------------------------------------------------
# renewal simulation
# ---------------------------------------------------------------------------

_BATCH = 32  # draws per batch: fixes how each path consumes its stream


def _next_jump(prev, t):
    """Jump time t, or the next float above prev when t <= prev.

    A wait below the float spacing near prev is lost when added to it;
    the bump keeps jump times strictly increasing.
    """
    return t if t > prev else math.nextafter(prev, math.inf)


def simulate_fpp(beta, lam, horizon, rng):
    """Simulate the fractional Poisson process by its renewal construction.

    Jump times are cumulative sums of IID Mittag-Leffler waiting times
    with P(J > t) = E_beta(-lam t**beta).  Generation stops at the first
    jump past the finite horizon, which is retained.
    """
    return _renewal_paths(_fpp_law(beta, lam, horizon), horizon, _generator(rng))[0]


def _fpp_law(beta, lam, horizon):
    """(draw, advance) of Mittag-Leffler renewal paths; see ``_renewal_paths``."""
    _positive("horizon", horizon)
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)

    def draw(gen, carry):
        return _ml_draws(gen, beta, _BATCH)

    def advance(cols, carry):
        waits = _ml_waits(beta, lam, cols)
        return np.cumsum(np.hstack((carry[:, 1:], waits)), axis=1), carry[:, 0], waits

    return draw, advance


def _timechange_law(spec, lam, horizon):
    """(draw, advance) of time-changed paths, jump times D(V_n); see ``_renewal_paths``.

    A row holds the clock's exponentials and the spec's ``_draws``, or for
    a family without ``_scale`` the clock and its ``increments``
    (TemperedStable's rejection needs each proposal before its next draw).
    """
    _positive("horizon", horizon)
    _positive("rate", lam)
    _require_spec(spec)
    split = hasattr(spec, "_scale")

    def draw(gen, carry):
        e = gen.standard_exponential(_BATCH)
        if split:
            return (e, *spec._draws(gen, _BATCH))
        clock = np.append(carry[0], carry[0] + np.cumsum(e / lam))
        return clock, spec.increments(clock[1:] - clock[:-1], gen)

    def advance(cols, carry):
        if split:
            clock = np.hstack((carry[:, :1], carry[:, :1] + np.cumsum(cols[0] / lam, axis=1)))
            cols = clock, spec._scale(clock[:, 1:] - clock[:, :-1], cols[1:])
        clock, incs = cols
        jumps = np.hstack((carry[:, 1:], np.cumsum(incs, axis=1) + carry[:, 1:]))
        return jumps, clock[:, -1], None

    return draw, advance


_PASS_PATHS = 256  # paths per pass of _renewal_paths: bounds its memory


def _renewal_paths(law, horizon, rng, ids=None, jumps=None):
    """Renewal paths, each up to its first jump past the horizon, in array rounds.

    Path j reads RngStream(rng.seed, ids[j]); without ids one path reads the
    generator ``rng``.  In a round each open path makes its _BATCH renewals'
    generator calls, ``draw(gen, carried (clock, jump))``; ``advance(stacked
    rows, carried)`` gives the jump times (the carried one first), the clocks
    to carry and the waits (None: a repair reads the cumsum).
    """
    draw, advance = law
    streams = ids is not None
    gen = rng.generator if streams else rng
    paths = [None] * (len(ids) if streams else 1)
    carry, times, state = {}, {}, {}  # of the paths open after a round

    def enter(j):  # gen, where path j's round starts
        if j in state:
            gen.bit_generator.state = state[j]
        elif streams:
            rng._rekey(ids[j])
        return gen

    queue, head = list(range(len(paths))), 0  # open paths from head on
    while head < len(queue):
        block = queue[head:head + _PASS_PATHS]
        head += len(block)
        rows = [draw(enter(j), carry.get(j, (0.0, 0.0))) for j in block]
        start = np.array([carry.get(j, (0.0, 0.0)) for j in block])
        with np.errstate(over="ignore"):  # an overflowed jump time is +inf
            new, clock, waits = advance([np.array(col) for col in zip(*rows)], start)
        for r in np.flatnonzero(~(new[:, 1:] > new[:, :-1]).all(axis=1)).tolist():
            row = new[r]  # a wait below the float spacing was lost: bump
            for k in range(1, _BATCH + 1):
                step = row[k] if waits is None else row[k - 1] + waits[r, k - 1]
                row[k] = _next_jump(row[k - 1], step)
        at = block[-1]  # the path whose round gen stands at the end of
        for j, c, row in zip(block, clock.tolist(), new.tolist()):
            k = bisect.bisect_right(row, horizon, 1)  # row[k] is the first past it
            if k <= _BATCH and row[k] == math.inf:  # kept; the ones after it are not
                raise SamplingError("a jump time overflows a float: raise the rate")
            got = times.pop(j, []) + row[1:k + 1]
            if k <= _BATCH and jumps is None:
                paths[j] = RenewalPath(tuple(got), horizon)
                continue
            if j != at:  # an open path or a walk replays its round to its stream's end
                draw(enter(j), carry.get(j, (0.0, 0.0)))
            at = j if k > _BATCH else None
            if k > _BATCH:
                queue.append(j)
                carry[j], times[j] = (c, row[-1]), got
                if streams:
                    state[j] = gen.bit_generator.state
            else:
                paths[j] = CTRWPath(tuple(got), jumps._draw(gen, len(got)).tolist(), horizon)
    return paths


_PASS_DRAWS = 2 ** 15  # waits per pass of the n-path kernel: bounds its memory


def _renewal_counts(wait, t, n):
    """Counts N(t) of n independent renewal paths, in array passes.

    ``wait(k)`` returns the next k waiting times of the stream.  Each
    pass advances up to _PASS_DRAWS // width open paths by ``width``
    renewals: one ``wait`` call fills the pass row by row, and a row
    cumsum gives the jump times.  A path closes at its first jump past
    t; paths still open rejoin the queue behind the ones not yet
    advanced.  The width is 4 while many paths are open and grows to
    _BATCH as they close.
    """
    counts = np.zeros(n, dtype=np.intp)
    tau = np.zeros(n)  # each path's last jump time
    open_ = np.arange(n)
    while open_.size:
        width = min(max(_PASS_DRAWS // open_.size, 4), _BATCH)
        rows = open_[: _PASS_DRAWS // width]
        d = wait(rows.size * width).reshape(rows.size, width)
        np.cumsum(d, axis=1, out=d)
        d += tau[rows, None]
        counts[rows] += (d <= t).sum(axis=1)
        tau[rows] = d[:, -1]
        open_ = np.concatenate((open_[rows.size:], rows[d[:, -1] <= t]))
    return counts


def _timechange_counts(spec, lam, t, n, gen):
    """Counts N(t) of n independent time-changed paths.

    The waits are D(V_k) - D(V_{k-1}): the clock gaps are the rate-lam
    exponentials themselves, and one ``spec.increments`` call covers
    every gap of a pass.
    """
    _positive("time", t)
    _positive("rate", lam)
    _require_spec(spec)
    return _renewal_counts(
        lambda k: spec.increments(gen.standard_exponential(k) / lam, gen), t, n
    )


def _ctrw_positions(spec, lam, jumps, t, n, gen):
    """Positions X(t) of n independent time-change CTRWs.

    Counts come from ``_timechange_counts``; then one draw of all the
    jump sizes, summed per path in path order (0.0 for a path without
    jumps).
    """
    counts = _timechange_counts(spec, lam, t, n, gen)
    sizes = jumps._draw(gen, int(counts.sum()))
    return np.bincount(np.repeat(np.arange(n), counts), weights=sizes, minlength=n)


def simulate_timechange_renewal(spec, lam, horizon, rng):
    """Simulate the time-changed counting process's jump times exactly.

    Draws rate-lam Poisson arrival times V_1 < V_2 < ... and maps them
    through one subordinator path, tau_n = D(V_n).  Because the
    subordinator has no fixed discontinuity points, D(V_n-) = D(V_n)
    almost surely and these are exactly the jump times of the
    inverse-subordinator count; no discretization is involved.
    """
    return _renewal_paths(_timechange_law(spec, lam, horizon), horizon, _generator(rng))[0]


def simulate_ctrw(spec, lam, jumps, horizon, rng):
    """Simulate a continuous-time random walk driven by the time change.

    Renewal times are those of ``simulate_timechange_renewal``; jump
    sizes are IID from ``jumps``.  The resulting path has the law of the
    compound process evaluated at the inverse subordinator, exactly.
    """
    if not isinstance(jumps, JumpDist):
        raise DomainError(f"jumps must be a JumpDist, got {type(jumps)!r}")
    law = _timechange_law(spec, lam, horizon)
    return _renewal_paths(law, horizon, _generator(rng), jumps=jumps)[0]


def _prelimit_values(beta, lam, c, t, n, gen):
    """n independent draws of the Bernoulli prelimit at time t, as an array.

    The renewal counts R(c t) of n rate-1 Mittag-Leffler paths come from
    ``_renewal_counts``; then one Binomial(floor(lam R), c**-beta) draw
    per path, in path order.
    """
    if not 1.0 < c < math.inf:
        raise DomainError(f"scale must be finite and exceed 1, got {c!r}")
    _positive("time", t)
    _positive("rate", lam)
    _unit_interval("order", beta, closed=True)
    # an infinite wait only closes its path, so N(c t) stays right
    counts = _renewal_counts(lambda k: _ml_waits(beta, 1.0, _ml_draws(gen, beta, k)), c * t, n)
    return gen.binomial(np.floor(lam * counts).astype(np.int64), c ** (-beta))


def ctrw_prelimit_bernoulli(beta, lam, c, t, rng):
    """One draw of the Bernoulli prelimit of the fractional count at time t.

    The prelimit walk takes Bernoulli(p) steps, p = c**-beta, at renewal
    epochs of a rate-1 Mittag-Leffler process R run to the rescaled
    horizon p**(-1/beta) t = c t; the value is Binomial(floor(lam R), p).
    As c grows this law converges to the fractional Poisson pmf at t.
    """
    return int(_prelimit_values(beta, lam, c, t, 1, _generator(rng))[0])


# ---------------------------------------------------------------------------
# grid-path inversion
# ---------------------------------------------------------------------------

def inverse_path_on_grid(d, t_grid):
    """Right-continuous inverse E(t) = inf{r : D(r) > t} on a time grid.

    ``d`` holds D sampled on its own grid; each requested t is answered
    by binary search for the first grid point where D exceeds t.  Any t
    at or beyond the final D value cannot be inverted within the
    recorded path and raises TruncationError.
    """
    if not isinstance(d, GridPath):
        raise DomainError(f"d must be a GridPath, got {type(d)!r}")
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.ndim != 1 or t_arr.size < 2 or not np.isfinite(t_arr).all():
        raise DomainError("t_grid must be a finite 1-d grid with at least two points")
    values = np.asarray(d.values)
    times = np.asarray(d.times)
    idx = np.searchsorted(values, t_arr, side="right")
    if np.any(idx >= len(values)):
        raise TruncationError(
            f"t values beyond the recorded path maximum {values[-1]}; "
            "extend the simulated horizon"
        )
    return GridPath(tuple(t_arr), tuple(times[idx]))


def lemma1_check(d, n_t=None):
    """Consistency of a path with its inverse: left limits vs suprema.

    For an increasing D, the left limit satisfies
    D(r-) = sup{t > 0 : E(t) < r}.  On a grid the left limit is the
    left-neighbor value and the supremum runs over a t-grid, so each
    side can be off by one cell: the returned max discrepancy should be
    bounded by one grid cell's oscillation,
    max(step increment of D) + (t-grid spacing).
    """
    if not isinstance(d, GridPath):
        raise DomainError(f"d must be a GridPath, got {type(d)!r}")
    values = np.asarray(d.values)
    times = np.asarray(d.times)
    if np.any(np.diff(values) <= 0.0):
        raise DomainError("lemma check needs a strictly increasing path")
    n_t = len(times) if n_t is None else _count("grid size", n_t, least=2)
    t_grid = np.linspace(values[0], values[-1], n_t, endpoint=False)
    e_vals = np.asarray(inverse_path_on_grid(d, t_grid).values)
    # E is nondecreasing, so {t : E(t) < r} is the grid prefix t_grid[:k]
    # and its supremum is t_grid[k - 1]; an empty prefix (k = 0) is skipped
    k = np.searchsorted(e_vals, times[1:], side="left")
    hit = k > 0
    gaps = np.abs(values[:-1][hit] - t_grid[k[hit] - 1])
    return float(gaps.max()) if gaps.size else 0.0


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def paths_to_csv(paths, spec, seed, stream=None):
    """Write RenewalPaths or CTRWPaths as one CSV document.

    Header line carries the sampling spec JSON and the seed; data rows
    are index,jump_time with index the path number (one row per jump)
    and an extra jump_size column for walks.  Returns the CSV text when
    ``stream`` is None.
    """
    if isinstance(paths, (RenewalPath, CTRWPath)):
        paths = [paths]
    if not paths:
        raise DomainError("need at least one path")
    kinds = {type(p) for p in paths}
    if len(kinds) > 1 or not kinds <= {RenewalPath, CTRWPath}:
        raise DomainError(f"paths must all be RenewalPath or all CTRWPath, got {kinds}")
    walks = isinstance(paths[0], CTRWPath)
    buf = stream if stream is not None else io.StringIO()
    spec_dict = spec if isinstance(spec, dict) else spec_to_json(spec)
    spec_json = json.dumps(spec_dict, separators=(",", ":"))
    buf.write(f"# spec={spec_json} seed={_count('seed', seed)}\n")
    buf.write("index,jump_time,jump_size\n" if walks else "index,jump_time\n")
    for i, path in enumerate(paths):
        cells = map(repr, path.jump_times)  # one join per path: the rows' cells
        if walks:
            cells = map(",".join, zip(cells, map(repr, path.jump_sizes)))
        if path.jump_times:
            buf.write(f"{i}," + f"\n{i},".join(cells) + "\n")
    if stream is None:
        return buf.getvalue()
    return None


def paths_from_csv(text, horizon=None):
    """Parse path CSV back into (list of paths, spec_json_dict, seed).

    ``horizon`` overrides the horizon (the CSV does not store it); by
    default each path uses its own last jump time.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# spec="):
        raise DomainError("missing '# spec=... seed=...' header line")
    if len(lines) < 2:
        raise DomainError("missing column line")
    header = lines[0][2:]
    spec_part, _, seed_part = header.rpartition(" seed=")
    columns = lines[1].split(",")
    walks = len(columns) == 3
    grouped = {}
    try:
        spec_dict = json.loads(spec_part[len("spec="):])
        seed = int(seed_part)
        for ln in lines[2:]:
            index, *values = ln.split(",")
            if len(values) != len(columns) - 1:
                raise ValueError(f"row {ln!r} does not match the columns {lines[1]!r}")
            grouped.setdefault(int(index), []).append(tuple(map(float, values)))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise DomainError(f"malformed path CSV: {exc}") from exc
    paths = []
    for i in sorted(grouped):
        rows = grouped[i]
        times = tuple(r[0] for r in rows)
        h = horizon if horizon is not None else (times[-1] if times else 1.0)
        if walks:
            paths.append(CTRWPath(times, tuple(r[1] for r in rows), h))
        else:
            paths.append(RenewalPath(times, h))
    return paths, spec_dict, seed
