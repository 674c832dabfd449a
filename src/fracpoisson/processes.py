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
and grid-path inversion with its left-limit consistency check.  Times,
horizons, rates and jump data must be finite, else DomainError.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError, _count, _nonnegative, _positive
from .samplers import RngStream, _generator, sample_ml_waiting
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
    jt = tuple(float(x) for x in path.jump_times)
    object.__setattr__(path, "jump_times", jt)
    if jt and not (all(map(math.isfinite, jt)) and jt[0] > 0.0 and np.all(np.diff(jt) > 0.0)):
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
        js = tuple(float(x) for x in self.jump_sizes)
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
    _positive("horizon", horizon)
    gen = _generator(rng)
    times = []
    t = 0.0
    while True:
        batch = sample_ml_waiting(beta, lam, gen, size=32)
        for j in batch:
            t = _next_jump(t, t + j)
            times.append(t)
            if t > horizon:
                return RenewalPath(tuple(times), horizon)


def simulate_timechange_renewal(spec, lam, horizon, rng):
    """Simulate the time-changed counting process's jump times exactly.

    Draws rate-lam Poisson arrival times V_1 < V_2 < ... and maps them
    through one subordinator path, tau_n = D(V_n).  Because the
    subordinator has no fixed discontinuity points, D(V_n-) = D(V_n)
    almost surely and these are exactly the jump times of the
    inverse-subordinator count; no discretization is involved.
    """
    _positive("horizon", horizon)
    _positive("rate", lam)
    _require_spec(spec)
    gen = _generator(rng)
    taus = []
    tau = 0.0
    v_last = 0.0
    while True:
        gaps = gen.standard_exponential(32) / lam
        arrivals = v_last + np.cumsum(gaps)
        dts = np.diff(arrivals, prepend=v_last)
        for d in np.cumsum(spec.increments(dts, gen)) + tau:
            tau = _next_jump(tau, float(d))
            taus.append(tau)
            if tau > horizon:
                return RenewalPath(tuple(taus), horizon)
        v_last = float(arrivals[-1])


def simulate_ctrw(spec, lam, jumps, horizon, rng):
    """Simulate a continuous-time random walk driven by the time change.

    Renewal times come from ``simulate_timechange_renewal``; jump sizes
    are IID from ``jumps``.  The resulting path has the law of the
    compound process evaluated at the inverse subordinator, exactly.
    """
    if not isinstance(jumps, JumpDist):
        raise DomainError(f"jumps must be a JumpDist, got {type(jumps)!r}")
    gen = _generator(rng)
    renewal = simulate_timechange_renewal(spec, lam, horizon, gen)
    k = len(renewal.jump_times)
    sizes = gen.choice(jumps.locations, size=k, p=jumps.probabilities)
    return CTRWPath(renewal.jump_times, tuple(float(s) for s in sizes), horizon)


def ctrw_prelimit_bernoulli(beta, lam, c, t, rng):
    """One draw of the Bernoulli prelimit of the fractional count at time t.

    The prelimit walk takes Bernoulli(p) steps, p = c**-beta, at renewal
    epochs of a rate-1 Mittag-Leffler process R run to the rescaled
    horizon p**(-1/beta) t = c t; the value is Binomial(floor(lam R), p).
    As c grows this law converges to the fractional Poisson pmf at t.
    """
    if not 1.0 < c < math.inf:
        raise DomainError(f"scale must be finite and exceed 1, got {c!r}")
    _positive("time", t)
    _positive("rate", lam)
    gen = _generator(rng)
    p = c ** (-beta)
    stretched = c * t
    count = 0
    elapsed = 0.0
    while True:
        batch = sample_ml_waiting(beta, 1.0, gen, size=64)
        cum = elapsed + np.cumsum(batch)
        past = np.searchsorted(cum, stretched, side="right")
        count += int(past)
        if past < len(cum):
            break
        elapsed = float(cum[-1])
    trials = int(math.floor(lam * count))
    if trials == 0:
        return 0
    return int(gen.binomial(trials, p))


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
        if walks:
            for t, x in zip(path.jump_times, path.jump_sizes):
                buf.write(f"{i},{t!r},{x!r}\n")
        else:
            for t in path.jump_times:
                buf.write(f"{i},{t!r}\n")
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
    header = lines[0][2:]
    spec_part, _, seed_part = header.rpartition(" seed=")
    spec_dict = json.loads(spec_part[len("spec="):])
    seed = int(seed_part)
    columns = lines[1].split(",")
    walks = len(columns) == 3
    grouped = {}
    for ln in lines[2:]:
        parts = ln.split(",")
        grouped.setdefault(int(parts[0]), []).append(tuple(float(v) for v in parts[1:]))
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
