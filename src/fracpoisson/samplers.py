"""Exact random variate generation for the process machinery.

Covers one-sided stable subordinators (Kanter's representation),
exponentially tempered variants (per-chunk rejection, one pass over the
chunks of every requested increment per call), Mittag-Leffler
and tempered Mittag-Leffler waiting times, inverse-subordinator
marginals, Brownian running maxima, and multi-point subordinator
evaluation by independent-increment composition.

Every sampler takes the random source last and accepts an optional
``size``: ``size=None`` returns one float, an integer returns that many
IID draws as an ndarray.  Parameters are finite and sizes integers, else
DomainError.  The source may be an ``RngStream`` or any
``numpy.random.Generator``.

A bulk draw holds its draw arrays plus one block of ``_BLOCK`` elements'
temporaries, and its result overwrites a draw array.  A scale that
overflows a float (``lam**(-1/beta)``, ``dt**(1/beta)``) or a tempered
call of ``_MAX_CHUNKS`` or more rejection chunks raises SamplingError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SamplingError, _count, _nonnegative, _positive, _unit_interval

__all__ = [
    "RngStream",
    "sample_stable_unit",
    "sample_stable_increment",
    "sample_ml_waiting",
    "sample_tempered_stable_increment",
    "sample_tempered_ml_waiting",
    "sample_inverse_stable_marginal",
    "sample_brownian_running_max",
    "sample_subordinator_at",
]

_MAX_REJECTION_ROUNDS = 10 ** 6
_MAX_CHUNKS = 2 ** 26  # a tempered call takes fewer rejection chunks: bounds its memory
_BLOCK = 32768  # elements per block of the elementwise math: 16k-32k ran fastest
_STEP_BLOCK = 262144  # normals per block of the running maximum
_NARROW_BLOCK = 32  # running-max blocks with fewer steps go column by column
_LOG_BETA = 0.05  # below it sin(pi U)**(1/beta) or W**(1 - 1/beta) can leave the float range


@dataclass
class RngStream:
    """Counter-based random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the same variate
    sequence bit-for-bit; distinct stream_ids under one seed give
    statistically independent streams, so parallel workers can each own
    stream ``i`` without coordination.  Single-owner mutable state: a
    stream may move between threads but must not be shared concurrently.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)
    _start: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed, self.stream_id = _count("seed", self.seed), _count("stream_id", self.stream_id)
        if max(self.seed, self.stream_id) >= 2 ** 64:
            raise DomainError("seed and stream_id must fit in 64 bits")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))
        self._start = self.generator.bit_generator.state  # _rekey changes only its key

    def spawn(self, stream_id):
        """Fresh stream with the same seed and a new stream_id."""
        return RngStream(self.seed, stream_id)

    def _rekey(self, stream_id):
        """Turn this stream into ``RngStream(self.seed, stream_id)`` in place.

        Sets the Philox state a fresh stream starts from (counter 0, key
        [seed, stream_id], empty buffer) instead of building a new
        generator.  ``stream_id`` is not checked: the caller has checked
        a stream id at least as large.
        """
        self.stream_id = stream_id
        self._start["state"]["key"][1] = stream_id
        self.generator.bit_generator.state = self._start


def _generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _in_blocks(f, head, out, *cols):
    """Write ``f(*head, *blocks of cols)`` over ``out``; all C-contiguous, of one shape."""
    flat, cols = out.reshape(-1), [c.reshape(-1) for c in cols]
    for i in range(0, flat.size, _BLOCK):
        s = slice(i, i + _BLOCK)
        flat[s] = f(*head, *(c[s] for c in cols))
    return flat.reshape(out.shape)


def _power(name, x, p):
    """The scalar x**p; SamplingError naming ``name`` where it overflows a float."""
    try:
        return x ** p
    except OverflowError:
        raise SamplingError(f"{name} = {x!r} to the power {p!r} overflows a float") from None


def _pack(values, size):
    return float(values[0]) if size is None else values


def _draws(size):
    """Number of draws that ``size`` asks for (one when it is None)."""
    return 1 if size is None else _count("size", size)


def _uniform_open(gen, n):
    # open-interval uniforms; u = 0 would put a zero in Kanter's denominator
    u = gen.random(n)
    while np.count_nonzero(u) != n:
        bad = u == 0.0
        u[bad] = gen.random(int(bad.sum()))
    return u


def _tilted(gen, n, a, propose, what):
    """n draws of the proposal law tilted by exp(-a x), by rejection.

    Each round calls ``propose(pending)`` with the indices of the k
    pending draws first, then draws k uniforms; a proposal x is kept with
    probability exp(-a x).
    """
    out = np.empty(n)
    pending = np.arange(n)
    for _ in range(_MAX_REJECTION_ROUNDS):
        k = pending.size
        if k == 0:
            break
        x = propose(pending)
        accept = gen.random(k) < np.exp(-a * x) if k <= _BLOCK else _accepts(a, gen.random(k), x)
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
    if pending.size:
        raise SamplingError(
            f"{what} rejection did not terminate within the iteration cap"
        )
    return out


def _accepts(a, r, x):
    """``_tilted``'s accept test r < exp(-a x) past one block, one block at a time."""
    if r.size > _BLOCK:
        return _in_blocks(_accepts, (a,), np.empty(r.size, bool), r, x)
    return r < np.exp(-a * x)


def _kanter_draws(gen, n):
    """The generator calls of n ``_stable_unit`` draws, in their order."""
    return _uniform_open(gen, n), gen.standard_exponential(n)


def _kanter(beta, uniforms, exponentials):
    """Kanter's D(1) from ``_kanter_draws``' arrays or stacked rows; past a block, over them."""
    if uniforms.size > _BLOCK:
        return _in_blocks(_kanter, (beta,), uniforms, uniforms, exponentials)
    u = np.multiply(uniforms, math.pi, out=uniforms)
    if beta >= _LOG_BETA:
        return _kanter_at(beta, u, exponentials)
    with np.errstate(all="ignore"):  # redo in logs what leaves the float range
        a = _kanter_at(beta, u, exponentials)
        bad = ~((a > 0.0) & (a < math.inf))  # NaN, inf or 0; a true overflow stays +inf
        u, p = u[bad], 1.0 / beta
        a[bad] = np.exp(np.log(np.sin(beta * u)) + (p - 1.0) * np.log(np.sin((1.0 - beta) * u))
                        - p * np.log(np.sin(u)) + (1.0 - p) * np.log(exponentials[bad]))
    return a


def _kanter_at(beta, u, w):
    p = 1.0 / beta
    a = np.sin(beta * u) * np.sin((1.0 - beta) * u) ** (p - 1.0) / np.sin(u) ** p
    a *= w ** (1.0 - p)
    return a


def _stable_unit(gen, beta, n):
    return _kanter(beta, *_kanter_draws(gen, n))


def sample_stable_unit(beta, rng, size=None):
    """Draw D(1) for the standard beta-stable subordinator.

    Kanter's representation: with U uniform on (0,1) and W unit
    exponential,

        D = [sin(b pi U) sin((1-b) pi U)^(1/b - 1) / sin(pi U)^(1/b)]
            * W^(1 - 1/b)

    has Laplace transform E[exp(-s D)] = exp(-s**beta).
    """
    _unit_interval("stability index", beta)
    return _pack(_stable_unit(_generator(rng), beta, _draws(size)), size)


def sample_stable_increment(beta, dt, rng, size=None):
    """Draw D(dt); self-similarity gives D(dt) =_d dt**(1/beta) D(1)."""
    _positive("increment length", dt)
    _unit_interval("stability index", beta)
    gen = _generator(rng)
    draws = _stable_unit(gen, beta, _draws(size))
    draws *= _power("increment length", dt, 1.0 / beta)
    return _pack(draws, size)


def sample_ml_waiting(beta, lam, rng, size=None):
    """Draw a Mittag-Leffler waiting time with P(J > t) = E_beta(-lam t**beta).

    Uses J = lam**(-1/beta) W**(1/beta) D(1) with W unit exponential
    independent of D(1); beta = 1 reduces to exponential(lam).  A draw
    that overflows a float raises SamplingError.
    """
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    gen = _generator(rng)
    waits = _ml_waits(beta, lam, _ml_draws(gen, beta, _draws(size)))
    if not np.isfinite(waits).all():
        raise SamplingError(f"Mittag-Leffler waits overflow a float at beta={beta!r}, "
                            f"lam={lam!r}: raise the rate")
    return _pack(waits, size)


def _ml_draws(gen, beta, n):
    """The generator calls of n ``sample_ml_waiting`` draws, in their order."""
    w = gen.standard_exponential(n)
    return (w,) if beta == 1.0 else (w, *_kanter_draws(gen, n))


def _ml_waits(beta, lam, draws):
    """Mittag-Leffler waits from the arrays ``_ml_draws`` returns, written over the first.

    A wait that overflows is +inf, with no warning: the callers check it
    or reject it.
    """
    w = draws[0]
    with np.errstate(over="ignore"):
        if beta == 1.0:
            return np.divide(w, lam, out=w)
        scale = _power("rate", lam, -1.0 / beta)
        # D(1) first, while only the draws are held; each product commutes bit for bit
        d = _kanter(beta, *draws[1:])
        w **= 1.0 / beta
        w *= scale
        w *= d
    return w


def _tempered_stable(gen, beta, a, dts):
    """Tempered stable increments D(dt), one per duration in the array dts.

    One rejection pass over the ceil(dt a**beta) chunks of every dt (see
    ``sample_tempered_stable_increment``); each dt's chunks are summed.
    """
    chunks = np.maximum(np.ceil(dts * a ** beta), 1.0)
    ends = np.add.accumulate(chunks)  # whole floats, exact below the cap
    if ends.size and ends[-1] >= _MAX_CHUNKS:
        raise SamplingError(f"tempered-stable increments need {_MAX_CHUNKS} or more rejection "
                            "chunks in one call: lower the size, the duration or the tempering")
    scales = np.repeat((dts / chunks) ** (1.0 / beta), chunks.astype(np.intp))

    def propose(pending):  # _stable_unit, less a call frame per rejection round
        x = _kanter(beta, *_kanter_draws(gen, pending.size))
        x *= scales[pending]
        return x

    out = _tilted(gen, scales.size, a, propose, "tempered-stable")
    return np.add.reduceat(out, (ends - chunks).astype(np.intp))


def sample_tempered_stable_increment(beta, a, dt, rng, size=None):
    """Draw an increment of the tempered stable subordinator.

    Marginal Laplace transform exp(-dt ((s+a)**beta - a**beta)).
    Exponential tilting by rejection: dt is split into chunks no longer
    than a**-beta, a stable increment is proposed per chunk and accepted
    with probability exp(-a X); the chunk cap keeps the per-chunk
    acceptance rate at or above 1/e.  This is the equal-durations case of
    the kernel behind ``TemperedStable.increments``: one rejection pass
    per call over the chunks of all ``size`` draws.
    """
    _positive("increment length", dt)
    _positive("tempering rate", a)
    _unit_interval("stability index", beta)
    gen = _generator(rng)
    return _pack(_tempered_stable(gen, beta, a, np.full(_draws(size), float(dt))), size)


def sample_tempered_ml_waiting(beta, a, lam, rng, size=None):
    """Draw a tempered Mittag-Leffler waiting time.

    Marginal Laplace transform lam / (lam + (s+a)**beta - a**beta).
    Proposes from the plain Mittag-Leffler law with rate
    eta = lam - a**beta and accepts with probability exp(-a J); the
    overall acceptance rate is eta/lam.  Requires finite lam > a**beta,
    else the target density is not normalizable under this convention.
    """
    _positive("tempering rate", a)
    _unit_interval("stability index", beta)
    _positive("rate", lam)
    eta = lam - a ** beta
    if not eta > 0.0:
        raise DomainError(
            f"need lam > a**beta for a proper waiting-time law; "
            f"got lam={lam}, a**beta={a ** beta}"
        )
    _power("lam - a**beta", eta, -1.0 / beta)  # the proposals' scale
    gen = _generator(rng)
    propose = lambda pending: _ml_waits(beta, eta, _ml_draws(gen, beta, pending.size))  # noqa: E731
    return _pack(_tilted(gen, _draws(size), a, propose, "tempered waiting-time"), size)


def sample_inverse_stable_marginal(beta, t, rng, size=None):
    """Draw from the law of the inverse subordinator E(t) at fixed t.

    Uses the marginal identity E(t) =_d (t / D(1))**beta; t = 0 gives 0.
    """
    _unit_interval("stability index", beta)
    _nonnegative("time", t)
    gen = _generator(rng)
    n = _draws(size)
    if t == 0.0:
        return _pack(np.zeros(n), size)
    draws = _stable_unit(gen, beta, n)
    np.divide(t, draws, out=draws)
    draws **= beta
    return _pack(draws, size)


def sample_brownian_running_max(t, n_steps, rng, size=None):
    """Draw max{B(r) : 0 <= r <= t} for Brownian motion with Var B(t) = 2t.

    Euler grid maximum over ``n_steps`` uniform steps.  The grid max is
    downward-biased by O(sqrt(t / n_steps)) because excursions between
    grid points are missed; tests against reflection-principle values
    must budget for this bias.
    """
    n_steps = _count("step count", n_steps, least=1)
    _nonnegative("time", t)
    gen = _generator(rng)
    n = _draws(size)
    if t == 0.0:
        return _pack(np.zeros(n), size)
    std = math.sqrt(2.0 * t / n_steps)
    level = np.zeros(n)
    best = np.zeros(n)  # running max includes B(0) = 0
    steps_per_block = max(1, _STEP_BLOCK // max(n, 1))
    done = 0
    while done < n_steps:
        nb = min(steps_per_block, n_steps - done)
        inc = gen.standard_normal((n, nb))
        inc *= std
        if nb < _NARROW_BLOCK:
            # per-row cumsum/max calls cost more than the few additions in a
            # narrow row; whole columns make the same additions in the same order
            for j in range(1, nb):
                inc[:, j] += inc[:, j - 1]
            inc += level[:, None]
            for j in range(nb):
                np.maximum(best, inc[:, j], out=best)
        else:
            np.cumsum(inc, axis=1, out=inc)
            inc += level[:, None]
            np.maximum(best, inc.max(axis=1), out=best)
        level = inc[:, -1].copy()
        done += nb
    return _pack(best, size)


def sample_subordinator_at(spec, times, rng, size=None):
    """Evaluate one subordinator path at finite, strictly increasing times.

    Returns D(t_1) < D(t_2) < ... composed from exact independent
    increments, drawn by the spec's ``increments`` method.  ``size=k``
    stacks k independent paths into an array of shape (k, len(times)).
    DistributedOrder has no exact sampler and raises
    UnsupportedSamplingError.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.isfinite(times).all()
            or times[0] <= 0.0 or np.any(np.diff(times) <= 0.0)):
        raise DomainError("times must be a nonempty 1-d sequence: finite, positive, increasing")
    # the spec classes live in transforms, which imports this module
    increments = getattr(spec, "increments", None)
    if increments is None:
        raise DomainError(f"not a subordinator spec: {spec!r}")
    gen = _generator(rng)
    dts = np.diff(times, prepend=0.0)
    if size is None:
        return np.cumsum(increments(dts, gen))
    n = _draws(size)
    paths = np.array([increments(dts, gen) for _ in range(n)]).reshape(n, dts.size)
    return np.cumsum(paths, axis=1)
