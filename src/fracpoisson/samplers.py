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

A bulk draw draws its leading arrays whole and its last stream one block
of ``_BLOCK`` elements at a time, running that block's math before the
next block is drawn; it holds one draw array less than it has streams,
plus one block of temporaries, and its result overwrites a draw array.
A scale that overflows a float (``lam**(-1/beta)``, ``dt**(1/beta)``), a
Mittag-Leffler wait that does, or a tempered call of ``_MAX_CHUNKS`` or
more rejection chunks raises SamplingError; a stable draw that really
overflows is +inf, with no warning.
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


def _blocks(n):
    """Slices of ``range(n)``, ``_BLOCK`` elements each but the last."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


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

    Each round calls ``propose(k, pending)`` for the k pending draws, with
    their indices (None in the first round, which proposes all n into the
    result), then draws k uniforms one block at a time; a proposal x is
    kept with probability exp(-a x).
    """
    out = pending = None
    for _ in range(_MAX_REJECTION_ROUNDS):
        x = propose(n if pending is None else pending.size, pending)
        accept = np.empty(x.size, bool)
        for s in _blocks(x.size):
            accept[s] = gen.random(accept[s].size) < np.exp(-a * x[s])
        if pending is None:
            out, pending = x, np.flatnonzero(~accept)
        else:  # compress: a boolean index is about 4x slower on a mask this random
            out[pending.compress(accept)] = x.compress(accept)
            pending = pending.compress(~accept)
        if not pending.size:
            return out
    raise SamplingError(f"{what} rejection did not terminate within the iteration cap")


def _kanter_draws(gen, n):
    """The generator calls of n ``_stable_unit`` draws, in their order."""
    return _uniform_open(gen, n), gen.standard_exponential(n)


def _kanter(beta, uniforms, exponentials):
    """Kanter's D(1) from ``_kanter_draws``' arrays or stacked rows of a block at most.

    Writes pi U over ``uniforms``, which ``_ml_waits`` reads.
    """
    u = np.multiply(uniforms, math.pi, out=uniforms)
    if beta >= _LOG_BETA:
        return _kanter_at(beta, u, exponentials)
    with np.errstate(all="ignore"):  # redo in logs what leaves the float range
        a = _kanter_at(beta, u, exponentials)
        bad = _out_of_range(a)
        a[bad] = np.exp(_log_kanter(beta, u[bad], exponentials[bad]))
    return a


def _out_of_range(x):
    """Where x is NaN, +-inf or 0; a true overflow stays +inf when redone."""
    return ~((x > 0.0) & (x < math.inf))


def _log_kanter(beta, u, w):
    """log D(1) from pi U and W: Kanter's formula in logs."""
    p = 1.0 / beta
    return (np.log(np.sin(beta * u)) + (p - 1.0) * np.log(np.sin((1.0 - beta) * u))
            - p * np.log(np.sin(u)) + (1.0 - p) * np.log(w))


def _kanter_at(beta, u, w):
    p = 1.0 / beta
    a = np.sin(beta * u)
    if beta == 0.5:  # (1 - beta) u is then the same float as beta u, and x**1.0 is x
        a *= a
    else:
        a *= np.sin((1.0 - beta) * u) ** (p - 1.0)
    a /= np.sin(u) ** p
    a *= w ** (1.0 - p)
    return a


def _stable_unit(gen, beta, n):
    """n draws of D(1): the uniforms whole, then per block the exponentials and the math."""
    u = _uniform_open(gen, n)
    for s in _blocks(n):
        u[s] = _kanter(beta, u[s], gen.standard_exponential(u[s].size))
    return u


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
    with np.errstate(over="ignore"):  # a draw that really overflows is +inf
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
    waits = _ml_bulk(_generator(rng), beta, lam, _draws(size))
    if not np.isfinite(waits).all():
        raise SamplingError(f"Mittag-Leffler waits overflow a float at beta={beta!r}, "
                            f"lam={lam!r}: raise the rate")
    return _pack(waits, size)


def _ml_draws(gen, beta, n):
    """The generator calls of n ``sample_ml_waiting`` draws, in their order."""
    w = gen.standard_exponential(n)
    return (w,) if beta == 1.0 else (w, *_kanter_draws(gen, n))


def _ml_bulk(gen, beta, lam, n):
    """n Mittag-Leffler waits: W and U drawn whole, then per block E and the waits, over W."""
    if beta == 1.0:
        return _ml_waits(beta, lam, _ml_draws(gen, beta, n))
    w, u = gen.standard_exponential(n), _uniform_open(gen, n)
    for s in _blocks(max(n, 1)):  # one call even at n = 0: it checks the scale
        _ml_waits(beta, lam, (w[s], u[s], gen.standard_exponential(u[s].size)))
    return w


def _ml_waits(beta, lam, draws):
    """Mittag-Leffler waits from ``_ml_draws``' arrays, or stacked rows of a block at most.

    The waits are written over the first array.  A wait that overflows is
    +inf, with no warning: the callers check it or reject it.  Below
    ``_LOG_BETA`` the waits that come out NaN, inf or 0 are redone in logs.
    """
    w = draws[0]
    with np.errstate(over="ignore"):
        if beta == 1.0:
            return np.divide(w, lam, out=w)
        scale = _power("rate", lam, -1.0 / beta)
        # D(1) first, while only the draws are held; each product commutes bit for bit
        d = _kanter(beta, *draws[1:])
        if beta >= _LOG_BETA:
            w **= 1.0 / beta
            w *= scale
            w *= d
            return w
    with np.errstate(all="ignore"):  # redo in logs what leaves the float range
        j = w ** (1.0 / beta) * scale * d
        bad = _out_of_range(j)
        j[bad] = np.exp((np.log(w[bad]) - math.log(lam)) / beta  # draws[1] now holds pi U
                        + _log_kanter(beta, draws[1][bad], draws[2][bad]))
    w[...] = j
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

    def propose(k, pending):
        x = _stable_unit(gen, beta, k)
        x *= scales if pending is None else scales[pending]
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
    propose = lambda k, pending: _ml_bulk(gen, beta, eta, k)  # noqa: E731
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
    steps_per_block = min(max(1, _STEP_BLOCK // max(n, 1)), n_steps)
    buf = np.empty(n * steps_per_block)  # every block's normals, in turn
    done = 0
    while done < n_steps:
        nb = min(steps_per_block, n_steps - done)
        inc = gen.standard_normal(out=buf[:n * nb].reshape(n, nb))
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
        level[:] = inc[:, -1]
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
