"""Exact random variate generation for the process machinery.

Covers one-sided stable subordinators (Kanter's representation),
exponentially tempered variants (per-chunk rejection), Mittag-Leffler
and tempered Mittag-Leffler waiting times, inverse-subordinator
marginals, Brownian running maxima, and multi-point subordinator
evaluation by independent-increment composition.

Every sampler takes the random source last and accepts an optional
``size``: ``size=None`` returns one float, an integer returns that many
IID draws as an ndarray.  Parameters are finite and sizes integers, else
DomainError.  The source may be an ``RngStream`` or any
``numpy.random.Generator``.
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

    def __post_init__(self):
        self.seed, self.stream_id = _count("seed", self.seed), _count("stream_id", self.stream_id)
        if max(self.seed, self.stream_id) >= 2 ** 64:
            raise DomainError("seed and stream_id must fit in 64 bits")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream_id):
        """Fresh stream with the same seed and a new stream_id."""
        return RngStream(self.seed, stream_id)


def _generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _pack(values, size):
    return float(values[0]) if size is None else values


def _draws(size):
    """Number of draws that ``size`` asks for (one when it is None)."""
    return 1 if size is None else _count("size", size)


def _uniform_open(gen, n):
    # open-interval uniforms; u = 0 would put a zero in Kanter's denominator
    u = gen.random(n)
    while True:
        bad = u == 0.0
        if not bad.any():
            return u
        u[bad] = gen.random(int(bad.sum()))


def _tilted(gen, n, a, propose, what):
    """n draws of the proposal law tilted by exp(-a x), by rejection.

    Each round calls ``propose(k)`` for the k pending draws first, then
    draws k uniforms; a proposal x is kept with probability exp(-a x).
    """
    out = np.empty(n)
    pending = np.arange(n)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            break
        x = propose(pending.size)
        accept = gen.random(pending.size) < np.exp(-a * x)
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
    if pending.size:
        raise SamplingError(
            f"{what} rejection did not terminate within the iteration cap"
        )
    return out


def _stable_unit(gen, beta, n):
    u = math.pi * _uniform_open(gen, n)
    w = gen.standard_exponential(n)
    a = (
        np.sin(beta * u)
        * np.sin((1.0 - beta) * u) ** (1.0 / beta - 1.0)
        / np.sin(u) ** (1.0 / beta)
    )
    return a * w ** (1.0 - 1.0 / beta)


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
    return _pack(dt ** (1.0 / beta) * _stable_unit(gen, beta, _draws(size)), size)


def sample_ml_waiting(beta, lam, rng, size=None):
    """Draw a Mittag-Leffler waiting time with P(J > t) = E_beta(-lam t**beta).

    Uses J = lam**(-1/beta) W**(1/beta) D(1) with W unit exponential
    independent of D(1); beta = 1 reduces to exponential(lam).
    """
    _unit_interval("order", beta, closed=True)
    _positive("rate", lam)
    gen = _generator(rng)
    n = _draws(size)
    if beta == 1.0:
        return _pack(gen.standard_exponential(n) / lam, size)
    w = gen.standard_exponential(n)
    d = _stable_unit(gen, beta, n)
    return _pack(lam ** (-1.0 / beta) * w ** (1.0 / beta) * d, size)


def sample_tempered_stable_increment(beta, a, dt, rng, size=None):
    """Draw an increment of the tempered stable subordinator.

    Marginal Laplace transform exp(-dt ((s+a)**beta - a**beta)).
    Exponential tilting by rejection: dt is split into chunks no longer
    than a**-beta, a stable increment is proposed per chunk and accepted
    with probability exp(-a X); the chunk cap keeps the per-chunk
    acceptance rate at or above 1/e.
    """
    _positive("increment length", dt)
    _positive("tempering rate", a)
    _unit_interval("stability index", beta)
    gen = _generator(rng)
    n = _draws(size)
    n_chunks = max(1, math.ceil(dt * a ** beta))
    chunk_dt = dt / n_chunks
    scale = chunk_dt ** (1.0 / beta)

    out = _tilted(
        gen, n * n_chunks, a,
        lambda k: scale * _stable_unit(gen, beta, k),
        "tempered-stable",
    )
    return _pack(out.reshape(n, n_chunks).sum(axis=1), size)


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
    gen = _generator(rng)

    def propose(k):
        w = gen.standard_exponential(k)
        return eta ** (-1.0 / beta) * w ** (1.0 / beta) * _stable_unit(gen, beta, k)

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
    return _pack((t / _stable_unit(gen, beta, n)) ** beta, size)


def sample_brownian_running_max(t, n_steps, rng, size=None, _block=262144):
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
    steps_per_block = max(1, _block // max(n, 1))
    done = 0
    while done < n_steps:
        nb = min(steps_per_block, n_steps - done)
        inc = gen.standard_normal((n, nb))
        inc *= std
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
    return np.cumsum(np.stack([increments(dts, gen) for _ in range(n)]), axis=1)
