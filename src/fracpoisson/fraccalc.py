"""Fractional derivatives on grids and governing-equation residuals.

The Caputo derivative of order beta in (0, 1),

    d^beta g(t) = (1/Gamma(1-beta)) int_0^t (t-r)^-beta g'(r) dr,

is discretized by the L1 scheme (piecewise-linear g on a uniform grid),
which is exact for affine g and O(step^(2-beta)) in general.  The
Riemann-Liouville derivative follows through the exact relation
RL = Caputo + g(0) t^-beta / Gamma(1-beta), and distributed-order
derivatives integrate the Caputo value over the order variable.

``governing_residual`` assembles both sides of the model equations
(fractional master equation of the counting process, transport equation
of the inverse-subordinator density, Brownian-time heat equations) from
independent code paths and reports |LHS - RHS|; driving these residuals
to zero under grid refinement is the executable form of the analytic
statements.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, OffGridError, ResolutionError
from .errors import _count, _nonnegative, _positive, _unit_interval
from .transforms import DistributedOrder, _gl_nodes, integrate

__all__ = [
    "SampledFunction",
    "caputo",
    "riemann_liouville",
    "distributed_order_deriv",
    "governing_residual",
]


@dataclass(frozen=True)
class SampledFunction:
    """Finite values of a function on a uniform grid t0 >= 0, t0+step, ..."""

    t0: float
    step: float
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _nonnegative("grid origin", self.t0)
        _positive("step", self.step)
        if len(self.values) < 3 or not all(map(math.isfinite, self.values)):
            raise DomainError("need at least 3 finite samples for derivative stencils")

    @classmethod
    def from_function(cls, fn, stop, step, t0=0.0):
        """Sample ``fn`` on the finite grid t0..stop (inclusive, up to rounding)."""
        ts = _grid_times(stop, step, t0)
        return cls(t0=t0, step=step, values=tuple(float(fn(t)) for t in ts))

    def index_of(self, t):
        """Grid index of time t; OffGridError if t is not a grid point."""
        pos = (t - self.t0) / self.step
        idx = int(round(pos))
        if abs(pos - idx) > 1e-8 * max(1.0, abs(pos)) or not 0 <= idx < len(self.values):
            raise OffGridError(
                f"t={t} is not on the grid (t0={self.t0}, step={self.step}, "
                f"{len(self.values)} points)"
            )
        return idx


def _grid_times(stop, step, t0=0.0):
    """The times t0, t0 + step, ... of the finite grid t0..stop, as float64."""
    _positive("step", step)
    _nonnegative("grid length", stop - t0)
    n = int(round((stop - t0) / step))
    return t0 + step * np.arange(n + 1)


def caputo(g, beta, t):
    """Caputo derivative of order beta in (0, 1) at grid point t, by the L1 scheme.

    Requires the sample to start at t0 = 0 so the initial value g(0)
    anchors the memory integral, and t to be a positive grid point.
    Exact for affine g; error O(step**(2-beta)) for smooth g.
    """
    _unit_interval("order", beta)
    return _l1(g, beta, _memory_index(g, t))


def _memory_index(g, t):
    """Grid index k >= 1 of t in g, a sample that starts at t0 = 0."""
    if not isinstance(g, SampledFunction):
        raise DomainError(f"g must be a SampledFunction, got {type(g)!r}")
    if g.t0 != 0.0:
        raise DomainError("the memory integral starts at 0; sample g from t0 = 0")
    _positive("time", t)
    k = g.index_of(t)
    if k < 1:
        raise DomainError("t must be a positive grid point")
    return k


def _l1(g, beta, k):
    vals = np.asarray(g.values[: k + 1])
    j = np.arange(k, dtype=float)
    weights = (j + 1.0) ** (1.0 - beta) - j ** (1.0 - beta)
    # weights[j] multiplies the increment ending j steps before t
    increments = np.diff(vals)[::-1]
    return float(
        np.dot(weights, increments)
        / (g.step ** beta * math.exp(gammaln(2.0 - beta)))
    )


def riemann_liouville(g, beta, t):
    """Riemann-Liouville derivative via its exact relation to Caputo.

    RL g(t) = Caputo g(t) + g(0) t**-beta / Gamma(1-beta); the added
    term carries the initial value that Caputo deliberately removes.
    """
    base = caputo(g, beta, t)
    return base + g.values[0] * t ** (-beta) * math.exp(-gammaln(1.0 - beta))


def distributed_order_deriv(g, nu, t):
    """Distributed-order Caputo derivative int_0^1 caputo(g, b, t) nu(db).

    ``nu`` may be a list of (order, weight) atoms, a DistributedOrder
    spec, or a callable density on (0, 1); the continuous case uses
    Gauss-Legendre quadrature in the order variable (the integrand is
    analytic in the order, so convergence is spectral).
    """
    if isinstance(nu, DistributedOrder):
        weight = nu.weight
    elif callable(nu):
        weight = nu
    else:
        atoms = list(nu)
        try:
            pairs = [(float(b), float(w)) for b, w in atoms]
        except (TypeError, ValueError):
            raise DomainError(
                "nu must be (order, weight) atoms, a DistributedOrder spec, "
                "or a callable density"
            ) from None
        return math.fsum(w * caputo(g, b, t) for b, w in pairs)
    k = _memory_index(g, t)
    nodes, gl_weights = _gl_nodes(96)
    return math.fsum(
        gw * float(weight(b)) * _l1(g, float(b), k)
        for b, gw in zip(nodes, gl_weights)
    )


# ---------------------------------------------------------------------------
# governing-equation residuals
# ---------------------------------------------------------------------------

def _required(params, key):
    try:
        return params[key]
    except KeyError:
        raise DomainError(f"params must supply {key!r}") from None


def _require_resolution(t, step):
    _positive("time", t)
    _positive("step", step)
    if t / step < 16.0:
        raise ResolutionError(
            f"grid too coarse for a meaningful memory integral at t={t}; "
            f"use step <= {t / 64.0:g}"
        )


def _half_order_density(x, t):
    # h(x, t) for the inverse half-order subordinator; h(x, 0+) = 0 for x > 0
    if t <= 0.0:
        return 0.0
    return math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)


def _residual_fpp_master(params, point):
    """|d^beta p(n, t) + lam (p(n, t) - p(n-1, t))| for the counting pmf."""
    from .distributions import _fpp_pmf_grid, fpp_pmf

    beta = _required(params, "beta")
    lam = _required(params, "lam")
    step = params.get("step", 1e-3)
    n, t = point
    n = _count("count", n)
    _require_resolution(t, step)
    # from_function's grid, with the pmf sampled in one array pass
    grid = SampledFunction(0.0, step, _fpp_pmf_grid(beta, lam, _grid_times(t, step), n))
    lhs = caputo(grid, beta, t)
    rhs = -lam * fpp_pmf(beta, lam, t, n)
    if n > 0:
        rhs += lam * fpp_pmf(beta, lam, t, n - 1)
    return abs(lhs - rhs)


def _residual_inverse_density(params, point):
    """|d^beta h(x, t) + dx h(x, t)| for the half-order inverse density."""
    beta = params.get("beta", 0.5)
    if beta != 0.5:
        raise DomainError(
            "the transport residual uses the closed-form density, "
            "available at beta = 1/2 only"
        )
    step = params.get("step", 1e-3)
    x, t = point
    _positive("state", x)
    _require_resolution(t, step)
    grid = SampledFunction.from_function(lambda r: _half_order_density(x, r), t, step)
    lhs = caputo(grid, beta, t)
    # -dx h = (x / 2t) h in closed form
    rhs = x / (2.0 * t) * _half_order_density(x, t)
    return abs(lhs - rhs)


def _brownian_time_u(f, x, t):
    # u(x, t) = int_0^inf f(x-y) h(y, t) dy, f smoothed along the downward
    # shift run on the inverse half-order clock (convolution form; this is
    # the u for which the moving-source heat equation below holds exactly)
    val, _ = integrate.quad(
        lambda y: f(x - y) * _half_order_density(y, t),
        0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200,
    )
    return val


def _default_f(x):
    return math.exp(-x * x)


def _default_f_prime(x):
    return -2.0 * x * math.exp(-x * x)


def _residual_brownian_time(params, point, source_from_general_form=False):
    """Heat-equation residual for u(x,t) = E[f(x - E(t))] at beta = 1/2.

    LHS d/dt u by centered differences; RHS is the moving-source heat
    operator -f'(x)/sqrt(pi t) + dx^2 u.  With
    ``source_from_general_form`` the source is assembled as
    -f'(x) t**(beta-1)/Gamma(1-beta) at beta = 1/2, the way the
    general-order diffusion-wave equation writes it; the two forms agree
    through Gamma(1/2) = sqrt(pi).
    """
    f = params.get("f", _default_f)
    f_prime = params.get("f_prime", _default_f_prime)
    step = params.get("step", 1e-3)
    x, t = point
    if not math.isfinite(x):
        raise DomainError(f"point must be finite, got {x!r}")
    _positive("step", step)
    _positive("time", t)
    if not t > step:
        raise ResolutionError(f"need t > step for the time stencil, got t={t}")
    u = lambda xx, tt: _brownian_time_u(f, xx, tt)
    dt_u = (u(x, t + step) - u(x, t - step)) / (2.0 * step)
    dxx_u = (u(x + step, t) - 2.0 * u(x, t) + u(x - step, t)) / step ** 2
    if source_from_general_form:
        beta = 0.5
        source = -f_prime(x) * t ** (beta - 1.0) * math.exp(-gammaln(1.0 - beta))
    else:
        source = -f_prime(x) / math.sqrt(math.pi * t)
    return abs(dt_u - (source + dxx_u))


_RESIDUAL_KINDS = {
    "fpp_master": _residual_fpp_master,
    "inverse_density": _residual_inverse_density,
    "brownian_time": _residual_brownian_time,
    "diffusion_wave_halves": lambda params, point: _residual_brownian_time(
        params, point, source_from_general_form=True
    ),
}


def governing_residual(kind, params, point):
    """|LHS - RHS| of a governing equation at one point.

    kind='fpp_master': fractional master equation of the counting pmf,
        d^beta p(n,t) = -lam [p(n,t) - p(n-1,t)], point (n, t);
    kind='inverse_density': transport form d^beta h = -dx h of the
        inverse-subordinator density (closed form, beta = 1/2),
        point (x, t);
    kind='brownian_time': first-order-in-time heat equation with moving
        source for u(x,t) = E[f(x - E(t))], point (x, t);
    kind='diffusion_wave_halves': the same statement assembled from the
        general-order diffusion-wave form specialized to beta = 1/2.

    params supplies beta/lam/step (step defaults to 1e-3) and, for the
    Brownian-time kinds, optional f and f_prime callables.  A missing
    beta or lam, a parameter or point entry that is not a real number,
    and a point that is not a pair raise DomainError.
    """
    try:
        fn = _RESIDUAL_KINDS[kind]
    except KeyError:
        raise DomainError(
            f"unknown residual kind {kind!r}; choose from "
            f"{sorted(_RESIDUAL_KINDS)}"
        ) from None
    try:
        params, point = dict(params), tuple(point)
    except (TypeError, ValueError):
        raise DomainError("params must be a mapping and point a pair") from None
    if len(point) != 2 or not all(isinstance(v, numbers.Real) for v in point):
        raise DomainError(f"point must be a pair of real numbers, got {point!r}")
    for key in ("beta", "lam", "step"):
        if key in params and not isinstance(params[key], numbers.Real):
            raise DomainError(f"{key} must be a real number, got {params[key]!r}")
    return fn(params, point)
