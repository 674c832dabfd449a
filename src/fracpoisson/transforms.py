"""Subordinator specifications and Laplace-transform machinery.

A subordinator is described by its Laplace exponent psi, defined through
E[exp(-s D(t))] = exp(-t psi(s)).  Four families are supported:

* ``Stable(beta)``              psi(s) = s**beta
* ``TemperedStable(beta, a)``   psi(s) = (s + a)**beta - a**beta
* ``StableMixture(ws, betas)``  psi(s) = sum_i w_i s**beta_i
* ``DistributedOrder(poly)``    psi(s) = int_0^1 s**beta p(beta) dbeta

with p a nonnegative polynomial weight on (0, 1).  Each family is a
frozen dataclass that carries its own formulas, so the family is decided
once, by the class of the spec:

* ``psi(s)``: the Laplace exponent at real s > 0 or complex s off the
  branch cut (-inf, 0], or elementwise on an ndarray of such s;
* ``tail(t)``: the Levy-measure tail phi(t) = nu(t, inf) on a 1-d array
  of positive t;
* ``tail_completion(U)``: the mass int_0^exp(-U) phi(t) dt of the deep
  tail, in closed form;
* ``increments(dts, gen)``: independent increments D(dt), one per
  duration in ``dts``, drawn from a numpy Generator.

The public functions below check their arguments and call these methods;
the JSON form of a spec follows from its dataclass fields.  The module
also provides the numerical glue used throughout: a forward Laplace
transform built for integrands with power-law singularities at the
origin, fixed-Talbot inversion, and a self-consistency check of the
Bernstein identity

    int_0^inf exp(-s t) phi(t) dt = psi(s) / s,

which exercises the exponent and the tail through independent code paths.

Four fixed-Talbot sums share one contour and two weight sets that
differ in last bits: numpy-exp ``_talbot_rule`` weights
``_invert_talbot_array`` (``waiting_survival_general``, ``renewal_mean``)
and ``distributions._general_pmf_rows``; cmath-exp ``_talbot_contour``
weights ``distributions._density_talbot`` and ``laplace_invert`` (F once
per node).  The other three take the node array, where overflow fails
the guard instead of warning.  Every sum passes ``_talbot_guard``: it
must be finite, with roundoff below 1e-6 of its value or the noise floor.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import json
import math
import warnings
from dataclasses import dataclass, fields
from typing import Union, get_args

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import DomainError, EvaluationError, UnsupportedSamplingError
from .errors import _count, _nonnegative, _positive, _unit_interval
from .samplers import _kanter, _kanter_draws, _stable_unit, _tempered_stable

__all__ = [
    "Stable",
    "TemperedStable",
    "StableMixture",
    "DistributedOrder",
    "SubordinatorSpec",
    "JumpDist",
    "spec_to_json",
    "spec_from_json",
    "laplace_exponent",
    "levy_tail",
    "laplace_forward",
    "laplace_invert",
    "bern_identity_check",
]


class _LazyModule:
    """Stand-in for a module that is imported on first attribute access.

    ``scipy.integrate`` costs about a third of ``import fracpoisson`` and
    only the quadrature routes use it.  A module global bound to this
    proxy keeps ``integrate.quad`` call sites (and monkeypatches of the
    global) as they are; each attribute is cached on first use.  The
    other modules import the one instance below.
    """

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("_"):  # copy and pickle probe dunders before __init__ ran
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


integrate = _LazyModule("scipy.integrate")


# ---------------------------------------------------------------------------
# helpers shared by the families
# ---------------------------------------------------------------------------

def _power(s, beta):
    """Principal-branch s**beta of a real or complex scalar or an ndarray."""
    if isinstance(s, np.ndarray):
        return np.exp(beta * np.log(s))
    if isinstance(s, complex):
        return cmath.exp(beta * cmath.log(s))
    return float(s) ** beta


_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        # map from (-1, 1) to (0, 1)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


# Taylor coefficients of 1/Gamma(w) = sum_k RGAMMA_TAYLOR[k] w^(k+1); used
# by the small-t expansion of the distributed-order tail.
_RGAMMA_TAYLOR = (
    1.0,
    0.57721566490153286,
    -0.65587807152025388,
    -0.042002635034095236,
    0.16653861138229149,
    -0.042197734555544337,
    -0.0096219715278769736,
    0.0072189432466630995,
    -0.0011651675918590651,
    -0.00021524167411495097,
    0.00012805028238811619,
    -2.0134854780788239e-5,
    -1.2504934821426707e-6,
    1.1330272319816959e-6,
    -2.0563384169776071e-7,
)

_DO_SERIES_U = 40.0  # beyond t = exp(-40) the moment series is exact to ~1e-13


# ---------------------------------------------------------------------------
# subordinator specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stable:
    """Strictly stable subordinator with index ``beta``, psi(s) = s**beta."""

    beta: float

    def __post_init__(self):
        _unit_interval("stability index", self.beta)

    def psi(self, s):
        return _power(s, self.beta)

    def tail(self, t):
        return t ** (-self.beta) * math.exp(-gammaln(1.0 - self.beta))

    def tail_completion(self, U):
        b = self.beta
        return math.exp(-(1.0 - b) * U - gammaln(1.0 - b)) / (1.0 - b)

    # split so that the draws of many paths can be scaled in one array pass
    def _draws(self, gen, n):
        return _kanter_draws(gen, n)

    def _scale(self, dts, draws):
        d = _kanter(self.beta, *draws)
        d *= dts ** (1.0 / self.beta)
        return d

    def increments(self, dts, gen):
        d = _stable_unit(gen, self.beta, len(dts))
        d *= dts ** (1.0 / self.beta)
        return d


@dataclass(frozen=True)
class TemperedStable:
    """Exponentially tempered stable subordinator.

    psi(s) = (s + a)**beta - a**beta with finite tempering rate a > 0.  All
    moments are finite; small-time behaviour matches Stable(beta).
    """

    beta: float
    a: float

    def __post_init__(self):
        _unit_interval("stability index", self.beta)
        _positive("tempering rate", self.a)

    def psi(self, s):
        return _power(s + self.a, self.beta) - self.a ** self.beta

    def tail(self, t):
        beta, a = self.beta, self.a
        # (beta/Gamma(1-beta)) int_t^inf exp(-a u) u^(-beta-1) du in
        # closed form via the upper incomplete gamma function:
        # phi(t) = t^-beta exp(-a t)/Gamma(1-beta) - a^beta Q(1-beta, a t)
        out = t ** (-beta) * np.exp(-a * t) * math.exp(
            -gammaln(1.0 - beta)
        ) - a ** beta * gammaincc(1.0 - beta, a * t)
        return np.maximum(out, 0.0)

    # near t = 0 the tempering factor is 1, so the deep tail is Stable's
    tail_completion = Stable.tail_completion

    def increments(self, dts, gen):
        """Increments D(dt) by one rejection pass per call over the chunks of all dts."""
        return _tempered_stable(gen, self.beta, self.a, dts)


@dataclass(frozen=True)
class StableMixture:
    """Finite mixture of stable subordinators.

    psi(s) = sum_i weights[i] * s**betas[i] with finite positive weights.
    The weights need not sum to one; they set the relative jump intensities.
    """

    weights: tuple
    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.weights) != len(self.betas) or not self.weights:
            raise DomainError("weights and betas must be equal-length, nonempty")
        for w, b in zip(self.weights, self.betas):
            _positive("mixture weight", w)
            _unit_interval("stability index", b)

    def psi(self, s):
        return sum(w * _power(s, b) for w, b in zip(self.weights, self.betas))

    def tail(self, t):
        out = np.zeros_like(t)
        for w, b in zip(self.weights, self.betas):
            out += w * t ** (-b) * math.exp(-gammaln(1.0 - b))
        return out

    def tail_completion(self, U):
        return sum(
            w * math.exp(-(1.0 - b) * U - gammaln(1.0 - b)) / (1.0 - b)
            for w, b in zip(self.weights, self.betas)
        )

    def _draws(self, gen, n):
        return sum((_kanter_draws(gen, n) for _ in self.betas), ())

    def _scale(self, dts, draws):
        return self._scaled(dts, (_kanter(b, *draws[2 * i:2 * i + 2])
                                  for i, b in enumerate(self.betas)))

    def increments(self, dts, gen):
        # component by component: each D_i(1) is drawn as its term is added
        return self._scaled(dts, (_stable_unit(gen, b, len(dts)) for b in self.betas))

    def _scaled(self, dts, units):
        # D(t) = sum_i w_i**(1/beta_i) D_i(t) with independent stable parts:
        # E[exp(-s dt)] = prod_i exp(-dt (w_i**(1/b_i) s)**b_i)
        #              = exp(-dt sum_i w_i s**b_i)
        total = np.zeros(dts.shape)
        for w, b, d in zip(self.weights, self.betas, units):
            d *= w ** (1.0 / b) * dts ** (1.0 / b)
            total += d
        return total


@dataclass(frozen=True)
class DistributedOrder:
    """Subordinator with a polynomial order-density on (0, 1).

    psi(s) = int_0^1 s**beta p(beta) dbeta where p(beta) is the
    polynomial with coefficients ``poly`` (ascending powers).  ``poly``
    defaults to the uniform density p = 1.  p must be finite and
    nonnegative on [0, 1] with positive total mass.  The tail switches to
    a small-t moment expansion below t = exp(-40), where the direct
    quadrature of int_0^1 t**-beta p(beta)/Gamma(1-beta) dbeta would
    overflow.  There is no exact increment sampler.
    """

    poly: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "poly", tuple(float(c) for c in self.poly))
        if not self.poly or not all(map(math.isfinite, self.poly)):
            raise DomainError(f"poly needs one or more finite coefficients, got {self.poly!r}")
        grid = np.linspace(0.0, 1.0, 201)
        vals = np.polynomial.polynomial.polyval(grid, self.poly)
        if vals.min() < -1e-12:
            raise DomainError("order density must be nonnegative on [0, 1]")
        if vals.max() <= 0.0:
            raise DomainError("order density must have positive mass")
        # Coefficients d_m of p(1-w)/Gamma(w) = sum_m d_m w^m, m >= 1
        # (index 0 holds d_0 = 0).  Writing the tail at t = exp(-u) as
        # int_0^1 exp(-w u) q(w) dw with q(w) = p(1-w)/Gamma(w), the
        # deep-tail behaviour is sum_m d_m m!/u^(m+1) once exp(-u)
        # corrections die out.
        pw = np.polynomial.polynomial.Polynomial(self.poly)(
            np.polynomial.polynomial.Polynomial([1.0, -1.0])
        ).coef  # p(1 - w) as a polynomial in w
        rg = np.zeros(len(_RGAMMA_TAYLOR) + 1)
        rg[1:] = _RGAMMA_TAYLOR
        moments = np.polynomial.polynomial.polymul(pw, rg)[: len(_RGAMMA_TAYLOR) + 1]
        moments.flags.writeable = False
        object.__setattr__(self, "_moments", moments)

    def weight(self, beta):
        """Evaluate the order density p(beta)."""
        return np.polynomial.polynomial.polyval(beta, self.poly)

    def psi(self, s):
        # Gauss-Legendre in beta on the outer product of log s and the
        # nodes: the 96-node rule where it agrees with the 48-node one,
        # the 192-node rule elsewhere
        if not isinstance(s, np.ndarray):
            total = self.psi(np.array([s]))[0]
            return complex(total) if isinstance(s, complex) else float(total)
        ln_s = np.log(s)
        total = self._gl_rule(96, ln_s)
        agree = np.abs(total - self._gl_rule(48, ln_s)) <= 1e-12 * np.maximum(1.0, np.abs(total))
        if not agree.all():
            total[~agree] = self._gl_rule(192, ln_s[~agree])
        return total

    def _gl_rule(self, n, ln_s):
        """The n-node rule for int_0^1 exp(beta ln_s) p(beta) dbeta, per entry of ln_s."""
        nodes, weights = _gl_nodes(n)
        vals = self.weight(nodes) * np.exp(np.multiply.outer(ln_s, nodes))
        return (weights * vals).sum(axis=-1)

    def _tail_series(self, u):
        """The tail at t = exp(-u) for u >= _DO_SERIES_U."""
        d = self._moments
        total = 0.0
        fact = 1.0
        for m in range(1, len(d)):
            fact *= m  # m!
            total += d[m] * fact / u ** (m + 1)
        # phi(exp(-u)) = exp(u) * sum; route through logs near the overflow edge
        if total > 0.0 and u > 700.0:
            return math.exp(u + math.log(total))
        return math.exp(u) * total

    def tail(self, t):
        out = np.empty_like(t)
        u = -np.log(t)
        deep = u >= _DO_SERIES_U
        for i in np.nonzero(deep)[0]:
            out[i] = self._tail_series(u[i])
        if np.any(~deep):
            nodes, weights = _gl_nodes(192)
            dens = self.weight(nodes) * np.exp(-gammaln(1.0 - nodes))
            for i in np.nonzero(~deep)[0]:
                out[i] = float((weights * dens * t[i] ** (-nodes)).sum())
        return out

    def tail_completion(self, U):
        # moment series: int_U^inf sum_m d_m m!/u^(m+1) du
        d = self._moments
        return sum(d[m] * math.factorial(m - 1) / U ** m for m in range(1, len(d)))

    def increments(self, dts, gen):
        raise UnsupportedSamplingError(
            "distributed-order subordinators have no exact increment sampler; "
            "use the analytic distribution routines instead"
        )


SubordinatorSpec = Union[Stable, TemperedStable, StableMixture, DistributedOrder]

_SPEC_CLASSES = get_args(SubordinatorSpec)  # a tuple checks ~15x faster than the Union
_VARIANTS = {cls.__name__: cls for cls in _SPEC_CLASSES}


def _require_spec(spec):
    if not isinstance(spec, _SPEC_CLASSES):
        raise DomainError(f"not a subordinator spec: {spec!r}")


def spec_to_json(spec):
    """Serialize a subordinator spec to a JSON-compatible dict."""
    _require_spec(spec)
    data = {"variant": type(spec).__name__}
    for f in fields(spec):
        value = getattr(spec, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    return data


def _json_object(data, what):
    """The dict that ``data`` (a dict or a JSON string) describes."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise DomainError(f"invalid {what} JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError(f"expected an object describing a {what}, got {data!r}")
    return data


def _from_fields(cls, fields_, what):
    """cls(**fields_), with missing, extra or ill-typed fields a DomainError."""
    try:
        return cls(**fields_)
    except DomainError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad fields for {what}: {exc}") from None


def spec_from_json(data):
    """Reconstruct a subordinator spec from a dict or a JSON string.

    Malformed input (invalid JSON, an unknown variant, missing, extra or
    ill-typed fields) raises DomainError.
    """
    data = _json_object(data, "subordinator")
    variant = data.get("variant")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise DomainError(f"unknown subordinator variant {variant!r}")
    return _from_fields(cls, {k: v for k, v in data.items() if k != "variant"}, variant)


# ---------------------------------------------------------------------------
# compound-Poisson jump distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpDist:
    """Discrete jump-size distribution for compound counting processes.

    ``atoms`` is a sequence of (location, probability) pairs with finite
    locations and positive probabilities that sum to one.  The
    Fourier symbol of the compound Poisson process with rate ``lam`` and
    these jumps is lam * (1 - sum_j p_j exp(-i k x_j)).  ``locations``
    and ``probabilities`` hold the atoms' two coordinates as read-only
    arrays.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(x), float(p)) for x, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms or not all(math.isfinite(x) for x, _ in atoms):
            raise DomainError(f"need one or more atoms at finite locations, got {atoms!r}")
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities must sum to 1, got {total}")
        for _, p in atoms:
            if not p > 0.0:
                raise DomainError("atom probabilities must be positive")
        locations, probabilities = np.array(atoms).T
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        for name, array in zip(("locations", "probabilities", "_cdf"), (locations, probabilities, cdf)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _draw(self, gen, size):
        """``size`` IID jump sizes, drawn as ``gen.choice(locations, size, p=probabilities)``."""
        return self.locations[self._cdf.searchsorted(gen.random(size), side="right")]

    def char_fn(self, k):
        """E[exp(-i k X)] for jump size X."""
        k = np.asarray(k, dtype=float)
        x = self.locations
        p = self.probabilities
        return (p * np.exp(-1j * np.multiply.outer(k, x))).sum(axis=-1)

    def fourier_symbol(self, k, lam):
        """Symbol lam * (1 - E[exp(-i k X)]) of the compound process."""
        _positive("rate", lam)
        return lam * (1.0 - self.char_fn(k))

    def to_json(self):
        return {"atoms": [[x, p] for x, p in self.atoms]}

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``; malformed input raises DomainError."""
        return _from_fields(cls, _json_object(data, "jump distribution"), "JumpDist")


# ---------------------------------------------------------------------------
# Laplace exponent and Levy-measure tail
# ---------------------------------------------------------------------------

def laplace_exponent(spec, s):
    """Laplace exponent psi(s) of the subordinator ``spec``.

    Accepts finite real s >= 0 or finite complex s off the branch cut
    (-inf, 0]; complex arguments use principal-branch powers so that
    conjugate symmetry psi(conj s) = conj psi(s) holds.
    """
    _require_spec(spec)
    if isinstance(s, complex):
        if s == 0:
            return 0.0 + 0.0j
        if not cmath.isfinite(s) or (s.imag == 0.0 and s.real < 0.0):
            raise DomainError(f"laplace exponent needs finite s off (-inf, 0), got {s!r}")
    else:
        s = float(s)
        _nonnegative("transform argument", s)
        if s == 0.0:
            return 0.0
    return spec.psi(s)


def levy_tail(spec, t):
    """Tail phi(t) = nu(t, inf) of the Levy measure of ``spec``.

    Vectorized over ``t`` (finite and positive).  For the distributed-order
    family a small-t moment expansion takes over below t = exp(-40), where
    the direct quadrature of int_0^1 t**-beta p(beta)/Gamma(1-beta) dbeta
    would overflow.
    """
    _require_spec(spec)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr > 0.0)):
        raise DomainError(f"levy tail needs finite t > 0, got {t!r}")
    out = spec.tail(np.atleast_1d(t_arr))
    return float(out[0]) if t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# forward Laplace transform
# ---------------------------------------------------------------------------

def _quiet_quad(*args, **kwargs):
    """quad with the roundoff warning silenced; the caller checks the
    returned error estimate against its own tolerance instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(*args, **kwargs)


def laplace_forward(f, s, tol=1e-9, singular_origin=True):
    """Numerical Laplace transform int_0^inf exp(-s t) f(t) dt, finite s > 0.

    Built for integrands that may blow up like a power law at t = 0:
    the interval (0, 1] is mapped to the log axis t = exp(u) and
    integrated piecewise over blocks of width 40 until a block falls
    below the noise floor, which keeps quadrature nodes clustered near
    the singularity.  Raises EvaluationError (carrying the partial
    value) when the accumulated quadrature error exceeds ``tol`` (finite,
    > 0) or the integrand stops being finite.
    """
    _positive("transform argument", s)
    _positive("tolerance", tol)

    total = 0.0
    err = 0.0

    val, e = _quiet_quad(
        lambda t: math.exp(-s * t) * f(t), 1.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300
    )
    total += val
    err += e

    if singular_origin:
        def g(u):
            t = math.exp(u)
            return math.exp(-s * t) * f(t) * t

        hi = 0.0
        floor = max(tol * 1e-3, abs(total) * 1e-15)
        for _ in range(20):
            lo = hi - 40.0
            val, e = _quiet_quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=300)
            if not math.isfinite(val):
                raise EvaluationError(
                    "integrand not finite near the origin", partial=total
                )
            total += val
            err += e
            if abs(val) < floor:
                break
            hi = lo
        else:
            raise EvaluationError(
                "origin blocks did not decay; singularity too strong for the "
                "generic transform",
                partial=total,
            )
    else:
        val, e = _quiet_quad(
            lambda t: math.exp(-s * t) * f(t), 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=300
        )
        total += val
        err += e

    if not math.isfinite(total):
        raise EvaluationError("forward transform diverged", partial=total)
    if err > max(tol, abs(total) * tol):
        raise EvaluationError(
            f"quadrature error {err:.2e} exceeds tolerance {tol:.2e}", partial=total
        )
    return total


# ---------------------------------------------------------------------------
# Laplace inversion
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _talbot_parts(M):
    """The parts of the M-node fixed-Talbot rule that do not depend on t:
    theta_k = k pi/M, cot theta_k (0 at k = 0) and the weight factors
    g_k exp(-t s_k) (0.5 at k = 0), as arrays."""
    theta = [k * math.pi / M for k in range(M)]
    cot = [0.0] + [math.cos(th) / math.sin(th) for th in theta[1:]]
    factor = [0.5] + [
        complex(1.0 + th * (1.0 + c * c) * 1j - c * 1j) for th, c in zip(theta[1:], cot[1:])
    ]
    return np.array(theta), np.array(cot), np.array(factor)


@functools.lru_cache(maxsize=64)
def _talbot_rule(t, M=32):
    """Nodes s_k and weights g_k of the M-node fixed-Talbot rule at time t
    as read-only arrays, cached per (t, M): s(theta) = r theta (cot theta
    + i), r = 2M/(5t), s_0 = r, and g_k = exp(t s_k) times its factor.
    The nodes are computed for each t, not scaled from another t: a weight
    that is not exp(t s_k) of the very node F sees adds a roundoff of
    order |t s_k| eps to the largest terms.  Callers build it under
    np.errstate: below t ~ 7e-308 r overflows, and the rule is not finite,
    so every sum over it fails _talbot_guard."""
    theta, cot, factor = _talbot_parts(M)
    r = 2.0 * M / (5.0 * t)
    x = r * theta
    nodes = x * cot + 1j * x
    nodes[0] = r
    weights = np.exp(t * nodes) * factor
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=16)
def _talbot_contour(t, M):
    """The nodes of _talbot_rule(t, M) as a tuple of complex numbers, and
    their weights by cmath.exp; the inverse is (2/(5t)) sum_k Re(g_k F(s_k))."""
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = _talbot_rule(t, M)[0].tolist()
    factor = _talbot_parts(M)[2].tolist()
    return tuple(nodes), tuple(cmath.exp(t * sk) * fk for sk, fk in zip(nodes, factor))


def _talbot_guard(acc, max_term, t, noise_floor):
    """The inverse (2/(5t)) acc of each contour sum acc, and whether it is
    to be trusted, on floats or elementwise on arrays of row sums and row
    maxima.  Numpy sums are guarded under the np.errstate they were taken
    in, so that sums which are not finite raise no warning.

    A sum is trusted when it is finite and its roundoff stays below
    max(1e-6 |value|, noise_floor): contour terms of magnitude max_term
    cancel down to the value, and what survives below max_term eps is
    roundoff, not signal.  A term that is not finite makes max_term, and
    so its sum, fail.
    """
    scale = 2.0 / (5.0 * t)
    value = scale * acc
    noise = max_term * 2.3e-16 * scale
    return value, (abs(value) < math.inf) & (
        (noise <= 1e-6 * abs(value)) | (noise <= noise_floor)
    )


def _talbot_error(value, max_term):
    """The EvaluationError for a contour sum that failed _talbot_guard."""
    value, max_term = float(value), float(max_term)
    if math.isfinite(value) and math.isfinite(max_term):
        why = ("talbot cancellation swamped the result; the transform grows "
               "along the contour (accept a noise floor)")
    else:
        why = "transform not finite on the talbot contour"
    return EvaluationError(why, partial=value)


def _invert_talbot_array(F, t, noise_floor):
    """32-node fixed-Talbot inversion with F evaluated once, on the array of nodes.

    F maps an ndarray of complex s to an ndarray of transform values.
    Overflow on the contour surfaces as EvaluationError, never as a
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes, weights = _talbot_rule(t)
        terms = weights * F(nodes)
        max_term = np.abs(terms).max()
        value, ok = _talbot_guard(terms.real.sum(), max_term, t, noise_floor)
    if not ok:
        raise _talbot_error(value, max_term)
    return float(value)


def _invert_talbot(F, t, terms, noise_floor):
    nodes, weights = _talbot_contour(t, terms)
    term = weights[0] * F(nodes[0])
    acc = term.real
    max_term = abs(term)
    for sk, gk in zip(nodes[1:], weights[1:]):
        term = gk * F(sk)
        acc += term.real
        max_term = max(max_term, abs(term))
    value, ok = _talbot_guard(acc, max_term, t, noise_floor)
    if not ok:
        raise _talbot_error(value, max_term)
    return value


def laplace_invert(F, t, method="talbot", terms=None, noise_floor=0.0):
    """Invert a Laplace transform at finite time t > 0 by the fixed-Talbot rule.

    F is evaluated along a deformed contour in the complex plane, once
    per node (``terms`` nodes, default 32), so it need not accept arrays;
    it must accept complex arguments and satisfy conjugate symmetry.  The
    rule achieves near machine precision for transforms analytic off the
    negative real axis.  ``method`` names the rule, 'talbot' or
    'fixed-talbot'; any other name raises DomainError.

    The roundoff noise left after cancellation is estimated, and
    EvaluationError is raised when it swamps the result or when the
    contour sum is not finite.  ``noise_floor`` declares a finite
    absolute error the caller is willing to absorb: results whose noise
    stays below it are returned instead of raising, the right contract
    when tiny values (tail probabilities, far-field densities) only need
    absolute accuracy.
    """
    _positive("time", t)
    _nonnegative("noise floor", noise_floor)
    if str(method).lower() not in ("talbot", "fixed-talbot"):
        raise DomainError(f"unknown inversion method {method!r}")
    terms = 32 if terms is None else _count("terms", terms, least=1)
    return _invert_talbot(F, t, terms, noise_floor)


# ---------------------------------------------------------------------------
# Bernstein identity check
# ---------------------------------------------------------------------------

_DEEP_TAIL_U = 600.0


def _tail_forward(tail, s):
    """int_{exp(-U)}^inf exp(-s t) phi(t) dt for U = _DEEP_TAIL_U, where
    ``tail(t)`` is the Levy tail phi at one float t.

    On (0, 1] the integral runs on the log axis down to t = exp(-U).  The
    caller adds the remaining mass (significant only when the tail decays
    as slowly as t^-(1-eps)) in closed form by the family's
    ``tail_completion``, using exp(-s t) = 1 + O(exp(-U)) there.
    """
    total, err = integrate.quad(
        lambda t: math.exp(-s * t) * tail(t),
        1.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
    )

    def g(u):
        t = math.exp(u)
        return math.exp(-s * t) * tail(t) * t

    hi = 0.0
    while hi > -_DEEP_TAIL_U:
        lo = max(hi - 40.0, -_DEEP_TAIL_U)
        val, e = integrate.quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=300)
        total += val
        err += e
        hi = lo
    return total, err


def bern_identity_check(spec, s):
    """Cross-check int_0^inf exp(-s t) phi(t) dt against psi(s)/s.

    Returns (lhs, rhs, relative_error).  The left side integrates the
    Levy tail numerically with an analytic deep-tail completion; the
    right side evaluates the Laplace exponent directly, so agreement
    validates both code paths at once.  ``s`` must be finite and positive.

    ``s`` may also be a nonempty 1-d sequence of such values; the result
    is then a list with one triple per element, each equal to the scalar
    call's.  The transforms share one evaluation of the tail per
    quadrature node, which they mostly have in common.
    """
    try:
        shape = np.shape(s)
    except ValueError:  # a ragged nest of sequences
        shape = None
    scalar = shape == ()
    if not scalar and (shape is None or len(shape) != 1 or shape[0] == 0):
        raise DomainError(
            f"transform argument must be a number or a nonempty 1-d sequence, got {s!r}"
        )
    args = (s,) if scalar else s
    for x in args:
        _positive("transform argument", x)
    _require_spec(spec)
    # spec.tail is levy_tail without the argument checks; one call per node
    tail = functools.cache(lambda t: float(spec.tail(np.array([t]))[0]))
    completion = spec.tail_completion(_DEEP_TAIL_U)
    out = []
    for x in args:
        lhs = _tail_forward(tail, x)[0] + completion
        rhs = laplace_exponent(spec, x) / x
        out.append((lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300)))
    return out[0] if scalar else out
