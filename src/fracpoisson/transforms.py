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
  branch cut (-inf, 0];
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
origin, two inversion algorithms (fixed-Talbot and Gaver-Stehfest), and a
self-consistency check of the Bernstein identity

    int_0^inf exp(-s t) phi(t) dt = psi(s) / s,

which exercises the exponent and the tail through independent code paths.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union, get_args

import numpy as np
from scipy import integrate
from scipy.special import gammaincc, gammaln

from .errors import DomainError, EvaluationError, UnsupportedSamplingError
from .errors import _count, _nonnegative, _positive, _unit_interval
from .samplers import _stable_unit, sample_tempered_stable_increment

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


# ---------------------------------------------------------------------------
# helpers shared by the families
# ---------------------------------------------------------------------------

def _power(s, beta):
    """Principal-branch s**beta accepting real or complex scalars."""
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

    def increments(self, dts, gen):
        return dts ** (1.0 / self.beta) * _stable_unit(gen, self.beta, len(dts))


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
        return np.array(
            [sample_tempered_stable_increment(self.beta, self.a, dt, gen) for dt in dts]
        )


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

    def increments(self, dts, gen):
        # D(t) = sum_i w_i**(1/beta_i) D_i(t) with independent stable parts:
        # E[exp(-s dt)] = prod_i exp(-dt (w_i**(1/b_i) s)**b_i)
        #              = exp(-dt sum_i w_i s**b_i)
        total = np.zeros(len(dts))
        for w, b in zip(self.weights, self.betas):
            total += w ** (1.0 / b) * dts ** (1.0 / b) * _stable_unit(gen, b, len(dts))
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

    def weight(self, beta):
        """Evaluate the order density p(beta)."""
        return np.polynomial.polynomial.polyval(beta, self.poly)

    def psi(self, s):
        # Gauss-Legendre in beta with node doubling
        ln_s = cmath.log(s) if isinstance(s, complex) else math.log(s)
        prev = None
        for n in (48, 96, 192):
            nodes, weights = _gl_nodes(n)
            vals = self.weight(nodes) * np.exp(nodes * ln_s)
            total = (weights * vals).sum()
            if prev is not None and abs(total - prev) <= 1e-12 * max(1.0, abs(total)):
                break
            prev = total
        return total if isinstance(s, complex) else float(total)

    def _moment_coeffs(self):
        """Coefficients d_m of p(1-w)/Gamma(w) = sum_m d_m w^m, m >= 1.

        Writing the tail at t = exp(-u) as int_0^1 exp(-w u) q(w) dw with
        q(w) = p(1-w)/Gamma(w), the deep-tail behaviour is
        sum_m d_m m!/u^(m+1) once exp(-u) corrections die out.
        """
        # p(1 - w) as a polynomial in w
        pw = np.polynomial.polynomial.Polynomial(self.poly)(
            np.polynomial.polynomial.Polynomial([1.0, -1.0])
        ).coef
        rg = np.zeros(len(_RGAMMA_TAYLOR) + 1)
        rg[1:] = _RGAMMA_TAYLOR
        full = np.polynomial.polynomial.polymul(pw, rg)[: len(_RGAMMA_TAYLOR) + 1]
        return full  # index m holds d_m; full[0] == 0

    def _tail_series(self, u):
        """The tail at t = exp(-u) for u >= _DO_SERIES_U."""
        d = self._moment_coeffs()
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
        d = self._moment_coeffs()
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
    these jumps is lam * (1 - sum_j p_j exp(-i k x_j)).
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

    @property
    def locations(self):
        return np.array([x for x, _ in self.atoms])

    @property
    def probabilities(self):
        return np.array([p for _, p in self.atoms])

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

_STEHFEST_CACHE = {}


def _stehfest_coeffs(n):
    """Salzer summation weights as exact rationals (n even)."""
    if n not in _STEHFEST_CACHE:
        half = n // 2
        coeffs = []
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range((k + 1) // 2, min(k, half) + 1):
                num = Fraction(j) ** half * Fraction(
                    math.factorial(2 * j),
                    math.factorial(half - j)
                    * math.factorial(j)
                    * math.factorial(j - 1)
                    * math.factorial(k - j)
                    * math.factorial(2 * j - k),
                )
                acc += num
            coeffs.append((-1) ** (k + half) * acc)
        _STEHFEST_CACHE[n] = tuple(coeffs)
    return _STEHFEST_CACHE[n]


def _invert_stehfest(F, t, terms, noise_floor):
    if terms % 2 or terms < 2:
        raise DomainError("stehfest needs an even number of terms >= 2")
    coeffs = _stehfest_coeffs(terms)
    ln2_over_t = math.log(2.0) / t
    acc = Fraction(0)
    max_term = 0.0
    for k, v in enumerate(coeffs, start=1):
        fk = F(k * ln2_over_t)
        if isinstance(fk, complex):
            fk = fk.real
        if not math.isfinite(fk):
            raise EvaluationError(f"transform not finite at s = {k * ln2_over_t}")
        term = v * Fraction(fk)
        acc += term
        max_term = max(max_term, abs(float(term)))
    result = float(acc) * ln2_over_t
    # the alternating sum loses roughly max_term * eps to cancellation in
    # the transform values themselves (the rational accumulation is exact)
    noise = max_term * 2.3e-16 * ln2_over_t
    if noise > max(1e-4 * abs(result), noise_floor):
        raise EvaluationError(
            "gaver-stehfest cancellation swamped the result; try method='talbot'",
            partial=result,
        )
    return result


@functools.lru_cache(maxsize=16)
def _talbot_contour(t, M):
    """Nodes s_k and weights g_k of the M-node fixed-Talbot rule at time t:
    s(theta) = r theta (cot theta + i), r = 2M/(5t), and the inverse is
    (2/(5t)) sum_k Re(g_k F(s_k))."""
    r = 2.0 * M / (5.0 * t)
    s0 = complex(r, 0.0)
    nodes = [s0]
    weights = [0.5 * cmath.exp(t * s0)]
    for k in range(1, M):
        theta = k * math.pi / M
        cot = math.cos(theta) / math.sin(theta)
        sk = r * theta * complex(cot, 1.0)
        nodes.append(sk)
        weights.append(
            cmath.exp(t * sk) * complex(1.0 + theta * (1.0 + cot * cot) * 1j - cot * 1j)
        )
    return tuple(nodes), tuple(weights)


def _talbot_result(acc, max_term, t, noise_floor):
    """Scale a Talbot contour sum, or raise when it is not to be trusted."""
    result = (2.0 / (5.0 * t)) * acc
    if not math.isfinite(result):
        raise EvaluationError(
            "talbot contour sum not finite; try method='stehfest' if the "
            "transform is only defined for real arguments",
            partial=result,
        )
    # contour terms of magnitude max_term cancel down to the result; what
    # survives below max_term * eps is roundoff, not signal
    noise = max_term * 2.3e-16 * (2.0 / (5.0 * t))
    if noise > max(1e-6 * abs(result), noise_floor):
        raise EvaluationError(
            "talbot cancellation swamped the result; the transform grows "
            "along the contour (try method='stehfest' or accept a noise floor)",
            partial=result,
        )
    return result


def _invert_talbot(F, t, terms, noise_floor):
    nodes, weights = _talbot_contour(t, terms)
    term = weights[0] * F(nodes[0])
    acc = term.real
    max_term = abs(term)
    for sk, gk in zip(nodes[1:], weights[1:]):
        term = gk * F(sk)
        acc += term.real
        max_term = max(max_term, abs(term))
    return _talbot_result(acc, max_term, t, noise_floor)


def laplace_invert(F, t, method="talbot", terms=None, noise_floor=0.0):
    """Invert a Laplace transform at finite time t > 0.

    method='talbot' (fixed-Talbot, default 32 nodes) evaluates F along a
    deformed contour in the complex plane and achieves near machine
    precision for transforms analytic off the negative real axis; it
    requires F to accept complex arguments and satisfy conjugate
    symmetry.  method='stehfest' (Gaver-Stehfest, default 14 terms) uses
    only positive real arguments, with exact rational summation weights
    so that accuracy is limited by the transform values alone: about
    1e-6 relative for algebraically decaying originals (the survival and
    pmf transforms this package inverts), degrading to absolute-level
    accuracy on exponentially small values.  Use it when F is defined
    through real quadrature.

    Both methods estimate the roundoff noise left after cancellation and
    raise EvaluationError when it swamps the result.  ``noise_floor``
    declares a finite absolute error the caller is willing to absorb:
    results whose noise stays below it are returned instead of raising,
    the right contract when tiny values (tail probabilities, far-field
    densities) only need absolute accuracy.  ``terms`` is a node count.
    """
    _positive("time", t)
    _nonnegative("noise floor", noise_floor)
    aliases = {
        "talbot": "talbot",
        "fixed-talbot": "talbot",
        "stehfest": "stehfest",
        "gaver-stehfest": "stehfest",
    }
    key = aliases.get(str(method).lower())
    if key is None:
        raise DomainError(f"unknown inversion method {method!r}")
    invert, default = (_invert_talbot, 32) if key == "talbot" else (_invert_stehfest, 14)
    terms = default if terms is None else _count("terms", terms, least=1)
    return invert(F, t, terms, noise_floor)


# ---------------------------------------------------------------------------
# Bernstein identity check
# ---------------------------------------------------------------------------

def _tail_forward(spec, s):
    """int_0^inf exp(-s t) phi(t) dt with analytic completion of the
    deep-tail region where phi overflows double precision.

    On (0, 1] the integral runs on the log axis down to t = exp(-U),
    U = 600; the remaining mass (significant only when the tail decays
    as slowly as t^-(1-eps)) is added in closed form by the family's
    ``tail_completion``, using exp(-s t) = 1 + O(exp(-U)) there.
    """
    U = 600.0
    # spec.tail is levy_tail without the argument checks, once per node
    total, err = integrate.quad(
        lambda t: math.exp(-s * t) * float(spec.tail(np.array([t]))[0]),
        1.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
    )

    def g(u):
        t = math.exp(u)
        return math.exp(-s * t) * float(spec.tail(np.array([t]))[0]) * t

    hi = 0.0
    while hi > -U:
        lo = max(hi - 40.0, -U)
        val, e = integrate.quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=300)
        total += val
        err += e
        hi = lo
    return total + spec.tail_completion(U), err


def bern_identity_check(spec, s):
    """Cross-check int_0^inf exp(-s t) phi(t) dt against psi(s)/s.

    Returns (lhs, rhs, relative_error).  The left side integrates the
    Levy tail numerically with an analytic deep-tail completion; the
    right side evaluates the Laplace exponent directly, so agreement
    validates both code paths at once.  ``s`` must be finite and positive.
    """
    _positive("transform argument", s)
    _require_spec(spec)
    lhs, _ = _tail_forward(spec, s)
    rhs = laplace_exponent(spec, s) / s
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, rel
