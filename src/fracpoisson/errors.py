"""Exception types shared across the package, and the argument checks."""

import math
import numbers

__all__ = [
    "DomainError",
    "EvaluationError",
    "SamplingError",
    "UnsupportedSamplingError",
    "TruncationError",
    "OffGridError",
    "ResolutionError",
]


class DomainError(ValueError):
    """A parameter or argument lies outside the supported domain."""


class EvaluationError(ArithmeticError):
    """A numerical evaluation failed to reach the requested accuracy.

    The best available estimate, when one exists, is attached as
    ``partial`` so callers can inspect how far the computation got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SamplingError(RuntimeError):
    """A sampler cannot make its draws: a rejection budget ran out or a scale overflows."""


class UnsupportedSamplingError(NotImplementedError):
    """Exact path sampling is not available for this subordinator."""


class TruncationError(ValueError):
    """A query point lies beyond the range covered by a simulated path."""


class OffGridError(ValueError):
    """A time does not coincide with a point of the sampling grid."""


class ResolutionError(ValueError):
    """The sampling grid is too coarse for the requested stencil."""


# The argument checks of every public entry point.  Each raises DomainError
# for NaN, infinities and values out of range, and is not part of the API.

def _unit_interval(name, x, closed=False):
    if not (0.0 < x < 1.0 or (closed and x == 1.0)):
        raise DomainError(f"{name} must lie in (0, 1{']' if closed else ')'}, got {x!r}")


def _positive(name, x):
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x!r}")


def _nonnegative(name, x):
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {x!r}")


def _count(name, n, least=0):
    """n as an int; n may be an int, a numpy integer or an integral float."""
    if (type(n) is int or isinstance(n, numbers.Real) and (
            isinstance(n, numbers.Integral) or float(n).is_integer())) and n >= least:
        return int(n)
    raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
