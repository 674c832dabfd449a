"""Exception types shared across the package."""

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
    """A rejection sampler exceeded its iteration budget."""


class UnsupportedSamplingError(NotImplementedError):
    """Exact path sampling is not available for this subordinator."""


class TruncationError(ValueError):
    """A query point lies beyond the range covered by a simulated path."""


class OffGridError(ValueError):
    """A time does not coincide with a point of the sampling grid."""


class ResolutionError(ValueError):
    """The sampling grid is too coarse for the requested stencil."""
