"""Fractional Poisson processes, inverse stable subordinators, and their
tempered and distributed-order generalizations.

The package is organized in layers: special functions (Mittag-Leffler
family), subordinator specifications with Laplace-transform machinery,
exact samplers, path-level process constructions, analytic distributions
with independent cross-check routes, fractional-calculus residuals for
the governing equations, and a validation module that wires every
closed-form identity into executable statistical suites.
"""

from . import distributions, errors, fraccalc, processes, samplers, special, transforms, validation
from .distributions import *
from .errors import *
from .fraccalc import *
from .processes import *
from .samplers import *
from .special import *
from .transforms import *
from .validation import *

__version__ = "0.1.0"

# the public API is the union of the layers' own __all__ lists
__all__ = ["__version__"] + [
    name
    for layer in (errors, special, transforms, samplers, processes, distributions, fraccalc, validation)
    for name in layer.__all__
]
