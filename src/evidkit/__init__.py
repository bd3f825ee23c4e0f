"""Model selection by evidence.

Exact fit-minus-flexibility decomposition of the log marginal likelihood
for ridge-regularized Gaussian linear models, generic evidence estimators
(quadrature, Laplace, importance sampling) for black-box models, penalty
arithmetic relating flexibility to conventional criteria, and seeded
selection/risk experiments.  All functions are pure and deterministic
given explicit seeds.

Each module's ``__all__`` is its public list; the package re-exports them all.
"""

from . import evidence, exceptions, generic, glm, selection
from .evidence import *
from .exceptions import *
from .generic import *
from .glm import *
from .selection import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (evidence, exceptions, generic, glm, selection)
                  for name in module.__all__})
