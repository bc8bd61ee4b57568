"""One-sided norm derivatives and orthogonality in finite-dimensional
real normed spaces.

The package evaluates the lateral derivatives rho_minus and rho_plus of
the squared norm, their convex combinations rho, rho_lambda and
rho_{alpha,beta}, and the orthogonality relations, angles, probes and
counterexample miners built on top of them.  Norms are described by a
small combinator language (see `parse_norm`) and evaluated by a compiled
kernel when available, with a pure-Python twin as fallback.
"""

from . import derivs, errors, explorer, geometry, kernels, normast, ortho, rng, space
from .derivs import *
from .errors import *
from .explorer import *
from .geometry import *
from .kernels import *
from .normast import *
from .ortho import *
from .rng import *
from .space import *

__version__ = "0.1.0"

__all__ = [name for mod in (derivs, errors, explorer, geometry, kernels, normast, ortho, rng,
                            space)
           for name in mod.__all__]
