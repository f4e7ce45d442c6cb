"""Precision-matrix and Cholesky-factor estimation for Gaussian process data.

The package estimates large, ill-conditioned precision matrices from
independent observations of a Gaussian process, either on a cubic lattice
or at homogeneously scattered sites, and assembles multiscale
block-Cholesky factors under the maximin ordering.  Ground-truth
generators and a verification harness accompany the estimators.

The package re-exports the ``__all__`` of each module it imports below,
so its own ``__all__`` is their union.
"""

from . import cholesky, errors, estimator, hierarchy, lattice, linalg, matching, truth
from .cholesky import *
from .errors import *
from .estimator import *
from .hierarchy import *
from .lattice import *
from .linalg import *
from .matching import *
from .truth import *

__all__ = [
    name
    for module in (cholesky, errors, estimator, hierarchy, lattice, linalg, matching, truth)
    for name in module.__all__
]
__version__ = "0.1.0"
