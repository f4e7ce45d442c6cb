"""Precision-matrix and Cholesky-factor estimation for Gaussian process data.

The package estimates large, ill-conditioned precision matrices from
independent observations of a Gaussian process, either on a cubic lattice
or at homogeneously scattered sites, and assembles multiscale
block-Cholesky factors under the maximin ordering.  Ground-truth
generators and a verification harness accompany the estimators.
"""

from .cholesky import (
    ScaleEstimates,
    assemble_U,
    assemble_U_star,
    estimate_B,
    estimate_scales,
    exact_block_factor,
    exact_scales,
)
from .errors import (
    CapacityExceeded,
    InvalidInput,
    LocalSingular,
    NoMatching,
    NotPositiveDefinite,
    NumericalFailure,
)
from .estimator import (
    EstimatorConfig,
    PrecisionEstimate,
    choose_block_size,
    estimate_precision,
    ols_plugin_row,
)
from .hierarchy import (
    LevelPartition,
    MaximinOrdering,
    assign_levels,
    maximin_order,
)
from .lattice import (
    BlockScheme,
    LatticeShape,
    build_scheme,
    lattice_points,
    neighborhood,
)
from .linalg import (
    block_inverse_schur,
    cholesky_lower,
    condition_number,
    reverse_cholesky,
    sample_covariance,
    spd_inverse,
    spd_sqrt,
    spectral_norm,
    symmetrize,
)
from .matching import (
    LatticeEmbedding,
    ScatteredEstimate,
    SiteCloud,
    build_embedding,
    build_target_lattice,
    embed_and_estimate,
    measure_cloud,
    perfect_matching,
)
from .truth import (
    GroundTruth,
    ScreeningProfile,
    build_green_restriction,
    build_lattice_precision,
    l1_tail_profile,
    log_linear_fit,
    matern_covariance,
    sample,
    screening_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
