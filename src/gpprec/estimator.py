"""Blockwise precision estimation on the lattice graph.

The estimator partitions the lattice into blocks of width ``b`` and, for
each block, takes the columns of that block in the inverse of the
covariance restricted to its radius-2 window; the in-band rows of those
columns are assembled and the result is symmetrized.  Small problems fall
back to inverting the full sample covariance.

Every window reads one covariance source.  From samples it is the band
Gram, the sample covariance on every vertex pair some window contains,
formed once per estimate with one product per axis-0 slab of blocks and
exactly symmetric.  The exact population covariance
(``population=True``) is such a source as it stands, so it takes the same
path; this isolates the deterministic bias of the windowed inversion from
sampling noise, which is what the bias tests exercise.  Each window is
factored once and solved only for the ``b**d`` columns of its own block.

Windows are evaluated one after another in lexicographic block order, so
the first under-sampled block is the one reported; the result does not
depend on that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import InvalidInput, LocalSingular, NotPositiveDefinite
from .lattice import BlockScheme, LatticeShape, build_scheme, neighborhood
from .linalg import cholesky_lower, sample_covariance, spd_inverse, symmetrize

__all__ = [
    "EstimatorConfig",
    "PrecisionEstimate",
    "choose_block_size",
    "estimate_precision",
    "ols_plugin_row",
]

BLOCKWISE = "blockwise"
FALLBACK = "fallback_full_inverse"

# The window radius is fixed at 2 blocks; the estimator's guarantees are
# stated for exactly this choice.
WINDOW_RADIUS = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for :func:`estimate_precision`.

    ``kappa_hint`` enters the block-width rule ``b = ceil(log(N * kappa))``;
    pass the exact condition number when the truth is known, otherwise it
    defaults to the variable count ``p**d`` at the call site.  ``b_override``
    bypasses the rule and the small-lattice fallback: with it set, the
    estimate is always blockwise at that width.
    """

    b_override: int | None = None
    kappa_hint: float | None = None

    def __post_init__(self):
        if self.kappa_hint is not None and self.kappa_hint < 1.0:
            raise InvalidInput(f"kappa_hint must be at least 1, got {self.kappa_hint}")
        if self.b_override is not None and self.b_override < 1:
            raise InvalidInput(f"b_override must be at least 1, got {self.b_override}")


@dataclass(frozen=True)
class PrecisionEstimate:
    """Symmetric precision estimate plus the route that produced it."""

    matrix: np.ndarray
    scheme: BlockScheme | None
    b: int | None
    path: str


def choose_block_size(n: int, kappa: float) -> int:
    """Block width ``ceil(log(n * kappa))``, floored at 1."""
    if n < 1:
        raise InvalidInput(f"sample count must be positive, got {n}")
    if kappa < 1.0:
        raise InvalidInput(f"kappa must be at least 1, got {kappa}")
    return max(1, math.ceil(math.log(n * kappa)))


def _band_gram(samples: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Sample covariance on every vertex pair some radius-2 window contains.

    Flat order has the last axis fastest, so the blocks sharing their first
    block coordinate (one axis-0 slab) cover one contiguous column range,
    and every pair some window contains lies in a slab's range continued
    through the next ``2 * WINDOW_RADIUS`` slabs.  Per slab, the diagonal
    tile is a :func:`sample_covariance` and the rest one product, mirrored
    below the diagonal, so the Gram is exactly symmetric.  In ``d >= 2`` it
    also holds pairs no window reads; all other entries stay zero.
    """
    n, m = samples.shape
    p, b = scheme.shape.p, scheme.b
    plane = m // p  # vertices per axis-0 coordinate, p**(d-1)
    gram = np.zeros((m, m))
    for x in range(scheme.S):
        ends = (x, x + 1, x + 1 + 2 * WINDOW_RADIUS)
        lo, hi, stop = (min(k * b, p) * plane for k in ends)
        own = samples[:, lo:hi]
        gram[lo:hi, lo:hi] = sample_covariance(own)
        tile = own.T @ samples[:, hi:stop] / n
        gram[lo:hi, hi:stop] = tile
        gram[hi:stop, lo:hi] = tile.T
    return gram


def _window(scheme: BlockScheme, j, n_samples) -> np.ndarray:
    """Sorted vertices of the radius-2 window of block ``j``.

    Raises ``LocalSingular`` when the window holds at least ``n_samples``
    vertices, so before any covariance is factored: ``N`` samples give rank
    at most ``N``, and at ``N = |w|`` the covariance is full rank but so
    ill-conditioned that the pivot gate passes a useless inverse.
    ``n_samples`` is ``None`` for a population covariance, which is not
    checked.
    """
    _, w = neighborhood(scheme, j, WINDOW_RADIUS)
    if n_samples is not None and n_samples <= w.size:
        raise LocalSingular(j, int(w.size), n_samples)
    return w


def _kept_columns(source, scheme: BlockScheme, j, w, n_samples):
    """Columns of block ``j`` in the inverse of ``source`` on its window ``w``.

    Returns the ``(|w|, |B_j|)`` solve of the window covariance against
    the unit columns of ``B_j``.  Raises ``LocalSingular`` when the window
    covariance fails the Cholesky pivot gate.
    """
    try:
        factor = cholesky_lower(source[np.ix_(w, w)])
    except NotPositiveDefinite as exc:
        raise LocalSingular(j, int(w.size), n_samples) from exc
    kept = np.searchsorted(w, scheme.membership[j])
    unit = np.zeros((w.size, kept.size))
    unit[kept, np.arange(kept.size)] = 1.0
    return cho_solve((factor, True), unit, check_finite=False)


def estimate_precision(
    data,
    shape: LatticeShape,
    config: EstimatorConfig | None = None,
    population: bool = False,
) -> PrecisionEstimate:
    """Estimate the lattice precision operator from samples.

    ``data`` is an ``(N, p**d)`` sample matrix, or the exact ``(p**d,
    p**d)`` covariance when ``population=True`` (population mode requires
    ``b_override`` and always runs the blockwise route).  When ``p <=
    log(N * kappa_hint)`` and no ``b_override`` is given, the estimate is the
    inverse of the full sample covariance, singular when ``N < p**d``, so
    that raises ``NotPositiveDefinite`` before any work.  Otherwise a
    window holding at least ``N`` vertices raises ``LocalSingular`` before
    any work, and then the band Gram is formed once, slab by slab (the
    population covariance serves as it is), each block's window is
    factored and solved for its own columns, and their in-band rows are
    assembled and symmetrized.
    """
    config = config or EstimatorConfig()
    data = np.asarray(data, dtype=np.float64)
    m = shape.size
    kappa = config.kappa_hint if config.kappa_hint is not None else float(m)

    if config.b_override is not None and config.b_override > shape.p:
        raise InvalidInput(
            f"b_override={config.b_override} exceeds the lattice side {shape.p}"
        )

    if population:
        if data.shape != (m, m):
            raise InvalidInput(
                f"population covariance must be {(m, m)}, got {data.shape}"
            )
        if config.b_override is None:
            raise InvalidInput("population mode requires b_override")
        b = config.b_override
        n_samples = None
    else:
        if data.ndim != 2 or data.shape[1] != m:
            raise InvalidInput(
                f"samples must have {m} columns for this lattice, got shape {data.shape}"
            )
        n = n_samples = data.shape[0]
        if config.b_override is None and shape.p <= math.log(n * kappa):
            if n < m:
                raise NotPositiveDefinite(f"{n} samples cannot span {m} variables")
            omega = spd_inverse(sample_covariance(data))
            return PrecisionEstimate(matrix=omega, scheme=None, b=None, path=FALLBACK)
        # Past the fallback, p > log(N * kappa), so the rule's width is at most p.
        b = config.b_override or choose_block_size(n, kappa)
    scheme = build_scheme(shape.p, b, shape.d)
    windows = [(j, _window(scheme, j, n_samples)) for j in scheme.block_indices()]
    # The exactly symmetric matrix every window is sliced from.
    source = symmetrize(data) if population else _band_gram(data, scheme)
    # Each window fills the B_j columns of its in-band rows.
    raw = np.zeros((m, m))
    for j, w in windows:
        cols = _kept_columns(source, scheme, j, w, n_samples)
        _, near = neighborhood(scheme, j, 1)
        raw[np.ix_(near, scheme.membership[j])] = cols[np.searchsorted(w, near)]
    return PrecisionEstimate(
        matrix=0.5 * (raw + raw.T), scheme=scheme, b=scheme.b, path=BLOCKWISE
    )


def ols_plugin_row(samples, i: int) -> np.ndarray:
    """Row ``i`` of the precision estimate by regression plus plug-in.

    Regresses column ``i`` on the remaining columns; the fitted residual
    norm and coefficients give the row ``(N/|e|^2, -N beta^T/|e|^2)``.
    This equals row ``i`` of the inverted sample covariance whenever the
    latter exists.  A rank-deficient design, or a column exactly explained
    by the others, raises ``NotPositiveDefinite``.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise InvalidInput(f"samples must be a nonempty 2-d array, got shape {z.shape}")
    n, dim = z.shape
    if not 0 <= i < dim:
        raise InvalidInput(f"column index {i} outside [0, {dim})")
    y = z[:, i]
    if dim == 1:
        power = float(y @ y)
        if power <= 0.0:
            raise NotPositiveDefinite("column has zero sample variance")
        return np.array([n / power])
    x = np.delete(z, i, axis=1)
    gram = symmetrize(x.T @ x)
    factor = cholesky_lower(gram)
    beta = cho_solve((factor, True), x.T @ y)
    resid = y - x @ beta
    resid_sq = float(resid @ resid)
    if resid_sq <= 1e-12 * float(y @ y):
        raise NotPositiveDefinite("column is in the span of the remaining columns")
    row = np.empty(dim)
    row[i] = n / resid_sq
    row[np.arange(dim) != i] = -n * beta / resid_sq
    return row
