"""Blockwise precision estimation on the lattice graph.

The estimator partitions the lattice into blocks of width ``b`` and, for
each block, takes the columns of that block in the inverse of the
covariance restricted to its radius-2 window; the in-band rows of those
columns are assembled and the result is symmetrized.  Small problems fall
back to inverting the full sample covariance.

Blocks and windows are boxes of the flat-index grid
(:meth:`gpprec.lattice.BlockScheme.box`), so a window's vertices are its
box read in C order and its block and radius-1 rows are boxes inside it.

Every window reads one covariance source.  From samples it is the band
Gram, the sample covariance on every vertex pair some window contains,
formed once per estimate with one product per axis-0 slab of blocks and
exactly symmetric.  The samples may arrive as consecutive row blocks
(:class:`RowBlocks`), which the Gram reads one at a time, so a caller
that makes its rows block by block, such as the scattered-site padding,
never holds them all; a sample matrix is the one-block case, and the
full-inverse fallback is the band Gram of a one-block scheme.  The exact
population covariance
(``population=True``) is such a source as it stands, so it takes the same
path; this isolates the deterministic bias of the windowed inversion from
sampling noise, which is what the bias tests exercise.

The source's exact symmetry is checked once per estimate.  Viewed as
``source.reshape((p,) * 2d)``, a window's covariance is one box slice, the
window's box twice, copied in C order.  Each window takes one gated
Cholesky factorization of that copy, in place and without re-checking its
symmetry, and one solve for the ``b**d`` unit columns of its own block;
the in-band rows of the solve are written back as the box of the radius-1
rows times the block, and the assembled matrix is symmetrized in place,
tile by tile.

Every refusal that needs no data is made by :func:`plan_estimate`
before any sample is read, so a caller can run it before drawing one.
Windows are checked in lexicographic block order, so the first
under-sampled block is the one reported; the result does not depend on
that order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack

from .errors import InvalidInput, LocalSingular, NotPositiveDefinite
from .lattice import BlockScheme, LatticeShape, build_scheme
from .linalg import (
    _as_square_sym,
    _gated_factor,
    _symmetrize_in_place,
    cholesky_lower,
    sample_covariance,
    spd_inverse,
    symmetrize,
)

__all__ = [
    "EstimatorConfig",
    "PrecisionEstimate",
    "RowBlocks",
    "choose_block_size",
    "estimate_precision",
    "ols_plugin_row",
    "plan_estimate",
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


@dataclass(frozen=True)
class RowBlocks:
    """``n`` samples of ``m`` variables, handed out once as consecutive row blocks.

    ``blocks`` yields ``(rows, m)`` float64 arrays whose rows, in order,
    are the ``n`` samples; the maker guarantees those shapes.
    :func:`estimate_precision` reads each block before it takes the next,
    so a block may be overwritten by the next one, and the samples never
    have to exist together.
    """

    n: int
    m: int
    blocks: Iterable[np.ndarray]


def choose_block_size(n: int, kappa: float) -> int:
    """Block width ``ceil(log(n * kappa))``, floored at 1."""
    if n < 1:
        raise InvalidInput(f"sample count must be positive, got {n}")
    if kappa < 1.0:
        raise InvalidInput(f"kappa must be at least 1, got {kappa}")
    return max(1, math.ceil(math.log(n * kappa)))


def _band_gram(blocks, n: int, scheme: BlockScheme) -> np.ndarray:
    """Sample covariance on every vertex pair some radius-2 window contains.

    ``blocks`` are consecutive row blocks of the ``n`` samples, each read
    once, in turn, before the next is taken.  Flat order has the last axis
    fastest, so the blocks of the scheme sharing their first block
    coordinate (one axis-0 slab) cover one contiguous column range, and
    every pair some window contains lies in a slab's range continued
    through the next ``2 * WINDOW_RADIUS`` slabs.  Per row block and slab,
    the diagonal tile is the row block's :func:`sample_covariance`
    weighted by its share ``rows / n`` of the samples, and the rest one
    product divided by ``n``; the sums are mirrored below the diagonal at
    the end, so the Gram is exactly symmetric.  A single row block of all
    ``n`` samples has weight 1 and is summed into zeros, both exact, so it
    gives the plain per-slab covariance bit for bit.  A scheme of one
    block (``b = p``) has one slab, whose tile is the whole sample
    covariance.  In ``d >= 2`` the Gram also holds pairs no window reads;
    all other entries stay zero.
    """
    p, b = scheme.shape.p, scheme.b
    m = scheme.shape.size
    plane = m // p  # vertices per axis-0 coordinate, p**(d-1)
    slabs = [
        tuple(min(k * b, p) * plane for k in (x, x + 1, x + 1 + 2 * WINDOW_RADIUS))
        for x in range(scheme.S)
    ]
    gram = np.zeros((m, m))
    for rows in blocks:
        for lo, hi, stop in slabs:
            own = rows[:, lo:hi]
            tile = sample_covariance(own)
            tile *= rows.shape[0] / n
            gram[lo:hi, lo:hi] += tile
            gram[lo:hi, hi:stop] += own.T @ rows[:, hi:stop] / n
    for lo, hi, stop in slabs:
        gram[hi:stop, lo:hi] = gram[lo:hi, hi:stop].T
    return gram


def plan_estimate(shape: LatticeShape, n: int | None, config: EstimatorConfig | None = None):
    """Block width of an estimate from ``n`` samples on ``shape``; ``None`` for the fallback.

    Makes every refusal that needs no data, so a caller can run it before
    drawing the samples; :func:`estimate_precision` runs it first.  Raises

    * ``InvalidInput`` when ``b_override`` exceeds the side ``p``, or when
      ``n`` (``None`` for a population covariance) is below 1 or, for a
      population covariance, no ``b_override`` is given;
    * ``NotPositiveDefinite`` when the route is the fallback (``p <=
      log(n * kappa_hint)`` and no ``b_override``) and ``n < p**d``, as
      ``n`` samples cannot span ``p**d`` variables;
    * ``LocalSingular`` for the first block, in lexicographic order, whose
      radius-2 window holds at least ``n`` vertices: ``n`` samples give
      rank at most ``n``, and at ``n = |w|`` the covariance is full rank
      but so ill-conditioned that the pivot gate passes a useless inverse.
      A population covariance is not checked.
    """
    config = config or EstimatorConfig()
    m = shape.size
    if config.b_override is not None and config.b_override > shape.p:
        raise InvalidInput(
            f"b_override={config.b_override} exceeds the lattice side {shape.p}"
        )
    if n is None:
        if config.b_override is None:
            raise InvalidInput("population mode requires b_override")
        return config.b_override
    if n < 1:
        raise InvalidInput(f"sample count must be positive, got {n}")
    kappa = config.kappa_hint if config.kappa_hint is not None else float(m)
    if config.b_override is None and shape.p <= math.log(n * kappa):
        if n < m:
            raise NotPositiveDefinite(f"{n} samples cannot span {m} variables")
        return None
    # Past the fallback, p > log(n * kappa), so the rule's width is at most p.
    b = config.b_override or choose_block_size(n, kappa)
    scheme = build_scheme(shape.p, b, shape.d)
    for j in scheme.block_indices():
        size = math.prod(s.stop - s.start for s in scheme.box(j, WINDOW_RADIUS))
        if size >= n:
            raise LocalSingular(j, size, n)
    return b


def _within(window, box):
    """``box``, a box inside ``window``, as slices of the window's own box."""
    return tuple(slice(s.start - w.start, s.stop - w.start) for w, s in zip(window, box))


def estimate_precision(
    data,
    shape: LatticeShape,
    config: EstimatorConfig | None = None,
    population: bool = False,
) -> PrecisionEstimate:
    """Estimate the lattice precision operator from samples.

    ``data`` is an ``(N, p**d)`` sample matrix, a :class:`RowBlocks` of
    ``N`` such rows, or the exact ``(p**d, p**d)`` covariance when
    ``population=True`` (population mode requires ``b_override`` and always
    runs the blockwise route).  A sample matrix is one row block.  When
    ``p <= log(N * kappa_hint)`` and no ``b_override`` is given, the
    estimate is the inverse of the full sample covariance, the band Gram
    of a one-block scheme.  Otherwise the band Gram is formed once, slab
    by slab and row block by row block (the population covariance serves
    as it is), each block's window is factored and solved for its own
    columns, and their in-band rows are assembled and symmetrized in
    place.  The refusals of :func:`plan_estimate` come before any of this
    work, so a refused estimate reads no row block.
    """
    config = config or EstimatorConfig()
    m = shape.size
    if population:
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (m, m):
            raise InvalidInput(
                f"population covariance must be {(m, m)}, got {data.shape}"
            )
        n_samples = None
    elif isinstance(data, RowBlocks):
        if data.m != m:
            raise InvalidInput(f"samples must have {m} columns for this lattice, got {data.m}")
        n_samples, blocks = data.n, data.blocks
    else:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != m:
            raise InvalidInput(
                f"samples must have {m} columns for this lattice, got shape {data.shape}"
            )
        n_samples, blocks = data.shape[0], (data,)
    b = plan_estimate(shape, n_samples, config)
    if b is None:
        whole = build_scheme(shape.p, shape.p, shape.d)
        omega = spd_inverse(_band_gram(blocks, n_samples, whole))
        return PrecisionEstimate(matrix=omega, scheme=None, b=None, path=FALLBACK)
    scheme = build_scheme(shape.p, b, shape.d)
    # The matrix every window is sliced from, checked exactly symmetric once
    # here so that no window is checked again.
    if population:
        source = _symmetrize_in_place(np.array(data))
    else:
        source = _band_gram(blocks, n_samples, scheme)
    source = _as_square_sym(source)
    # Over the flat-index grid squared, a window's covariance is one box and
    # the B_j columns of its in-band rows are another.
    src = source.reshape((shape.p,) * (2 * shape.d))
    raw = np.zeros((m, m))
    out = raw.reshape(src.shape)
    for j in scheme.block_indices():
        window, block, near = (scheme.box(j, r) for r in (WINDOW_RADIUS, 0, 1))
        wshape, bshape = (tuple(s.stop - s.start for s in box) for box in (window, block))
        k, kb = math.prod(wshape), math.prod(bshape)
        # The copy is C-ordered and symmetric, so its transpose is the same
        # matrix in Fortran order, which dpotrf factors in place.
        cov = np.array(src[window + window]).reshape(k, k).T
        try:
            factor = _gated_factor(cov)
        except NotPositiveDefinite as exc:
            raise LocalSingular(j, k, n_samples) from exc
        unit = np.zeros(wshape + (kb,))
        unit[_within(window, block)] = np.eye(kb).reshape(bshape + (kb,))
        # dpotrs reports only illegal arguments, which these shapes rule out.
        cols, _ = lapack.dpotrs(factor, unit.reshape(k, kb), lower=1)
        out[near + block] = cols.reshape(wshape + bshape)[_within(window, near)]
    return PrecisionEstimate(
        matrix=_symmetrize_in_place(raw), scheme=scheme, b=scheme.b, path=BLOCKWISE
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
