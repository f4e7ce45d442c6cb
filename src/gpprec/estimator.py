"""Blockwise precision estimation on the lattice graph.

The estimator partitions the lattice into blocks of width ``b`` and, for
each block, takes the columns of that block in the inverse of the
covariance restricted to its radius-2 window; the in-band rows of those
columns are assembled and the result is symmetrized.  At width ``p`` the
scheme is one block whose window is the whole lattice, so the estimate is
the inverse of the full sample covariance, which is taken directly.

Blocks and windows are boxes of the flat-index grid
(:meth:`gpprec.lattice.BlockScheme.box`), so a window's vertices are its
box read in C order and its block and radius-1 rows are boxes inside it.

Every window reads one covariance source, the band Gram, kept as per-slab
tiles (:class:`BandTiles`): each axis-0 slab of blocks against itself and
against the next ``2 * WINDOW_RADIUS`` slabs, which hold every vertex pair
some window contains.  The tiles carry the block width they were planned
for, so an estimate reads its route from them.  From samples the tiles
hold the sample covariance.
Consecutive slabs of equal width and reach form one run, whose products
are one stacked :func:`~gpprec.linalg.sample_covariance` call and one
batched ``matmul``.  The tiles are summed over consecutive row blocks of
the samples, and one pass over the row blocks serves several row
prefixes at once.  The package's one reader of sample rows,
:func:`~gpprec.linalg._row_parts`, says which rows of each block each
prefix takes and stops reading at the largest prefix; the products of
each part are formed once and added into every prefix that takes it, so
a caller that pads its rows block by block, such as the scattered-site
padding, pads them once for all of a seed's sample sizes.  A sample
matrix is one row block of its tiles, and the one tile of a one-block
scheme is the whole sample covariance.
The exact covariance is sliced into tiles too
(:meth:`BandTiles.from_covariance`), so it takes the same path; this
isolates the deterministic bias of the windowed inversion from sampling
noise, which is what the bias tests exercise.  An estimate writes its
dense source from the tiles just before its windows.

The source's exact symmetry is checked once per estimate.  Viewed as
``source.reshape((p,) * 2d)``, a window's covariance is one box slice, the
window's box twice, copied in C order.  Each window takes one gated
Cholesky factorization of that copy, in place and without re-checking its
symmetry, and one solve for the ``b**d`` unit columns of its own block;
the in-band rows of the solve are written back as the box of the radius-1
rows times the block, and the assembled matrix is symmetrized in place,
tile by tile.  The boxes and unit right-hand sides of a scheme's windows
are built once per scheme and shared by every estimate that uses it; a
one-block scheme, inverted whole, builds none.

Every refusal that needs no data is made by :func:`plan_estimate`
before any sample is read, so a caller can run it before drawing one.
Windows are checked in lexicographic block order, so the first
under-sampled block is the one reported; the result does not depend on
that order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve, lapack

from .errors import InvalidInput, LocalSingular, NotPositiveDefinite, _check_integer, _is_real
from .lattice import BlockScheme, LatticeShape, build_scheme
from .linalg import (
    _as_rows,
    _as_square_sym,
    _gated_factor,
    _row_parts,
    _symmetrize_in_place,
    cholesky_lower,
    sample_covariance,
    spd_inverse,
    symmetrize,
)

__all__ = [
    "BandTiles",
    "EstimatorConfig",
    "PrecisionEstimate",
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

    ``kappa_hint`` enters the block-width rule ``b = ceil(log(N * kappa))``,
    clamped to ``1..p``, and must be a real number in ``[1, inf)``, not a
    bool; pass the exact condition number when the truth is known,
    otherwise it defaults to the variable count ``p**d`` at the call site.
    ``b_override`` replaces the rule's width; at ``p`` the estimate is the
    full inverse, as it is wherever the rule reaches ``p``.
    """

    b_override: int | None = None
    kappa_hint: float | None = None

    def __post_init__(self):
        kappa = self.kappa_hint
        if kappa is not None and not (_is_real(kappa) and 1.0 <= kappa < math.inf):
            raise InvalidInput(f"kappa_hint must be finite and at least 1, got {kappa!r}")
        if self.b_override is not None:
            _check_integer(self.b_override, "b_override")


@dataclass(frozen=True)
class PrecisionEstimate:
    """Symmetric precision estimate and the block scheme that produced it.

    ``b`` and ``path`` are read off the scheme: a scheme of one block
    (``b = p``) is the full inverse, ``fallback_full_inverse``, and any
    other is ``blockwise``.
    """

    matrix: np.ndarray
    scheme: BlockScheme

    @property
    def b(self) -> int:
        return self.scheme.b

    @property
    def path(self) -> str:
        return FALLBACK if self.scheme.S == 1 else BLOCKWISE


@dataclass(frozen=True)
class BandTiles:
    """The band Gram of ``n`` samples on ``shape`` at block width ``b``, as per-slab tiles.

    ``b`` is the width :func:`plan_estimate` chose, an integer in
    ``1..p``; ``n`` is ``None`` for the tiles of a covariance
    (:meth:`BandTiles.from_covariance`).
    ``tiles`` holds one ``(lo, diag, reach)`` triple per run of slabs
    (:func:`_slab_runs`): the run's first column ``lo``, its ``(k, w, w)``
    diagonal tiles, each slab's sample covariance, and its ``(k, w, c)``
    tiles of each slab against the ``c`` columns of its reach.  A scheme of
    one block (``b = p``) has one slab, whose tile is the whole sample
    covariance, and its estimate is that tile's inverse.
    """

    shape: LatticeShape
    b: int
    n: int | None
    tiles: tuple

    @property
    def scheme(self) -> BlockScheme:
        """The block scheme of width ``b`` on ``shape``."""
        return build_scheme(self.shape.p, self.b, self.shape.d)

    @classmethod
    def from_covariance(cls, sigma, shape: LatticeShape, b: int) -> "BandTiles":
        """The band of the exact ``(p**d, p**d)`` covariance ``sigma`` at block width ``b``.

        ``sigma`` is symmetrized, ``(sigma + sigma.T) / 2``, and the tiles
        are sliced from it; windows read only pairs inside the band, so an
        estimate from them is the windowed inverse of the symmetrized
        ``sigma`` itself; at ``b = p`` the estimate is its full inverse.
        A ``b`` that is not an integer from 1 to ``p`` raises
        ``InvalidInput``.
        """
        scheme = build_scheme(shape.p, b, shape.d)
        m = shape.size
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (m, m):
            raise InvalidInput(f"covariance must be {(m, m)}, got {sigma.shape}")
        sym = _symmetrize_in_place(np.array(sigma))
        tiles = []
        for lo, k, w, c in _slab_runs(scheme):
            rows = np.stack([sym[a:a + w, a:a + w + c] for a in range(lo, lo + k * w, w)])
            tiles.append((lo, rows[:, :, :w], rows[:, :, w:]))
        return cls(shape=shape, b=b, n=None, tiles=tuple(tiles))

    def dense(self) -> np.ndarray:
        """The ``m x m`` band Gram: the tiles, the reach tiles mirrored, zeros elsewhere.

        No two tiles or mirrors overlap, so every entry is one summed tile
        entry and the Gram is exactly symmetric.  In ``d >= 2`` it also
        holds pairs no window reads.
        """
        m = self.shape.size
        gram = np.zeros((m, m))
        for lo, diag, reach in self.tiles:
            k, w, c = reach.shape
            for i in range(k):
                a = lo + i * w
                gram[a:a + w, a:a + w] = diag[i]
                gram[a:a + w, a + w:a + w + c] = reach[i]
                gram[a + w:a + w + c, a:a + w] = reach[i].T
        return gram


def _slab_runs(scheme: BlockScheme) -> list:
    """``(lo, k, w, c)`` of each run of consecutive axis-0 slabs of equal ``(w, c)``.

    Flat order has the last axis fastest, so the blocks of the scheme
    sharing their first block coordinate (one axis-0 slab) cover one
    contiguous column range of width ``w``, and every pair some window
    contains lies in a slab's range continued through its reach, the ``c``
    columns of the next ``2 * WINDOW_RADIUS`` slabs.  A run's ``k`` slabs
    start at ``lo``, ``lo + w``, ...; only the last few slabs of a scheme
    are narrower or reach less far.
    """
    p, b = scheme.shape.p, scheme.b
    plane = scheme.shape.size // p  # vertices per axis-0 coordinate, p**(d-1)
    runs = []
    for x in range(scheme.S):
        lo, hi, stop = (min(k * b, p) * plane for k in (x, x + 1, x + 1 + 2 * WINDOW_RADIUS))
        if runs and runs[-1][2:] == [hi - lo, stop - hi]:
            runs[-1][1] += 1
        else:
            runs.append([lo, 1, hi - lo, stop - hi])
    return [tuple(run) for run in runs]


def _stacked_columns(rows, start, k, step, width):
    """``(k, len(rows), width)`` view of the columns ``start + i * step`` onward, ``i < k``."""
    starts = sliding_window_view(rows, width, axis=1)[:, start:start + k * step:step]
    return np.moveaxis(starts, 1, 0)


def _slab_products(rows, runs) -> list:
    """Per run: its slabs' sample covariances and their raw products with their reach.

    A run's slabs are one stacked view of ``rows`` with the strides of a
    2-d column slice, so its products are one :func:`sample_covariance`
    call and one batched ``matmul``, each slab's bit for bit its own 2-d
    product.
    """
    products = []
    for lo, k, w, c in runs:
        own = _stacked_columns(rows, lo, k, w, w)
        reach = _stacked_columns(rows, lo + w, k, w, c)
        products.append((sample_covariance(own), np.swapaxes(own, 1, 2) @ reach))
    return products


def _band_tiles(samples, shape: LatticeShape, plans) -> dict:
    """:class:`BandTiles` of every row prefix ``plans`` asks for, from one pass over ``samples``.

    ``plans`` maps each prefix length ``n`` to its planned block width on
    ``shape`` (:func:`plan_estimate`).  ``samples`` are read by
    :func:`~gpprec.linalg._row_parts`, which stops at the largest ``n``:
    per part and width, the slab products are formed once and added into
    each prefix of that width that takes the part, weighted by that
    prefix's share: the diagonal tiles, the part's covariances, by
    ``rows / n``, and the reach tiles, raw products, by ``1 / n``.  So each
    prefix sums exactly the terms, in the order, of a pass over its own
    rows in the same blocks.  A single block of all ``n`` rows has weight
    1 and is summed into zeros, both exact, so it gives the plain
    per-slab covariance bit for bit.
    """
    runs = {b: _slab_runs(build_scheme(shape.p, b, shape.d)) for b in plans.values()}
    sums = {
        n: [(np.zeros((k, w, w)), np.zeros((k, w, c))) for _, k, w, c in runs[b]]
        for n, b in plans.items()
    }
    for part, takers in _row_parts(samples, shape.size, plans):
        for b, b_runs in runs.items():
            sizes = [n for n in takers if plans[n] == b]
            if sizes:
                products = _slab_products(part, b_runs)
                for n in sizes:
                    _add_products(sums[n], products, part.shape[0], n)
    return {
        n: BandTiles(
            shape=shape,
            b=b,
            n=n,
            tiles=tuple((run[0], *sum_) for run, sum_ in zip(runs[b], sums[n])),
        )
        for n, b in plans.items()
    }


def _add_products(sums, products, rows: int, n: int):
    """Add one row block's slab products, ``rows`` of the ``n`` samples, into ``sums``."""
    for (diag, reach), (cov, raw) in zip(sums, products):
        diag += cov * (rows / n)
        reach += raw / n


@dataclass(frozen=True)
class _Window:
    """One block's window: its boxes, where its kept rows sit, and its unit columns.

    ``box``, ``block`` and ``near`` are the radius-2, 0 and 1 boxes of
    block ``j``; ``kept`` is ``near`` as slices of the window's own box.
    ``unit`` is the read-only ``(size, block size)`` right-hand side of the
    block's unit columns, shared by windows of equal shape and offset.
    """

    j: tuple
    box: tuple
    block: tuple
    near: tuple
    kept: tuple
    size: int
    solved_shape: tuple
    unit: np.ndarray


def _within(window, box):
    """``box``, a box inside ``window``, as slices of the window's own box."""
    return tuple(slice(s.start - w.start, s.stop - w.start) for w, s in zip(window, box))


@functools.lru_cache(maxsize=8)
def _windows(scheme: BlockScheme) -> tuple:
    """The :class:`_Window` of every block of ``scheme``, in lexicographic block order.

    Cached per scheme, so the estimates of a run that share a scheme build
    its windows once.
    """
    units = {}
    windows = []
    for j in scheme.block_indices():
        box, block, near = (scheme.box(j, r) for r in (WINDOW_RADIUS, 0, 1))
        wshape, bshape = (tuple(s.stop - s.start for s in b) for b in (box, block))
        k, kb = math.prod(wshape), math.prod(bshape)
        inside = _within(box, block)
        key = (wshape, tuple((s.start, s.stop) for s in inside))
        if key not in units:
            unit = np.zeros(wshape + (kb,))
            unit[inside] = np.eye(kb).reshape(bshape + (kb,))
            unit = unit.reshape(k, kb)
            unit.flags.writeable = False
            units[key] = unit
        windows.append(
            _Window(j, box, block, near, _within(box, near), k, wshape + bshape, units[key])
        )
    return tuple(windows)


def plan_estimate(shape: LatticeShape, n: int, config: EstimatorConfig | None = None) -> int:
    """Block width of an estimate from ``n`` samples on ``shape``, an integer in ``1..p``.

    The width is ``b_override`` if set, else ``ceil(log(n * kappa_hint))``
    clamped to ``1..p``, with ``kappa_hint`` defaulting to ``p**d``.  At
    width ``p`` the scheme is one block, and the estimate is the inverse
    of the full sample covariance.  Makes every refusal that needs no
    data, so a caller can run it before drawing the samples;
    :func:`estimate_precision` runs it first on a sample matrix.  Raises

    * ``InvalidInput`` when ``b_override`` exceeds the side ``p``, or when
      ``n`` is not an integer of at least 1;
    * ``LocalSingular`` for the first block, in lexicographic order, whose
      radius-2 window holds at least ``n`` vertices, one block's window,
      the whole lattice, included: ``n`` samples give rank at most ``n``,
      and at ``n = |w|`` the covariance is full rank but so
      ill-conditioned that the pivot gate passes a useless inverse.
    """
    config = config or EstimatorConfig()
    if config.b_override is not None and config.b_override > shape.p:
        raise InvalidInput(
            f"b_override={config.b_override} exceeds the lattice side {shape.p}"
        )
    _check_integer(n, "sample count")
    kappa = config.kappa_hint if config.kappa_hint is not None else float(shape.size)
    # The floor keeps n = kappa = 1 a LocalSingular, not a width of 0.
    b = config.b_override or min(shape.p, max(1, math.ceil(math.log(n * kappa))))
    scheme = build_scheme(shape.p, b, shape.d)
    # The boxes alone size the windows, so planning builds no unit columns.
    for j in scheme.block_indices():
        size = math.prod(s.stop - s.start for s in scheme.box(j, WINDOW_RADIUS))
        if size >= n:
            raise LocalSingular(j, size, n)
    return b


def estimate_precision(
    data, shape: LatticeShape, config: EstimatorConfig | None = None
) -> PrecisionEstimate:
    """Estimate the lattice precision operator from samples or their band tiles.

    ``data`` is an ``(N, p**d)`` sample matrix or :class:`BandTiles` on
    ``shape``.  A sample matrix is planned under ``config``
    (:func:`plan_estimate`, whose refusals come before any tile is formed)
    and read as one row block of its tiles; tiles carry their own width,
    so ``config`` is not read for them.  When the tiles' scheme is one
    block, whatever set the width, the estimate is the inverse of the
    full sample covariance, the tiles' band Gram; a pivot failure there
    raises ``NotPositiveDefinite``.  Otherwise the band Gram is written
    from its tiles, each block's window is factored and solved for its
    own columns, and their in-band rows are assembled and symmetrized in
    place.
    """
    m = shape.size
    if isinstance(data, BandTiles):
        if data.shape != shape:
            raise InvalidInput(f"band tiles are for {data.shape}, not {shape}")
        tiles = data
    else:
        z = _as_rows(data, m)
        n = z.shape[0]
        tiles = _band_tiles(z, shape, {n: plan_estimate(shape, n, config)})[n]
    scheme = tiles.scheme
    if scheme.S == 1:
        return PrecisionEstimate(spd_inverse(tiles.dense()), scheme)
    # The matrix every window is sliced from, checked exactly symmetric once
    # here so that no window is checked again.
    source = _as_square_sym(tiles.dense())
    # Over the flat-index grid squared, a window's covariance is one box and
    # the B_j columns of its in-band rows are another.
    src = source.reshape((shape.p,) * (2 * shape.d))
    raw = np.zeros((m, m))
    out = raw.reshape(src.shape)
    for window in _windows(scheme):
        k = window.size
        # The copy is C-ordered and symmetric, so its transpose is the same
        # matrix in Fortran order, which dpotrf factors in place.
        cov = np.array(src[window.box + window.box]).reshape(k, k).T
        try:
            factor = _gated_factor(cov)
        except NotPositiveDefinite as exc:
            raise LocalSingular(window.j, k, tiles.n) from exc
        # dpotrs reports only illegal arguments, which these shapes rule out;
        # it solves a copy of the shared unit columns.
        cols, _ = lapack.dpotrs(factor, window.unit, lower=1)
        out[window.near + window.block] = cols.reshape(window.solved_shape)[window.kept]
    return PrecisionEstimate(_symmetrize_in_place(raw), scheme)


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
