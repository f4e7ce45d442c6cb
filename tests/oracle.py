"""Per-window oracle of the blockwise estimator, for the tests.

It builds blocks and windows on its own, a block as the vertices whose
coordinates fall in its axis intervals and a window as the sorted union of
its blocks, independently of ``BlockScheme.box``.  It takes one covariance
and one full inverse per radius-2 window, where the estimator factors a
slice of one shared source and solves only for the kept columns, and it
assembles its blocks entry by entry.

:func:`indexed_estimate` is the estimator's window step by index arrays
instead of boxes, so the two must agree bit for bit.

:func:`band_gram` is the band Gram summed slab by slab, one 2-d product per
slab and row block, into one dense array: the estimator's band tiles of
every row prefix must write it bit for bit.

:func:`padded_samples` is the scattered-site padding as whole-array column
writes, which the streamed padding must match bit for bit.

:func:`full_grid_cloud` is ``measure_cloud``'s fill distance and homogeneity
with every point of its evaluation grid queried, which the pruned search
must match bit for bit.
"""

import itertools

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial import cKDTree

from gpprec.errors import LocalSingular, NotPositiveDefinite
from gpprec.linalg import cholesky_lower, sample_covariance, spd_inverse, symmetrize


def block_vertices(scheme, j):
    """Sorted flat vertices whose coordinates lie in the axis intervals of block ``j``."""
    labels = (scheme.shape.coordinates() - 1) // scheme.b + 1
    return np.flatnonzero((labels == np.asarray(j)).all(axis=1))


def near_blocks(scheme, j, radius):
    """Block index tuples within sup-distance ``radius`` of ``j``, in lexicographic order."""
    ranges = [range(max(1, x - radius), min(scheme.S, x + radius) + 1) for x in j]
    return tuple(itertools.product(*ranges))


def window_vertices(scheme, j, radius=2):
    """Sorted union of the vertices of the blocks within ``radius`` of ``j``."""
    blocks = near_blocks(scheme, j, radius)
    return np.sort(np.concatenate([block_vertices(scheme, jj) for jj in blocks]))


def _block(inverse, w, scheme, j, jp):
    rows = np.searchsorted(w, block_vertices(scheme, j))
    cols = np.searchsorted(w, block_vertices(scheme, jp))
    return inverse[np.ix_(rows, cols)]


def window_block(sigma, scheme, j, jp):
    """The ``(j, jp)`` block of ``inv(sigma[w, w])``, ``w`` the window of ``j``."""
    w = window_vertices(scheme, j)
    return _block(spd_inverse(symmetrize(sigma[np.ix_(w, w)])), w, scheme, j, jp)


def assemble(local_blocks, scheme):
    """``(raw + raw.T) / 2`` of the blocks ``{(j, jp): B_j x B_jp block}``.

    Entries no block covers are zero.
    """
    m = scheme.shape.size
    raw = np.zeros((m, m))
    for (j, jp), block in local_blocks.items():
        raw[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = block
    return 0.5 * (raw + raw.T)


def reference_estimate(data, scheme, population=False):
    """Blockwise estimate with one covariance and one full inverse per window.

    Like the estimator, it refuses a window of at least N vertices before
    inverting anything.
    """
    n_samples = None if population else data.shape[0]
    for j in scheme.block_indices():
        w = window_vertices(scheme, j)
        if n_samples is not None and n_samples <= w.size:
            raise LocalSingular(j, int(w.size), n_samples)
    local_blocks = {}
    for j in scheme.block_indices():
        w = window_vertices(scheme, j)
        if population:
            cov = symmetrize(data[np.ix_(w, w)])
        else:
            cov = sample_covariance(data[:, w])
        try:
            inverse = spd_inverse(cov)
        except NotPositiveDefinite as exc:
            raise LocalSingular(j, int(w.size), n_samples) from exc
        for jp in near_blocks(scheme, j, 1):
            local_blocks[(j, jp)] = _block(inverse, w, scheme, j, jp)
    return assemble(local_blocks, scheme)


def indexed_estimate(source, scheme):
    """Blockwise estimate from one exactly symmetric ``source`` by index arrays.

    Per block, the window covariance is an ``np.ix_`` gather of ``source``,
    factored by :func:`cholesky_lower` and solved by ``cho_solve`` against
    the block's unit columns; the in-band rows of the solve are scattered
    into place by ``np.ix_`` and the result is symmetrized.
    """
    m = scheme.shape.size
    raw = np.zeros((m, m))
    for j in scheme.block_indices():
        w, block, near = (window_vertices(scheme, j, r) for r in (2, 0, 1))
        kept = np.searchsorted(w, block)
        unit = np.zeros((w.size, kept.size))
        unit[kept, np.arange(kept.size)] = 1.0
        factor = cholesky_lower(source[np.ix_(w, w)])
        cols = cho_solve((factor, True), unit, check_finite=False)
        raw[np.ix_(near, block)] = cols[np.searchsorted(w, near)]
    return 0.5 * (raw + raw.T)


def band_gram(blocks, n, scheme, radius=2):
    """Band Gram of the ``n`` rows of ``blocks`` under ``scheme``, one slab at a time.

    ``blocks`` are consecutive row blocks of the samples.  Per row block
    and axis-0 slab, the diagonal tile is the block's ``sample_covariance``
    weighted by its share ``rows / n`` and the tile against the next
    ``2 * radius`` slabs is one product divided by ``n``; each is added into
    a dense zero array, and the reach tiles are mirrored below the
    diagonal at the end.
    """
    p, b = scheme.shape.p, scheme.b
    m = scheme.shape.size
    plane = m // p
    slabs = [
        tuple(min(k * b, p) * plane for k in (x, x + 1, x + 1 + 2 * radius))
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


def padded_samples(z, embedding, seed):
    """``z`` in the matched node columns, one ``Philox(seed)`` draw of normals in the rest.

    The draw is ``(N, n_pad)`` standard normals, its columns the unmatched
    nodes in ascending flat order.
    """
    nodes = embedding.node_of_site
    mask = np.ones(embedding.shape.size, dtype=bool)
    mask[nodes] = False
    out = np.empty((z.shape[0], embedding.shape.size))
    out[:, nodes] = z
    out[:, mask] = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        (z.shape[0], int(mask.sum()))
    )
    return out


def full_grid_cloud(sites, d):
    """``(h, delta)`` of ``measure_cloud``, querying every point of its evaluation grid."""
    sites = np.asarray(sites, dtype=np.float64).reshape(len(sites), d)
    tree = cKDTree(sites)
    per_axis = max(2, int(np.ceil((64.0 * len(sites)) ** (1.0 / d))))
    axes = [np.linspace(0.0, 1.0, per_axis)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    h = float(tree.query(grid)[0].max())
    min_pair = float(tree.query(sites, k=2)[0][:, 1].min()) if len(sites) > 1 else np.inf
    clearance = float(np.minimum(sites, 1.0 - sites).min())
    return h, min(1.0, min(min_pair, clearance) / h)
