"""Reduction from scattered observation sites to a regular lattice.

A homogeneously scattered cloud in the open unit box is matched, site by
site, to nearby nodes of a lattice sized from the measured fill distance.
The matching is a maximum bipartite matching under the edge rule
``sum((x_i - y_t)**2) <= radius**2``, summed over the axes in order: a
k-d tree over the lattice, queried at a slightly larger radius, proposes
each site's candidate nodes, the rule keeps its edges among them, and
scipy's Hopcroft-Karp ``maximum_bipartite_matching`` matches them.  When
it is not site-perfect, the raised error carries a Hall violator as an
explanation.

Samples on the sites are then padded with independent unit normals on the
unmatched nodes, and the padded rows are lattice rows: their estimate is
:func:`~gpprec.estimator.estimate_precision` on the embedding's lattice,
and its site block ``matrix[np.ix_(nodes, nodes)]``, with ``nodes =
node_of_site``, is the estimate in the cloud's site order
(:func:`embed_and_estimate` makes all of it in one call).  The estimator
reads only second moments inside its windows, so :func:`padded_tiles`
pads the rows one block at a time into one reused buffer and streams them
into the estimator's band tiles; the padded ``(N, lattice)`` array is
never formed.
The site rows may themselves arrive as a stream of row blocks, such as a
draw from :func:`~gpprec.truth.sample_blocks`, so the ``(N, sites)``
samples need not be formed either.  The site rows and the padded rows
are both read by :func:`~gpprec.linalg._row_parts`, which checks each
block, stops at the largest sample size and reports a short stream by
the rows that arrived.
The padding comes from one Philox stream per seed, in row-major order, so
every row is padded alike, bit for bit, however the rows are split into
blocks, and a row prefix of the samples is padded as the prefix of the
whole.  The stream's next block is filled ahead on the package's one
fill thread by ``linalg._fills_ahead``, in one slot, while the current
block is read, which leaves its order, and so every padded row,
unchanged.  So one padded pass to a seed's largest
sample size gives the band tiles of every smaller size as well, each bit
for bit as its own pass would.  Each size's tiles carry the block width
planned for it, and :func:`~gpprec.estimator.estimate_precision` reads
its route from them.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import CapacityExceeded, InvalidInput, NoMatching, _check_dimension, _is_real
from .estimator import (
    EstimatorConfig,
    PrecisionEstimate,
    _band_tiles,
    estimate_precision,
    plan_estimate,
)
from .lattice import LatticeShape, lattice_points
from .linalg import _as_rows, _fills_ahead, _philox, _row_parts

__all__ = [
    "SiteCloud",
    "LatticeEmbedding",
    "measure_cloud",
    "build_target_lattice",
    "perfect_matching",
    "build_embedding",
    "padded_tiles",
    "embed_and_estimate",
]

DEFAULT_C1 = 0.5
# Halvings of c1 that build_embedding tries after its first matching fails.
MATCHING_RETRIES = 3
MAX_LATTICE_VERTICES = 40_000

# Relative margin of the k-d tree's candidate radius over the edge rule's,
# far above the few ulps by which the tree's distances can differ from
# _squared_distances, so every edge is proposed.  _fill_distance queries
# every grid point whose bound is within the same margin of the maximum.
_CANDIDATE_SLACK = 1.0 + 1e-9

# Stride of the coarsest subgrid that _fill_distance queries whole, by
# dimension.  The evaluation grid has about 64, 8 and 4 points per site
# along an axis in d = 1, 2 and 3; at these strides the coarse bounds
# already prune most finer points (timed on the 4096-site caps).
_FILL_STRIDE = {1: 32, 2: 4, 3: 4}

# Entries per padded row block that padded_tiles hands the band tiles
# (4 MiB of float64): the block, its [site rows | normals] source and one
# block's normals are all of the padded samples held at once.  Every row
# prefix is summed in these blocks from row 0, so the block size fixes
# the arithmetic of every estimate on padded samples.
_PAD_BLOCK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class SiteCloud:
    """Scattered sites with their measured fill distance and homogeneity."""

    d: int
    sites: np.ndarray
    h: float
    delta: float

    @property
    def m(self) -> int:
        return self.sites.shape[0]


@dataclass(frozen=True)
class LatticeEmbedding:
    """A site-perfect matching of the cloud into lattice nodes.

    ``node_of_site[i]`` is the flat index of the node matched to site
    ``i``.  ``displacement`` is the largest site-to-node distance over the
    matching, the square root of the edge rule's squared distance, so it
    is at most the matching radius.  The sizing constant that built the
    lattice is not kept: :func:`build_embedding` returns its attempt
    count, from which the final ``c1`` follows.
    """

    shape: LatticeShape
    node_of_site: np.ndarray
    displacement: float


def _boundary_distance(sites: np.ndarray) -> np.ndarray:
    return np.minimum(sites, 1.0 - sites).min(axis=1)


def _every(n: int, stride: int) -> np.ndarray:
    """Every ``stride``-th index of ``0..n-1``, and the last index."""
    index = np.arange(0, n, stride)
    return index if index[-1] == n - 1 else np.append(index, n - 1)


def _fill_distance(tree: cKDTree, axis: np.ndarray, d: int) -> float:
    """Largest distance from a point of the grid ``axis**d`` to its nearest site.

    The grid is searched coarse to fine: the subgrid of every
    ``_FILL_STRIDE[d]``-th index of ``axis`` on each axis (and its last
    index) is queried whole, and each finer level halves the stride.  A
    point new at a level is bounded by the value of its nearest point on
    the level before, a tree distance or that point's own bound, plus
    their separation, as the distance to the nearest site is 1-Lipschitz.
    Only new points whose bound reaches ``h / _CANDIDATE_SLACK``, ``h`` the
    largest distance queried so far, are queried, and a point left out
    keeps its bound.  The slack is far above the few ulps by which the
    bounds and the tree's distances can round, so every point left out
    stays below ``h``: the result is the largest tree distance over the
    whole grid, and a point's tree distance does not depend on the batch
    it is queried in, so it is the full grid's maximum bit for bit.
    """
    n = axis.size
    stride = _FILL_STRIDE[d]
    index = _every(n, stride)
    coarse = np.stack(np.meshgrid(*[axis[index]] * d, indexing="ij"), axis=-1)
    bound = tree.query(coarse.reshape(-1, d))[0]
    h = bound.max()
    bound = bound.reshape((index.size,) * d)
    while stride > 1:
        stride //= 2
        finer = _every(n, stride)
        # Position in ``index`` of each finer index's nearest coarser one;
        # the last index is in both.
        near = (finer + stride) // (2 * stride)
        near[-1] = index.size - 1
        gap = axis[finer] - axis[index[near]]
        squared = functools.reduce(np.add.outer, [gap * gap] * d)
        bound = bound[np.ix_(*[near] * d)] + np.sqrt(squared)
        # A point of the coarser level is 0 from itself and keeps its value.
        new = np.nonzero((bound >= h / _CANDIDATE_SLACK) & (squared > 0.0))
        if new[0].size:
            found = tree.query(np.column_stack([axis[finer[at]] for at in new]))[0]
            bound[new] = found
            h = max(h, found.max())
        index = finer
    return float(h)


def measure_cloud(sites, d: int) -> SiteCloud:
    """Measure fill distance and homogeneity of a site cloud.

    The fill distance is the maximum over a regular evaluation grid of
    roughly ``64 * M`` points, ``per_axis`` values of one
    ``np.linspace(0, 1, per_axis)`` on each axis, of the distance to the
    nearest site; the grid includes the box boundary, where the maximum
    is often attained.  Nearest sites come from a k-d tree, so memory
    stays linear in ``M``.  The search is exact and pruned
    (:func:`_fill_distance`): coarse subgrids are queried first, and a
    finer grid point is queried only when the distance being 1-Lipschitz
    leaves it able to reach the largest distance found, so the result is
    the maximum over every grid point, bit for bit, from a fraction of
    the queries.
    Homogeneity is the smallest site-to-site or site-to-boundary distance
    divided by the fill distance, capped at 1.
    """
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim == 1:
        sites = sites[:, None]
    _check_dimension(d)
    if sites.ndim != 2 or sites.shape[1] != d:
        raise InvalidInput(f"sites must be (M, {d}), got shape {sites.shape}")
    m = sites.shape[0]
    if m < 1:
        raise InvalidInput("site cloud is empty")
    if not np.all((sites > 0.0) & (sites < 1.0)):
        raise InvalidInput("sites must be finite and lie strictly inside the open unit box")

    tree = cKDTree(sites)
    min_pair = float(tree.query(sites, k=2)[0][:, 1].min()) if m > 1 else np.inf
    if min_pair <= 0.0:
        raise InvalidInput("sites contain duplicates")

    per_axis = max(2, int(np.ceil((64.0 * m) ** (1.0 / d))))
    h = _fill_distance(tree, np.linspace(0.0, 1.0, per_axis), d)

    clearance = float(_boundary_distance(sites).min())
    numerator = min(min_pair, clearance)
    delta = min(1.0, numerator / h)
    return SiteCloud(d=d, sites=sites, h=h, delta=delta)


def build_target_lattice(cloud: SiteCloud, c1: float):
    """Lattice sized so its nodes are denser than the cloud's fill distance.

    Returns the shape with ``p = ceil(1 / (c1 * h))``; this guarantees the
    node spacing ``1/(p+1)`` is below ``h``.  A lattice of more than
    ``MAX_LATTICE_VERTICES`` nodes raises ``CapacityExceeded``.
    """
    if not (_is_real(c1) and 0.0 < c1 < 1.0):
        raise InvalidInput(f"c1 must be a real number in (0, 1), got {c1!r}")
    p = int(np.ceil(1.0 / (c1 * cloud.h)))
    shape = LatticeShape(p=p, d=cloud.d)
    if shape.size > MAX_LATTICE_VERTICES:
        raise CapacityExceeded(
            f"target lattice has {shape.size} nodes, above the cap of {MAX_LATTICE_VERTICES}"
        )
    return shape


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum((x - y)**2)`` per row pair, summed over the axes in order."""
    total = np.zeros(x.shape[0])
    for axis in range(x.shape[1]):
        total += np.square(x[:, axis] - y[:, axis])
    return total


def _candidate_graph(cloud: SiteCloud, positions: np.ndarray, radius: float) -> csr_matrix:
    """Site-by-node biadjacency of the edges ``sum((x_i - y_t)**2) <= radius**2``.

    A k-d tree query at a slightly larger radius proposes the candidate
    nodes; the rule, on :func:`_squared_distances`, decides which are
    edges, so ties at the radius do not depend on the tree's own
    arithmetic.  Row ``i`` lists the flat indices of site ``i``'s nodes in
    ascending order.
    """
    proposed = cKDTree(positions).query_ball_point(
        cloud.sites, radius * _CANDIDATE_SLACK, return_sorted=True
    )
    site = np.repeat(np.arange(cloud.m), [len(row) for row in proposed])
    node = np.fromiter(itertools.chain.from_iterable(proposed), dtype=np.int64, count=site.size)
    keep = _squared_distances(cloud.sites[site], positions[node]) <= radius * radius
    indptr = np.concatenate([[0], np.cumsum(np.bincount(site[keep], minlength=cloud.m))])
    indices = node[keep]
    data = np.ones(indices.size, dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(cloud.m, positions.shape[0]))


def _hall_witness(graph: csr_matrix, node_of_site: np.ndarray):
    """Sites reachable from the unmatched ones by alternating paths, and their candidate nodes.

    ``node_of_site[i]`` is the node matched to site ``i``, or -1.  Site
    ``i`` steps to the site matched to each of its candidate nodes, and a
    root vertex steps to every unmatched site; the sites a breadth-first
    search reaches from the root have fewer candidate nodes between them
    than sites, which certifies that no site-perfect matching exists.
    Both lists are sorted.
    """
    from scipy.sparse.csgraph import breadth_first_order

    m = graph.shape[0]
    site_of_node = np.full(graph.shape[1], -1, dtype=np.int64)
    matched = np.flatnonzero(node_of_site >= 0)
    site_of_node[node_of_site[matched]] = matched
    site = np.repeat(np.arange(m), np.diff(graph.indptr))
    other = site_of_node[graph.indices]
    unmatched = np.flatnonzero(node_of_site < 0)
    tail = np.concatenate([site[other >= 0], np.full(unmatched.size, m)])
    head = np.concatenate([other[other >= 0], unmatched])
    steps = csr_matrix((np.ones(tail.size, dtype=np.int8), (tail, head)), shape=(m + 1, m + 1))
    sites = np.sort(breadth_first_order(steps, m, return_predecessors=False)[1:])
    return sites.tolist(), np.unique(graph[sites].indices).tolist()


def perfect_matching(cloud: SiteCloud, shape: LatticeShape, radius: float) -> LatticeEmbedding:
    """Match every site to a distinct lattice node within ``radius``.

    Candidate nodes come from a k-d tree over the lattice, and scipy's
    Hopcroft-Karp ``maximum_bipartite_matching`` matches sites to them.
    Raises ``NoMatching`` with a Hall violator when some site stays
    unmatched.  A ``radius`` that is not a finite, positive real number (a
    bool or a string included) raises ``InvalidInput``.
    """
    # Imported here so lattice-only runs never load scipy.sparse.csgraph (~3 MB RSS).
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not (_is_real(radius) and 0 < radius < np.inf):
        raise InvalidInput(f"radius must be finite and positive, got {radius!r}")
    positions = lattice_points(shape)
    graph = _candidate_graph(cloud, positions, radius)
    node_of_site = maximum_bipartite_matching(graph, perm_type="column").astype(np.int64)
    if np.any(node_of_site < 0):
        witness_sites, witness_nodes = _hall_witness(graph, node_of_site)
        raise NoMatching(witness_sites, witness_nodes)
    displacement = float(
        np.sqrt(np.max(_squared_distances(cloud.sites, positions[node_of_site])))
    )
    return LatticeEmbedding(shape=shape, node_of_site=node_of_site, displacement=displacement)


def build_embedding(cloud: SiteCloud, c1: float = DEFAULT_C1) -> tuple[LatticeEmbedding, int]:
    """Build a lattice embedding, halving ``c1`` on matching failure.

    Returns the embedding and the number of attempts used, so the lattice
    was sized with ``c1 / 2**(attempts - 1)``.  Halving ``c1`` enlarges the
    lattice, which eventually admits a matching; after
    ``MATCHING_RETRIES`` halvings the last ``NoMatching`` is re-raised,
    and a lattice above ``MAX_LATTICE_VERTICES`` nodes raises
    ``CapacityExceeded``.
    """
    attempts = 0
    current = c1
    while True:
        attempts += 1
        shape = build_target_lattice(cloud, current)
        try:
            return perfect_matching(cloud, shape, cloud.h), attempts
        except NoMatching:
            if attempts > MATCHING_RETRIES:
                raise
            current /= 2.0


def _padded_blocks(blocks, embedding: LatticeEmbedding, seed: int, n: int):
    """The first ``n`` site rows of ``blocks`` padded onto ``embedding``, one row block at a time.

    ``blocks`` is an array of the site samples or consecutive row blocks
    of one, of any sizes, read by :func:`~gpprec.linalg._row_parts` up to
    row ``n``, so no block past it is taken.  The
    unmatched nodes take unit normals in ascending flat order, drawn from
    one Philox stream keyed by ``seed``.  The stream fills row-major, so
    the padding equals a single ``(n, n_pad)`` draw bit for bit, and its
    first rows are the padding of any shorter prefix.  The padded blocks
    have about ``_PAD_BLOCK_ELEMENTS`` entries, however the incoming rows
    are split.  Site rows are copied into one reused ``[site rows |
    normals]`` buffer as they arrive; once it holds a padded block's rows,
    its normals are copied in beside them and one column gather fills one
    reused block, which is yielded, and the next block overwrites it.
    The normals are filled into one reused block of normals on the fill
    thread by :func:`~gpprec.linalg._fills_ahead`, a slot of one block:
    the first block's when the pass starts, and each next block's as soon
    as the last ones are copied, so they are drawn while this block is
    gathered and read and the next site rows arrive.  A pass closed early
    closes the fills, so none is left queued.
    """
    m_sites = embedding.node_of_site.size
    m_lattice = embedding.shape.size
    mask = np.ones(m_lattice, dtype=bool)
    mask[embedding.node_of_site] = False
    n_pad = int(mask.sum())
    src = np.empty(m_lattice, dtype=np.intp)
    src[embedding.node_of_site] = np.arange(m_sites)
    src[mask] = m_sites + np.arange(n_pad)
    rng = _philox(seed)
    step = min(max(1, _PAD_BLOCK_ELEMENTS // m_lattice), n)
    staged = np.empty((step, m_lattice))
    padded = np.empty_like(staged)
    normals = np.empty((step, n_pad))
    # Rows padded and yielded so far, and site rows staged for the next block.
    done = filled = 0
    with closing(_fills_ahead(rng, (normals,), n)) as fills:
        pending = next(fills)
        for rows, _ in _row_parts(blocks, m_sites, [n]):
            while rows.shape[0]:
                target = min(step, n - done)
                take = min(target - filled, rows.shape[0])
                staged[filled:filled + take, :m_sites] = rows[:take]
                rows, filled = rows[take:], filled + take
                if filled < target:
                    break
                stage, block = staged[:filled], padded[:filled]
                stage[:, m_sites:] = pending.result()
                pending = next(fills, None)
                # Every index of src is in range, and only mode="raise" makes take
                # gather into a scratch copy of ``block`` first.
                stage.take(src, axis=1, out=block, mode="clip")
                yield block
                done, filled = done + filled, 0


def padded_tiles(
    samples, embedding: LatticeEmbedding, seed: int, config: EstimatorConfig | None, sizes
) -> dict:
    """Band tiles of the padded first ``n`` rows of ``samples``, for each ``n`` in ``sizes``.

    ``samples`` is an array with one column per site, or an iterable of
    consecutive row blocks of one, such as
    :func:`~gpprec.truth.sample_blocks` yields.  Each size is planned by
    :func:`~gpprec.estimator.plan_estimate` on the embedding's lattice
    under ``config``, so a refused size, or no size, raises before any
    row is read.  Then the rows up to the largest size are read once,
    block by block, and no further; samples that end before it raise
    ``InvalidInput`` with the count of rows that arrived.  The rows are
    padded once, with unit normals on the unmatched nodes drawn from
    ``seed``, one row block at a time into one reused buffer of about
    ``_PAD_BLOCK_ELEMENTS`` entries; each padded block is added into the
    tiles of every size before the next is padded.  The result maps each
    size to its :class:`~gpprec.estimator.BandTiles`, which carry the
    size's planned width, bit for bit those of a pass over that size's
    rows alone, however the rows arrive in blocks.
    A seed outside ``[0, 2**128)`` raises ``InvalidInput`` before any row
    is read.
    """
    shape = embedding.shape
    plans = {n: plan_estimate(shape, n, config) for n in sizes}
    if not plans:
        raise InvalidInput("sizes must be a nonempty list")
    return _band_tiles(_padded_blocks(samples, embedding, seed, max(plans)), shape, plans)


def embed_and_estimate(
    samples, cloud: SiteCloud, config: EstimatorConfig | None = None, seed: int = 0
) -> PrecisionEstimate:
    """Precision estimate on scattered sites through the lattice reduction.

    Matches the cloud into a lattice (:func:`build_embedding` from
    ``DEFAULT_C1``, with its retries), pads each observation with
    independent unit normals on the unmatched nodes, drawn from ``seed``,
    as it streams the rows into the band tiles (:func:`padded_tiles`),
    estimates the lattice precision
    (:func:`~gpprec.estimator.estimate_precision`) and keeps its site
    block, in the cloud's site order.  The ``scheme``, ``b`` and ``path``
    are those of the padded lattice's estimate.
    """
    z = _as_rows(samples, cloud.m)
    embedding, _ = build_embedding(cloud)
    n = z.shape[0]
    estimate = estimate_precision(
        padded_tiles(z, embedding, seed, config, [n])[n], embedding.shape
    )
    nodes = embedding.node_of_site
    return replace(estimate, matrix=estimate.matrix[np.ix_(nodes, nodes)])
