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
samples need not be formed either.
The padding comes from one Philox stream per seed, in row-major order, so
every row is padded alike, bit for bit, however the rows are split into
blocks, and a row prefix of the samples is padded as the prefix of the
whole.  The stream's next block is filled on the package's one fill
thread while the current block is read, which leaves its order, and so
every padded row, unchanged.  So one padded pass to a seed's largest
sample size gives the band tiles of every smaller size as well, each bit
for bit as its own pass would.  Each size's tiles carry the block width
planned for it, and :func:`~gpprec.estimator.estimate_precision` reads
its route from them.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import wait
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import CapacityExceeded, InvalidInput, NoMatching, _check_integer, _is_real
from .estimator import (
    EstimatorConfig,
    PrecisionEstimate,
    _band_tiles,
    estimate_precision,
    plan_estimate,
)
from .lattice import LatticeShape, lattice_points
from .linalg import _normals_ahead, _philox

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
# _squared_distances, so every edge is proposed.
_CANDIDATE_SLACK = 1.0 + 1e-9

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


def measure_cloud(sites, d: int) -> SiteCloud:
    """Measure fill distance and homogeneity of a site cloud.

    The fill distance is the maximum over a regular evaluation grid of
    roughly ``64 * M`` points of the distance to the nearest site; the
    grid includes the box boundary, where the maximum is often attained.
    Nearest sites come from a k-d tree, so memory stays linear in ``M``.
    Homogeneity is the smallest site-to-site or site-to-boundary distance
    divided by the fill distance, capped at 1.
    """
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim == 1:
        sites = sites[:, None]
    _check_integer(d, "d")
    if sites.ndim != 2 or sites.shape[1] != d:
        raise InvalidInput(f"sites must be (M, {d}), got shape {sites.shape}")
    if d not in (1, 2, 3):
        raise InvalidInput(f"d must be 1, 2 or 3, got {d}")
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
    axes = [np.linspace(0.0, 1.0, per_axis)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    h = float(tree.query(grid)[0].max())

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
    if not 0.0 < c1 < 1.0:
        raise InvalidInput(f"c1 must lie in (0, 1), got {c1}")
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


def _site_samples(samples, embedding: LatticeEmbedding) -> np.ndarray:
    """``samples`` as a float64 array of one column per matched site, else ``InvalidInput``."""
    z = np.asarray(samples, dtype=np.float64)
    sites = embedding.node_of_site.size
    if z.ndim != 2 or z.shape[1] != sites:
        raise InvalidInput(
            f"samples must have {sites} columns, one per matched site, got shape {z.shape}"
        )
    return z


def _padded_blocks(blocks, embedding: LatticeEmbedding, seed: int, n: int):
    """The first ``n`` site rows of ``blocks`` padded onto ``embedding``, one row block at a time.

    ``blocks`` are consecutive row blocks of the site samples, of any
    sizes; each is read once, in turn, before the next is taken.  The
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
    thread (``linalg._normals_ahead``): the first block's when the pass
    starts, and each next block's as soon as the last ones are copied, so
    they are drawn while this block is gathered and read and the next
    site rows arrive.  A pass closed early cancels its queued fill, or
    waits for the running one.
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
    # The fill of the next padded block's normals, queued on the fill thread.
    pending = _normals_ahead(rng, normals)
    # Rows padded and yielded so far, and site rows staged for the next block.
    done = filled = 0
    try:
        for rows in blocks:
            rows = _site_samples(rows, embedding)[:n - done - filled]
            while rows.shape[0]:
                target = min(step, n - done)
                take = min(target - filled, rows.shape[0])
                staged[filled:filled + take, :m_sites] = rows[:take]
                rows, filled = rows[take:], filled + take
                if filled < target:
                    break
                stage, block = staged[:filled], padded[:filled]
                stage[:, m_sites:] = pending.result()
                ahead = min(step, n - done - filled)
                if ahead:
                    pending = _normals_ahead(rng, normals[:ahead])
                # Every index of src is in range, and only mode="raise" makes take
                # gather into a scratch copy of ``block`` first.
                stage.take(src, axis=1, out=block, mode="clip")
                yield block
                done, filled = done + filled, 0
            if done == n:
                return
    finally:
        # A pass left early, by an error or its reader, leaves no fill queued.
        pending.cancel()
        wait((pending,))


def padded_tiles(
    samples, embedding: LatticeEmbedding, seed: int, config: EstimatorConfig | None, sizes
) -> dict:
    """Band tiles of the padded first ``n`` rows of ``samples``, for each ``n`` in ``sizes``.

    ``samples`` is an array with one column per site, or an iterable of
    consecutive row blocks of one, such as
    :func:`~gpprec.truth.sample_blocks` yields; it holds at least
    ``max(sizes)`` rows.  Each size is planned by
    :func:`~gpprec.estimator.plan_estimate` on the embedding's lattice
    under ``config``, so a refused size raises before any row is read.
    Then the rows up to the largest size are read once, block by block,
    and padded once, with unit normals on the unmatched nodes drawn from
    ``seed``, one row block at a time into one reused buffer of about
    ``_PAD_BLOCK_ELEMENTS`` entries; each padded block is added into the
    tiles of every size before the next is padded.  The result maps each
    size to its :class:`~gpprec.estimator.BandTiles`, which carry the
    size's planned width, bit for bit those of a pass over that size's
    rows alone, however the rows arrive in blocks.
    A seed outside ``[0, 2**128)`` raises ``InvalidInput`` before any row
    is read.
    """
    blocks, available = samples, math.inf
    if isinstance(samples, np.ndarray):
        z = _site_samples(samples, embedding)
        blocks, available = (z,), z.shape[0]
    shape = embedding.shape
    plans = {n: plan_estimate(shape, n, config) for n in sizes}
    if not plans or max(plans) > available:
        raise InvalidInput(
            f"sizes must be a nonempty list of at most {available} rows, got {list(sizes)}"
        )
    return _band_tiles(_padded_blocks(blocks, embedding, seed, max(plans)), shape, plans)


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
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != cloud.m:
        raise InvalidInput(
            f"samples must have {cloud.m} columns for this cloud, got shape {z.shape}"
        )
    embedding, _ = build_embedding(cloud)
    n = z.shape[0]
    estimate = estimate_precision(
        padded_tiles(z, embedding, seed, config, [n])[n], embedding.shape
    )
    nodes = embedding.node_of_site
    return replace(estimate, matrix=estimate.matrix[np.ix_(nodes, nodes)])
