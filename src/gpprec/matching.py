"""Reduction from scattered observation sites to a regular lattice.

A homogeneously scattered cloud in the open unit box is matched, site by
site, to nearby nodes of a lattice sized from the measured fill distance.
The matching is a maximum bipartite matching under the edge rule
``|x_i - y_t| <= radius``: a k-d tree over the lattice gives each site's
candidate nodes, and scipy's Hopcroft-Karp ``maximum_bipartite_matching``
matches them.  When it is not site-perfect, the raised error carries a
Hall violator as an explanation.  Samples on the sites are then padded
with independent unit normals on the unmatched nodes, the lattice
estimator runs on the padded problem, and the site block of its output
is permuted back.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import CapacityExceeded, InvalidInput, NoMatching
from .estimator import EstimatorConfig, estimate_precision
from .lattice import LatticeShape, lattice_points

__all__ = [
    "SiteCloud",
    "LatticeEmbedding",
    "ScatteredEstimate",
    "measure_cloud",
    "build_target_lattice",
    "perfect_matching",
    "build_embedding",
    "embed_and_estimate",
]

DEFAULT_C1 = 0.5
DEFAULT_RETRIES = 3
DEFAULT_MAX_VERTICES = 40_000

# Entries per row chunk of ``pad_samples`` (2 MiB of float64), so the
# chunk's temporaries stay small against the padded output.
_PAD_CHUNK_ELEMENTS = 1 << 18


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

    ``nodes`` is the sorted flat-index set of matched nodes;
    ``node_of_site[i]`` is the node matched to site ``i``.  ``displacement``
    is the largest site-to-node distance over the matching.
    """

    shape: LatticeShape
    nodes: np.ndarray
    node_of_site: np.ndarray
    displacement: float
    c1: float


@dataclass(frozen=True)
class ScatteredEstimate:
    """Precision estimate over the original site order, plus reproducibility metadata."""

    matrix: np.ndarray
    embedding: LatticeEmbedding
    b: int | None
    path: str
    seed: int
    attempts: int


def _boundary_distance(sites: np.ndarray) -> np.ndarray:
    return np.minimum(sites, 1.0 - sites).min(axis=1)


def measure_cloud(sites, d: int | None = None) -> SiteCloud:
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
    if d is None:
        d = sites.shape[1]
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


def build_target_lattice(
    cloud: SiteCloud, c1: float, max_vertices: int = DEFAULT_MAX_VERTICES
):
    """Lattice sized so its nodes are denser than the cloud's fill distance.

    Returns the shape with ``p = ceil(1 / (c1 * h))``; this guarantees the
    node spacing ``1/(p+1)`` is below ``h``.
    """
    if not 0.0 < c1 < 1.0:
        raise InvalidInput(f"c1 must lie in (0, 1), got {c1}")
    p = int(np.ceil(1.0 / (c1 * cloud.h)))
    shape = LatticeShape(p=p, d=cloud.d)
    if shape.size > max_vertices:
        raise CapacityExceeded(
            f"target lattice has {shape.size} nodes, above the cap of {max_vertices}"
        )
    return shape


def _candidate_graph(cloud: SiteCloud, positions: np.ndarray, radius: float) -> csr_matrix:
    """Site-by-node biadjacency of the edges ``|x_i - y_t| <= radius``.

    Row ``i`` lists the flat indices of the nodes within ``radius`` of site
    ``i`` in ascending order.
    """
    rows = cKDTree(positions).query_ball_point(cloud.sites, radius, return_sorted=True)
    indptr = np.cumsum([0, *map(len, rows)])
    indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
    data = np.ones(indices.size, dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(cloud.m, positions.shape[0]))


def _hall_witness(graph: csr_matrix, node_of_site: np.ndarray):
    """Sites reachable from the unmatched ones by alternating paths.

    ``node_of_site[i]`` is the node matched to site ``i``, or -1.  The
    joint neighborhood of the returned sites is strictly smaller than the
    set, which certifies that no site-perfect matching exists.
    """
    site_of_node = np.full(graph.shape[1], -1, dtype=np.int64)
    matched = np.flatnonzero(node_of_site >= 0)
    site_of_node[node_of_site[matched]] = matched
    frontier = np.flatnonzero(node_of_site < 0).tolist()
    seen_sites = set(frontier)
    seen_nodes = set()
    queue = deque(frontier)
    while queue:
        i = queue.popleft()
        for t in graph.indices[graph.indptr[i]:graph.indptr[i + 1]].tolist():
            if t in seen_nodes:
                continue
            seen_nodes.add(t)
            other = int(site_of_node[t])
            if other >= 0 and other not in seen_sites:
                seen_sites.add(other)
                queue.append(other)
    return sorted(seen_sites), sorted(seen_nodes)


def perfect_matching(
    cloud: SiteCloud, shape: LatticeShape, radius: float, c1: float = DEFAULT_C1
) -> LatticeEmbedding:
    """Match every site to a distinct lattice node within ``radius``.

    Candidate nodes come from a k-d tree over the lattice, and scipy's
    Hopcroft-Karp ``maximum_bipartite_matching`` matches sites to them.
    Raises ``NoMatching`` with a Hall violator when some site stays
    unmatched.
    """
    # Imported here so lattice-only runs never load scipy.sparse.csgraph (~3 MB RSS).
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not radius > 0:
        raise InvalidInput(f"radius must be positive, got {radius}")
    positions = lattice_points(shape)
    graph = _candidate_graph(cloud, positions, radius)
    node_of_site = maximum_bipartite_matching(graph, perm_type="column").astype(np.int64)
    if np.any(node_of_site < 0):
        witness_sites, witness_nodes = _hall_witness(graph, node_of_site)
        raise NoMatching(witness_sites, witness_nodes)
    displacement = float(
        np.max(np.linalg.norm(cloud.sites - positions[node_of_site], axis=1))
    )
    return LatticeEmbedding(
        shape=shape,
        nodes=np.sort(node_of_site),
        node_of_site=node_of_site,
        displacement=displacement,
        c1=c1,
    )


def build_embedding(
    cloud: SiteCloud,
    c1: float = DEFAULT_C1,
    retries: int = DEFAULT_RETRIES,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> tuple[LatticeEmbedding, int]:
    """Build a lattice embedding, halving ``c1`` on matching failure.

    Returns the embedding and the number of attempts used.  Halving ``c1``
    enlarges the lattice, which eventually admits a matching; after
    ``retries`` extra attempts the last ``NoMatching`` is re-raised.
    """
    attempts = 0
    current = c1
    while True:
        attempts += 1
        shape = build_target_lattice(cloud, current, max_vertices=max_vertices)
        try:
            return perfect_matching(cloud, shape, cloud.h, c1=current), attempts
        except NoMatching:
            if attempts > retries:
                raise
            current /= 2.0


def pad_samples(samples, embedding: LatticeEmbedding, seed: int) -> np.ndarray:
    """Concatenate site samples with seeded unit normals on unmatched nodes.

    The unmatched nodes take the normals in ascending flat order.  The
    padded array is allocated once and filled in row chunks of about
    ``_PAD_CHUNK_ELEMENTS`` entries, each one column gather from
    ``[samples, normals]``.  The chunks draw their normals in turn from one
    Philox stream, so the padding equals a single ``(N, n_pad)`` draw bit
    for bit, and no full-size temporary is held next to the output.
    """
    z = np.asarray(samples, dtype=np.float64)
    n, m_sites = z.shape
    m_lattice = embedding.shape.size
    mask = np.ones(m_lattice, dtype=bool)
    mask[embedding.node_of_site] = False
    n_pad = int(mask.sum())
    src = np.empty(m_lattice, dtype=np.intp)
    src[embedding.node_of_site] = np.arange(m_sites)
    src[mask] = m_sites + np.arange(n_pad)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    padded = np.empty((n, m_lattice))
    rows = max(1, _PAD_CHUNK_ELEMENTS // m_lattice)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        chunk = np.concatenate([z[lo:hi], rng.standard_normal((hi - lo, n_pad))], axis=1)
        # Every index of src is in range, and only mode="raise" makes take
        # gather into a scratch copy of ``out`` first.
        chunk.take(src, axis=1, out=padded[lo:hi], mode="clip")
    return padded


def embed_and_estimate(
    samples,
    cloud: SiteCloud,
    config: EstimatorConfig | None = None,
    seed: int = 0,
    c1: float = DEFAULT_C1,
) -> ScatteredEstimate:
    """Precision estimate on scattered sites through the lattice reduction.

    Pads each observation with independent unit normals on the unmatched
    lattice nodes (drawn from ``seed``), estimates the padded lattice
    precision, and returns its site block permuted back to the original
    site order.  The padding stream is recorded in the result so runs are
    reproducible.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != cloud.m:
        raise InvalidInput(
            f"samples must have {cloud.m} columns for this cloud, got shape {z.shape}"
        )
    embedding, attempts = build_embedding(cloud, c1=c1)
    padded = pad_samples(z, embedding, seed)
    estimate = estimate_precision(padded, embedding.shape, config)
    nodes = embedding.node_of_site
    return ScatteredEstimate(
        matrix=estimate.matrix[np.ix_(nodes, nodes)],
        embedding=embedding,
        b=estimate.b,
        path=estimate.path,
        seed=seed,
        attempts=attempts,
    )
