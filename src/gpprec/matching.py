"""Reduction from scattered observation sites to a regular lattice.

A homogeneously scattered cloud in the open unit box is matched, site by
site, to nearby nodes of a lattice sized from the measured fill distance.
The matching is a maximum bipartite matching under the edge rule
``|x_i - y_t| <= radius`` found by Hopcroft-Karp style augmenting paths;
when it is not site-perfect, the raised error carries a Hall violator as
an explanation.  Samples on the sites are then padded with independent
unit normals on the unmatched nodes, the lattice estimator runs on the
padded problem, and the site block of its output is permuted back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from .errors import CapacityExceeded, InvalidInput, NoMatching
from .estimator import EstimatorConfig, estimate_precision
from .lattice import LatticeShape, lattice_points
from .linalg import symmetrize

__all__ = [
    "SiteCloud",
    "LatticeEmbedding",
    "ScatteredEstimate",
    "measure_cloud",
    "build_target_lattice",
    "perfect_matching",
    "build_embedding",
    "embed_and_estimate",
    "padded_truth",
]

DEFAULT_C1 = 0.5
DEFAULT_RETRIES = 3
DEFAULT_MAX_VERTICES = 40_000


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
    if np.any(sites <= 0.0) or np.any(sites >= 1.0):
        raise InvalidInput("sites must lie strictly inside the open unit box")

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

    Returns ``(shape, positions)`` with ``p = ceil(1 / (c1 * h))`` and node
    positions ``t / (p + 1)`` in flat order; this guarantees the node
    spacing ``1/(p+1)`` is below ``h``.
    """
    if not 0.0 < c1 < 1.0:
        raise InvalidInput(f"c1 must lie in (0, 1), got {c1}")
    p = int(np.ceil(1.0 / (c1 * cloud.h)))
    shape = LatticeShape(p=p, d=cloud.d)
    if shape.size > max_vertices:
        raise CapacityExceeded(
            f"target lattice has {shape.size} nodes, above the cap of {max_vertices}"
        )
    return shape, lattice_points(shape)


def _candidate_nodes(shape: LatticeShape, positions: np.ndarray, x: np.ndarray, radius: float):
    """Flat indices of lattice nodes within ``radius`` of ``x``, ascending."""
    p = shape.p
    ranges = []
    for a in range(shape.d):
        lo = max(1, int(np.ceil((x[a] - radius) * (p + 1))))
        hi = min(p, int(np.floor((x[a] + radius) * (p + 1))))
        if lo > hi:
            return []
        ranges.append(range(lo, hi + 1))
    out = []
    for t in product(*ranges):
        flat = shape.flat_index(t)
        if np.linalg.norm(positions[flat] - x) <= radius:
            out.append(flat)
    return out


def _hopcroft_karp(adjacency: list[list[int]]):
    """Maximum matching of sites to nodes; deterministic for sorted adjacency."""
    inf = float("inf")
    m = len(adjacency)
    match_site = [None] * m
    match_node: dict[int, int] = {}

    def bfs():
        dist = {}
        queue = deque()
        for i in range(m):
            if match_site[i] is None:
                dist[i] = 0
                queue.append(i)
        found = inf
        while queue:
            i = queue.popleft()
            if dist[i] >= found:
                continue
            for t in adjacency[i]:
                other = match_node.get(t)
                if other is None:
                    found = min(found, dist[i] + 1)
                elif other not in dist:
                    dist[other] = dist[i] + 1
                    queue.append(other)
        return dist, found

    def dfs(i, dist, found):
        for t in adjacency[i]:
            other = match_node.get(t)
            if other is None:
                if dist[i] + 1 == found:
                    match_site[i] = t
                    match_node[t] = i
                    return True
            elif dist.get(other) == dist[i] + 1:
                if dfs(other, dist, found):
                    match_site[i] = t
                    match_node[t] = i
                    return True
        dist[i] = inf
        return False

    while True:
        dist, found = bfs()
        if found == inf:
            break
        for i in range(m):
            if match_site[i] is None:
                dfs(i, dist, found)
    return match_site, match_node


def _hall_witness(adjacency, match_site, match_node):
    """Sites reachable from the unmatched ones by alternating paths.

    Their joint neighborhood is strictly smaller than the set, which
    certifies that no site-perfect matching exists.
    """
    frontier = [i for i, t in enumerate(match_site) if t is None]
    seen_sites = set(frontier)
    seen_nodes = set()
    queue = deque(frontier)
    while queue:
        i = queue.popleft()
        for t in adjacency[i]:
            if t in seen_nodes:
                continue
            seen_nodes.add(t)
            other = match_node.get(t)
            if other is not None and other not in seen_sites:
                seen_sites.add(other)
                queue.append(other)
    return sorted(seen_sites), sorted(seen_nodes)


def perfect_matching(
    cloud: SiteCloud, shape: LatticeShape, radius: float, c1: float = DEFAULT_C1
) -> LatticeEmbedding:
    """Match every site to a distinct lattice node within ``radius``.

    Runs augmenting-path maximum matching on the bipartite graph whose
    edges join sites to nodes at distance at most ``radius``.  Raises
    ``NoMatching`` with a Hall violator when some site stays unmatched.
    """
    if radius <= 0:
        raise InvalidInput(f"radius must be positive, got {radius}")
    positions = lattice_points(shape)
    adjacency = [
        _candidate_nodes(shape, positions, x, radius) for x in cloud.sites
    ]
    match_site, match_node = _hopcroft_karp(adjacency)
    if any(t is None for t in match_site):
        witness_sites, witness_nodes = _hall_witness(adjacency, match_site, match_node)
        raise NoMatching(witness_sites, witness_nodes)
    node_of_site = np.asarray(match_site, dtype=np.int64)
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
        shape, _ = build_target_lattice(cloud, current, max_vertices=max_vertices)
        try:
            return perfect_matching(cloud, shape, cloud.h, c1=current), attempts
        except NoMatching:
            if attempts > retries:
                raise
            current /= 2.0


def padded_truth(omega_sites, embedding: LatticeEmbedding) -> np.ndarray:
    """Extend a site precision to the lattice with an identity on unmatched nodes.

    The matched block carries the site precision permuted to node order;
    cross blocks are zero.  Used as the oracle truth for the padded
    problem.
    """
    omega_sites = np.asarray(omega_sites, dtype=np.float64)
    m_lattice = embedding.shape.size
    out = np.eye(m_lattice)
    nodes = embedding.node_of_site
    out[np.ix_(nodes, nodes)] = omega_sites
    return out


def pad_samples(samples, embedding: LatticeEmbedding, seed: int) -> np.ndarray:
    """Concatenate site samples with seeded unit normals on unmatched nodes."""
    z = np.asarray(samples, dtype=np.float64)
    n = z.shape[0]
    m_lattice = embedding.shape.size
    padded = np.empty((n, m_lattice))
    padded[:, embedding.node_of_site] = z
    mask = np.ones(m_lattice, dtype=bool)
    mask[embedding.node_of_site] = False
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    padded[:, mask] = rng.standard_normal((n, int(mask.sum())))
    return padded


def embed_and_estimate(
    samples,
    cloud: SiteCloud,
    config: EstimatorConfig | None = None,
    seed: int = 0,
    c1: float = DEFAULT_C1,
    retries: int = DEFAULT_RETRIES,
    max_vertices: int = DEFAULT_MAX_VERTICES,
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
    embedding, attempts = build_embedding(
        cloud, c1=c1, retries=retries, max_vertices=max_vertices
    )
    padded = pad_samples(z, embedding, seed)
    estimate = estimate_precision(padded, embedding.shape, config)
    nodes = embedding.node_of_site
    site_matrix = symmetrize(estimate.matrix[np.ix_(nodes, nodes)])
    return ScatteredEstimate(
        matrix=site_matrix,
        embedding=embedding,
        b=estimate.b,
        path=estimate.path,
        seed=seed,
        attempts=attempts,
    )
