"""Cubic lattice bookkeeping: shapes, block partitions, neighborhoods.

Vertices of the ``d``-dimensional lattice carry 1-based coordinate tuples
``(t_1, ..., t_d)`` with each ``t_a`` in ``{1, ..., p}``.  Flat indices are
0-based and lexicographic in the coordinates with the last axis fastest,
so block restrictions slice contiguously along the final axis.  Vertex
sets are always kept sorted in flat order.

Everything here is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

__all__ = [
    "LatticeShape",
    "BlockScheme",
    "build_scheme",
    "neighborhood",
    "lattice_points",
]


@dataclass(frozen=True)
class LatticeShape:
    """Side length ``p`` and dimension ``d`` of the lattice ``{1..p}^d``."""

    p: int
    d: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise InvalidInput(f"d must be 1, 2 or 3, got {self.d}")
        if self.p < 1:
            raise InvalidInput(f"p must be at least 1, got {self.p}")

    @property
    def size(self) -> int:
        """Total vertex count ``p**d``."""
        return self.p**self.d

    def flat_index(self, t) -> int:
        """Flat index of coordinate tuple ``t`` (1-based entries)."""
        t = tuple(int(x) for x in t)
        if len(t) != self.d or any(not 1 <= x <= self.p for x in t):
            raise InvalidInput(f"coordinate {t} outside lattice of side {self.p}")
        flat = 0
        for x in t:
            flat = flat * self.p + (x - 1)
        return flat

    def coordinate(self, flat: int) -> tuple:
        """Coordinate tuple (1-based) of a flat index."""
        if not 0 <= flat < self.size:
            raise InvalidInput(f"flat index {flat} outside lattice of {self.size} vertices")
        out = []
        rest = int(flat)
        for _ in range(self.d):
            rest, r = divmod(rest, self.p)
            out.append(r + 1)
        return tuple(reversed(out))

    def coordinates(self) -> np.ndarray:
        """(size, d) array of all vertex coordinates in flat order."""
        grids = np.meshgrid(*([np.arange(1, self.p + 1)] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def lattice_points(shape: LatticeShape) -> np.ndarray:
    """Positions ``t / (p + 1)`` of all vertices, in flat order."""
    return shape.coordinates().astype(np.float64) / (shape.p + 1)


@dataclass(frozen=True)
class BlockScheme:
    """Partition of a lattice into axis-aligned blocks of width ``b``.

    ``intervals[j-1]`` holds the 1-based coordinates of axis interval
    ``I_j``; the last interval may be shorter than ``b``.  ``membership``
    maps each block index tuple to its sorted flat vertex array.
    """

    shape: LatticeShape
    b: int
    S: int
    intervals: tuple = field(repr=False)
    membership: dict = field(repr=False)

    def block_indices(self):
        """All block index tuples in lexicographic order."""
        return itertools.product(range(1, self.S + 1), repeat=self.shape.d)

    def validate_block(self, j) -> tuple:
        j = tuple(int(x) for x in j)
        if len(j) != self.shape.d or any(not 1 <= x <= self.S for x in j):
            raise InvalidInput(f"block index {j} outside grid of side {self.S}")
        return j


def build_scheme(p: int, b: int, d: int) -> BlockScheme:
    """Partition ``{1..p}^d`` into blocks ``I_{j_1} x ... x I_{j_d}``.

    Axis intervals are ``I_j = {(j-1)b+1, ..., jb}`` for ``j < S`` and
    ``I_S = {(S-1)b+1, ..., p}`` with ``S = ceil(p / b)``.
    """
    shape = LatticeShape(p=p, d=d)
    if not 1 <= b <= p:
        raise InvalidInput(f"block width must satisfy 1 <= b <= p, got b={b}, p={p}")
    s = -(-p // b)
    intervals = tuple(
        np.arange((j - 1) * b + 1, min(j * b, p) + 1) for j in range(1, s + 1)
    )
    # A box of the flat-index grid, read in C order, is its block's
    # vertex set already sorted in flat order.
    grid = np.arange(shape.size, dtype=np.int64).reshape((p,) * d)
    boxes = [slice((j - 1) * b, min(j * b, p)) for j in range(1, s + 1)]
    membership = {
        j: grid[tuple(boxes[x - 1] for x in j)].ravel()
        for j in itertools.product(range(1, s + 1), repeat=d)
    }
    return BlockScheme(shape=shape, b=b, S=s, intervals=intervals, membership=membership)


def neighborhood(scheme: BlockScheme, j, lam: int):
    """Blocks within sup-distance ``lam`` of ``j`` and their joint vertices.

    Returns ``(blocks, vertices)`` where ``blocks`` is a lexicographically
    sorted tuple of block index tuples and ``vertices`` the sorted flat
    vertex array of their union.
    """
    j = scheme.validate_block(j)
    if lam < 0:
        raise InvalidInput(f"neighborhood radius must be nonnegative, got {lam}")
    ranges = [range(max(1, x - lam), min(scheme.S, x + lam) + 1) for x in j]
    blocks = tuple(itertools.product(*ranges))
    vertices = np.sort(np.concatenate([scheme.membership[jj] for jj in blocks]))
    return blocks, vertices
