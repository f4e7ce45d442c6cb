"""Cubic lattice bookkeeping: shapes and block partitions.

Vertices of the ``d``-dimensional lattice carry 1-based coordinate tuples
``(t_1, ..., t_d)`` with each ``t_a`` in ``{1, ..., p}``.  Flat indices are
0-based and lexicographic in the coordinates with the last axis fastest:
the flat index of a vertex is its entry in the grid
``arange(p**d).reshape((p,) * d)``.  A box of that grid, read in C order,
is therefore a vertex set sorted in flat order, and blocks and their
windows are such boxes (:meth:`BlockScheme.box`).

Everything here is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, _check_dimension, _check_integer

__all__ = [
    "LatticeShape",
    "BlockScheme",
    "build_scheme",
    "lattice_points",
]


@dataclass(frozen=True)
class LatticeShape:
    """Side length ``p`` and dimension ``d`` of the lattice ``{1..p}^d``.

    Both are integers (numpy integers included); a bool, a float, a ``p``
    below 1 or a ``d`` outside 1, 2, 3 raises ``InvalidInput``.
    """

    p: int
    d: int

    def __post_init__(self):
        _check_dimension(self.d)
        _check_integer(self.p, "p")

    @property
    def size(self) -> int:
        """Total vertex count ``p**d``."""
        return self.p**self.d

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

    Block ``j = (j_1, ..., j_d)``, ``1 <= j_a <= S``, holds the coordinates
    ``(j_a - 1) b + 1, ..., min(j_a b, p)`` on each axis, so the last
    blocks may be shorter than ``b``.
    """

    shape: LatticeShape
    b: int
    S: int

    def block_indices(self):
        """All block index tuples in lexicographic order."""
        return itertools.product(range(1, self.S + 1), repeat=self.shape.d)

    def box(self, j, radius: int = 0) -> tuple:
        """Per-axis slices of the blocks within sup-distance ``radius`` of block ``j``.

        Axis ``a`` spans ``max(0, (j_a - 1 - radius) b) : min(p, (j_a + radius) b)``
        of the flat-index grid.  The radius-0 box is the block itself.
        """
        j = tuple(int(x) for x in j)
        if len(j) != self.shape.d or any(not 1 <= x <= self.S for x in j):
            raise InvalidInput(f"block index {j} outside grid of side {self.S}")
        if radius < 0:
            raise InvalidInput(f"window radius must be nonnegative, got {radius}")
        p, b = self.shape.p, self.b
        return tuple(slice(max(0, (x - 1 - radius) * b), min(p, (x + radius) * b)) for x in j)


def build_scheme(p: int, b: int, d: int) -> BlockScheme:
    """Partition ``{1..p}^d`` into blocks of width ``b``, ``S = ceil(p / b)`` per axis.

    A ``b`` that is not an integer in ``1..p`` raises ``InvalidInput``.
    """
    shape = LatticeShape(p=p, d=d)
    _check_integer(b, "block width")
    if b > p:
        raise InvalidInput(f"block width must satisfy 1 <= b <= p, got b={b}, p={p}")
    return BlockScheme(shape=shape, b=b, S=-(-p // b))
