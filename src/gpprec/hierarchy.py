"""Maximin ordering and dyadic level assignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "MaximinOrdering",
    "LevelPartition",
    "maximin_order",
    "assign_levels",
]

H_SCALE = 0.5

# Candidates within this relative margin of the best distance count as tied;
# ties go to the smallest original index for determinism.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class MaximinOrdering:
    """Greedy farthest-point ordering with its selection distances.

    ``perm[i]`` is the original index of the site chosen at step ``i`` and
    ``ell[i]`` its distance to the earlier sites and the box boundary at
    selection time.  ``ell`` is nonincreasing.
    """

    perm: np.ndarray
    ell: np.ndarray

    @property
    def m(self) -> int:
        return self.perm.size


def maximin_order(cloud) -> MaximinOrdering:
    """Order sites by repeatedly taking the farthest from the chosen set.

    The first site maximizes the distance to the box boundary; each later
    site maximizes the distance to the boundary and all earlier sites.
    """
    sites = np.atleast_2d(np.asarray(cloud.sites, dtype=np.float64))
    m = sites.shape[0]
    dist = np.minimum(sites, 1.0 - sites).min(axis=1)
    chosen = np.zeros(m, dtype=bool)
    perm = np.empty(m, dtype=np.int64)
    ell = np.empty(m)
    for step in range(m):
        masked = np.where(chosen, -np.inf, dist)
        best = masked.max()
        pick = int(np.flatnonzero(masked >= best * (1.0 - _TIE_RTOL))[0])
        perm[step] = pick
        # Clamp away sub-ulp increases caused by the tie tolerance.
        ell[step] = dist[pick] if step == 0 else min(dist[pick], ell[step - 1])
        chosen[pick] = True
        gap = np.linalg.norm(sites - sites[pick], axis=1)
        dist = np.minimum(dist, gap)
    return MaximinOrdering(perm=perm, ell=ell)


@dataclass(frozen=True)
class LevelPartition:
    """Contiguous grouping of the maximin order into dyadic scales.

    Each level holds the positions whose selection distance lies in one
    dyadic band ``(scale0 * 2^-j, scale0 * 2^-(j-1)]``, ``scale0 =
    ell[0]``, and the nonempty bands are the levels ``1..q`` in order, so
    no level is empty: level ``k`` is band ``k`` unless a distance drops
    4x or more in one step, skipping a band.  ``offsets`` has length
    ``q + 1``; level ``k`` (1-based) is the slice ``offsets[k-1]:offsets[k]``
    of the ordering.
    """

    q: int
    offsets: np.ndarray
    level_of: np.ndarray

    @classmethod
    def from_sizes(cls, sizes) -> "LevelPartition":
        """Partition with the given level sizes, independent of any cloud.

        The sizes must be positive integers; a float or bool array raises
        ``InvalidInput`` rather than being truncated.
        """
        sizes = np.asarray(sizes)
        if not np.issubdtype(sizes.dtype, np.integer) or sizes.size < 1 or np.any(sizes < 1):
            raise InvalidInput(f"level sizes must be positive integers, got {sizes}")
        sizes = sizes.astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        level_of = np.repeat(np.arange(1, sizes.size + 1), sizes)
        return cls(q=int(sizes.size), offsets=offsets, level_of=level_of)

    @property
    def m(self) -> int:
        return self.level_of.size

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def level_slice(self, k: int) -> slice:
        if not 1 <= k <= self.q:
            raise InvalidInput(f"level {k} outside 1..{self.q}")
        return slice(int(self.offsets[k - 1]), int(self.offsets[k]))

    def prefix_size(self, k: int) -> int:
        """Number of sites in the first ``k`` levels."""
        if not 1 <= k <= self.q:
            raise InvalidInput(f"level {k} outside 1..{self.q}")
        return int(self.offsets[k])


def assign_levels(ordering: MaximinOrdering) -> LevelPartition:
    """Group the ordering into levels by halving distance thresholds.

    Position ``i`` lands in band ``floor(log2(scale0 / ell[i])) + 1``, and
    the nonempty bands, in order, are the levels.  Distances that increase
    anywhere raise ``InvalidInput``; as they are nonincreasing, the first
    position is band 1 and the bands never decrease, so levels are
    contiguous.
    """
    ell = ordering.ell
    if ell.size == 0:
        raise InvalidInput("ordering is empty")
    if not np.all((ell > 0) & (ell < np.inf)):
        raise InvalidInput("selection distances must be finite and positive")
    if np.any(np.diff(ell) > 0):
        raise InvalidInput("selection distances must be nonincreasing")
    scale0 = float(ell[0])
    # The epsilon absorbs representation error when ratios are exact powers.
    band = np.floor(np.log2(scale0 / ell) + 1e-9).astype(np.int64) + 1
    # A distance that drops 4x or more in one step skips a dyadic band, which
    # would leave its level empty; the nonempty bands are numbered in order.
    counts = np.bincount(band)[1:]
    return LevelPartition.from_sizes(counts[counts > 0])
