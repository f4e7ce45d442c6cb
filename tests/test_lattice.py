"""Lattice shapes, block partitions and their window boxes."""

import numpy as np
import pytest

from gpprec.errors import InvalidInput
from gpprec.lattice import (
    LatticeShape,
    build_scheme,
    lattice_points,
)
from oracle import block_vertices, window_vertices


def vertices(scheme, j, radius=0):
    """Flat vertices of the box of block ``j`` at ``radius``, read in C order."""
    grid = np.arange(scheme.shape.size).reshape((scheme.shape.p,) * scheme.shape.d)
    return grid[scheme.box(j, radius)].ravel()


class TestLatticeShape:
    def test_flat_round_trip(self):
        shape = LatticeShape(p=4, d=2)
        flat = np.ravel_multi_index(tuple(shape.coordinates().T - 1), (4, 4))
        np.testing.assert_array_equal(flat, np.arange(shape.size))

    def test_last_axis_fastest(self):
        coords = LatticeShape(p=3, d=2).coordinates()
        assert tuple(coords[0]) == (1, 1)
        assert tuple(coords[1]) == (1, 2)
        assert tuple(coords[3]) == (2, 1)

    def test_coordinates_in_flat_order(self):
        shape = LatticeShape(p=3, d=3)
        coords = shape.coordinates()
        for flat in range(shape.size):
            want = np.unravel_index(flat, (3, 3, 3))
            assert tuple(coords[flat]) == tuple(int(x) + 1 for x in want)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidInput):
            LatticeShape(p=3, d=4)

    @pytest.mark.parametrize(
        "p, d",
        [(2.5, 1), (4, 2.0), (True, 1), (4.0, 1), ("3", 1), (3, True), (None, 1), (3, "2"),
         (3, 0), (3, 1.5)],
    )
    def test_non_integer_side_or_dimension_refused(self, p, d):
        # A float side or dimension would give a float size: 2.5, or 16.0 for 4 ** 2.0.
        with pytest.raises(InvalidInput):
            LatticeShape(p=p, d=d)

    def test_numpy_integers_accepted(self):
        shape = LatticeShape(p=np.int64(4), d=np.int32(2))
        assert shape.size == 16
        assert build_scheme(np.int64(10), np.int16(3), np.uint8(1)).S == 4

    def test_positions(self):
        shape = LatticeShape(p=3, d=1)
        np.testing.assert_allclose(lattice_points(shape).ravel(), [0.25, 0.5, 0.75])


class TestBuildScheme:
    @pytest.mark.parametrize("b", [2.5, 3.0, True, None, 0, 11])
    def test_width_outside_one_to_p_refused(self, b):
        # b = 2.5 would give S = 4.0.
        with pytest.raises(InvalidInput):
            build_scheme(10, b, 1)

    def test_short_last_interval(self):
        scheme = build_scheme(p=5, b=2, d=1)
        assert scheme.S == 3
        assert scheme.box((1,)) == (slice(0, 2),)
        assert scheme.box((2,)) == (slice(2, 4),)
        assert scheme.box((3,)) == (slice(4, 5),)

    def test_single_block_covers_everything(self):
        scheme = build_scheme(p=4, b=4, d=2)
        assert scheme.S == 1
        assert vertices(scheme, (1, 1)).size == 16

    def test_partition_exhaustive(self):
        scheme = build_scheme(p=6, b=2, d=2)
        blocks = list(scheme.block_indices())
        assert len(blocks) == 9
        seen = np.concatenate([vertices(scheme, j) for j in blocks])
        assert seen.size == 36
        assert np.unique(seen).size == 36
        for j in blocks:
            assert vertices(scheme, j).size == 4

    def test_partition_property_randomized(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(1, 9 if d == 3 else 14))
            b = int(rng.integers(1, p + 1))
            scheme = build_scheme(p, b, d)
            sizes = [vertices(scheme, j).size for j in scheme.block_indices()]
            union = np.concatenate([vertices(scheme, j) for j in scheme.block_indices()])
            assert sum(sizes) == p**d
            assert np.unique(union).size == p**d
            assert all(1 <= s <= b**d for s in sizes)

    @pytest.mark.parametrize("p,b,d", [(10, 3, 1), (7, 3, 2), (22, 3, 2), (7, 3, 3), (5, 2, 3)])
    def test_membership_matches_meshgrid(self, p, b, d):
        # Reference: each block's coordinate product, flattened and sorted.
        scheme = build_scheme(p, b, d)
        for j in scheme.block_indices():
            axes = [np.arange((x - 1) * b + 1, min(x * b, p) + 1) for x in j]
            grids = np.meshgrid(*axes, indexing="ij")
            coords = np.stack([g.ravel() for g in grids], axis=1)
            flat = np.zeros(coords.shape[0], dtype=np.int64)
            for a in range(d):
                flat = flat * p + (coords[:, a] - 1)
            got = vertices(scheme, j)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.sort(flat))

    def test_invalid_width(self):
        with pytest.raises(InvalidInput):
            build_scheme(p=4, b=5, d=1)
        with pytest.raises(InvalidInput):
            build_scheme(p=4, b=0, d=1)


class TestNeighborhood:
    """``BlockScheme.box``: the blocks within a sup-distance of a block, as one box."""

    @pytest.mark.parametrize(
        "p,b,d", [(23, 3, 1), (10, 4, 1), (14, 3, 2), (11, 2, 2), (7, 2, 3), (8, 3, 3)]
    )
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_matches_tuple_union(self, p, b, d, radius):
        # Ragged shapes: the last block is shorter than b on every axis.
        scheme = build_scheme(p, b, d)
        for j in scheme.block_indices():
            got = vertices(scheme, j, radius)
            np.testing.assert_array_equal(got, window_vertices(scheme, j, radius))

    def test_clipped_at_boundary(self):
        scheme = build_scheme(p=5, b=2, d=1)
        assert scheme.box((1,), 1) == (slice(0, 4),)
        np.testing.assert_array_equal(vertices(scheme, (1,), 1), [0, 1, 2, 3])

    def test_full_interior_window(self):
        # An interior radius-2 window holds (5b)^d vertices.
        scheme = build_scheme(p=10, b=2, d=2)
        assert vertices(scheme, (3, 3), 2).size == (5 * 2) ** 2

    def test_radius_zero_is_the_block(self):
        scheme = build_scheme(p=7, b=2, d=2)
        for j in scheme.block_indices():
            assert scheme.box(j) == scheme.box(j, 0)
            np.testing.assert_array_equal(vertices(scheme, j), block_vertices(scheme, j))

    def test_monotone_in_radius(self, rng):
        scheme = build_scheme(p=9, b=2, d=2)
        for _ in range(10):
            j = tuple(rng.integers(1, scheme.S + 1, size=2))
            w0, w1, w2 = (vertices(scheme, j, r) for r in (0, 1, 2))
            assert np.isin(w0, w1).all()
            assert np.isin(w1, w2).all()

    def test_size_bound(self):
        scheme = build_scheme(p=12, b=2, d=2)
        for lam in (0, 1, 2):
            for j in scheme.block_indices():
                assert vertices(scheme, j, lam).size <= ((2 * lam + 1) * 2) ** 2
        assert vertices(scheme, (3, 3), 2).size == 10**2

    def test_invalid_block(self):
        scheme = build_scheme(p=5, b=2, d=1)
        for j, radius in (((4,), 1), ((0,), 0), ((1, 1), 0), ((1,), -1)):
            with pytest.raises(InvalidInput):
                scheme.box(j, radius)
