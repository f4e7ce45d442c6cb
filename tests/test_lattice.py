"""Lattice partition and neighborhood bookkeeping."""

import numpy as np
import pytest

from gpprec.errors import InvalidInput
from gpprec.lattice import (
    LatticeShape,
    build_scheme,
    lattice_points,
    neighborhood,
)


class TestLatticeShape:
    def test_flat_round_trip(self):
        shape = LatticeShape(p=4, d=2)
        for flat in range(shape.size):
            assert shape.flat_index(shape.coordinate(flat)) == flat

    def test_last_axis_fastest(self):
        shape = LatticeShape(p=3, d=2)
        assert shape.flat_index((1, 1)) == 0
        assert shape.flat_index((1, 2)) == 1
        assert shape.flat_index((2, 1)) == 3

    def test_coordinates_in_flat_order(self):
        shape = LatticeShape(p=3, d=2)
        coords = shape.coordinates()
        for flat in range(shape.size):
            assert tuple(coords[flat]) == shape.coordinate(flat)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidInput):
            LatticeShape(p=3, d=4)

    def test_positions(self):
        shape = LatticeShape(p=3, d=1)
        np.testing.assert_allclose(lattice_points(shape).ravel(), [0.25, 0.5, 0.75])


class TestBuildScheme:
    def test_short_last_interval(self):
        scheme = build_scheme(p=5, b=2, d=1)
        assert scheme.S == 3
        np.testing.assert_array_equal(scheme.intervals[0], [1, 2])
        np.testing.assert_array_equal(scheme.intervals[1], [3, 4])
        np.testing.assert_array_equal(scheme.intervals[2], [5])

    def test_single_block_covers_everything(self):
        scheme = build_scheme(p=4, b=4, d=2)
        assert scheme.S == 1
        assert scheme.membership[(1, 1)].size == 16

    def test_partition_exhaustive(self):
        scheme = build_scheme(p=6, b=2, d=2)
        blocks = list(scheme.block_indices())
        assert len(blocks) == 9
        seen = np.concatenate([scheme.membership[j] for j in blocks])
        assert seen.size == 36
        assert np.unique(seen).size == 36
        for j in blocks:
            assert scheme.membership[j].size == 4

    def test_partition_property_randomized(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(1, 9 if d == 3 else 14))
            b = int(rng.integers(1, p + 1))
            scheme = build_scheme(p, b, d)
            sizes = [scheme.membership[j].size for j in scheme.block_indices()]
            union = np.concatenate([scheme.membership[j] for j in scheme.block_indices()])
            assert sum(sizes) == p**d
            assert np.unique(union).size == p**d
            assert all(1 <= s <= b**d for s in sizes)

    @pytest.mark.parametrize("p,b,d", [(10, 3, 1), (7, 3, 2), (22, 3, 2), (7, 3, 3), (5, 2, 3)])
    def test_membership_matches_meshgrid(self, p, b, d):
        # Reference: each block's coordinate product, flattened and sorted.
        scheme = build_scheme(p, b, d)
        for j in scheme.block_indices():
            axes = [scheme.intervals[x - 1] for x in j]
            grids = np.meshgrid(*axes, indexing="ij")
            coords = np.stack([g.ravel() for g in grids], axis=1)
            flat = np.zeros(coords.shape[0], dtype=np.int64)
            for a in range(d):
                flat = flat * p + (coords[:, a] - 1)
            got = scheme.membership[j]
            assert got.dtype == np.int64
            assert np.array_equal(got, np.sort(flat))

    def test_invalid_width(self):
        with pytest.raises(InvalidInput):
            build_scheme(p=4, b=5, d=1)
        with pytest.raises(InvalidInput):
            build_scheme(p=4, b=0, d=1)


class TestNeighborhood:
    def test_clipped_at_boundary(self):
        scheme = build_scheme(p=5, b=2, d=1)
        blocks, vertices = neighborhood(scheme, (1,), 1)
        assert blocks == ((1,), (2,))
        np.testing.assert_array_equal(vertices, [0, 1, 2, 3])

    def test_full_interior_window(self):
        scheme = build_scheme(p=10, b=2, d=2)
        blocks, _ = neighborhood(scheme, (3, 3), 2)
        assert len(blocks) == 25

    def test_radius_zero_is_the_block(self):
        scheme = build_scheme(p=6, b=2, d=2)
        for j in scheme.block_indices():
            blocks, vertices = neighborhood(scheme, j, 0)
            assert blocks == (j,)
            np.testing.assert_array_equal(vertices, scheme.membership[j])

    def test_monotone_in_radius(self, rng):
        scheme = build_scheme(p=9, b=2, d=2)
        for _ in range(10):
            j = tuple(rng.integers(1, scheme.S + 1, size=2))
            _, w1 = neighborhood(scheme, j, 1)
            _, w2 = neighborhood(scheme, j, 2)
            assert np.isin(w1, w2).all()

    def test_size_bound(self, rng):
        scheme = build_scheme(p=12, b=2, d=2)
        for lam in (0, 1, 2):
            for j in scheme.block_indices():
                blocks, _ = neighborhood(scheme, j, lam)
                assert len(blocks) <= (2 * lam + 1) ** 2
        interior = (3, 3)
        blocks, _ = neighborhood(scheme, interior, 2)
        assert len(blocks) == 25

    def test_invalid_block(self):
        scheme = build_scheme(p=5, b=2, d=1)
        with pytest.raises(InvalidInput):
            neighborhood(scheme, (4,), 1)
