"""Maximin ordering and level assignment."""

import numpy as np
import pytest

from gpprec.errors import InvalidInput
from gpprec.hierarchy import LevelPartition, assign_levels, maximin_order
from gpprec.lattice import LatticeShape, lattice_points
from gpprec.matching import measure_cloud


def dyadic_cloud(q, d=1):
    """Lattice cloud with side 2**q - 1, whose maximin levels are dyadic."""
    shape = LatticeShape(p=2**q - 1, d=d)
    return measure_cloud(lattice_points(shape), d)


class TestMaximinOrder:
    def test_three_sites_by_hand(self):
        cloud = measure_cloud(np.array([0.5, 0.2, 0.9]), 1)
        ordering = maximin_order(cloud)
        np.testing.assert_array_equal(ordering.perm, [0, 1, 2])
        np.testing.assert_allclose(ordering.ell, [0.5, 0.2, 0.1])

    def test_single_site(self):
        ordering = maximin_order(measure_cloud(np.array([0.3]), 1))
        np.testing.assert_array_equal(ordering.perm, [0])
        assert ordering.ell[0] == pytest.approx(0.3)

    def test_tie_breaks_by_lowest_index(self):
        # Boundary distances of 0.3 and 0.7 are equal up to roundoff; the
        # lower original index must win.
        ordering = maximin_order(measure_cloud(np.array([0.3, 0.7]), 1))
        assert ordering.perm[0] == 0

    def test_ell_nonincreasing_randomized(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 40))
            sites = rng.uniform(0.02, 0.98, size=(m, 2))
            try:
                cloud = measure_cloud(sites, 2)
            except Exception:
                continue
            ordering = maximin_order(cloud)
            assert np.all(np.diff(ordering.ell) <= 0)
            assert np.array_equal(np.sort(ordering.perm), np.arange(m))

    def test_dyadic_lattice_order(self):
        cloud = dyadic_cloud(3)
        ordering = maximin_order(cloud)
        assert cloud.sites[ordering.perm[0], 0] == pytest.approx(0.5)
        np.testing.assert_allclose(np.unique(ordering.ell), [0.125, 0.25, 0.5])


class TestLevelPartition:
    @pytest.mark.parametrize("sizes", [[2.5, 1], [2.0, 1], [True, True], []])
    def test_non_integer_or_empty_sizes_refused(self, sizes):
        # The int64 cast would truncate [2.5, 1] to [2, 1].
        with pytest.raises(InvalidInput):
            LevelPartition.from_sizes(sizes)

    def test_numpy_integer_sizes_accepted(self):
        levels = LevelPartition.from_sizes(np.array([2, 1], dtype=np.int32))
        assert levels.q == 2
        np.testing.assert_array_equal(levels.sizes(), [2, 1])


class TestAssignLevels:
    def test_all_equal_is_single_level(self):
        from gpprec.hierarchy import MaximinOrdering

        ordering = MaximinOrdering(perm=np.arange(4), ell=np.full(4, 0.3))
        levels = assign_levels(ordering)
        assert levels.q == 1
        np.testing.assert_array_equal(levels.level_of, [1, 1, 1, 1])

    def test_halving_gives_one_point_per_level(self):
        from gpprec.hierarchy import MaximinOrdering

        ell = 0.5 * np.power(0.5, np.arange(6))
        ordering = MaximinOrdering(perm=np.arange(6), ell=ell)
        levels = assign_levels(ordering)
        assert levels.q == 6
        np.testing.assert_array_equal(levels.level_of, np.arange(1, 7))

    def test_recorded_irregular_split(self):
        # ell = (0.4, 0.22, 0.11, 0.06): log2 ratios are (0, 0.86, 1.86,
        # 2.74), so the realized split is q=3 with sizes (2, 1, 1).
        from gpprec.hierarchy import MaximinOrdering

        ordering = MaximinOrdering(perm=np.arange(4), ell=np.array([0.4, 0.22, 0.11, 0.06]))
        levels = assign_levels(ordering)
        assert levels.q == 3
        np.testing.assert_array_equal(levels.level_of, [1, 1, 2, 3])
        np.testing.assert_array_equal(levels.sizes(), [2, 1, 1])

    def test_skipped_band_leaves_no_empty_level(self):
        # ell = (0.5, 0.1): the distance drops 5x, past the band (0.125,
        # 0.25], so the two nonempty bands are levels 1 and 2, not 1 and 3
        # with an empty level 2.
        from gpprec.hierarchy import MaximinOrdering

        ordering = MaximinOrdering(perm=np.arange(2), ell=np.array([0.5, 0.1]))
        levels = assign_levels(ordering)
        assert levels.q == 2
        np.testing.assert_array_equal(levels.level_of, [1, 2])
        np.testing.assert_array_equal(levels.sizes(), [1, 1])

    def test_increasing_distances_refused(self):
        # Clipping once lifted the band 0 of the larger distance into level 1,
        # which returned levels [1, 1, 2] for this ordering.
        from gpprec.hierarchy import MaximinOrdering

        ordering = MaximinOrdering(perm=np.arange(3), ell=np.array([1.0, 2.0, 0.4]))
        with pytest.raises(InvalidInput, match="nonincreasing"):
            assign_levels(ordering)

    @pytest.mark.parametrize("ell", [[1.0, np.nan], [np.inf, 1.0], [1.0, 0.0]])
    def test_distances_not_finite_and_positive_refused(self, ell):
        # A NaN or infinite distance has no dyadic band.
        from gpprec.hierarchy import MaximinOrdering

        ordering = MaximinOrdering(perm=np.arange(2), ell=np.array(ell))
        with pytest.raises(InvalidInput, match="finite and positive"):
            assign_levels(ordering)

    def test_dyadic_levels(self):
        cloud = dyadic_cloud(4)
        levels = assign_levels(maximin_order(cloud))
        assert levels.q == 4
        np.testing.assert_array_equal(levels.sizes(), [1, 2, 4, 8])

    def test_level_contiguity_randomized(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 50))
            sites = rng.uniform(0.03, 0.97, size=m)
            cloud = measure_cloud(np.unique(sites), 1)
            levels = assign_levels(maximin_order(cloud))
            assert np.all(np.diff(levels.level_of) >= 0)
            assert levels.level_of[0] == 1
            assert levels.offsets[-1] == cloud.m

    def test_prefix_cover_property(self):
        # The first k levels cover the domain at distance scale0 / 2**k,
        # up to the resolution of the evaluation grid.
        cloud = dyadic_cloud(5)
        ordering = maximin_order(cloud)
        levels = assign_levels(ordering)
        scale0 = ordering.ell[0]
        grid = np.linspace(0.0, 1.0, 4096)[:, None]
        ordered_sites = cloud.sites[ordering.perm]
        for k in range(1, levels.q + 1):
            prefix = ordered_sites[: levels.prefix_size(k)]
            cover = np.max(np.min(np.abs(grid - prefix.ravel()[None, :]), axis=1))
            assert cover <= scale0 * 0.5 ** (k - 1) * 1.001
