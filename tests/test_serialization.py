"""Text formats round-trip exactly in float64."""

import numpy as np
import pytest

from gpprec import serialization as ser
from gpprec.cholesky import exact_block_factor
from gpprec.errors import InvalidInput
from gpprec.hierarchy import LevelPartition, assign_levels, maximin_order
from gpprec.matching import measure_cloud
from gpprec.truth import build_lattice_precision
from gpprec.verify import random_spd


class TestMatrixFormat:
    def test_round_trip_exact(self, rng):
        a = rng.standard_normal((5, 5)) * np.exp(rng.uniform(-20, 20, (5, 5)))
        text = ser.format_matrix(a)
        assert text.splitlines()[0] == "5"
        np.testing.assert_array_equal(ser.parse_matrix(text), a)

    def test_file_round_trip(self, rng, tmp_path):
        a = rng.standard_normal((4, 4))
        path = tmp_path / "m.txt"
        ser.save_matrix(path, a)
        np.testing.assert_array_equal(ser.load_matrix(path), a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            ser.parse_matrix("2\n1.0 2.0\n")


class TestSamplesFormat:
    def test_round_trip(self, rng):
        z = rng.standard_normal((7, 3))
        np.testing.assert_array_equal(ser.parse_samples(ser.format_samples(z)), z)

    def test_metadata_lines_ignored(self, rng):
        z = rng.standard_normal((2, 2))
        text = "# seed=5\n" + ser.format_samples(z)
        np.testing.assert_array_equal(ser.parse_samples(text), z)


class TestSitesFormat:
    def test_round_trip_recomputes_measurements(self):
        cloud = measure_cloud(np.array([0.2, 0.5, 0.8]), 1)
        back = ser.parse_sites(ser.format_sites(cloud))
        np.testing.assert_array_equal(back.sites, cloud.sites)
        assert back.h == cloud.h
        assert back.delta == cloud.delta


class TestOrderingFormat:
    def test_round_trip(self):
        cloud = measure_cloud(np.array([0.2, 0.45, 0.5, 0.8]), 1)
        ordering = maximin_order(cloud)
        levels = assign_levels(ordering)
        text = ser.format_ordering(ordering, levels)
        back_ord, back_lev = ser.parse_ordering(text)
        np.testing.assert_array_equal(back_ord.perm, ordering.perm)
        np.testing.assert_array_equal(back_ord.ell, ordering.ell)
        assert back_lev.q == levels.q
        np.testing.assert_array_equal(back_lev.level_of, levels.level_of)


class TestFactorFormat:
    def test_round_trip(self, rng):
        levels = LevelPartition.from_sizes([2, 3, 2])
        omega = random_spd(rng, 7, 40.0)
        u = exact_block_factor(omega, levels, d=2)
        back, back_levels, back_d = ser.parse_factor(ser.format_factor(u, levels, 2))
        assert back_d == 2
        assert back_levels.q == 3
        np.testing.assert_array_equal(back_levels.offsets, levels.offsets)
        np.testing.assert_array_equal(back, u)

    def test_golden_text(self):
        omega = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        levels = LevelPartition.from_sizes([1, 2])
        u = exact_block_factor(omega, levels, d=1)
        text = ser.format_factor(u, levels, 1)
        assert text == (
            "3 2 1\n"
            "1 2\n"
            "1 1 1 1\n"
            "1.8973665961010278\n"
            "2 1 2 1\n"
            "0.63245553203367588\n"
            "0\n"
            "2 2 2 2\n"
            "1.5811388300841898 0\n"
            "0.70710678118654746 1.4142135623730951\n"
        )
        back, _, _ = ser.parse_factor(text)
        np.testing.assert_array_equal(back, u)

    @pytest.mark.parametrize(
        "block_line", ["1 2 1 2", "3 1 1 1", "2 1 1 1"], ids=["above", "outside", "shape"]
    )
    def test_misplaced_block_rejected(self, block_line):
        # Each block is well formed by its own dims; level sizes are 1 and 2,
        # so a 1 x 1 block (2, 1) would otherwise broadcast into a 2 x 1 slot.
        rows, cols = (int(v) for v in block_line.split()[2:])
        text = "3 2 1\n1 2\n" + block_line + "\n" + (" ".join(["1"] * cols) + "\n") * rows
        with pytest.raises(InvalidInput):
            ser.parse_factor(text)


class TestTruthFormat:
    def test_round_trip_with_metadata(self):
        truth = build_lattice_precision(5, 1, 2)
        text = ser.format_truth(truth)
        meta, sigma, omega = ser.parse_truth(text)
        assert meta["model_tag"] == "laplacian_power"
        assert meta["seed_policy"] == "philox64"
        assert float(meta["kappa"]) == truth.kappa
        np.testing.assert_array_equal(sigma, truth.sigma)
        np.testing.assert_array_equal(omega, truth.omega)
