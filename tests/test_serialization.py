"""Text formats round-trip exactly in float64."""

import numpy as np
import pytest

from gpprec import serialization as ser
from gpprec.errors import InvalidInput
from gpprec.hierarchy import assign_levels, maximin_order
from gpprec.matching import measure_cloud
from gpprec.truth import build_lattice_precision


def test_rows_match_per_value_join():
    # One % per row on a row-wide format string writes the text of joining
    # each value's own %.17g: signed zeros, subnormals, the float64 extremes
    # and integral values included.
    a = np.array([
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-309],
        [1e308, -1e308, np.finfo(np.float64).max, 3.0],
        [-7.0, 1.0 / 3.0, 2.0**53, -1e-300],
    ])
    want = [" ".join("%.17g" % v for v in row) for row in a]
    assert ser._rows(a) == want
    assert ser._rows(a[0]) == want[:1]


class TestMatrixFormat:
    def test_round_trip_exact(self, rng):
        a = rng.standard_normal((5, 5)) * np.exp(rng.uniform(-20, 20, (5, 5)))
        text = ser.format_matrix(a)
        assert text.splitlines()[0] == "5"
        np.testing.assert_array_equal(ser.parse_matrix(text), a)

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


class TestMalformedText:
    @pytest.mark.parametrize(
        "parse, text",
        [
            pytest.param(ser.parse_matrix, "", id="empty"),
            pytest.param(ser.parse_samples, "# seed=5\n\n", id="metadata-only"),
            pytest.param(ser.parse_samples, "2\n1 2\n3 4\n", id="short-header"),
            pytest.param(ser.parse_samples, "2 2\n1 2\n3\n", id="ragged-row"),
            pytest.param(ser.parse_sites, "1 2\n0.2\n0.4 0.6\n", id="ragged-site"),
            pytest.param(ser.parse_matrix, "2\n1 x\n3 4\n", id="non-numeric-entry"),
            pytest.param(ser.parse_matrix, "2.0\n1 2\n3 4\n", id="non-integer-header"),
            pytest.param(ser.parse_ordering, "2 1\n0 1 0.5\n1 one 0.25\n", id="non-numeric-level"),
            pytest.param(ser.parse_samples, "0 -1\n", id="negative-width"),
            pytest.param(ser.parse_samples, "3 2\n1 2\n3 4\n", id="fewer-rows-than-header"),
            pytest.param(ser.parse_matrix, "1\n1\n2\n", id="more-rows-than-header"),
            pytest.param(ser.parse_ordering, "3 1\n0 1 0.5\n", id="fewer-ordering-rows"),
            pytest.param(ser.parse_ordering, "1 1\n0 1 0.5\n1 1 0.25\n", id="more-ordering-rows"),
            pytest.param(ser.parse_ordering, "2 1\n0 1 0.5\n1 2 0.25\n", id="level-above-q"),
            pytest.param(ser.parse_ordering, "2 2\n0 2 0.5\n1 1 0.25\n", id="levels-decrease"),
            pytest.param(ser.parse_ordering, "2 1\n5 1 0.5\n5 1 -1\n", id="index-out-of-range"),
            pytest.param(ser.parse_ordering, "2 1\n1 1 0.5\n1 1 0.25\n", id="repeated-index"),
            pytest.param(ser.parse_ordering, "2 1\n0 1 0.5\n1 1 -1\n", id="negative-distance"),
            pytest.param(ser.parse_ordering, "1 1\n0 1 0\n", id="zero-distance"),
            pytest.param(ser.parse_ordering, "1 1\n0 1 nan\n", id="nan-distance"),
            pytest.param(ser.parse_ordering, "2 1\n0 1 0.25\n1 1 0.5\n", id="distances-increase"),
            pytest.param(ser.parse_ordering, "1 3\n0 1 0.5\n", id="empty-last-level"),
            pytest.param(ser.parse_ordering, "2 2\n0 2 0.5\n1 2 0.25\n", id="empty-first-level"),
            pytest.param(ser.parse_ordering, "2 3\n0 1 0.5\n1 3 0.1\n", id="empty-middle-level"),
            pytest.param(ser.parse_ordering, "0 1\n", id="empty-ordering"),
        ],
    )
    def test_malformed_text_raises_invalid_input(self, parse, text):
        with pytest.raises(InvalidInput):
            parse(text)

    def test_empty_samples_round_trip(self):
        z = np.empty((0, 3))
        assert ser.parse_samples(ser.format_samples(z)).shape == (0, 3)


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
