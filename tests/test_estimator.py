"""Blockwise lattice estimator: window bias, assembly, routes, regression view."""

import math

import numpy as np
import pytest

from gpprec import estimator as estimator_module
from gpprec.errors import InvalidInput, LocalSingular, NotPositiveDefinite
from gpprec.estimator import (
    BLOCKWISE,
    FALLBACK,
    EstimatorConfig,
    _band_gram,
    choose_block_size,
    estimate_precision,
    ols_plugin_row,
)
from gpprec.lattice import LatticeShape, build_scheme, neighborhood
from gpprec.linalg import sample_covariance, spd_inverse, spectral_norm, symmetrize
from gpprec.truth import GroundTruth, build_green_restriction, build_lattice_precision, sample
from gpprec.matching import measure_cloud
from oracle import assemble, reference_estimate, window_block


def banded_block_truth(p, b, rng):
    """SPD matrix whose support lies inside the one-block band of the scheme."""
    scheme = build_scheme(p, b, 1)
    mask = np.zeros((p, p), dtype=bool)
    for j in scheme.block_indices():
        near, _ = neighborhood(scheme, j, 1)
        for jp in near:
            mask[np.ix_(scheme.membership[j], scheme.membership[jp])] = True
    base = symmetrize(rng.standard_normal((p, p))) * 0.2
    omega = symmetrize(np.where(mask, base, 0.0) + np.eye(p) * (2.0 + p * 0.05))
    return scheme, omega


def dense_lattice_truth(p=40, s=2):
    """Dense, exponentially decaying precision on a 1-d lattice geometry."""
    fine_m = 2 * (p + 1) - 1
    sites = np.arange(2, fine_m + 1, 2) / (fine_m + 1)
    cloud = measure_cloud(sites, 1)
    return build_green_restriction(fine_m, 1, s, cloud)


class TestChooseBlockSize:
    def test_floor_at_one(self):
        assert choose_block_size(1, 1.0) == 1

    def test_log_twenty(self):
        assert choose_block_size(20, 1.0) == 3

    def test_log_ten_thousand(self):
        assert choose_block_size(100, 100.0) == 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            choose_block_size(0, 1.0)
        with pytest.raises(InvalidInput):
            choose_block_size(10, 0.5)


class TestLocalEstimate:
    """Local window blocks: the oracle's population blocks against the truth."""

    def test_diagonal_precision_recovered_exactly(self):
        p, b = 12, 2
        scheme = build_scheme(p, b, 1)
        omega = np.diag(np.linspace(1.0, 3.0, p))
        sigma = np.diag(1.0 / np.diag(omega))
        for j in scheme.block_indices():
            t_jj = window_block(sigma, scheme, j, j)
            np.testing.assert_allclose(
                t_jj, omega[np.ix_(scheme.membership[j], scheme.membership[j])], atol=1e-12
            )

    def test_full_window_is_exact(self):
        # p <= 5b makes every window the whole lattice, so the population
        # inverse reproduces the truth block by block.
        truth = build_lattice_precision(10, 1, 2)
        scheme = build_scheme(10, 2, 1)
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                t_block = window_block(truth.sigma, scheme, j, jp)
                want = truth.omega[np.ix_(scheme.membership[j], scheme.membership[jp])]
                assert np.max(np.abs(t_block - want)) <= 1e-10 * spectral_norm(truth.omega)

    def test_population_bias_bound_banded(self):
        # Tridiagonal truth: the windowed inverse is exact on in-band blocks.
        truth = build_lattice_precision(40, 1, 1)
        norm = spectral_norm(truth.omega)
        scheme = build_scheme(40, 4, 1)
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                t_block = window_block(truth.sigma, scheme, j, jp)
                want = truth.omega[np.ix_(scheme.membership[j], scheme.membership[jp])]
                err = np.linalg.norm(t_block - want, 2) / norm
                assert err <= truth.kappa * math.exp(-12) + 1e-12

    def test_population_bias_bound_dense(self):
        # Dense decaying truth; the bias is nonzero and the conditioning
        # bound must still dominate it for every in-band pair.
        truth = dense_lattice_truth()
        p = truth.dim
        norm = spectral_norm(truth.omega)
        for b in (4, 6):
            scheme = build_scheme(p, b, 1)
            worst = 0.0
            for j in scheme.block_indices():
                near, _ = neighborhood(scheme, j, 1)
                for jp in near:
                    t_block = window_block(truth.sigma, scheme, j, jp)
                    want = truth.omega[np.ix_(scheme.membership[j], scheme.membership[jp])]
                    worst = max(worst, np.linalg.norm(t_block - want, 2) / norm)
            assert 0.0 < worst <= truth.kappa * math.exp(-3 * b)

    def test_singular_window_reports_context(self):
        z = np.ones((3, 8))
        with pytest.raises(LocalSingular) as info:
            estimate_precision(z, LatticeShape(p=8, d=1), EstimatorConfig(b_override=2))
        assert info.value.n_samples == 3
        assert info.value.window_size == 6


class TestAssembleGlobal:
    """Global assembly of local blocks, on the oracle's assembly."""

    def test_identity_on_banded_truth(self, rng):
        scheme, omega = banded_block_truth(12, 2, rng)
        locals_map = {}
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                locals_map[(j, jp)] = omega[
                    np.ix_(scheme.membership[j], scheme.membership[jp])
                ]
        np.testing.assert_allclose(assemble(locals_map, scheme), omega, atol=1e-14)

    def test_symmetrization_of_disagreeing_blocks(self):
        scheme = build_scheme(4, 2, 1)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        locals_map = {
            ((1,), (1,)): np.eye(2),
            ((2,), (2,)): np.eye(2),
            ((1,), (2,)): x,
            ((2,), (1,)): y,
        }
        est = assemble(locals_map, scheme)
        np.testing.assert_allclose(est[:2, 2:], 0.5 * (x + y.T))
        assert np.array_equal(est, est.T)

    def test_assembly_error_bound(self, rng):
        # Assembled error is at most 3**d times the worst block error plus
        # the spectral norm of the out-of-band remainder.
        truth = dense_lattice_truth()
        p = truth.dim
        scheme = build_scheme(p, 5, 1)
        locals_map, worst_block = {}, 0.0
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                block = window_block(truth.sigma, scheme, j, jp)
                block += 0.01 * rng.standard_normal(block.shape) * np.abs(block).max()
                locals_map[(j, jp)] = block
                want = truth.omega[np.ix_(scheme.membership[j], scheme.membership[jp])]
                worst_block = max(worst_block, np.linalg.norm(block - want, 2))
        est = assemble(locals_map, scheme)
        raw = np.zeros_like(truth.omega)
        for (j, jp), block in locals_map.items():
            raw[np.ix_(scheme.membership[j], scheme.membership[jp])] = block
        in_band = np.zeros_like(truth.omega, dtype=bool)
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(scheme.membership[j], scheme.membership[jp])] = True
        remainder = np.where(in_band, 0.0, truth.omega)
        lhs = np.linalg.norm(raw - truth.omega, 2)
        rhs = 3.0 * worst_block + spectral_norm(symmetrize(remainder))
        assert lhs <= rhs
        assert np.array_equal(est, est.T)


class TestEstimatePrecision:
    def test_small_lattice_uses_fallback(self):
        # Seeds 0..4 realize errors between 0.048 and 0.125.
        shape = LatticeShape(p=2, d=1)
        truth = GroundTruth(
            omega=np.eye(2), kappa=1.0, geometry=shape,
            model_tag="identity",
        )
        for seed in range(5):
            z = sample(truth, 500, seed=seed)
            est = estimate_precision(z, shape, EstimatorConfig(kappa_hint=1.0))
            assert est.path == FALLBACK
            assert spectral_norm(symmetrize(est.matrix - np.eye(2))) <= 0.3

    def test_population_banded_truth_recovered(self, rng):
        scheme, omega = banded_block_truth(12, 2, rng)
        sigma = spd_inverse(omega)
        est = estimate_precision(
            sigma, scheme.shape, EstimatorConfig(b_override=2), population=True
        )
        assert est.path == BLOCKWISE
        assert spectral_norm(symmetrize(est.matrix - omega)) <= 1e-9 * spectral_norm(omega)

    def test_sample_size_scaling(self):
        # Seeds 0..19 realize a median-error ratio of 2.15 between N=1000
        # and N=4000, inside the square-root band [1.6, 2.6].
        truth = build_lattice_precision(40, 1, 1)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)
        norm = spectral_norm(truth.omega)
        medians = {}
        for n in (1000, 4000):
            errs = [
                spectral_norm(
                    symmetrize(
                        estimate_precision(sample(truth, n, seed=s), truth.geometry, cfg).matrix
                        - truth.omega
                    )
                )
                / norm
                for s in range(20)
            ]
            medians[n] = float(np.median(errs))
        assert 1.6 <= medians[1000] / medians[4000] <= 2.6

    def test_fallback_with_too_few_samples_fails(self):
        # kappa_hint=50 puts p=3 under the fallback threshold at N=2, and
        # the rank-2 sample covariance cannot be inverted.
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 2, seed=0)
        with pytest.raises(NotPositiveDefinite):
            estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=50.0))

    def test_fallback_rank_bound_fails_before_covariance(self, monkeypatch):
        def forbidden(samples):
            raise AssertionError("covariance formed for a rank-deficient sample")

        monkeypatch.setattr("gpprec.estimator.sample_covariance", forbidden)
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 2, seed=0)
        with pytest.raises(NotPositiveDefinite):
            estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=50.0))

    def test_b_override_skips_fallback(self):
        # kappa_hint=50 puts p=3 under the fallback threshold at N=500; an
        # explicit width runs blockwise at that width all the same.
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 500, seed=0)
        est = estimate_precision(
            z, truth.geometry, EstimatorConfig(kappa_hint=50.0, b_override=1)
        )
        assert est.path == BLOCKWISE
        assert est.b == 1

    def test_blockwise_support_band(self):
        truth = build_lattice_precision(30, 1, 1)
        z = sample(truth, 800, seed=1)
        est = estimate_precision(
            z, truth.geometry, EstimatorConfig(kappa_hint=truth.kappa, b_override=3)
        )
        assert est.path == BLOCKWISE
        scheme = est.scheme
        in_band = np.zeros((30, 30), dtype=bool)
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(scheme.membership[j], scheme.membership[jp])] = True
        assert np.all(est.matrix[~in_band] == 0.0)
        assert np.array_equal(est.matrix, est.matrix.T)

    def test_population_mode_requires_b(self):
        truth = build_lattice_precision(8, 1, 1)
        with pytest.raises(InvalidInput):
            estimate_precision(truth.sigma, truth.geometry, population=True)

    def test_oversized_b_override_rejected(self):
        truth = build_lattice_precision(8, 1, 1)
        with pytest.raises(InvalidInput):
            estimate_precision(
                truth.sigma, truth.geometry,
                EstimatorConfig(b_override=9), population=True,
            )

    def test_blockwise_undersampling_carries_block_id(self):
        truth = build_lattice_precision(30, 1, 1)
        z = sample(truth, 5, seed=0)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)
        with pytest.raises(LocalSingular) as info:
            estimate_precision(z, truth.geometry, cfg)
        assert info.value.block is not None
        assert info.value.n_samples == 5

    def test_window_of_n_vertices_fails_before_gram(self, monkeypatch):
        # Every window is the whole 12-vertex lattice.  Twelve samples give a
        # full-rank covariance that passes the pivot gate yet inverts to
        # noise (relative error 12.9); the rule N > |w| refuses it before
        # the band Gram is formed.
        truth = build_lattice_precision(12, 1, 1)
        z = sample(truth, 12, seed=0)
        monkeypatch.setattr(estimator_module, "_band_gram", None)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)
        with pytest.raises(LocalSingular) as info:
            estimate_precision(z, truth.geometry, cfg)
        assert (info.value.block, info.value.window_size, info.value.n_samples) == ((1,), 12, 12)

    def test_reflection_equivariance_blockwise(self):
        # Reversing the lattice maps the block partition onto itself when
        # b divides p, so the estimate conjugates by the same reversal.
        truth = build_lattice_precision(12, 1, 2)
        z = sample(truth, 600, seed=7)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=2)
        direct = estimate_precision(z, truth.geometry, cfg).matrix
        flipped = estimate_precision(z[:, ::-1], truth.geometry, cfg).matrix
        np.testing.assert_allclose(flipped, direct[::-1, ::-1], atol=1e-10)

    def test_axis_swap_equivariance_2d(self):
        truth = build_lattice_precision(6, 2, 1)
        shape = truth.geometry
        z = sample(truth, 400, seed=8)
        perm = np.array(
            [shape.flat_index(tuple(reversed(shape.coordinate(f)))) for f in range(shape.size)]
        )
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=2)
        direct = estimate_precision(z, shape, cfg).matrix
        swapped = estimate_precision(z[:, perm], shape, cfg).matrix
        np.testing.assert_allclose(swapped, direct[np.ix_(perm, perm)], atol=1e-10)

    def test_population_exactness_2d(self):
        # A fourth-order 2-d stencil has cityblock bandwidth 4; windows of
        # two blocks put the first omitted pairs at distance 5, so the
        # windowed inverse is exact on every in-band block.
        truth = build_lattice_precision(12, 2, 2)
        est = estimate_precision(
            truth.sigma, truth.geometry, EstimatorConfig(b_override=2), population=True
        )
        assert est.path == BLOCKWISE
        in_band = np.zeros_like(truth.omega, dtype=bool)
        scheme = est.scheme
        for j in scheme.block_indices():
            near, _ = neighborhood(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(scheme.membership[j], scheme.membership[jp])] = True
        gap = spectral_norm(symmetrize(np.where(in_band, est.matrix - truth.omega, 0.0)))
        assert gap <= 1e-9 * spectral_norm(truth.omega)

    def test_sampled_blockwise_2d(self):
        truth = build_lattice_precision(10, 2, 1)
        z = sample(truth, 3000, seed=2)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=2)
        est = estimate_precision(z, truth.geometry, cfg)
        assert est.path == BLOCKWISE
        err = spectral_norm(symmetrize(est.matrix - truth.omega)) / spectral_norm(truth.omega)
        # Seed 2 realizes 0.27; anything far above 1 would mean breakage.
        assert err <= 0.8

    def test_permutation_equivariance_fallback(self, rng):
        truth = build_lattice_precision(2, 2, 1)
        z = sample(truth, 300, seed=9)
        perm = rng.permutation(4)
        cfg = EstimatorConfig(kappa_hint=truth.kappa)
        direct = estimate_precision(z, truth.geometry, cfg)
        permuted = estimate_precision(z[:, perm], truth.geometry, cfg)
        assert direct.path == FALLBACK
        np.testing.assert_allclose(
            permuted.matrix, direct.matrix[np.ix_(perm, perm)], atol=1e-10
        )


class TestWindowOracle:
    """The band-Gram route against one covariance and inverse per window."""

    @pytest.mark.parametrize(
        "p, d, s, b, n",
        [
            (23, 1, 2, 3, 400),  # ragged last block, 8 blocks
            (14, 2, 1, 3, 1500),  # ragged, 5 blocks per axis
            (7, 3, 1, 2, 800),  # ragged, 4 blocks per axis
            (10, 1, 2, 4, 300),  # 3 blocks: every window is the whole lattice
            (6, 2, 2, 2, 400),  # 3 blocks per axis: the same in 2-d
            (22, 2, 2, 3, 1000),  # the lattice-2d benchmark shape
        ],
    )
    def test_samples(self, p, d, s, b, n):
        truth = build_lattice_precision(p, d, s)
        z = sample(truth, n, seed=p + d)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=b)
        est = estimate_precision(z, truth.geometry, cfg)
        want = reference_estimate(z, build_scheme(p, b, d))
        assert est.path == BLOCKWISE
        assert np.max(np.abs(est.matrix - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.array_equal(est.matrix, est.matrix.T)

    @pytest.mark.parametrize("p, d, s, b", [(11, 1, 1, 3), (12, 2, 2, 2), (5, 3, 1, 2)])
    def test_population(self, p, d, s, b):
        truth = build_lattice_precision(p, d, s)
        est = estimate_precision(
            truth.sigma, truth.geometry, EstimatorConfig(b_override=b), population=True
        )
        want = reference_estimate(truth.sigma, build_scheme(p, b, d), population=True)
        assert np.max(np.abs(est.matrix - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("p, d, b, n", [(20, 1, 4, 14), (9, 2, 3, 30)])
    def test_under_sampled_window_matches_reference(self, p, d, b, n):
        # (20, 1, 4, 14): the first window has 12 vertices and the second
        # 16, so the second block is the first to fail.
        truth = build_lattice_precision(p, d, 1)
        z = sample(truth, n, seed=4)
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=b)
        with pytest.raises(LocalSingular) as got:
            estimate_precision(z, truth.geometry, cfg)
        with pytest.raises(LocalSingular) as want:
            reference_estimate(z, build_scheme(p, b, d))
        assert (got.value.block, got.value.window_size, got.value.n_samples) == (
            want.value.block, want.value.window_size, want.value.n_samples
        )


class TestBandGram:
    """The slab Gram against the full sample covariance on every window."""

    @pytest.mark.parametrize(
        "p, d, b",
        [
            (23, 1, 3),  # ragged last slab
            (14, 2, 3),
            (7, 3, 2),
            (10, 1, 4),  # 3 slabs: the first slab's range is the whole lattice
            (6, 2, 2),
            (22, 2, 3),  # the lattice-2d benchmark shape
        ],
    )
    def test_windows_match_full_covariance(self, p, d, b):
        z = np.random.Generator(np.random.Philox(key=p + d)).standard_normal((60, p**d))
        scheme = build_scheme(p, b, d)
        gram = _band_gram(z, scheme)
        full = sample_covariance(z)
        tol = 1e-13 * np.max(np.abs(full))
        assert np.array_equal(gram, gram.T)
        for j in scheme.block_indices():
            _, w = neighborhood(scheme, j, 2)
            assert np.max(np.abs(gram[np.ix_(w, w)] - full[np.ix_(w, w)])) <= tol


class TestOlsPluginRow:
    def test_matches_inverse_sample_covariance(self, rng):
        for _ in range(20):
            dim = int(rng.integers(3, 9))
            scale = rng.uniform(0.5, 2.0, size=dim)
            z = rng.standard_normal((50, dim)) * scale
            inv = spd_inverse(sample_covariance(z))
            for i in range(dim):
                row = ols_plugin_row(z, i)
                assert np.linalg.norm(row - inv[i]) <= 1e-10 * np.linalg.norm(inv[i])

    def test_univariate_reciprocal_variance(self, rng):
        z = rng.standard_normal((40, 1)) * 2.0
        row = ols_plugin_row(z, 0)
        assert row[0] == pytest.approx(40.0 / float(z[:, 0] @ z[:, 0]), rel=1e-14)

    def test_duplicate_columns_rejected(self, rng):
        col = rng.standard_normal((30, 1))
        z = np.hstack([col, col, rng.standard_normal((30, 1))])
        with pytest.raises(NotPositiveDefinite):
            ols_plugin_row(z, 2)
