"""Block-Cholesky machinery: exact factors, per-scale estimation, assembly."""

import dataclasses

import numpy as np
import pytest

from gpprec.cholesky import (
    assemble_U,
    assemble_U_star,
    estimate_B,
    estimate_scales,
    exact_block_factor,
    exact_scales,
)
from gpprec.errors import InvalidInput, NotPositiveDefinite
from gpprec.estimator import EstimatorConfig
from gpprec.hierarchy import LevelPartition, assign_levels, maximin_order
from gpprec.lattice import lattice_points
from gpprec.linalg import (
    cholesky_lower,
    sample_covariance,
    spd_inverse,
    spectral_norm,
    symmetrize,
)
from gpprec.matching import measure_cloud
from gpprec.truth import GroundTruth, build_lattice_precision, sample
from gpprec.verify import random_spd


def dense_upper_factor(omega):
    """Unique upper-triangular factor with positive diagonal: omega = U U^T."""
    n = omega.shape[0]
    j = np.eye(n)[::-1]
    return j @ np.linalg.cholesky(j @ omega @ j) @ j


def nested_truth(q, s=1):
    """Dyadic lattice truth permuted to maximin order, with its partition."""
    truth = build_lattice_precision(2**q - 1, 1, s)
    cloud = measure_cloud(lattice_points(truth.geometry), 1)
    ordering = maximin_order(cloud)
    levels = assign_levels(ordering)
    omega = symmetrize(truth.omega[np.ix_(ordering.perm, ordering.perm)])
    permuted = GroundTruth(
        omega=omega,
        kappa=truth.kappa,
        geometry=cloud,
        model_tag=truth.model_tag,
        params=truth.params,
    )
    return permuted, levels


class TestExactBlockFactor:
    def test_single_level_collapses(self, rng):
        levels = LevelPartition.from_sizes([6])
        omega = random_spd(rng, 6, 80.0)
        u = exact_block_factor(omega, levels, d=1)
        assert spectral_norm(symmetrize(u @ u.T - omega)) <= 1e-10 * spectral_norm(omega)

    def test_identity_truth(self):
        levels = LevelPartition.from_sizes([2, 3])
        u = exact_block_factor(np.eye(5), levels, d=1)
        np.testing.assert_allclose(u @ u.T, np.eye(5), atol=1e-12)

    def test_matches_dense_cholesky(self, rng):
        for _ in range(10):
            q = int(rng.integers(1, 5))
            sizes = rng.integers(1, 8, size=q)
            levels = LevelPartition.from_sizes(sizes)
            omega = random_spd(rng, levels.m, float(rng.uniform(2.0, 1e3)))
            u = exact_block_factor(omega, levels, d=1)
            dense = dense_upper_factor(omega)
            gap = np.linalg.norm(u - dense, 2) / np.linalg.norm(dense, 2)
            assert gap <= 1e-8
            rec_gap = spectral_norm(symmetrize(u @ u.T - omega))
            assert rec_gap <= 1e-8 * spectral_norm(omega)

    def test_block_structure(self, rng):
        levels = LevelPartition.from_sizes([2, 2, 3])
        omega = random_spd(rng, 7, 30.0)
        u = exact_block_factor(omega, levels, d=2)
        assert u.shape == (7, 7)
        assert np.all(np.triu(u.T, 1) == 0.0)
        assert np.all(np.diag(u) > 0.0)

    def test_scale_conjugated_covariance_identity(self, rng):
        # The lower Cholesky factor of the scale-conjugated covariance
        # equals inv(D) @ inv(U).T, tying the factor to the scale diagonal.
        levels = LevelPartition.from_sizes([1, 2, 4])
        d = 2
        omega = random_spd(rng, 7, 200.0)
        sigma = spd_inverse(omega)
        dvec = np.power(2.0, d * levels.level_of / 2.0)
        theta = symmetrize(sigma / np.outer(dvec, dvec))
        u = exact_block_factor(omega, levels, d)
        implied = np.linalg.inv(u).T / dvec[:, None]
        direct = cholesky_lower(theta)
        gap = np.linalg.norm(implied - direct, 2) / np.linalg.norm(direct, 2)
        assert gap <= 1e-9


class TestEstimateB:
    def test_identity_scaling_level_one(self):
        levels = LevelPartition.from_sizes([3])
        out = estimate_B(np.eye(3), levels, 1, d=1)
        np.testing.assert_allclose(out, 2.0 * np.eye(3))

    def test_scaling_level_two_dim_two(self):
        levels = LevelPartition.from_sizes([1, 2])
        omega2 = np.eye(3)
        out = estimate_B(omega2, levels, 2, d=2)
        np.testing.assert_allclose(out, 16.0 * np.eye(2))

    def test_conditioning_stays_bounded(self):
        # Exact per-scale blocks of the dyadic second-order truth have
        # condition numbers within a factor 3 of each other.
        truth, levels = nested_truth(4, s=2)
        scales = exact_scales(truth.omega, levels, d=1)
        kappas = [np.linalg.cond(b) for b in scales.b_blocks]
        assert max(kappas) / min(kappas) <= 10.0

    def test_non_spd_block_rejected(self):
        levels = LevelPartition.from_sizes([1, 2])
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            estimate_B(bad, levels, 2, d=1)


class TestAssembly:
    def test_exact_scales_round_trip(self, rng):
        levels = LevelPartition.from_sizes([2, 3, 4])
        omega = random_spd(rng, 9, 100.0)
        scales = exact_scales(omega, levels, d=1)
        direct = exact_block_factor(omega, levels, d=1)
        np.testing.assert_allclose(assemble_U(scales), direct, atol=1e-10)

    def test_exact_scales_invert_leading_covariance_blocks(self, rng):
        # Each scale's precision is the inverse of its leading covariance
        # block, here formed by two independent inverses; a factor passed
        # in gives the same scales as one computed inside.
        levels = LevelPartition.from_sizes([2, 3, 4, 6])
        omega = random_spd(rng, 15, 1e4)
        sigma = spd_inverse(omega)
        scales = exact_scales(omega, levels, d=2)
        for k, omega_k in enumerate(scales.omegas, start=1):
            n_k = levels.prefix_size(k)
            want = spd_inverse(sigma[:n_k, :n_k])
            assert np.array_equal(omega_k, omega_k.T)
            assert np.max(np.abs(omega_k - want)) <= 1e-11 * np.max(np.abs(want))
        given = exact_scales(omega, levels, d=2, factor=dense_upper_factor(omega))
        for got, want in zip(given.omegas, scales.omegas):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(omega)))

    def test_star_variant_reconstructs(self, rng):
        levels = LevelPartition.from_sizes([1, 2, 4])
        omega = random_spd(rng, 7, 60.0)
        scales = exact_scales(omega, levels, d=1)
        star = assemble_U_star(scales)
        assert spectral_norm(symmetrize(star @ star.T - omega)) <= 1e-8 * spectral_norm(omega)
        assert np.all(star.T[: levels.prefix_size(1), levels.prefix_size(1) :] == 0.0)

    def test_star_diagonal_truth_is_scaled_root(self):
        levels = LevelPartition.from_sizes([3])
        omega = np.diag([4.0, 9.0, 16.0])
        star = assemble_U_star(exact_scales(omega, levels, d=1))
        # Diagonal block is h^{d/2} * sqrt(B) with B = h^{-d} * omega.
        np.testing.assert_allclose(
            star.T[levels.level_slice(1), levels.level_slice(1)],
            np.sqrt(0.5) * np.sqrt(2.0 * omega),
            atol=1e-12,
        )

    def test_missing_scale_rejected(self, rng):
        levels = LevelPartition.from_sizes([2, 2])
        omega = random_spd(rng, 4, 10.0)
        scales = exact_scales(omega, levels, d=1)
        with pytest.raises(InvalidInput):
            dataclasses.replace(scales, omegas=scales.omegas[:-1])


class TestEstimateCholesky:
    def test_single_level_equals_precision_route(self):
        truth, _ = nested_truth(1)
        levels = LevelPartition.from_sizes([truth.omega.shape[0]])
        z = sample(truth, 2000, seed=4)
        u = assemble_U(
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa), d=1)
        )
        direct = spd_inverse(sample_covariance(z))
        assert spectral_norm(symmetrize(u @ u.T - direct)) <= 1e-10 * spectral_norm(direct)

    def test_population_mode_recovers_exact_factor(self):
        # Exact covariance in, exact factor out: the per-scale estimates
        # coincide with the exact scales when each scale sees the truth.
        truth, levels = nested_truth(3)
        exact = exact_block_factor(truth.omega, levels, d=1)
        scales = exact_scales(truth.omega, levels, d=1)
        np.testing.assert_allclose(assemble_U(scales), exact, atol=1e-12)

    def test_estimated_factor_error_tracks_precision_error(self):
        # Seeds 0..19 at N=8000 realize median factor error 0.028 against
        # median finest-scale precision error 0.031 and a star/plain error
        # ratio of 0.82.
        truth, levels = nested_truth(3)
        exact_u = exact_block_factor(truth.omega, levels, d=1)
        exact_star = assemble_U_star(exact_scales(truth.omega, levels, d=1))
        cfg = EstimatorConfig(kappa_hint=truth.kappa)
        u_errs, star_errs, prec_errs = [], [], []
        for seed in range(10):
            z = sample(truth, 8000, seed=seed)
            scales = estimate_scales(z, levels, cfg, d=1)
            u_hat = assemble_U(scales)
            star_hat = assemble_U_star(scales)
            u_errs.append(np.linalg.norm(u_hat - exact_u, 2) / np.linalg.norm(exact_u, 2))
            star_errs.append(
                np.linalg.norm(star_hat - exact_star, 2) / np.linalg.norm(exact_star, 2)
            )
            prec_errs.append(
                spectral_norm(symmetrize(scales.omegas[-1] - truth.omega))
                / spectral_norm(truth.omega)
            )
        assert np.median(u_errs) <= 5.0 * np.median(prec_errs)
        assert np.median(star_errs) <= 1.2 * np.median(u_errs)

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_full_inverse_route_is_inverse_sample_factor(self, n):
        # Without a cloud every scale inverts its sample covariance, as the
        # CLI's factor rows do, so the factor is that of inv(S): the upper
        # factor inv(L)^T with S = L L^T.  On the 2-d p = 22 truth in
        # maximin order seed 3 agrees to 1.9e-14 (N = 1000) and 2.0e-14
        # (N = 4000).
        truth = build_lattice_precision(22, 2, 2)
        cloud = measure_cloud(lattice_points(truth.geometry), 2)
        ordering = maximin_order(cloud)
        levels = assign_levels(ordering)
        permuted = GroundTruth(
            omega=truth.omega[np.ix_(ordering.perm, ordering.perm)],
            kappa=truth.kappa,
            geometry=cloud,
            model_tag=truth.model_tag,
        )
        z = sample(permuted, n, seed=3)
        cfg = EstimatorConfig(kappa_hint=truth.kappa)
        u = assemble_U(estimate_scales(z, levels, cfg, d=2))
        want = np.linalg.inv(cholesky_lower(sample_covariance(z))).T
        assert levels.q > 1
        assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scale_failure_carries_index(self):
        truth, levels = nested_truth(3)
        z = sample(truth, 3, seed=0)
        with pytest.raises(NotPositiveDefinite) as info:
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa), d=1)
        assert info.value.scale is not None

    def test_rank_bound_fails_before_covariance(self, monkeypatch):
        # N = 3 covers scales 1 and 2 (1 and 3 columns); scale 3 has 7 columns,
        # so the rank bound must fail it before its covariance is formed.
        formed = []

        def guarded(samples):
            formed.append(samples.shape[1])
            assert samples.shape[1] <= samples.shape[0], "rank-deficient covariance formed"
            return sample_covariance(samples)

        monkeypatch.setattr("gpprec.cholesky.sample_covariance", guarded)
        truth, levels = nested_truth(3)
        z = sample(truth, 3, seed=0)
        with pytest.raises(NotPositiveDefinite) as info:
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa), d=1)
        assert info.value.scale == 3
        assert formed == [1, 3]

    def test_scattered_route_for_large_scales(self):
        # With a small kappa hint, the finer scales exceed the full-inverse
        # threshold and run through the lattice reduction on the sub-cloud;
        # seed 5 realizes a factor error of 0.065 at N=2000.
        truth, levels = nested_truth(4, s=1)
        cloud = truth.geometry
        ordering = maximin_order(cloud)
        ordered_cloud = measure_cloud(cloud.sites[ordering.perm], 1)
        z = sample(truth, 2000, seed=5)
        scales = estimate_scales(
            z, levels, EstimatorConfig(kappa_hint=1.0), cloud=ordered_cloud, seed=5
        )
        exact_u = exact_block_factor(truth.omega, levels, d=1)
        u_hat = assemble_U(scales)
        err = np.linalg.norm(u_hat - exact_u, 2) / np.linalg.norm(exact_u, 2)
        assert err <= 0.3
