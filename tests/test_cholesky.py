"""Block-Cholesky machinery: exact factors, per-scale estimation, assembly."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas

from gpprec import cholesky as cholesky_module
from gpprec import linalg as linalg_module
from gpprec.cholesky import (
    assemble_U,
    assemble_U_star,
    estimate_B,
    estimate_scales,
    exact_block_factor,
    exact_scales,
    plan_scales,
    SampleCovariance,
    scale_covariances,
)
from gpprec.errors import InvalidInput, NotPositiveDefinite
from gpprec.estimator import EstimatorConfig
from gpprec.hierarchy import LevelPartition, assign_levels, maximin_order
from gpprec.lattice import lattice_points
from gpprec.linalg import (
    cholesky_lower,
    reverse_cholesky,
    sample_covariance,
    spd_inverse,
    spectral_norm,
    symmetrize,
)
from gpprec.matching import measure_cloud
from gpprec.truth import build_lattice_precision, sample
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
    permuted = dataclasses.replace(truth, omega=omega, geometry=cloud)
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
        out, root = estimate_B(np.eye(3), levels, 1, d=1)
        np.testing.assert_allclose(out, 2.0 * np.eye(3))
        np.testing.assert_allclose(root, np.sqrt(2.0) * np.eye(3))

    def test_scaling_level_two_dim_two(self):
        levels = LevelPartition.from_sizes([1, 2])
        omega2 = np.eye(3)
        out, root = estimate_B(omega2, levels, 2, d=2)
        np.testing.assert_allclose(out, 16.0 * np.eye(2))
        np.testing.assert_allclose(root, 4.0 * np.eye(2))

    def test_root_is_the_reverse_cholesky_factor(self, rng):
        levels = LevelPartition.from_sizes([2, 3])
        out, root = estimate_B(random_spd(rng, 5, 10.0), levels, 2, d=1)
        assert np.array_equal(root, reverse_cholesky(out))
        assert np.array_equal(root, np.triu(root))

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


@pytest.mark.parametrize("d", [True, 1.5, 2.0, "2", 0, 4])
class TestDimensionRefused:
    """Every block is scaled by ``h^{-kd}``, so only the integers 1, 2 and 3 pass.

    Each refusal comes before any factorization.
    """

    @pytest.fixture(autouse=True)
    def no_factorization(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a factorization ran")

        monkeypatch.setattr(cholesky_module, "cholesky_lower", forbidden)
        monkeypatch.setattr(cholesky_module, "reverse_cholesky", forbidden)

    def test_estimate_B(self, d):
        with pytest.raises(InvalidInput, match="d must be a positive integer up to 3"):
            estimate_B(np.eye(3), LevelPartition.from_sizes([3]), 1, d=d)

    def test_exact_scales(self, d):
        truth, levels = nested_truth(3)
        with pytest.raises(InvalidInput, match="d must be a positive integer up to 3"):
            exact_scales(truth.omega, levels, d=d)

    def test_estimate_scales(self, d):
        truth, levels = nested_truth(3)
        z = sample(truth, 200, seed=0)
        with pytest.raises(InvalidInput, match="d must be a positive integer up to 3"):
            estimate_scales(z, levels, d=d)


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

    def test_each_stiffness_block_factored_once(self, rng, monkeypatch):
        # The SPD gate's factor of B_k is the one assemble_U uses.
        levels = LevelPartition.from_sizes([2, 3, 4, 6])
        omega = random_spd(rng, 15, 1e3)
        factored = []

        def counting(a):
            factored.append(a.shape)
            return reverse_cholesky(a)

        monkeypatch.setattr(cholesky_module, "reverse_cholesky", counting)
        scales = exact_scales(omega, levels, d=1, factor=dense_upper_factor(omega))
        u = assemble_U(scales)
        assert factored == [(n, n) for n in levels.sizes()]
        for k, (block, root) in enumerate(zip(scales.b_blocks, scales.b_roots), start=1):
            assert np.array_equal(root, reverse_cholesky(block))
            sl = levels.level_slice(k)
            assert np.array_equal(u.T[sl, sl], 2.0 ** (-k / 2.0) * root.T)

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
        # Exact covariance in, exact factor out: the estimated scales read
        # off the factor of sigma coincide with the exact scales (to 4.4e-16
        # of the largest entry).
        truth, levels = nested_truth(3)
        exact = exact_block_factor(truth.omega, levels, d=1)
        scales = estimate_scales(SampleCovariance(10**6, truth.sigma), levels, d=1)
        u = assemble_U(scales)
        assert np.max(np.abs(u - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_full_scales_read_off_one_factor(self, monkeypatch):
        # One gated factorization of the lead covariance and one triangular
        # inverse serve every full-inverse scale; the finest scale's omega
        # is spd_inverse of that covariance bit for bit.
        factored, inverted, inverses = [], [], []

        def counting(log, fn):
            def spy(a, *args, **kwargs):
                log.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return spy

        monkeypatch.setattr(
            cholesky_module, "cholesky_lower", counting(factored, cholesky_lower)
        )
        monkeypatch.setattr(
            cholesky_module,
            "triangular_inverse",
            counting(inverted, cholesky_module.triangular_inverse),
        )
        monkeypatch.setattr(linalg_module, "spd_inverse", counting(inverses, spd_inverse))
        truth, levels = nested_truth(3)
        z = sample(truth, 2000, seed=4)
        covariance = scale_covariances(z, levels, [2000])[2000]
        scales = estimate_scales(covariance, levels, d=1)
        assert levels.q == 3
        assert factored == [(levels.m, levels.m)]
        assert inverted == [(levels.m, levels.m)]
        assert inverses == []
        assert np.array_equal(scales.omegas[-1], spd_inverse(covariance.matrix))
        for k, omega_k in enumerate(scales.omegas, start=1):
            m_k = levels.prefix_size(k)
            want = spd_inverse(covariance.matrix[:m_k, :m_k])
            assert np.array_equal(omega_k, omega_k.T)
            assert np.max(np.abs(omega_k - want)) <= 1e-13 * np.max(np.abs(want))

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
        permuted = dataclasses.replace(
            truth, omega=truth.omega[np.ix_(ordering.perm, ordering.perm)], geometry=cloud
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

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_deficiency_charged_to_its_level(self, k):
        # A repeated column of level k makes the one factorization of the
        # covariance fail at that column's pivot, which lies in level k.
        truth, levels = nested_truth(3)
        z = sample(truth, 2000, seed=0)
        cols = levels.level_slice(k)
        z[:, cols.stop - 1] = z[:, cols.start]
        with pytest.raises(NotPositiveDefinite) as info:
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa), d=1)
        assert info.value.scale == k
        assert info.value.pivot == cols.stop - 1

    def test_rank_bound_fails_before_covariance(self, monkeypatch):
        # N = 4 covers scales 1 and 2 (1 and 3 columns, N > m_k); scale 3 has 7
        # columns, so the rank bound fails it before any scale's covariance is
        # formed.
        formed = []
        prefix_covariances = cholesky_module._prefix_covariances

        def guarded(blocks, m, sizes):
            formed.append(m)
            assert m <= min(sizes), "rank-deficient covariance formed"
            return prefix_covariances(blocks, m, sizes)

        monkeypatch.setattr(cholesky_module, "_prefix_covariances", guarded)
        truth, levels = nested_truth(3)
        z = sample(truth, 4, seed=0)
        with pytest.raises(NotPositiveDefinite) as info:
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa), d=1)
        assert info.value.scale == 3
        assert formed == []

    def test_plan_scales_routes_and_refusals(self):
        # Prefix sizes 1, 3, 7 and 15; with kappa_hint 1 a scale inverts its
        # full covariance when its size is at most log(N).
        truth, levels = nested_truth(4)
        cloud = truth.geometry
        cfg = EstimatorConfig(kappa_hint=1.0)
        assert plan_scales(levels, 2000, cfg) == (True,) * 4
        assert plan_scales(levels, 2000, cfg, cloud) == (True, True, True, False)
        assert plan_scales(levels, 5, cfg, cloud) == (True, False, False, False)
        with pytest.raises(NotPositiveDefinite) as info:
            plan_scales(levels, 5, cfg)
        assert info.value.scale == 3
        assert str(info.value) == "scale 3: 5 samples cannot span 7 variables"
        # As many samples as variables give a full-rank covariance whose
        # inverse is useless, refused as the one-block precision estimate is.
        for n, k in ((7, 3), (15, 4)):
            with pytest.raises(NotPositiveDefinite) as info:
                plan_scales(levels, n, cfg)
            assert info.value.scale == k
            assert str(info.value) == (
                f"scale {k}: {n} samples leave no usable inverse of {n} variables"
            )
        assert plan_scales(levels, 16, cfg) == (True,) * 4
        with pytest.raises(InvalidInput):
            plan_scales(levels, 0, cfg)

    @pytest.mark.parametrize("n", [None, 100.5, 100.0, True])
    def test_non_integer_size_refused(self, n):
        truth, levels = nested_truth(3)
        cfg = EstimatorConfig(kappa_hint=truth.kappa)
        with pytest.raises(InvalidInput, match="positive integer"):
            plan_scales(levels, n, cfg)
        with pytest.raises(InvalidInput, match="positive integer"):
            scale_covariances(np.zeros((200, levels.m)), levels, [n])

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


class TestScaleCovariances:
    """Each size's sample covariance from one pass over a streamed draw."""

    def test_array_is_one_block(self):
        # The samples as one array are one block, so the scales from their
        # covariance are those of the samples bit for bit.
        truth, levels = nested_truth(3)
        z = sample(truth, 2000, seed=4)
        cfg = EstimatorConfig(kappa_hint=truth.kappa)
        covariance = scale_covariances(z, levels, [2000])[2000]
        assert covariance.n == 2000
        assert np.array_equal(covariance.matrix, covariance.matrix.T)
        from_covariance = estimate_scales(covariance, levels, cfg, d=1)
        from_samples = estimate_scales(z, levels, cfg, d=1)
        for a, b in zip(from_covariance.omegas, from_samples.omegas):
            assert np.array_equal(a, b)

    def test_streamed_sizes(self):
        # Blocks of any sizes, each overwritten once read: every size's
        # covariance is its rows' sample covariance to roundoff, exactly
        # symmetric, and its sum does not depend on the other sizes.
        truth, levels = nested_truth(3)
        z = sample(truth, 3000, seed=1)

        def stream():
            buffer = np.empty((1000, levels.m))
            for lo in range(0, 3000, 1000):
                buffer[...] = z[lo:lo + 1000]
                yield buffer
                buffer[...] = np.nan

        sizes = [500, 1000, 1200, 3000]
        shared = scale_covariances(stream(), levels, sizes)
        assert np.array_equal(
            shared[1200].matrix, scale_covariances(stream(), levels, [1200])[1200].matrix
        )
        for n in sizes:
            got = shared[n].matrix
            want = sample_covariance(z[:n])
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_grams_finished_in_place(self):
        # Each covariance is its dsyrk sum S mirrored and divided, bit for bit
        # (S + triu(S, 1)^T) / n, and stays Fortran-ordered as dsyrk summed it.
        truth, levels = nested_truth(6)
        m = levels.m
        z = sample(truth, 3000, seed=3)
        stream = (z[lo:lo + 1000] for lo in range(0, 3000, 1000))
        got = scale_covariances(stream, levels, [1200, 3000])
        for n, covariance in got.items():
            gram = np.zeros((m, m), order="F")
            for lo in range(0, n, 1000):
                blas.dsyrk(1.0, z[lo:min(lo + 1000, n)].T, beta=1.0, c=gram, overwrite_c=1)
            want = np.add(gram, np.triu(gram, 1).T) / n
            assert np.array_equal(covariance.matrix.view(np.uint64), want.view(np.uint64))
            assert covariance.matrix.flags.f_contiguous

    def test_pass_holds_only_its_grams(self):
        # Two sizes over a stream of three 500-row blocks at m = 511: the pass
        # holds the two Grams, the stream's one block and small tiles, as each
        # Gram is finished where dsyrk summed it.  A finish that forms the
        # mirrored sum and the quotient as new m x m arrays holds at least
        # two more at once.
        truth, levels = nested_truth(9)
        m = levels.m
        z = sample(truth, 1500, seed=2)

        def stream():
            block = np.empty((500, m))
            for lo in range(0, 1500, 500):
                block[...] = z[lo:lo + 500]
                yield block

        gram_bytes = m * m * 8
        tracemalloc.start()
        try:
            covariances = scale_covariances(stream(), levels, [600, 1500])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(covariances) == [600, 1500]
        assert peak <= 2 * gram_bytes + 500 * m * 8 + gram_bytes // 4

    def test_refused_size_reads_nothing(self):
        def forbidden():
            raise AssertionError("a refused size read its rows")
            yield

        _, levels = nested_truth(3)
        with pytest.raises(NotPositiveDefinite):
            scale_covariances(forbidden(), levels, [3, 2000])
        with pytest.raises(InvalidInput, match="end after"):
            scale_covariances(iter([np.zeros((10, levels.m))]), levels, [20])

    @pytest.mark.parametrize("make", [list, iter, np.array], ids=["list", "iterator", "array"])
    def test_sizes_read_once(self, make):
        # Sizes are planned and summed from one reading, so an iterator is
        # not used up before the pass and an array is not tested for truth.
        truth, levels = nested_truth(3)
        z = sample(truth, 3000, seed=1)
        got = scale_covariances(z, levels, make([1200, 3000]))
        assert sorted(got) == [1200, 3000]
        for n, covariance in got.items():
            assert covariance.n == n
            assert np.array_equal(covariance.matrix, scale_covariances(z, levels, [n])[n].matrix)

    def test_no_size_refused(self):
        _, levels = nested_truth(3)
        with pytest.raises(InvalidInput, match="nonempty"):
            scale_covariances(np.zeros((10, levels.m)), levels, iter([]))

    def test_lattice_scales_need_the_samples(self):
        truth, levels = nested_truth(4, s=1)
        z = sample(truth, 2000, seed=5)
        cfg = EstimatorConfig(kappa_hint=1.0)
        covariance = scale_covariances(z, levels, [2000])[2000]
        with pytest.raises(InvalidInput, match="need the samples"):
            estimate_scales(covariance, levels, cfg, cloud=truth.geometry)

    def test_d_required_without_cloud(self):
        truth, levels = nested_truth(2)
        z = sample(truth, 100, seed=0)
        with pytest.raises(InvalidInput, match="d is required"):
            estimate_scales(z, levels, EstimatorConfig(kappa_hint=truth.kappa))
