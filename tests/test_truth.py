"""Ground-truth models: construction, sampling, and structural diagnostics."""

import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gpprec.errors import CapacityExceeded, InvalidInput, NotPositiveDefinite, NumericalFailure
from gpprec.lattice import LatticeShape, lattice_points
from gpprec import matching as matching_module
from gpprec import truth as truth_module
from gpprec.linalg import (
    cholesky_lower,
    reverse_cholesky,
    spd_inverse,
    spectral_norm,
    symmetrize,
)
from gpprec.estimator import EstimatorConfig
from gpprec.matching import build_embedding, measure_cloud, padded_tiles
from gpprec.truth import (
    build_green_restriction,
    build_lattice_precision,
    l1_tail_profile,
    log_linear_fit,
    matern_covariance,
    sample,
    sample_blocks,
    screening_profile,
)


class TestLatticePrecision:
    def test_textbook_stencil(self):
        truth = build_lattice_precision(3, 1, 1)
        a = 16.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        np.testing.assert_allclose(truth.omega, 0.25 * a)

    def test_squared_operator_is_pentadiagonal(self):
        truth = build_lattice_precision(5, 1, 2)
        a = 36.0 * (2.0 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1))
        np.testing.assert_allclose(truth.omega, symmetrize(a @ a) / 6.0, rtol=1e-13)
        assert truth.omega[0, 3] == 0.0

    def test_inverse_consistency(self):
        for p, d, s in ((9, 1, 1), (16, 1, 2), (5, 2, 1)):
            truth = build_lattice_precision(p, d, s)
            gap = spectral_norm(symmetrize(truth.sigma @ truth.omega - np.eye(truth.dim)))
            assert gap <= 1e-9 * truth.kappa

    # (24, 2, 2) has m = 576 and kappa near 6.4e4.
    @pytest.mark.parametrize(
        "p, d, s", [(8, 1, 1), (12, 1, 2), (6, 2, 2), (5, 3, 1), (24, 2, 2)]
    )
    def test_closed_form_kappa(self, p, d, s):
        truth = build_lattice_precision(p, d, s)
        w = np.linalg.eigvalsh(truth.omega)
        assert truth.kappa == pytest.approx(w[-1] / w[0], rel=1e-9)

    @pytest.mark.parametrize("p, d, s", [(8, 1, 1), (12, 1, 2), (6, 2, 2), (5, 3, 1)])
    def test_closed_form_norm(self, p, d, s):
        truth = build_lattice_precision(p, d, s)
        assert truth.omega_norm == pytest.approx(np.linalg.eigvalsh(truth.omega)[-1], rel=1e-12)

    def test_closed_form_norm_where_lanczos_stalls(self, monkeypatch):
        # At (2048, 1, 1) a Lanczos norm would need about 26 000 matvecs.
        monkeypatch.setattr(truth_module, "spectral_norm", None)
        started = time.perf_counter()
        truth = build_lattice_precision(2048, 1, 1)
        assert time.perf_counter() - started < 1.0
        top = 2049**2 * 4 * np.sin(2048 * np.pi / 4098) ** 2
        assert truth.omega_norm == pytest.approx(top / 2049, rel=1e-14)

    @pytest.mark.parametrize("p, d, s", [(200, 1, 3), (500, 1, 3), (22, 2, 6)])
    def test_ill_conditioned_truth_rejected(self, p, d, s):
        # kappa at or above 1 / SPD_PIVOT_RTOL: no truth with an inaccurate sigma.
        with pytest.raises(NotPositiveDefinite):
            build_lattice_precision(p, d, s)

    def test_max_eigenvalue_power_law(self):
        # Largest eigenvalue tracks h**(d - 2s); regression slope within 15%.
        d, s = 1, 1
        hs, tops = [], []
        for p in (8, 16, 32, 64):
            truth = build_lattice_precision(p, d, s)
            hs.append(1.0 / (p + 1))
            tops.append(np.linalg.eigvalsh(truth.omega)[-1])
        slope = np.polyfit(np.log(hs), np.log(tops), 1)[0]
        target = d - 2 * s
        assert abs(slope - target) <= 0.15 * abs(target)

    def test_min_eigenvalue_and_diagonal_stability(self):
        d, s = 1, 2
        lo_scaled, diag_scaled = [], []
        for p in (8, 16, 32, 64):
            truth = build_lattice_precision(p, d, s)
            h = 1.0 / (p + 1)
            lo_scaled.append(np.linalg.eigvalsh(truth.omega)[0] / h**d)
            diag = np.diag(truth.omega)
            diag_scaled.extend([diag.min() * h ** (2 * s - d), diag.max() * h ** (2 * s - d)])
        assert max(lo_scaled) / min(lo_scaled) <= 10.0
        assert max(diag_scaled) / min(diag_scaled) <= 10.0

    def test_l1_tail_decay(self):
        truth = build_lattice_precision(24, 1, 2)
        ks, tails = l1_tail_profile(truth.omega, truth.geometry, truth.omega_norm)
        positive = tails > 0
        slope, _, r2 = log_linear_fit(ks[positive], tails[positive])
        assert slope < 0
        assert r2 >= 0.9

    @pytest.mark.parametrize("p, d, s", [(24, 1, 2), (8, 2, 2), (5, 3, 1)])
    def test_l1_tail_matches_entrywise_binning(self, p, d, s):
        # Reference: distances from an (m, m, d) difference array, binned
        # entry by entry with np.add.at.
        truth = build_lattice_precision(p, d, s)
        omega, m = truth.omega, truth.dim
        coords = truth.geometry.coordinates()
        dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        binned = np.zeros((m, int(dist.max()) + 1))
        np.add.at(binned, (np.repeat(np.arange(m), m), dist.ravel()), np.abs(omega).ravel())
        suffix = np.cumsum(binned[:, ::-1], axis=1)[:, ::-1]
        ks, tails = l1_tail_profile(omega, truth.geometry, truth.omega_norm)
        assert np.array_equal(ks, np.arange(1, dist.max() + 1))
        assert np.array_equal(tails, suffix[:, 1:].max(axis=0) / truth.omega_norm)

    def test_l1_tail_of_1d_cap_needs_no_lanczos(self, monkeypatch):
        # The 1-d Dirichlet Laplacian at p = 1024 is refused by a Lanczos
        # norm (NumericalFailure after 100 restarts); its closed-form norm
        # serves instead.
        def refused(a):
            raise NumericalFailure("Lanczos ran")

        truth = build_lattice_precision(1024, 1, 1)
        monkeypatch.setattr(truth_module, "spectral_norm", refused)
        ks, tails = l1_tail_profile(truth.omega, truth.geometry, truth.omega_norm)
        assert ks[-1] == 1023
        assert tails[0] == 2.0 * abs(truth.omega[0, 1]) / truth.omega_norm

    @pytest.mark.parametrize("norm", [0.0, -1.0, np.nan, np.inf, "1.0", True])
    def test_l1_tail_norm_not_finite_and_positive_refused(self, norm):
        # A zero norm divided by zero with a RuntimeWarning, a negative or
        # NaN one gave meaningless tails, and a string raised a TypeError.
        truth = build_lattice_precision(6, 1, 1)
        with pytest.raises(InvalidInput, match="norm must be finite and positive"):
            l1_tail_profile(truth.omega, truth.geometry, norm)

    def test_capacity_cap(self):
        with pytest.raises(CapacityExceeded):
            build_lattice_precision(17, 3, 1)

    @pytest.mark.parametrize("p, d, s", [(22, 2, 2), (16, 3, 2), (513, 1, 1)])
    def test_sparse_power_equals_dense_formula(self, p, d, s):
        # Dense Kronecker Laplacian and dense matrix power, as a reference.
        one_dim = 2.0 * np.eye(p) - np.eye(p, k=1) - np.eye(p, k=-1)
        a = np.zeros((p**d, p**d))
        for axis in range(d):
            term = np.ones((1, 1))
            for other in range(d):
                term = np.kron(term, one_dim if other == axis else np.eye(p))
            a += term
        a *= (p + 1) ** 2
        want = symmetrize((1.0 / (p + 1)) ** d * np.linalg.matrix_power(a, s))
        omega = build_lattice_precision(p, d, s).omega
        np.testing.assert_array_equal(omega, want)
        assert np.array_equal(omega, omega.T)


def _uniform(shape):
    return np.random.Generator(np.random.Philox(key=7)).uniform(-1.0, 1.0, shape)


_LINE = np.arange(4, 64, 4) / 64
_SQUARE = np.stack(np.meshgrid(*[np.arange(4, 24, 4) / 24] * 2, indexing="ij"), -1).reshape(-1, 2)

# Green's and Matern truths in d = 1 and 2: Green's on fine-grid nodes,
# Matern on jittered sites.
COVARIANCE_TRUTHS = {
    "green-d1": lambda: build_green_restriction(63, 1, 2, measure_cloud(_LINE, 1)),
    "green-d2": lambda: build_green_restriction(23, 2, 2, measure_cloud(_SQUARE, 2)),
    "matern-d1": lambda: matern_covariance(
        measure_cloud(_LINE + 0.005 * _uniform(_LINE.shape), 1), nu=1.5, rho=0.3, sigma2=1.0
    ),
    "matern-d2": lambda: matern_covariance(
        measure_cloud(_SQUARE + 0.02 * _uniform(_SQUARE.shape), 2), nu=1.5, rho=0.3, sigma2=1.0
    ),
}


class TestCovarianceTruthNorms:
    @pytest.mark.parametrize("name", sorted(COVARIANCE_TRUTHS))
    def test_kappa_and_norm_from_two_lanczos_norms(self, name):
        truth = COVARIANCE_TRUTHS[name]()
        w = np.linalg.eigvalsh(truth.omega)
        assert truth.kappa == pytest.approx(w[-1] / w[0], rel=1e-7)
        assert truth.omega_norm == spectral_norm(truth.omega)

    @pytest.mark.parametrize("name", sorted(COVARIANCE_TRUTHS))
    def test_sigma_factored_once(self, monkeypatch, name):
        # omega is read off the build's one factor of sigma, which the truth
        # keeps for sampling: its first draw is the one made from a fresh
        # cholesky_lower(covariance) bit for bit.
        calls = []

        def counting(a):
            calls.append(np.shape(a))
            return cholesky_lower(a)

        monkeypatch.setattr(truth_module, "cholesky_lower", counting)
        truth = COVARIANCE_TRUTHS[name]()
        assert calls == [(truth.dim, truth.dim)]
        first = sample(truth, 50, seed=2)
        assert len(calls) == 1
        assert np.array_equal(truth.omega, spd_inverse(truth.covariance))
        assert np.array_equal(first, sample(dataclasses.replace(truth), 50, seed=2))
        assert len(calls) == 2

    def test_matern_above_cap_refused_before_distances(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("distances taken for a cloud above the cap")

        monkeypatch.setattr(truth_module, "cdist", forbidden)
        m = truth_module.MAX_VERTICES + 1
        cloud = measure_cloud((np.arange(m) + 0.5) / m, 1)
        with pytest.raises(CapacityExceeded, match=f"{m} vertices"):
            matern_covariance(cloud, nu=1.5, rho=0.3, sigma2=1.0)

    def test_ill_conditioned_covariance_rejected(self):
        # Every Cholesky pivot of this covariance passes, but kappa is
        # 9.7e12, at or above 1 / SPD_PIVOT_RTOL.
        cloud = measure_cloud((np.arange(20) + 0.5) / 20, 1)
        with pytest.raises(NotPositiveDefinite, match="condition number"):
            matern_covariance(cloud, nu=2.5, rho=10.0, sigma2=1.0)


class TestGreenRestriction:
    def test_all_nodes_reduces_to_lattice_model(self):
        lattice = build_lattice_precision(7, 1, 2)
        cloud = measure_cloud(lattice_points(lattice.geometry), 1)
        green = build_green_restriction(7, 1, 2, cloud)
        np.testing.assert_allclose(green.sigma, lattice.sigma, rtol=1e-12)
        gap = spectral_norm(symmetrize(green.omega - lattice.omega))
        assert gap <= 1e-9 * spectral_norm(lattice.omega)

    def test_perturbed_grid_screening(self):
        # Seed 5 realizes slope -1.505 and r2 0.9957 on this 20-site cloud.
        rng = np.random.Generator(np.random.Philox(key=5))
        base = np.arange(1, 21) / 21
        sites = base + rng.uniform(-0.3, 0.3, 20) / 21
        fine_m = 63
        snapped = np.rint(sites * (fine_m + 1)) / (fine_m + 1)
        cloud = measure_cloud(snapped, 1)
        green = build_green_restriction(fine_m, 1, 2, cloud)
        prof = screening_profile(green.omega, cloud.sites, h=cloud.h)
        assert prof.slope < 0
        assert prof.r2 >= 0.9

    def test_single_site(self):
        cloud = measure_cloud(np.array([[0.5]]), 1)
        green = build_green_restriction(15, 1, 1, cloud)
        assert green.sigma.shape == (1, 1)
        assert green.sigma[0, 0] > 0

    def test_off_grid_rejected(self):
        cloud = measure_cloud(np.array([[0.123456]]), 1)
        with pytest.raises(InvalidInput):
            build_green_restriction(15, 1, 1, cloud)

    @pytest.mark.parametrize(
        "site", [[1e-12], [1.0 - 1e-12], [0.5, 1e-12], [1.0 - 1e-12, 0.25]]
    )
    def test_site_snapping_to_the_boundary_rejected(self, site):
        # The site rounds to fine-grid coordinate 0 or fine_m + 1, a
        # boundary node that the Dirichlet lattice does not hold.
        cloud = measure_cloud(np.array([site]), len(site))
        with pytest.raises(InvalidInput, match="interior node"):
            build_green_restriction(15, len(site), 1, cloud)


class TestMatern:
    @pytest.fixture
    def cloud(self, rng):
        return measure_cloud(np.sort(rng.uniform(0.05, 0.95, 30)), 1)

    def test_diagonal_is_sigma2(self, cloud):
        truth = matern_covariance(cloud, nu=1.5, rho=0.4, sigma2=2.5)
        np.testing.assert_allclose(np.diag(truth.sigma), 2.5)

    def test_exponential_kernel_closed_form(self, cloud):
        truth = matern_covariance(cloud, nu=0.5, rho=0.3, sigma2=1.0)
        r = np.abs(cloud.sites[:, None, 0] - cloud.sites[None, :, 0])
        np.testing.assert_allclose(truth.sigma, np.exp(-r / 0.3), rtol=1e-12)

    def test_precision_decays_with_distance(self, cloud):
        truth = matern_covariance(cloud, nu=1.5, rho=0.2, sigma2=1.0)
        prof = screening_profile(truth.omega, cloud.sites, h=cloud.h)
        assert prof.slope < 0
        assert prof.r2 >= 0.8

    def test_demo_flag(self, cloud):
        truth = matern_covariance(cloud, nu=2.5, rho=0.3, sigma2=1.0)
        assert truth.params["demo_only"] is True

    def test_near_duplicates_not_positive(self, cloud):
        sites = np.concatenate([cloud.sites.ravel(), [cloud.sites[0, 0] + 1e-13]])
        tight = measure_cloud(np.sort(sites), 1)
        with pytest.raises(NotPositiveDefinite):
            matern_covariance(tight, nu=1.5, rho=0.3, sigma2=1.0)

    @pytest.mark.parametrize("name", ["rho", "sigma2"])
    @pytest.mark.parametrize(
        "value",
        [0.0, -1.0, float("nan"), float("inf"), "0.3", True, np.True_, None],
        ids=["zero", "negative", "nan", "inf", "str", "bool", "numpy-bool", "none"],
    )
    def test_bad_parameter_refused_by_name(self, cloud, name, value):
        # Each is refused by name before any distance is taken: a NaN rho
        # would otherwise fail the symmetry check and an infinite sigma2 the
        # pivot gate, neither of which names the parameter.
        params = {"rho": 0.3, "sigma2": 1.0, name: value}
        with pytest.raises(InvalidInput, match=f"^{name} must be a finite, positive real number"):
            matern_covariance(cloud, nu=1.5, **params)


class TestSample:
    def test_identity_returns_raw_normals(self):
        from gpprec.truth import GroundTruth

        truth = GroundTruth(
            omega=np.eye(3), omega_norm=1.0, kappa=1.0,
            geometry=LatticeShape(3, 1), model_tag="identity",
        )
        z = sample(truth, 4, seed=9)
        rng = np.random.Generator(np.random.Philox(key=9))
        np.testing.assert_array_equal(z, rng.standard_normal((4, 3)))

    def test_moment_check(self):
        # Seed 11 realizes a maximum entrywise deviation of 7.5e-4.
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 100_000, seed=11)
        from gpprec.linalg import sample_covariance

        dev = np.max(np.abs(sample_covariance(z) - truth.sigma))
        assert dev < 0.05

    def test_bit_identical_reruns(self):
        truth = build_lattice_precision(4, 1, 1)
        np.testing.assert_array_equal(sample(truth, 50, seed=3), sample(truth, 50, seed=3))

    def test_sigma_factored_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a.shape)
            return reverse_cholesky(a)

        monkeypatch.setattr(truth_module, "reverse_cholesky", counting)
        truth = build_lattice_precision(6, 1, 1)
        first = sample(truth, 20, seed=5)
        np.testing.assert_array_equal(sample(truth, 20, seed=5), first)
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("p,d,s,n", [(22, 2, 2, 300), (513, 1, 1, 200)])
    def test_matches_gemm_formula(self, p, d, s, n):
        # The in-place triangular product equals the plain GEMM on the
        # same Philox draws, up to roundoff.
        truth = build_lattice_precision(p, d, s)
        z = sample(truth, n, seed=7)
        g = np.random.Generator(np.random.Philox(key=7)).standard_normal((n, truth.dim))
        reference = g @ truth.sigma_factor.T
        assert z.shape == (n, truth.dim)
        assert z.dtype == np.float64
        assert z.flags.c_contiguous
        assert np.max(np.abs(z - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("p,d,s,n", [(22, 2, 2, 300), (513, 1, 1, 200), (12, 1, 3, 50)])
    def test_matches_cholesky_of_sigma(self, p, d, s, n):
        # Lattice truths sample through inv(omega_factor)^T, which is the
        # lower Cholesky factor of sigma up to roundoff.
        truth = build_lattice_precision(p, d, s)
        z = sample(truth, n, seed=7)
        g = np.random.Generator(np.random.Philox(key=7)).standard_normal((n, truth.dim))
        reference = g @ cholesky_lower(truth.sigma).T
        assert np.max(np.abs(z - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("p,d,s", [(22, 2, 2), (40, 1, 1)])
    def test_prefix_of_larger_draw(self, p, d, s):
        # The Philox normals fill row-major, so a larger draw's first rows
        # are the smaller draw's normals; the triangular product over more
        # rows may round differently.
        truth = build_lattice_precision(p, d, s)
        big = sample(truth, 2000, seed=5)
        for n in (1, 300, 1999):
            small = sample(truth, n, seed=5)
            assert np.max(np.abs(big[:n] - small)) <= 1e-12 * np.max(np.abs(small))

    def test_seeds_differ(self):
        truth = build_lattice_precision(4, 1, 1)
        assert not np.array_equal(sample(truth, 50, seed=3), sample(truth, 50, seed=4))

    def test_oversized_draw_refused_before_allocation(self):
        # 10**12 rows of 4 entries would be 32 TB, whose allocation fails
        # with numpy's untyped memory error: the cap on a held draw refuses
        # it first, before the sampling factor is formed.
        truth = build_lattice_precision(4, 1, 1)
        with pytest.raises(CapacityExceeded, match="held entries"):
            sample(truth, 10**12, 0)
        assert "sigma_factor" not in truth.__dict__

    def test_draw_cap_admits_the_largest_cap_run(self):
        # The d = 1 and d = 2 lattice caps hold a 4000 x 4096 draw.
        truth_module._check_draw(4000, 4096)
        with pytest.raises(CapacityExceeded):
            truth_module._check_draw(truth_module.MAX_DRAW_ENTRIES + 1, 1)


def identity_truth(dim):
    return truth_module.GroundTruth(
        omega=np.eye(dim), omega_norm=1.0, kappa=1.0,
        geometry=LatticeShape(dim, 1), model_tag="identity",
    )


def stacked(blocks):
    """The blocks of a stream stacked, each copied before the next overwrites it."""
    return np.concatenate([block.copy() for block in blocks])


class TestSampleBlocks:
    """The streamed draw: blocks of a fixed row count that stack to ``sample``."""

    @pytest.mark.parametrize("n", [1, 1083, 1084, 4000])
    def test_blocks_stack_to_sample(self, n):
        # 484 variables give blocks of 541 rows: one short block, two full
        # blocks and one row, two full blocks and two rows, and eight
        # blocks, so the two slots of the stream are each reused.
        truth = build_lattice_precision(22, 2, 2)
        assert truth_module._draw_rows(truth.dim) == 541
        blocks = sample_blocks(truth, n, seed=7)
        shapes = []
        stream = []
        for block in blocks:
            assert block.flags.c_contiguous
            shapes.append(block.shape)
            stream.append(block.copy())
        rows = [min(541, n - lo) for lo in range(0, n, 541)]
        assert shapes == [(r, truth.dim) for r in rows]
        assert np.array_equal(np.concatenate(stream), sample(truth, n, seed=7))

    def test_normals_stable_across_block_edges(self):
        # 1024 variables give blocks of 256 rows, so 1500 rows cross five
        # block edges; the identity factor leaves the normals as drawn.
        truth = identity_truth(1024)
        assert truth_module._draw_rows(truth.dim) == 256
        want = np.random.Generator(np.random.Philox(key=9)).standard_normal((1500, 1024))
        assert np.array_equal(sample(truth, 1500, seed=9), want)
        assert np.array_equal(stacked(sample_blocks(truth, 1500, seed=9)), want)

    def test_prefix_exact_outside_the_last_block(self):
        # Rows of whole blocks are bit for bit the same in a longer draw; a
        # prefix ending inside a block matches it to roundoff.
        truth = build_lattice_precision(22, 2, 2)
        big = sample(truth, 3000, seed=5)
        assert np.array_equal(big[:2164], sample(truth, 2164, seed=5))
        small = sample(truth, 2000, seed=5)
        assert np.array_equal(big[:1623], small[:1623])
        assert np.max(np.abs(big[:2000] - small)) <= 1e-12 * np.max(np.abs(small))

    @pytest.mark.parametrize("dim, rows", [(1, 1 << 18), (500, 524), (2048, 256), (4096, 512)])
    def test_block_rows_rule(self, dim, rows):
        # About 2 MiB of entries, and at least an eighth of the dimension.
        assert truth_module._draw_rows(dim) == rows

    def test_nonpositive_count_rejected_at_call(self):
        with pytest.raises(InvalidInput):
            sample_blocks(build_lattice_precision(4, 1, 1), 0, seed=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, None])
    def test_non_integer_count_rejected_at_call(self, n):
        truth = build_lattice_precision(4, 1, 1)
        with pytest.raises(InvalidInput, match="positive integer"):
            sample(truth, n, seed=0)
        with pytest.raises(InvalidInput, match="positive integer"):
            sample_blocks(truth, n, seed=0)
        embedding, _ = build_embedding(measure_cloud((np.arange(4) + 0.5) / 4, 1), c1=0.5)
        with pytest.raises(InvalidInput, match="positive integer"):
            padded_tiles(np.zeros((50, 4)), embedding, 0, EstimatorConfig(b_override=1), [n])
        assert sample(truth, np.int64(3), seed=0).shape == (3, 4)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range_rejected_at_call(self, seed):
        # Philox keys lie in [0, 2**128); numpy raises ValueError outside it.
        truth = build_lattice_precision(4, 1, 1)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            sample(truth, 3, seed)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            sample_blocks(truth, 3, seed)
        embedding, _ = build_embedding(measure_cloud((np.arange(4) + 0.5) / 4, 1), c1=0.5)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            padded_tiles(np.zeros((50, 4)), embedding, seed, EstimatorConfig(b_override=1), [50])
        assert sample(truth, 3, 2**128 - 1).shape == (3, 4)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "3", None])
    def test_non_integer_seed_rejected_at_call(self, seed):
        # int(seed) would key 2.5 as seed 2, and take True and "3".
        truth = build_lattice_precision(4, 1, 1)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            sample(truth, 5, seed)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            sample_blocks(truth, 5, seed)
        embedding, _ = build_embedding(measure_cloud((np.arange(4) + 0.5) / 4, 1), c1=0.5)
        with pytest.raises(InvalidInput, match="seed must lie in"):
            padded_tiles(np.zeros((50, 4)), embedding, seed, EstimatorConfig(b_override=1), [50])

    def test_numpy_integer_seed_accepted(self):
        truth = build_lattice_precision(4, 1, 1)
        assert np.array_equal(sample(truth, 5, np.uint64(2)), sample(truth, 5, 2))

    @pytest.mark.parametrize("p, d, s", [(2.5, 1, 1), (4, 2.0, 1), (4, 1, 1.5), (4, 1, True)])
    def test_non_integer_lattice_truth_refused(self, p, d, s):
        # Each would fail later with an untyped TypeError, or build from a bool power.
        with pytest.raises(InvalidInput):
            build_lattice_precision(p, d, s)

    def test_numpy_integer_lattice_truth_accepted(self):
        want = build_lattice_precision(4, 2, 1)
        got = build_lattice_precision(np.int64(4), np.int32(2), np.int8(1))
        assert np.array_equal(got.omega, want.omega)

    @pytest.mark.parametrize("model", ["laplacian", "matern"])
    def test_factor_reaches_dtrmm_in_fortran_order(self, monkeypatch, model):
        # f2py copies a factor in any other order, on every block; the
        # lattice factor is the dtrtri output as it is, applied transposed.
        if model == "laplacian":
            truth = build_lattice_precision(22, 2, 2)
        else:
            cloud = measure_cloud(np.linspace(0.05, 0.95, 300), 1)
            truth = matern_covariance(cloud, nu=1.5, rho=0.3, sigma2=1.0)
        seen = []
        dtrmm = truth_module.blas.dtrmm

        def recording(alpha, a, b, **kwargs):
            seen.append((a.flags.f_contiguous, kwargs["lower"], kwargs["trans_a"]))
            return dtrmm(alpha, a, b, **kwargs)

        monkeypatch.setattr(truth_module.blas, "dtrmm", recording)
        n = 2 * truth_module._draw_rows(truth.dim) + 1
        z = sample(truth, n, seed=4)
        lower, trans_a = (0, 1) if model == "laplacian" else (1, 0)
        # Two full blocks and one row: three products, of the same factor.
        assert seen == [(True, lower, trans_a)] * 3
        g = np.random.Generator(np.random.Philox(key=4)).standard_normal((n, truth.dim))
        reference = g @ truth.sigma_factor.T
        assert np.max(np.abs(z - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_early_close_leaves_the_fill_thread_idle(self, monkeypatch, slow_philox):
        # The first block is yielded with the second block's fill queued or
        # running; closing the stream there cancels that fill or waits for
        # it, so no fill runs after close returns.
        truth = build_lattice_precision(22, 2, 2)
        rows = truth_module._draw_rows(truth.dim)
        n = 3 * rows
        with monkeypatch.context() as patch:
            patch.setattr(truth_module, "_philox", slow_philox)
            blocks = sample_blocks(truth, n, seed=8)
            first = next(blocks).copy()
            blocks.close()
        slow_philox.assert_idle_after_close()
        assert np.array_equal(first, sample(truth, n, seed=8)[:rows])

    def test_slots_take_one_block_of_twice_the_size(self):
        # A pass of twenty blocks at dim 500 holds its two slots of 524
        # rows, 2**19 entries between them at most, and little else.
        truth = build_lattice_precision(500, 1, 1)
        truth.sigma_factor  # formed outside the trace
        n = 20 * truth_module._draw_rows(truth.dim)
        tracemalloc.start()
        try:
            for _ in sample_blocks(truth, n, seed=1):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * 2 * 524 * 500 <= peak <= 8 * (1 << 19) + (1 << 15)


class _FailingGenerator:
    """A generator whose every fill raises ``error``."""

    def __init__(self, error):
        self.error = error

    def standard_normal(self, *args, **kwargs):
        raise self.error


class TestFillThread:
    """Normals filled ahead on the package's one fill thread."""

    @pytest.fixture(scope="class")
    def draws(self):
        # Six draw blocks of 541 rows for 3000 rows of the lattice truth,
        # three of 873 rows for 2500 rows of the Matern truth on the 300
        # sites, and four padded blocks of the lattice the sites embed in.
        truth = build_lattice_precision(22, 2, 2)
        cloud = measure_cloud(np.linspace(0.05, 0.95, 300), 1)
        site_truth = matern_covariance(cloud, nu=1.5, rho=0.3, sigma2=1.0)
        embedding, _ = build_embedding(cloud)
        z = np.random.Generator(np.random.Philox(key=2)).standard_normal((2500, 300))
        return truth, site_truth, embedding, z

    @staticmethod
    def pad(embedding, samples, seed=9):
        tiles = padded_tiles(samples, embedding, seed, EstimatorConfig(b_override=2), [1000, 2500])
        return {n: t.dense() for n, t in tiles.items()}

    def calls(self, draws):
        """Draws of every kind: arrays, streams, and padding of an array and of a stream."""
        truth, site_truth, embedding, z = draws
        return {
            "sample-11": lambda: sample(truth, 3000, seed=11),
            "sample-12": lambda: sample(truth, 3000, seed=12),
            "blocks-13": lambda: stacked(sample_blocks(truth, 3000, seed=13)),
            "tiles-9": lambda: self.pad(embedding, z, 9),
            "tiles-10": lambda: self.pad(embedding, z, 10),
            "streamed-tiles-9": lambda: self.pad(embedding, sample_blocks(site_truth, 2500, 5), 9),
        }

    @staticmethod
    def assert_same(got, want):
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, dict):
                assert got[name].keys() == value.keys()
                for n, tiles in value.items():
                    assert np.array_equal(got[name][n], tiles)
            else:
                assert np.array_equal(got[name], value)

    def test_threads_match_sequential_results(self, draws):
        # Three threads draw, one of them a stream, while three pad, one of
        # them a stream's rows: more threads than cores, all queueing fills
        # on the one worker.  Each stream is still filled in order.
        calls = self.calls(draws)
        want = {name: call() for name, call in calls.items()}
        got = {}
        start = threading.Barrier(len(calls))

        def run(name):
            start.wait()
            got[name] = calls[name]()

        threads = [threading.Thread(target=run, args=(name,)) for name in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fill_threads = [t for t in threading.enumerate() if t.name.startswith("gpprec-philox")]
        assert len(fill_threads) == 1
        self.assert_same(got, want)

    def test_failing_fill_raises_in_the_caller(self, draws, monkeypatch):
        # Every kind of draw re-raises the fill's own exception, and
        # later draws still match.
        calls = self.calls(draws)
        want = {name: call() for name, call in calls.items()}
        error = RuntimeError("fill failed")
        with monkeypatch.context() as patch:
            for module in (truth_module, matching_module):
                patch.setattr(module, "_philox", lambda seed: _FailingGenerator(error))
            for call in calls.values():
                with pytest.raises(RuntimeError) as raised:
                    call()
                assert raised.value is error
        self.assert_same({name: call() for name, call in calls.items()}, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
    def test_forked_child_draws(self):
        # The child inherits no worker thread; it starts its own.
        truth = build_lattice_precision(22, 2, 2)
        want = sample(truth, 3000, seed=11)
        with warnings.catch_warnings():
            # Python 3.12 warns on a fork of a process with threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(sample(truth, 3000, seed=11), want) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's draw did not finish within 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0


class TestScreeningProfile:
    def test_diagonal_precision_is_all_zero(self):
        pts = np.linspace(0.2, 0.8, 5)
        prof = screening_profile(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), pts, h=0.1)
        assert np.all(prof.values == 0.0)

    def test_tridiagonal_vanishes_beyond_one_step(self):
        truth = build_lattice_precision(12, 1, 1)
        pts = lattice_points(truth.geometry)
        prof = screening_profile(truth.omega, pts, h=1.0 / 13)
        assert prof.values[0] > 0
        assert np.all(prof.values[1:] == 0.0)

    def test_s2_fit(self):
        truth = build_lattice_precision(32, 1, 2)
        pts = lattice_points(truth.geometry)
        prof = screening_profile(truth.omega, pts, h=1.0 / 33)
        assert prof.slope < 0
        assert prof.r2 >= 0.9


    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0])
    def test_non_finite_or_zero_bin_width_refused(self, h):
        # A NaN width used to give one bin and a RuntimeWarning.
        pts = np.linspace(0.2, 0.8, 5)
        with pytest.raises(InvalidInput, match="h must be finite and positive"):
            screening_profile(np.eye(5), pts, h=h)

    @pytest.mark.parametrize("h", ["0.1", True])
    def test_non_real_bin_width_refused(self, h):
        # A string is not compared with 0, and a bool is not taken as 1.
        pts = np.linspace(0.2, 0.8, 5)
        with pytest.raises(InvalidInput, match="h must be finite and positive"):
            screening_profile(np.eye(5), pts, h=h)


class TestLogLinearFit:
    def test_exact_line(self):
        x = np.arange(1, 6, dtype=float)
        slope, intercept, r2 = log_linear_fit(x, np.exp(2.0 - 0.7 * x))
        assert slope == pytest.approx(-0.7)
        assert intercept == pytest.approx(2.0)
        assert r2 == pytest.approx(1.0)

    def test_insufficient_points(self):
        slope, _, r2 = log_linear_fit(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        assert np.isnan(slope) and np.isnan(r2)
