"""Ground-truth models: construction, sampling, and structural diagnostics."""

import time

import numpy as np
import pytest

from gpprec.errors import CapacityExceeded, InvalidInput, NotPositiveDefinite
from gpprec.lattice import LatticeShape, lattice_points
from gpprec import truth as truth_module
from gpprec.linalg import cholesky_lower, reverse_cholesky, spectral_norm, symmetrize
from gpprec.matching import measure_cloud
from gpprec.truth import (
    build_green_restriction,
    build_lattice_precision,
    l1_tail_profile,
    log_linear_fit,
    matern_covariance,
    sample,
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

    @pytest.mark.parametrize("p, d, s", [(8, 1, 1), (12, 1, 2), (6, 2, 2), (5, 3, 1)])
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
        norm = truth.omega_norm
        assert time.perf_counter() - started < 1.0
        top = 2049**2 * 4 * np.sin(2048 * np.pi / 4098) ** 2
        assert norm == pytest.approx(top / 2049, rel=1e-14)

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
        ks, tails = l1_tail_profile(truth.omega, truth.geometry)
        positive = tails > 0
        slope, _, r2 = log_linear_fit(ks[positive], tails[positive])
        assert slope < 0
        assert r2 >= 0.9

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


class TestSample:
    def test_identity_returns_raw_normals(self):
        from gpprec.truth import GroundTruth

        truth = GroundTruth(
            omega=np.eye(3), kappa=1.0,
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

    def test_seeds_differ(self):
        truth = build_lattice_precision(4, 1, 1)
        assert not np.array_equal(sample(truth, 50, seed=3), sample(truth, 50, seed=4))


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
