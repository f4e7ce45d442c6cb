"""Verification suites for the package's structural and numerical claims.

Each suite checks one family of properties on a fixed, seeded corpus and
reports a pass/fail with measured statistics.  The command-line ``verify``
subcommand runs them; tests reuse the same functions so that the shipped
checks and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cholesky import exact_block_factor
from .errors import InvalidInput
from .estimator import EstimatorConfig, estimate_precision, ols_plugin_row
from .hierarchy import LevelPartition
from .lattice import lattice_points
from .linalg import (
    block_inverse_schur,
    cholesky_lower,
    sample_covariance,
    spd_inverse,
    spd_sqrt,
    spectral_norm,
    symmetrize,
)
from .matching import measure_cloud
from .truth import (
    build_green_restriction,
    build_lattice_precision,
    sample,
    screening_profile,
)

__all__ = ["SuiteResult", "SUITES", "run_suites", "random_spd", "perturbation_corpus"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_spd(rng, dim: int, kappa: float) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-spaced in ``[1, kappa]``."""
    g = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = np.exp(np.linspace(0.0, math.log(kappa), dim))
    return symmetrize(q @ np.diag(eigs) @ q.T)


def perturbation_corpus(n_cases: int = 100, dim: int = 20):
    """SPD matrices with symmetric perturbations satisfying ``kappa*eps <= 0.4``.

    Yields ``(b, b_hat, eps_b, kappa)`` tuples; ``eps_b`` is the realized
    relative perturbation ``|b_hat - b| / |b|``.  The corpus is drawn
    from the Philox key 2024.
    """
    rng = np.random.Generator(np.random.Philox(key=2024))
    out = []
    for _ in range(n_cases):
        kappa = float(np.exp(rng.uniform(math.log(2.0), math.log(40.0))))
        b = random_spd(rng, dim, kappa)
        norm_b = spectral_norm(b)
        e = symmetrize(rng.standard_normal((dim, dim)))
        target = 0.4 * rng.uniform(0.05, 1.0) / kappa
        e *= target * norm_b / spectral_norm(e)
        b_hat = symmetrize(b + e)
        eps_b = spectral_norm(b_hat - b) / norm_b
        out.append((b, b_hat, eps_b, kappa))
    return out


def suite_perturbation() -> SuiteResult:
    """Inverse, Cholesky-factor, and square-root perturbation inequalities."""
    worst = {"inverse": 0.0, "cholesky": 0.0, "sqrt": 0.0}
    dim = 20
    for b, b_hat, eps_b, _ in perturbation_corpus(100, dim):
        kappa_eps = np.linalg.cond(b) * eps_b
        inv_err = spectral_norm(spd_inverse(b_hat) - spd_inverse(b)) / spectral_norm(
            spd_inverse(b)
        )
        inv_bound = kappa_eps / (1.0 - kappa_eps)
        l, l_hat = cholesky_lower(b), cholesky_lower(b_hat)
        chol_err = np.linalg.norm(l_hat - l, 2) / np.linalg.norm(l, 2)
        chol_bound = (2.0 * math.log2(dim) + 4.0) * kappa_eps
        root_err = spectral_norm(spd_sqrt(b_hat) - spd_sqrt(b)) / spectral_norm(
            spd_sqrt(b)
        )
        root_bound = math.sqrt(np.linalg.cond(b)) * eps_b
        worst["inverse"] = max(worst["inverse"], inv_err / inv_bound)
        worst["cholesky"] = max(worst["cholesky"], chol_err / chol_bound)
        worst["sqrt"] = max(worst["sqrt"], root_err / root_bound)
    passed = all(v <= 1.0 for v in worst.values())
    detail = ", ".join(f"{k} worst ratio {v:.3f}" for k, v in worst.items())
    return SuiteResult("perturbation", passed, detail)


def suite_block_inverse() -> SuiteResult:
    """Schur-formula block inverse agrees with the direct SPD inverse."""
    rng = np.random.Generator(np.random.Philox(key=11))
    worst = 0.0
    for _ in range(12):
        dim = int(rng.integers(3, 11))
        sigma = random_spd(rng, dim, float(rng.uniform(2.0, 200.0)))
        direct = spd_inverse(sigma)
        for split in range(1, dim):
            k11, k12, k21, k22 = block_inverse_schur(sigma, split)
            stacked = np.block([[k11, k12], [k21, k22]])
            worst = max(worst, spectral_norm(symmetrize(stacked - direct)) / spectral_norm(direct))
    return SuiteResult("block_inverse", worst <= 1e-9, f"worst relative gap {worst:.2e}")


def suite_ols() -> SuiteResult:
    """Inverted sample covariance equals regression plug-in, row by row."""
    rng = np.random.Generator(np.random.Philox(key=12))
    worst = 0.0
    for case in range(20):
        dim = 3 + case % 6
        n = 50
        z = rng.standard_normal((n, dim)) @ random_spd(rng, dim, 5.0)
        inv = spd_inverse(sample_covariance(z))
        for i in range(dim):
            row = ols_plugin_row(z, i)
            worst = max(
                worst,
                float(np.linalg.norm(row - inv[i]) / np.linalg.norm(inv[i])),
            )
    return SuiteResult("ols", worst <= 1e-10, f"worst row gap {worst:.2e}")


def suite_reconstruction() -> SuiteResult:
    """Exact block factor reproduces the matrix and the dense Cholesky factor."""
    rng = np.random.Generator(np.random.Philox(key=13))
    worst_rec, worst_chol = 0.0, 0.0
    for _ in range(12):
        q = int(rng.integers(1, 5))
        sizes = rng.integers(1, 9, size=q)
        levels = LevelPartition.from_sizes(sizes)
        omega = random_spd(rng, levels.m, float(rng.uniform(2.0, 500.0)))
        u = exact_block_factor(omega, levels, d=1)
        rec_gap = spectral_norm(symmetrize(u @ u.T - omega)) / spectral_norm(omega)
        worst_rec = max(worst_rec, rec_gap)
        n = levels.m
        j = np.eye(n)[::-1]
        dense_u = j @ np.linalg.cholesky(j @ omega @ j) @ j
        worst_chol = max(
            worst_chol,
            float(np.linalg.norm(u - dense_u, 2) / np.linalg.norm(dense_u, 2)),
        )
    passed = worst_rec <= 1e-8 and worst_chol <= 1e-8
    return SuiteResult(
        "reconstruction",
        passed,
        f"worst reconstruction {worst_rec:.2e}, worst factor gap {worst_chol:.2e}",
    )


def suite_eig_scaling() -> SuiteResult:
    """Eigenvalue and diagonal power laws of the lattice truths."""
    s, d = 2, 1
    hs, lmax, lmin_scaled, diag_lo, diag_hi = [], [], [], [], []
    for p in (8, 16, 32, 64):
        truth = build_lattice_precision(p, d, s)
        h = 1.0 / (p + 1)
        w = np.linalg.eigvalsh(truth.omega)
        hs.append(h)
        lmax.append(w[-1])
        lmin_scaled.append(w[0] * h**-d)
        diag = np.diag(truth.omega)
        diag_lo.append(diag.min() * h ** (2 * s - d))
        diag_hi.append(diag.max() * h ** (2 * s - d))
    slope = float(np.polyfit(np.log(hs), np.log(lmax), 1)[0])
    target = d - 2 * s
    slope_ok = abs(slope - target) <= 0.15 * abs(target)
    stable = max(lmin_scaled) / min(lmin_scaled)
    diag_stable = max(diag_hi) / min(diag_lo)
    passed = slope_ok and stable <= 10.0 and diag_stable <= 10.0
    return SuiteResult(
        "eig_scaling",
        passed,
        f"lambda_max slope {slope:.3f} (target {target}), "
        f"lambda_min stability {stable:.2f}x, diagonal stability {diag_stable:.2f}x",
    )


def suite_screening() -> SuiteResult:
    """Exponential decay of normalized precision entries with distance."""
    results = []
    truth = build_lattice_precision(32, 1, 2)
    pts = lattice_points(truth.geometry)
    prof = screening_profile(truth.omega, pts, h=1.0 / 33)
    results.append(("laplacian", prof.slope, prof.r2))
    fine_m = 79
    sites = np.arange(2, fine_m + 1, 2) / (fine_m + 1)
    cloud = measure_cloud(sites, 1)
    green = build_green_restriction(fine_m, 1, 2, cloud)
    prof_g = screening_profile(green.omega, cloud.sites, h=cloud.h)
    results.append(("green", prof_g.slope, prof_g.r2))
    passed = all(slope < 0 and r2 >= 0.9 for _, slope, r2 in results)
    detail = "; ".join(f"{name} slope {s:.2f} r2 {r2:.3f}" for name, s, r2 in results)
    return SuiteResult("screening", passed, detail)


def suite_symmetry() -> SuiteResult:
    """Estimates are exactly symmetric."""
    truth = build_lattice_precision(12, 1, 1)
    z = sample(truth, 400, seed=3)
    est = estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=truth.kappa))
    passed = bool(np.array_equal(est.matrix, est.matrix.T))
    gap = float(np.max(np.abs(est.matrix - est.matrix.T)))
    return SuiteResult("symmetry", passed, f"max asymmetry {gap:.2e}")


SUITES = {
    "screening": suite_screening,
    "eig_scaling": suite_eig_scaling,
    "perturbation": suite_perturbation,
    "block_inverse": suite_block_inverse,
    "ols": suite_ols,
    "reconstruction": suite_reconstruction,
    "symmetry": suite_symmetry,
}


def run_suites(names=None):
    """Run the named suites (all by default) and return their results.

    An unknown name raises ``InvalidInput`` before any suite runs.
    """
    names = list(SUITES) if not names else list(names)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise InvalidInput(f"unknown suites {unknown}; available: {sorted(SUITES)}")
    return [SUITES[name]() for name in names]
