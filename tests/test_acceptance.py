"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test registers a pass/fail line printed in the terminal summary, and
also enforces its runtime budget.  Randomness is Philox-seeded throughout,
so every run checks identical numbers.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracle import block_vertices, near_blocks, window_block

from gpprec.cholesky import (
    assemble_U,
    assemble_U_star,
    estimate_scales,
    exact_block_factor,
    exact_scales,
)
from gpprec.errors import NotPositiveDefinite
from gpprec.estimator import EstimatorConfig, estimate_precision, ols_plugin_row
from gpprec.hierarchy import LevelPartition, assign_levels, maximin_order
from gpprec.lattice import build_scheme, lattice_points
from gpprec.linalg import (
    cholesky_lower,
    sample_covariance,
    spd_inverse,
    spd_sqrt,
    spectral_norm,
    symmetrize,
)
from gpprec.matching import build_embedding, measure_cloud
from gpprec.truth import (
    build_lattice_precision,
    log_linear_fit,
    sample,
    screening_profile,
)
from gpprec.verify import perturbation_corpus, random_spd


class Budget:
    """Runtime guard; asserts the elapsed wall time stays under the limit."""

    def __init__(self, seconds):
        self.limit = seconds
        self.started = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s"


def nested_maximin_truth(q, s):
    truth = build_lattice_precision(2**q - 1, 1, s)
    cloud = measure_cloud(lattice_points(truth.geometry), 1)
    ordering = maximin_order(cloud)
    levels = assign_levels(ordering)
    permuted = dataclasses.replace(
        truth, omega=symmetrize(truth.omega[np.ix_(ordering.perm, ordering.perm)]), geometry=cloud
    )
    return permuted, levels


def median_errors(truth, n_values, seeds, config):
    norm = spectral_norm(truth.omega)
    out = {}
    for n in n_values:
        errs = []
        for seed in seeds:
            z = sample(truth, n, seed=seed)
            est = estimate_precision(z, truth.geometry, config)
            errs.append(spectral_norm(symmetrize(est.matrix - truth.omega)) / norm)
        out[n] = float(np.median(errs))
    return out


def test_criterion_1_population_bias_bound():
    budget = Budget(10.0)
    truth = build_lattice_precision(40, 1, 1)
    norm = spectral_norm(truth.omega)
    worst_margin = np.inf
    for b in (3, 4, 5):
        scheme = build_scheme(40, b, 1)
        bound = truth.kappa * math.exp(-3 * b) + 1e-12
        for j in scheme.block_indices():
            near = near_blocks(scheme, j, 1)
            for jp in near:
                t_block = window_block(truth.sigma, scheme, j, jp)
                want = truth.omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))]
                err = np.linalg.norm(t_block - want, 2) / norm
                assert err < bound
                worst_margin = min(worst_margin, bound - err)
    budget.check()
    record_criterion(
        1, "population-input local bias bound", True,
        f"min margin {worst_margin:.2e}, {budget.elapsed:.1f}s",
    )


def test_criterion_2_sqrt_n_rate():
    budget = Budget(120.0)
    truth = build_lattice_precision(40, 1, 1)
    # Fixed practical block width keeps the windows local at every N.
    config = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)
    medians = median_errors(truth, (250, 1000, 4000), range(20), config)
    ns = np.array(sorted(medians))
    slope, _, _ = log_linear_fit(np.log(ns.astype(float)), [medians[n] for n in ns])
    ok = -0.65 <= slope <= -0.35
    budget.check()
    record_criterion(2, "square-root sample-size rate", ok,
                     f"slope {slope:.3f}, {budget.elapsed:.1f}s")
    assert ok


def test_criterion_3_polylog_dimension_dependence():
    budget = Budget(120.0)
    medians = {}
    for p in (20, 40, 80):
        truth = build_lattice_precision(p, 1, 1)
        config = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)
        medians[p] = median_errors(truth, (2000,), range(20), config)[2000]
    ratio = medians[80] / medians[20]
    # With fewer samples than variables, inverting the full sample
    # covariance must fail while the blockwise route stays available.
    truth80 = build_lattice_precision(80, 1, 1)
    z_small = sample(truth80, 60, seed=0)
    with pytest.raises(NotPositiveDefinite):
        spd_inverse(sample_covariance(z_small))
    blockwise = estimate_precision(
        z_small, truth80.geometry, EstimatorConfig(kappa_hint=truth80.kappa, b_override=4)
    )
    assert blockwise.path == "blockwise"
    ok = ratio <= 1.5
    budget.check()
    record_criterion(3, "poly-log growth across lattice sizes", ok,
                     f"err(80)/err(20) = {ratio:.3f}, {budget.elapsed:.1f}s")
    assert ok


def test_criterion_4_ols_plugin_identity():
    budget = Budget(5.0)
    rng = np.random.Generator(np.random.Philox(key=404))
    worst = 0.0
    for case in range(20):
        dim = 3 + case % 6
        z = rng.standard_normal((50, dim)) @ random_spd(rng, dim, 10.0)
        inv = spd_inverse(sample_covariance(z))
        for i in range(dim):
            row = ols_plugin_row(z, i)
            worst = max(worst, float(np.linalg.norm(row - inv[i]) / np.linalg.norm(inv[i])))
    ok = worst <= 1e-10
    budget.check()
    record_criterion(4, "regression plug-in equals inverted covariance", ok,
                     f"worst row gap {worst:.2e}, {budget.elapsed:.1f}s")
    assert ok


def brute_force_maximum_matching(adjacency):
    """Exhaustive maximum matching with memoization on used node sets."""
    from functools import lru_cache

    order = sorted(range(len(adjacency)), key=lambda i: len(adjacency[i]))

    @lru_cache(maxsize=None)
    def best(idx, used):
        if idx == len(order):
            return 0
        score = best(idx + 1, used)
        for t in adjacency[order[idx]]:
            if t not in used:
                score = max(score, 1 + best(idx + 1, used | frozenset({t})))
        return score

    return best(0, frozenset())


def test_criterion_5_hall_matching():
    budget = Budget(30.0)
    from gpprec.lattice import lattice_points as nodes_of

    checked_small = 0
    for case in range(200):
        rng = np.random.Generator(np.random.Philox(key=5000 + case))
        d = 1 if case % 2 == 0 else 2
        if case % 5 == 0:
            per_axis = int(rng.integers(2, 3 if d == 2 else 9))
        else:
            per_axis = int(rng.integers(3, 10 if d == 2 else 100))
        axes = [np.arange(1, per_axis + 1) / (per_axis + 1)] * d
        base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        sites = base + rng.uniform(-0.35, 0.35, size=base.shape) / (per_axis + 1)
        cloud = measure_cloud(sites, d)
        assert cloud.m <= 100
        embedding, _ = build_embedding(cloud)
        assert embedding.displacement <= cloud.h
        assert np.unique(embedding.node_of_site).size == cloud.m
        if cloud.m <= 8:
            # All-pairs edge reference; every matched pair must be an edge.
            positions = nodes_of(embedding.shape)
            adjacency = [
                frozenset(
                    t for t in range(len(positions))
                    if np.linalg.norm(positions[t] - x) <= cloud.h
                )
                for x in cloud.sites
            ]
            got = sum(
                t in adjacency[i] for i, t in enumerate(embedding.node_of_site.tolist())
            )
            assert got == brute_force_maximum_matching(adjacency) == cloud.m
            checked_small += 1
    assert checked_small >= 20
    budget.check()
    record_criterion(
        5, "site-perfect matching within the fill distance", True,
        f"200 clouds, {checked_small} brute-force checks, {budget.elapsed:.1f}s",
    )


def test_criterion_6_block_cholesky_exactness():
    budget = Budget(10.0)
    rng = np.random.Generator(np.random.Philox(key=606))
    worst_rec, worst_factor = 0.0, 0.0
    for _ in range(50):
        q = int(rng.integers(1, 5))
        sizes = rng.integers(1, 11, size=q)
        while sizes.sum() > 40:
            sizes = rng.integers(1, 11, size=q)
        levels = LevelPartition.from_sizes(sizes)
        omega = random_spd(rng, levels.m, float(rng.uniform(2.0, 1e4)))
        u = exact_block_factor(omega, levels, d=int(rng.integers(1, 4)))
        rec_gap = spectral_norm(symmetrize(u @ u.T - omega)) / spectral_norm(omega)
        n = levels.m
        j = np.eye(n)[::-1]
        dense = j @ np.linalg.cholesky(j @ omega @ j) @ j
        factor_gap = np.linalg.norm(u - dense, 2) / np.linalg.norm(dense, 2)
        worst_rec = max(worst_rec, rec_gap)
        worst_factor = max(worst_factor, factor_gap)
    ok = worst_rec <= 1e-8 and worst_factor <= 1e-8
    budget.check()
    record_criterion(
        6, "multiscale factor reconstructs and matches dense Cholesky", ok,
        f"worst gaps {worst_rec:.2e} / {worst_factor:.2e}, {budget.elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_diagonal_block_conditioning():
    budget = Budget(10.0)
    truth, levels = nested_maximin_truth(4, s=2)
    assert levels.q == 4
    scales = exact_scales(truth.omega, levels, d=1)
    kappas = [float(np.linalg.cond(b)) for b in scales.b_blocks]
    spread = max(kappas) / min(kappas)
    ok = spread <= 10.0
    budget.check()
    record_criterion(
        7, "stiffness-block conditioning stable across scales", ok,
        f"kappa spread {spread:.2f}x over q=4, {budget.elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_cholesky_estimator_error():
    budget = Budget(180.0)
    truth, levels = nested_maximin_truth(3, s=1)
    config = EstimatorConfig(kappa_hint=truth.kappa)
    exact = exact_scales(truth.omega, levels, d=1)
    exact_u = assemble_U(exact)
    exact_star = assemble_U_star(exact)
    u_errs, star_errs, prec_errs = [], [], []
    for seed in range(20):
        z = sample(truth, 8000, seed=seed)
        scales = estimate_scales(z, levels, config, d=1)
        u_hat = assemble_U(scales)
        star_hat = assemble_U_star(scales)
        u_errs.append(np.linalg.norm(u_hat - exact_u, 2) / np.linalg.norm(exact_u, 2))
        star_errs.append(np.linalg.norm(star_hat - exact_star, 2) / np.linalg.norm(exact_star, 2))
        prec_errs.append(
            spectral_norm(symmetrize(scales.omegas[-1] - truth.omega)) / spectral_norm(truth.omega)
        )
    med_u, med_star, med_prec = (float(np.median(v)) for v in (u_errs, star_errs, prec_errs))
    ok = np.isfinite(med_u) and med_u <= 5.0 * med_prec and med_star <= 1.2 * med_u
    budget.check()
    record_criterion(
        8, "factor estimation error tracks the single-scale error", ok,
        f"factor {med_u:.4f}, star {med_star:.4f}, precision {med_prec:.4f}, {budget.elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_perturbation_bounds():
    budget = Budget(10.0)
    worst = 0.0
    for b, b_hat, eps_b, _ in perturbation_corpus(n_cases=100, dim=20):
        kappa_eps = np.linalg.cond(b) * eps_b
        assert kappa_eps <= 0.4
        inv_err = spectral_norm(spd_inverse(b_hat) - spd_inverse(b)) / spectral_norm(spd_inverse(b))
        assert inv_err <= kappa_eps / (1.0 - kappa_eps)
        l, l_hat = cholesky_lower(b), cholesky_lower(b_hat)
        chol_err = np.linalg.norm(l_hat - l, 2) / np.linalg.norm(l, 2)
        assert chol_err <= (2.0 * math.log2(20) + 4.0) * kappa_eps
        root_err = spectral_norm(spd_sqrt(b_hat) - spd_sqrt(b)) / spectral_norm(spd_sqrt(b))
        assert root_err <= math.sqrt(np.linalg.cond(b)) * eps_b
        worst = max(worst, inv_err / (kappa_eps / (1.0 - kappa_eps)))
    budget.check()
    record_criterion(
        9, "inverse, Cholesky, and root perturbation bounds", True,
        f"tightest bound used at ratio {worst:.3f}, {budget.elapsed:.1f}s",
    )


def test_criterion_10_structural_scaling_and_screening():
    budget = Budget(60.0)
    d, s = 1, 2
    hs, tops, lo_scaled, r2s = [], [], [], []
    for p in (8, 16, 32, 64):
        truth = build_lattice_precision(p, d, s)
        h = 1.0 / (p + 1)
        w = np.linalg.eigvalsh(truth.omega)
        hs.append(h)
        tops.append(w[-1])
        lo_scaled.append(w[0] / h**d)
        prof = screening_profile(truth.omega, lattice_points(truth.geometry), h=h)
        r2s.append(prof.r2)
    slope = float(np.polyfit(np.log(hs), np.log(tops), 1)[0])
    target = d - 2 * s
    slope_ok = abs(slope - target) <= 0.15 * abs(target)
    stability = max(lo_scaled) / min(lo_scaled)
    ok = slope_ok and stability <= 10.0 and min(r2s) >= 0.9
    budget.check()
    record_criterion(
        10, "eigenvalue power laws and screening decay", ok,
        f"slope {slope:.2f} vs {target}, stability {stability:.2f}x, "
        f"min r2 {min(r2s):.3f}, {budget.elapsed:.1f}s",
    )
    assert ok
