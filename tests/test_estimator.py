"""Blockwise lattice estimator: window bias, assembly, routes, regression view."""

import math
import tracemalloc

import numpy as np
import pytest

from gpprec import estimator as estimator_module
from gpprec.errors import InvalidInput, LocalSingular, NotPositiveDefinite
from gpprec.estimator import (
    BLOCKWISE,
    FALLBACK,
    BandTiles,
    EstimatorConfig,
    _band_tiles,
    _windows,
    WINDOW_RADIUS,
    estimate_precision,
    ols_plugin_row,
    plan_estimate,
)
from gpprec.lattice import LatticeShape, build_scheme
from gpprec.linalg import sample_covariance, spd_inverse, spectral_norm, symmetrize
from gpprec.truth import GroundTruth, build_green_restriction, build_lattice_precision, sample
from gpprec.matching import measure_cloud
from oracle import (
    assemble,
    band_gram,
    block_vertices,
    indexed_estimate,
    near_blocks,
    reference_estimate,
    window_block,
    window_vertices,
)


def banded_block_truth(p, b, rng):
    """SPD matrix whose support lies inside the one-block band of the scheme."""
    scheme = build_scheme(p, b, 1)
    mask = np.zeros((p, p), dtype=bool)
    for j in scheme.block_indices():
        near = near_blocks(scheme, j, 1)
        for jp in near:
            mask[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = True
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
    """The width rule ``b = ceil(log(N * kappa))`` clamped to ``1..p``, in plan_estimate."""

    def test_floor_at_one(self):
        # log(1 * 1) = 0: the floor makes b = 1, whose one-vertex windows
        # are under-sampled by N = 1, rather than a width of 0.
        with pytest.raises(LocalSingular):
            plan_estimate(LatticeShape(64, 1), 1, EstimatorConfig(kappa_hint=1.0))

    def test_log_twenty(self):
        assert plan_estimate(LatticeShape(64, 1), 20, EstimatorConfig(kappa_hint=1.0)) == 3

    def test_log_ten_thousand(self):
        assert plan_estimate(LatticeShape(64, 1), 100, EstimatorConfig(kappa_hint=100.0)) == 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            plan_estimate(LatticeShape(64, 1), 0, EstimatorConfig(kappa_hint=1.0))
        with pytest.raises(InvalidInput):
            EstimatorConfig(kappa_hint=0.5)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -float("inf"), 0.5])
    def test_rejects_kappa_not_finite_or_below_one(self, kappa):
        # A NaN or infinite kappa has no width ceil(log(n * kappa)), so it
        # is refused as bad input, not left to math.ceil to raise.
        with pytest.raises(InvalidInput, match="finite and at least 1"):
            EstimatorConfig(kappa_hint=kappa)

    @pytest.mark.parametrize(
        "kappa", ["5", True, np.True_, 2 + 0j], ids=["str", "bool", "numpy-bool", "complex"]
    )
    def test_rejects_kappa_not_real(self, kappa):
        # A string has no order against 1, and a bool is an int to Python:
        # both are refused by type, not left to a TypeError or taken as 1.
        with pytest.raises(InvalidInput, match="kappa_hint"):
            EstimatorConfig(kappa_hint=kappa)

    @pytest.mark.parametrize("kappa", [np.float64(100.0), np.float32(100.0), np.int64(100), 100])
    def test_numpy_and_integer_kappa_accepted(self, kappa):
        assert plan_estimate(LatticeShape(64, 1), 100, EstimatorConfig(kappa_hint=kappa)) == 10


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
                t_jj, omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, j))], atol=1e-12
            )

    def test_full_window_is_exact(self):
        # p <= 5b makes every window the whole lattice, so the population
        # inverse reproduces the truth block by block.
        truth = build_lattice_precision(10, 1, 2)
        scheme = build_scheme(10, 2, 1)
        for j in scheme.block_indices():
            near = near_blocks(scheme, j, 1)
            for jp in near:
                t_block = window_block(truth.sigma, scheme, j, jp)
                want = truth.omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))]
                assert np.max(np.abs(t_block - want)) <= 1e-10 * spectral_norm(truth.omega)

    def test_population_bias_bound_banded(self):
        # Tridiagonal truth: the windowed inverse is exact on in-band blocks.
        truth = build_lattice_precision(40, 1, 1)
        norm = spectral_norm(truth.omega)
        scheme = build_scheme(40, 4, 1)
        for j in scheme.block_indices():
            near = near_blocks(scheme, j, 1)
            for jp in near:
                t_block = window_block(truth.sigma, scheme, j, jp)
                want = truth.omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))]
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
                near = near_blocks(scheme, j, 1)
                for jp in near:
                    t_block = window_block(truth.sigma, scheme, j, jp)
                    want = truth.omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))]
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
            near = near_blocks(scheme, j, 1)
            for jp in near:
                locals_map[(j, jp)] = omega[
                    np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))
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
            near = near_blocks(scheme, j, 1)
            for jp in near:
                block = window_block(truth.sigma, scheme, j, jp)
                block += 0.01 * rng.standard_normal(block.shape) * np.abs(block).max()
                locals_map[(j, jp)] = block
                want = truth.omega[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))]
                worst_block = max(worst_block, np.linalg.norm(block - want, 2))
        est = assemble(locals_map, scheme)
        raw = np.zeros_like(truth.omega)
        for (j, jp), block in locals_map.items():
            raw[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = block
        in_band = np.zeros_like(truth.omega, dtype=bool)
        for j in scheme.block_indices():
            near = near_blocks(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = True
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
            omega=np.eye(2), omega_norm=1.0, kappa=1.0, geometry=shape,
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
        est = estimate_precision(BandTiles.from_covariance(sigma, scheme.shape, 2), scheme.shape)
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
        # kappa_hint=50 clamps the width to p=3 at N=2, one block whose
        # window of 3 vertices the rank-2 sample covariance cannot span.
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 2, seed=0)
        with pytest.raises(LocalSingular) as info:
            estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=50.0))
        assert (info.value.block, info.value.window_size, info.value.n_samples) == ((1,), 3, 2)

    def test_fallback_rank_bound_fails_before_covariance(self, monkeypatch):
        def forbidden(samples):
            raise AssertionError("covariance formed for a rank-deficient sample")

        monkeypatch.setattr("gpprec.estimator.sample_covariance", forbidden)
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 2, seed=0)
        with pytest.raises(LocalSingular):
            estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=50.0))

    def test_b_override_skips_fallback(self):
        # kappa_hint=50 clamps the rule's width to p=3 at N=500; an explicit
        # narrower width runs blockwise at that width all the same.
        truth = build_lattice_precision(3, 1, 1)
        z = sample(truth, 500, seed=0)
        est = estimate_precision(
            z, truth.geometry, EstimatorConfig(kappa_hint=50.0, b_override=1)
        )
        assert est.path == BLOCKWISE
        assert est.b == 1

    def test_full_width_is_one_route_whatever_sets_it(self, monkeypatch):
        # The rule clamps log(500 * kappa) to the side p = 4, and b_override=4
        # sets the same one-block scheme: both invert the full sample
        # covariance, bit for bit, and build no window.
        def forbidden(scheme):
            raise AssertionError("windows built for a one-block scheme")

        monkeypatch.setattr(estimator_module, "_windows", forbidden)
        truth = build_lattice_precision(4, 2, 1)
        z = sample(truth, 500, seed=3)
        rule = estimate_precision(z, truth.geometry, EstimatorConfig(kappa_hint=truth.kappa))
        full = estimate_precision(z, truth.geometry, EstimatorConfig(b_override=4))
        assert (rule.b, rule.path) == (full.b, full.path) == (4, FALLBACK)
        assert np.array_equal(rule.matrix, full.matrix)
        assert np.array_equal(full.matrix, spd_inverse(sample_covariance(z)))

    def test_one_block_pivot_failure_is_not_positive_definite(self):
        # The tiles of a covariance carry no sample count, so no plan refuses
        # a singular one; its full inverse fails the pivot gate.
        shape = LatticeShape(p=3, d=1)
        with pytest.raises(NotPositiveDefinite):
            estimate_precision(BandTiles.from_covariance(np.ones((3, 3)), shape, 3), shape)

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
            near = near_blocks(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = True
        assert np.all(est.matrix[~in_band] == 0.0)
        assert np.array_equal(est.matrix, est.matrix.T)

    def test_oversized_b_override_rejected(self):
        truth = build_lattice_precision(8, 1, 1)
        with pytest.raises(InvalidInput):
            BandTiles.from_covariance(truth.sigma, truth.geometry, 9)

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
        monkeypatch.setattr(estimator_module, "_band_tiles", None)
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
        perm = np.arange(shape.size).reshape(shape.p, shape.p).T.ravel()
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=2)
        direct = estimate_precision(z, shape, cfg).matrix
        swapped = estimate_precision(z[:, perm], shape, cfg).matrix
        np.testing.assert_allclose(swapped, direct[np.ix_(perm, perm)], atol=1e-10)

    def test_population_exactness_2d(self):
        # A fourth-order 2-d stencil has cityblock bandwidth 4; windows of
        # two blocks put the first omitted pairs at distance 5, so the
        # windowed inverse is exact on every in-band block.
        truth = build_lattice_precision(12, 2, 2)
        tiles = BandTiles.from_covariance(truth.sigma, truth.geometry, 2)
        est = estimate_precision(tiles, truth.geometry)
        assert est.path == BLOCKWISE
        in_band = np.zeros_like(truth.omega, dtype=bool)
        scheme = est.scheme
        for j in scheme.block_indices():
            near = near_blocks(scheme, j, 1)
            for jp in near:
                in_band[np.ix_(block_vertices(scheme, j), block_vertices(scheme, jp))] = True
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


class TestPlanEstimate:
    """The data-free refusals, against the oracle's tuple-union windows."""

    @staticmethod
    def first_under_sampled(p, b, d, n):
        scheme = build_scheme(p, b, d)
        for j in scheme.block_indices():
            size = window_vertices(scheme, j, WINDOW_RADIUS).size
            if size >= n:
                return j, size
        return None

    @pytest.mark.parametrize(
        "p,d,b", [(12, 1, 4), (20, 1, 4), (29, 1, 3), (9, 2, 2), (22, 2, 3), (11, 3, 2), (7, 3, 7)]
    )
    def test_refusal_matches_window_loop(self, p, d, b):
        cfg = EstimatorConfig(b_override=b)
        sizes = set()
        for j in build_scheme(p, b, d).block_indices():
            sizes.add(window_vertices(build_scheme(p, b, d), j, WINDOW_RADIUS).size)
        for n in sorted(sizes | {s + 1 for s in sizes} | {1}):
            want = self.first_under_sampled(p, b, d, n)
            if want is None:
                assert plan_estimate(LatticeShape(p, d), n, cfg) == b
                continue
            with pytest.raises(LocalSingular) as info:
                plan_estimate(LatticeShape(p, d), n, cfg)
            assert (info.value.block, info.value.window_size, info.value.n_samples) == (
                *want, n
            )
            assert all(type(x) is int for x in info.value.block)

    def test_routes(self):
        # log(500 * 50) = 10.1 clamps to the side: the one-block width 3.
        shape = LatticeShape(3, 1)
        assert plan_estimate(shape, 500, EstimatorConfig(kappa_hint=50.0)) == 3
        assert plan_estimate(shape, 500, EstimatorConfig(kappa_hint=50.0, b_override=1)) == 1
        wide = LatticeShape(200, 1)
        assert plan_estimate(wide, 1000, EstimatorConfig(kappa_hint=10.0)) == math.ceil(
            math.log(1000 * 10.0)
        )

    @pytest.mark.parametrize("kappa", [1.0, 50.0, 1e12])
    @pytest.mark.parametrize("n", [26, 100, 10**6])
    def test_every_accepted_size_plans_an_integer_width(self, n, kappa):
        b = plan_estimate(LatticeShape(5, 2), n, EstimatorConfig(kappa_hint=kappa))
        assert type(b) is int and 1 <= b <= 5

    def test_one_block_plan_builds_no_unit(self):
        # The one block's window is all 4096 vertices; its unit right-hand
        # side alone would take 134 MB.
        tracemalloc.start()
        try:
            b = plan_estimate(LatticeShape(64, 2), 5000, EstimatorConfig(b_override=64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b == 64
        assert peak < 2**20

    @pytest.mark.parametrize(
        "shape,n,cfg,error",
        [
            (LatticeShape(3, 1), 2, EstimatorConfig(kappa_hint=50.0), LocalSingular),
            (LatticeShape(8, 1), 100, EstimatorConfig(b_override=9), InvalidInput),
            (LatticeShape(8, 1), None, EstimatorConfig(b_override=9), InvalidInput),
            (LatticeShape(8, 1), None, EstimatorConfig(), InvalidInput),
            (LatticeShape(8, 1), 0, EstimatorConfig(b_override=2), InvalidInput),
            (LatticeShape(8, 1), 0, EstimatorConfig(), InvalidInput),
        ],
    )
    def test_refusals(self, shape, n, cfg, error):
        with pytest.raises(error):
            plan_estimate(shape, n, cfg)

    @pytest.mark.parametrize("n", [None, 2.5, 100.0, np.float64(100.0), True, "100"])
    def test_non_integer_size_refused(self, n):
        with pytest.raises(InvalidInput, match="sample count must be a positive integer"):
            plan_estimate(LatticeShape(8, 1), n, EstimatorConfig(b_override=2))
        with pytest.raises(InvalidInput, match="sample count must be a positive integer"):
            plan_estimate(LatticeShape(8, 1), n)

    @pytest.mark.parametrize("b", [2.5, 2.0, True, np.float64(2.0), "2"])
    def test_non_integer_width_refused(self, b):
        with pytest.raises(InvalidInput, match="b_override must be a positive integer"):
            EstimatorConfig(b_override=b)

    def test_numpy_integers_accepted(self):
        cfg = EstimatorConfig(b_override=np.int64(2))
        assert plan_estimate(LatticeShape(8, 1), np.int32(100), cfg) == 2

    def test_zero_rows_refused_as_invalid(self):
        with pytest.raises(InvalidInput):
            estimate_precision(np.zeros((0, 8)), LatticeShape(8, 1))


class TestWindowOracle:
    """The band-Gram route against one covariance and inverse per window.

    Each test also checks the estimate bit for bit against
    ``indexed_estimate``, the same window step by index arrays.
    """

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
        scheme = build_scheme(p, b, d)
        want = reference_estimate(z, scheme)
        assert est.path == BLOCKWISE
        assert np.max(np.abs(est.matrix - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.array_equal(est.matrix, est.matrix.T)
        gram = band_gram([z], z.shape[0], scheme)
        assert np.array_equal(est.matrix, indexed_estimate(gram, scheme))

    @pytest.mark.parametrize("p, d, s, b", [(11, 1, 1, 3), (12, 2, 2, 2), (5, 3, 1, 2)])
    def test_population(self, p, d, s, b):
        truth = build_lattice_precision(p, d, s)
        est = estimate_precision(
            BandTiles.from_covariance(truth.sigma, truth.geometry, b), truth.geometry
        )
        scheme = build_scheme(p, b, d)
        want = reference_estimate(truth.sigma, scheme, population=True)
        assert np.max(np.abs(est.matrix - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.array_equal(est.matrix, indexed_estimate(symmetrize(truth.sigma), scheme))

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


class TestWindowGate:
    """Both failure paths of the pivot gate name the first failing window."""

    @pytest.mark.parametrize(
        "p, d, b, n, dup, block, size",
        [
            # Vertex 39 copies 38; block 8's window, blocks 6..10, is the first to hold both.
            (40, 1, 4, 100, (39, 38), (8,), 20),
            # (12, 12) copies (12, 11); block (4, 4)'s window is the first, 10 x 10.
            (12, 2, 2, 200, (143, 142), (4, 4), 100),
        ],
    )
    def test_duplicated_column_stops_dpotrf(self, p, d, b, n, dup, block, size):
        truth = build_lattice_precision(p, d, 1)
        z = sample(truth, n, seed=5)
        z[:, dup[0]] = z[:, dup[1]]
        cfg = EstimatorConfig(kappa_hint=truth.kappa, b_override=b)
        with pytest.raises(LocalSingular) as info:
            estimate_precision(z, truth.geometry, cfg)
        assert (info.value.block, info.value.window_size, info.value.n_samples) == (block, size, n)
        assert "factorization failed" in str(info.value.__cause__)

    def test_pivot_floor_in_population_mode(self):
        # dpotrf passes, but the second pivot, 1 - (1 - 1e-14)**2 ~ 2e-14, is
        # below SPD_PIVOT_RTOL times the unit diagonal.  Vertices 16 and 17
        # sit in block 5 (b = 4, p = 24), first held by block 3's window.
        sigma = np.eye(24)
        sigma[16, 17] = sigma[17, 16] = 1.0 - 1e-14
        shape = LatticeShape(p=24, d=1)
        with pytest.raises(LocalSingular) as info:
            estimate_precision(BandTiles.from_covariance(sigma, shape, 4), shape)
        assert (info.value.block, info.value.window_size, info.value.n_samples) == ((3,), 20, None)
        assert "at or below the tolerance" in str(info.value.__cause__)


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
        gram = _band_tiles([z], scheme.shape, {z.shape[0]: b})[z.shape[0]].dense()
        full = sample_covariance(z)
        tol = 1e-13 * np.max(np.abs(full))
        assert np.array_equal(gram, gram.T)
        for j in scheme.block_indices():
            w = window_vertices(scheme, j)
            assert np.max(np.abs(gram[np.ix_(w, w)] - full[np.ix_(w, w)])) <= tol


def reused_buffer_blocks(z, bounds):
    """Rows ``bounds[i]:bounds[i + 1]`` of ``z``, each copied into one reused buffer."""
    buffer = np.empty_like(z)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buffer[:hi - lo]
        block[...] = z[lo:hi]
        yield block


class TestRowBlocks:
    """Samples read as consecutive row blocks into the band tiles."""

    def test_width_other_than_lattice_size_rejected(self):
        with pytest.raises(InvalidInput, match="columns"):
            _band_tiles([np.zeros((100, 15))], LatticeShape(p=16, d=1), {100: 2})

    @pytest.mark.parametrize(
        "shape, n, cfg, error",
        [
            (LatticeShape(p=16, d=1), 10, EstimatorConfig(b_override=2), LocalSingular),
            (LatticeShape(p=16, d=1), 100, EstimatorConfig(b_override=17), InvalidInput),
            (LatticeShape(p=4, d=2), 12, None, LocalSingular),
        ],
        ids=["window-of-n", "b-above-p", "fallback-below-m"],
    )
    def test_refused_estimate_reads_no_block(self, monkeypatch, shape, n, cfg, error):
        def forbidden(blocks, shape, plans):
            raise AssertionError("a row block was read")

        monkeypatch.setattr(estimator_module, "_band_tiles", forbidden)
        with pytest.raises(error):
            estimate_precision(np.zeros((n, shape.size)), shape, cfg)

    @pytest.mark.parametrize(
        "p, d, cfg, path",
        [
            (12, 2, EstimatorConfig(b_override=3), BLOCKWISE),
            (4, 2, None, FALLBACK),
        ],
        ids=["blockwise", "fallback"],
    )
    def test_uneven_blocks_match_one_block(self, p, d, cfg, path):
        z = np.random.Generator(np.random.Philox(key=p + d)).standard_normal((1000, p**d))
        bounds = [0, 1, 300, 301, 777, 1000]
        shape = LatticeShape(p=p, d=d)
        want = estimate_precision(z, shape, cfg)
        tiles = _band_tiles(reused_buffer_blocks(z, bounds), shape, {1000: want.b})[1000]
        got = estimate_precision(tiles, shape, cfg)
        assert (got.b, got.path) == (want.b, want.path)
        assert want.path == path
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-13 * np.max(np.abs(want.matrix))


class TestBandTiles:
    """One pass over row blocks into the tiles of several row prefixes."""

    @pytest.mark.parametrize(
        "p, d, b",
        [
            (23, 1, 3),  # ragged last slab
            (40, 1, 4),  # 10 slabs: a long run, then the shorter reaches
            (14, 2, 3),  # ragged, 5 slabs
            (22, 2, 3),  # the lattice-2d benchmark shape
            (7, 3, 2),  # ragged, 4 slabs
            (5, 2, 5),  # one block: the fallback's whole covariance
        ],
    )
    def test_every_prefix_writes_its_own_gram(self, p, d, b):
        # Blocks of 50 rows.  The prefixes end inside a block (130), on a
        # block edge (100), below one block (7) and at the last row (200);
        # each must write the band Gram of a pass over its rows alone.
        z = np.random.Generator(np.random.Philox(key=p + d)).standard_normal((200, p**d))
        scheme = build_scheme(p, b, d)
        sizes = (7, 100, 130, 200)
        blocks = reused_buffer_blocks(z, range(0, 201, 50))
        tiles = _band_tiles(blocks, scheme.shape, dict.fromkeys(sizes, b))
        for n in sizes:
            edges = [*range(0, n, 50), n]
            want = band_gram([z[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])], n, scheme)
            got = tiles[n].dense()
            assert (tiles[n].n, tiles[n].scheme) == (n, scheme)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_prefixes_of_other_widths_share_the_pass(self):
        z = np.random.Generator(np.random.Philox(key=3)).standard_normal((90, 30))
        plans = {40: 2, 90: 5}
        tiles = _band_tiles(
            reused_buffer_blocks(z, [0, 25, 50, 75, 90]), LatticeShape(p=30, d=1), plans
        )
        for n, edges in ((40, [0, 25, 40]), (90, [0, 25, 50, 75, 90])):
            scheme = build_scheme(30, plans[n], 1)
            want = band_gram([z[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])], n, scheme)
            assert np.array_equal(tiles[n].dense(), want)

    def test_blocks_short_of_a_prefix_rejected(self):
        with pytest.raises(InvalidInput, match="before row 60"):
            _band_tiles([np.zeros((50, 12))], LatticeShape(p=12, d=1), {60: 3})

    def test_tiles_of_another_scheme_rejected(self):
        z = np.random.Generator(np.random.Philox(key=5)).standard_normal((300, 24))
        shape = LatticeShape(p=24, d=1)
        tiles = _band_tiles([z], shape, {300: 3})[300]
        cfg = EstimatorConfig(b_override=3)
        want = estimate_precision(z, shape, cfg).matrix
        assert np.array_equal(estimate_precision(tiles, shape, cfg).matrix, want)
        # Tiles carry their width, so another config does not replan them.
        assert estimate_precision(tiles, shape, EstimatorConfig(b_override=4)).b == 3
        with pytest.raises(InvalidInput, match="band tiles are for"):
            estimate_precision(tiles, LatticeShape(p=25, d=1), cfg)

    def test_estimate_on_tiles_plans_nothing(self, monkeypatch):
        z = np.random.Generator(np.random.Philox(key=6)).standard_normal((300, 24))
        shape = LatticeShape(p=24, d=1)
        want = estimate_precision(z, shape, EstimatorConfig(b_override=3))
        fallback = estimate_precision(z, shape, EstimatorConfig(kappa_hint=1e12))
        assert (fallback.b, fallback.path) == (24, FALLBACK)
        sigma = sample_covariance(z)

        def forbidden(*args):
            raise AssertionError("band tiles were planned again")

        monkeypatch.setattr(estimator_module, "plan_estimate", forbidden)
        for b, est in ((3, want), (24, fallback)):
            got = estimate_precision(_band_tiles([z], shape, {300: b})[300], shape)
            assert (got.b, got.path) == (est.b, est.path)
            assert np.array_equal(got.matrix, est.matrix)
        exact = estimate_precision(BandTiles.from_covariance(sigma, shape, 3), shape)
        assert (exact.b, exact.path) == (3, BLOCKWISE)

    @pytest.mark.parametrize("b", [0, 25, 2.5, True])
    def test_covariance_width_outside_lattice_refused(self, b):
        with pytest.raises(InvalidInput):
            BandTiles.from_covariance(np.eye(24), LatticeShape(p=24, d=1), b)

    def test_covariance_of_another_size_refused(self):
        with pytest.raises(InvalidInput, match="covariance must be"):
            BandTiles.from_covariance(np.eye(23), LatticeShape(p=24, d=1), 3)

    def test_windows_built_once_per_scheme(self):
        # Equal schemes share one window plan.  Its unit columns are
        # read-only.  Blocks 3..6 of an axis have one window width and block
        # offset, so the 64 windows take 5 x 5 distinct unit arrays.
        first = _windows(build_scheme(24, 3, 2))
        assert _windows(build_scheme(24, 3, 2)) is first
        assert len(first) == 64
        assert not any(w.unit.flags.writeable for w in first)
        assert len({id(w.unit) for w in first}) == 25


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
