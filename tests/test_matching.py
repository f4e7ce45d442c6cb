"""Scattered-site measurement, lattice matching, and the embedding estimator."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gpprec import cli
from gpprec import matching as matching_module
from gpprec.errors import CapacityExceeded, InvalidInput, LocalSingular, NoMatching
from gpprec.estimator import EstimatorConfig, _band_tiles, estimate_precision
from gpprec.lattice import LatticeShape, build_scheme, lattice_points
from gpprec.linalg import spectral_norm, symmetrize
from gpprec.matching import (
    _PAD_BLOCK_ELEMENTS,
    LatticeEmbedding,
    _candidate_graph,
    _padded_blocks,
    build_embedding,
    build_target_lattice,
    embed_and_estimate,
    measure_cloud,
    padded_tiles,
    perfect_matching,
)
from gpprec.truth import GroundTruth, build_green_restriction, build_lattice_precision, l1_tail_profile, log_linear_fit, sample
from oracle import band_gram, full_grid_cloud, padded_samples


def brute_force_maximum(adjacency):
    """Exhaustive maximum matching size; exponential, for tiny instances only."""

    def best(i, used):
        if i == len(adjacency):
            return 0
        score = best(i + 1, used)
        for t in adjacency[i]:
            if t not in used:
                score = max(score, 1 + best(i + 1, used | {t}))
        return score

    return best(0, frozenset())


def squared_distance(x, y):
    """``sum((x - y)**2)`` in Python float arithmetic, over the axes in order."""
    total = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        total += (a - b) * (a - b)
    return total


def reference_adjacency(sites, positions, radius):
    """Edges ``sum((x_i - y_t)**2) <= radius**2`` from all site-node pairs, ascending per site."""
    return [
        [t for t in range(len(positions)) if squared_distance(x, positions[t]) <= radius * radius]
        for x in sites
    ]


def streamed_padding(z, embedding, seed):
    """The blocks of ``_padded_blocks`` stacked, each copied before the next overwrites it."""
    blocks = _padded_blocks((z,), embedding, seed, z.shape[0])
    return np.concatenate([block.copy() for block in blocks])


def block_rows(embedding):
    """Rows per padded block on ``embedding``'s lattice."""
    return max(1, _PAD_BLOCK_ELEMENTS // embedding.shape.size)


def perturbed_grid(m, d, jitter, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    per_axis = int(round(m ** (1.0 / d)))
    axes = [np.arange(1, per_axis + 1) / (per_axis + 1)] * d
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return base + rng.uniform(-jitter, jitter, size=base.shape) / (per_axis + 1)


def fill_clouds():
    """``(id, sites, d)`` of the clouds whose pruned fill distance is checked.

    Lattice, jittered, uniform and corner-clustered clouds in d = 1, 2
    and 3, M = 1 and M = 2 among them; the workloads' clouds (lattice-2d
    and factor-2d share one); and the 4096-site caps.
    """
    rng = np.random.Generator(np.random.Philox(key=11))
    clouds = []
    sides = {1: (1, 2, 9, 100), 2: (1, 2, 5, 13), 3: (1, 2, 4, 7)}
    for d in (1, 2, 3):
        for p in sides[d]:
            base = lattice_points(LatticeShape(p, d))
            shift = rng.uniform(-0.35, 0.35, size=base.shape) / (p + 1)
            clouds += [(f"lattice-d{d}-p{p}", base, d), (f"jittered-d{d}-p{p}", base + shift, d)]
        for m in (1, 2, 7, 60, 500):
            clouds.append((f"uniform-d{d}-m{m}", rng.uniform(0.001, 0.999, size=(m, d)), d))
            # Sites near the origin put the maximum at the far corner.
            clouds.append((f"corner-d{d}-m{m}", rng.uniform(0.001, 0.2, size=(m, d)), d))
    clouds.append(("lattice-2d/factor-2d", lattice_points(LatticeShape(22, 2)), 2))
    clouds.append(("scattered-1d", cli._jittered_grid(500, 1, None), 1))
    for d, p in [(1, 4096), (2, 64), (3, 16)]:
        clouds.append((f"cap-lattice-d{d}", lattice_points(LatticeShape(p, d)), d))
        clouds.append((f"cap-jittered-d{d}", cli._jittered_grid(p, d, None), d))
    return clouds


FILL_CLOUDS = fill_clouds()


class TestMeasureCloud:
    def test_single_site_midpoint(self):
        cloud = measure_cloud(np.array([0.5]), 1)
        assert cloud.h == pytest.approx(0.5)
        assert cloud.delta == pytest.approx(1.0)

    def test_regular_grid(self):
        # True fill distance is the boundary clearance 1/(p+1), attained at
        # the box ends, which the evaluation grid contains.
        cloud = measure_cloud(np.arange(1, 10) / 10, 1)
        assert cloud.h == pytest.approx(0.1, abs=1e-12)
        assert cloud.delta == pytest.approx(1.0)

    def test_clustered_corner_has_small_delta(self):
        sites = np.array([[0.02, 0.02], [0.03, 0.02], [0.02, 0.03]])
        cloud = measure_cloud(sites, 2)
        assert cloud.delta < 0.05

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInput):
            measure_cloud(np.array([0.4, 0.4]), 1)

    def test_boundary_site_rejected(self):
        with pytest.raises(InvalidInput):
            measure_cloud(np.array([0.0, 0.5]), 1)

    @pytest.mark.parametrize(
        "sites, d",
        [
            ([[0.2, 0.3], [0.6, 0.7]], 2.0),
            ([0.2, 0.6], True),
            ([[0.2, 0.3], [0.6, 0.7]], "2"),
            ([0.2, 0.6], 0),
            ([[0.2, 0.3, 0.4, 0.5]], 4),
        ],
    )
    def test_non_integer_dimension_refused(self, sites, d):
        # Each would fail with an untyped TypeError where the dimension is
        # used, or scale the lattice by a dimension the package has no rule for.
        with pytest.raises(InvalidInput, match="d must be a positive integer"):
            measure_cloud(np.array(sites), d)

    @pytest.mark.parametrize("d, m", [(1, 37), (2, 50), (3, 40)])
    def test_matches_dense_distance_reference(self, rng, d, m):
        # All-pairs distance tables, the same arithmetic per pair as the
        # tree's exact nearest-neighbour search: the results agree bit for bit.
        sites = rng.uniform(0.01, 0.99, size=(m, d))
        cloud = measure_cloud(sites, d)
        diff = sites[:, None, :] - sites[None, :, :]
        pair = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(pair, np.inf)
        per_axis = max(2, int(np.ceil((64.0 * m) ** (1.0 / d))))
        axes = [np.linspace(0.0, 1.0, per_axis)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        gdiff = grid[:, None, :] - sites[None, :, :]
        h = np.sqrt(np.sum(gdiff * gdiff, axis=2)).min(axis=1).max()
        clearance = np.minimum(sites, 1.0 - sites).min()
        assert cloud.h == h
        assert cloud.delta == min(1.0, min(pair.min(), clearance) / h)

    @pytest.mark.parametrize("sites, d", [c[1:] for c in FILL_CLOUDS], ids=[c[0] for c in FILL_CLOUDS])
    def test_pruned_search_matches_full_grid(self, sites, d):
        # The pruned search queries every grid point that can attain the
        # maximum, so it returns the full grid's h, and delta, bit for bit.
        cloud = measure_cloud(sites, d)
        h, delta = full_grid_cloud(sites, d)
        assert np.float64(cloud.h).view(np.uint64) == np.float64(h).view(np.uint64)
        assert np.float64(cloud.delta).view(np.uint64) == np.float64(delta).view(np.uint64)

    def test_pruned_search_queries_a_fraction_of_the_grid(self, monkeypatch):
        # On the lattice-2d cloud, the grid has 176**2 = 30 976 points; the
        # search queries at most a quarter of them.
        queried = []

        class Spy(cKDTree):
            def query(self, x, *args, **kwargs):
                if kwargs.get("k", 1) == 1:
                    queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(matching_module, "cKDTree", Spy)
        sites = lattice_points(LatticeShape(22, 2))
        cloud = measure_cloud(sites, 2)
        per_axis = int(np.ceil((64.0 * len(sites)) ** 0.5))
        assert per_axis**2 == 30_976
        assert 0 < sum(queried) <= per_axis**2 // 4
        assert cloud.h == full_grid_cloud(sites, 2)[0]


class TestBuildTargetLattice:
    def test_ceiling_rule(self):
        cloud = measure_cloud(np.array([0.5]), 1)
        shape = build_target_lattice(cloud, 0.5)
        positions = lattice_points(shape)
        assert shape.p == 4
        assert positions.shape == (4, 1)
        np.testing.assert_allclose(positions.ravel(), [0.2, 0.4, 0.6, 0.8])

    def test_exact_integer_ceiling(self):
        cloud = measure_cloud(np.array([0.5]), 1)
        shape = build_target_lattice(cloud, 0.4)
        assert shape.p == 5

    def test_grid_cloud_sizing(self):
        # The 9-point regular grid has fill distance exactly 0.1, so the
        # lattice side is ceil(1 / 0.05) = 20 with node spacing 1/21.
        cloud = measure_cloud(np.arange(1, 10) / 10, 1)
        shape = build_target_lattice(cloud, 0.5)
        positions = lattice_points(shape)
        assert shape.p == 20
        assert positions[1, 0] - positions[0, 0] == pytest.approx(1.0 / 21)

    def test_node_spacing_below_fill_distance(self, rng):
        sites = perturbed_grid(25, 2, 0.3, seed=4)
        cloud = measure_cloud(sites, 2)
        for c1 in (0.9, 0.5, 0.3):
            shape = build_target_lattice(cloud, c1)
            assert 1.0 / (shape.p + 1) < cloud.h

    @pytest.mark.parametrize("c1", ["0.5", None, True, float("nan"), 0.0, 1.0])
    def test_c1_not_a_real_in_the_unit_interval_refused(self, c1):
        # A string or None has no order against 0, so it raised an untyped
        # TypeError; a bool is not taken as 1.
        cloud = measure_cloud(perturbed_grid(9, 1, 0.2, seed=5), 1)
        with pytest.raises(InvalidInput, match="c1 must be a real number in"):
            build_target_lattice(cloud, c1)
        with pytest.raises(InvalidInput, match="c1 must be a real number in"):
            build_embedding(cloud, c1=c1)

    def test_capacity_cap(self, monkeypatch):
        cloud = measure_cloud(perturbed_grid(49, 2, 0.2, seed=5), 2)
        monkeypatch.setattr(matching_module, "MAX_LATTICE_VERTICES", 10)
        with pytest.raises(CapacityExceeded, match="above the cap of 10"):
            build_target_lattice(cloud, 0.5)


class TestPerfectMatching:
    def test_sites_on_nodes_have_zero_displacement(self):
        # With a tiny radius each site's only candidate is its own node.
        shape = build_target_lattice(measure_cloud(np.array([0.5]), 1), 0.3)
        positions = lattice_points(shape)
        cloud = measure_cloud(positions[1:5].ravel(), 1)
        embedding = perfect_matching(cloud, shape, radius=1e-9)
        assert embedding.displacement == 0.0
        np.testing.assert_array_equal(embedding.node_of_site, [1, 2, 3, 4])

    def test_two_sites_three_nodes(self):
        cloud = measure_cloud(np.array([0.3, 0.6]), 1)
        shape = LatticeShape(p=3, d=1)
        embedding = perfect_matching(cloud, shape, radius=0.2)
        assert embedding.displacement <= 0.15
        assert len(set(embedding.node_of_site)) == 2

    def test_hall_violation_carries_witness(self):
        # Both sites only reach the middle node of a 3-node lattice.
        cloud = measure_cloud(np.array([0.49, 0.51]), 1)
        shape = LatticeShape(p=3, d=1)
        with pytest.raises(NoMatching) as info:
            perfect_matching(cloud, shape, radius=0.05)
        assert info.value.witness_sites == [0, 1]
        assert info.value.witness_nodes == [1]

    @pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0])
    def test_non_finite_or_zero_radius_refused(self, radius):
        # An infinite radius would make every node a candidate of every site.
        cloud = measure_cloud(np.array([0.3, 0.6]), 1)
        with pytest.raises(InvalidInput, match="radius must be finite and positive"):
            perfect_matching(cloud, LatticeShape(p=3, d=1), radius)

    @pytest.mark.parametrize("radius", ["0.5", True])
    def test_non_real_radius_refused(self, radius):
        # A string is not compared with 0, and a bool is not taken as 1.
        cloud = measure_cloud(np.array([0.3, 0.6]), 1)
        with pytest.raises(InvalidInput, match="radius must be finite and positive"):
            perfect_matching(cloud, LatticeShape(p=3, d=1), radius)

    def test_matching_respects_radius(self, rng):
        for seed in range(5):
            sites = perturbed_grid(16, 2, 0.3, seed=seed)
            cloud = measure_cloud(sites, 2)
            embedding, _ = build_embedding(cloud)
            assert embedding.displacement <= cloud.h
            positions = lattice_points(embedding.shape)
            for i, node in enumerate(embedding.node_of_site):
                assert np.linalg.norm(cloud.sites[i] - positions[node]) <= cloud.h

    def test_cardinality_matches_brute_force(self, rng):
        # Random tiny geometric instances, including infeasible ones.  A
        # failed matching leaves as many sites unmatched as its witness's
        # deficiency, so the matcher's cardinality is m minus that.
        for seed in range(40):
            local = np.random.Generator(np.random.Philox(key=900 + seed))
            d = 1 + seed % 2
            shape = LatticeShape(p=int(local.integers(1, 10 if d == 1 else 4)), d=d)
            positions = lattice_points(shape)
            m = int(local.integers(1, 9))
            cloud = measure_cloud(local.uniform(0.05, 0.95, size=(m, d)), d)
            radius = float(local.uniform(0.02, 0.4))
            adjacency = reference_adjacency(cloud.sites, positions, radius)
            try:
                embedding = perfect_matching(cloud, shape, radius)
            except NoMatching as exc:
                neighbours = sorted({t for i in exc.witness_sites for t in adjacency[i]})
                assert neighbours == exc.witness_nodes
                got = m - (len(exc.witness_sites) - len(exc.witness_nodes))
            else:
                assert all(t in adjacency[i] for i, t in enumerate(embedding.node_of_site))
                assert np.unique(embedding.node_of_site).size == m
                got = m
            assert got == brute_force_maximum(adjacency)

    @pytest.mark.parametrize("d, m", [(1, 60), (2, 80), (3, 50)])
    def test_candidate_graph_matches_all_pairs_reference(self, rng, d, m):
        cloud = measure_cloud(rng.uniform(0.01, 0.99, size=(m, d)), d)
        shape = build_target_lattice(cloud, 0.5)
        positions = lattice_points(shape)
        for radius in (cloud.h, 0.5 * cloud.h, 2.0 / (shape.p + 1)):
            graph = _candidate_graph(cloud, positions, radius)
            got = [graph.indices[graph.indptr[i]:graph.indptr[i + 1]].tolist() for i in range(m)]
            assert got == reference_adjacency(cloud.sites, positions, radius)

    @pytest.mark.parametrize("d, p, c1", [(1, 9, 0.3), (2, 5, 0.25), (2, 8, 0.25), (3, 3, 0.5)])
    def test_lattice_aligned_edges_follow_the_squared_rule(self, d, p, c1):
        # Sites on the nodes of a coarser lattice lie at exactly the radius
        # from some target nodes; the rule makes those ties edges, whatever
        # the k-d tree's own arithmetic says.
        cloud = measure_cloud(lattice_points(LatticeShape(p=p, d=d)), d)
        shape = build_target_lattice(cloud, c1)
        positions = lattice_points(shape)
        ties = 0
        for radius in (cloud.h, 1.0 / (shape.p + 1), 2.0 / (shape.p + 1)):
            graph = _candidate_graph(cloud, positions, radius)
            got = [graph.indices[graph.indptr[i]:graph.indptr[i + 1]].tolist()
                   for i in range(cloud.m)]
            assert got == reference_adjacency(cloud.sites, positions, radius)
            ties += sum(
                squared_distance(x, y) == radius * radius for x in cloud.sites for y in positions
            )
        assert ties > 0
        embedding, _ = build_embedding(cloud, c1=c1)
        matched = lattice_points(embedding.shape)[embedding.node_of_site]
        worst = max(squared_distance(x, y) for x, y in zip(cloud.sites, matched))
        assert embedding.displacement == math.sqrt(worst)
        assert embedding.displacement <= cloud.h

    def test_long_augmenting_chain(self):
        # Site i < p-1 sits between nodes i and i+1; the last site reaches
        # only node 0, so matching it shifts the whole chain by one node
        # along an augmenting path through all 1500 sites.
        p = 1500
        sites = np.append(np.arange(1, p) + 0.5, 0.5) / (p + 1)
        cloud = measure_cloud(sites, 1)
        embedding = perfect_matching(cloud, LatticeShape(p=p, d=1), radius=0.6 / (p + 1))
        np.testing.assert_array_equal(embedding.node_of_site, np.append(np.arange(1, p), 0))
        assert embedding.displacement == pytest.approx(0.5 / (p + 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: measure_cloud(np.array([0.3, np.nan]), 1),
            lambda: measure_cloud(np.array([[0.3, 0.4], [np.inf, 0.5]]), 2),
            lambda: perfect_matching(
                measure_cloud(np.array([0.3, 0.6]), 1), LatticeShape(p=3, d=1), radius=np.nan
            ),
        ],
        ids=["nan-site", "inf-site", "nan-radius"],
    )
    def test_non_finite_input_rejected(self, call):
        with pytest.raises(InvalidInput):
            call()


class TestEmbedAndEstimate:
    def test_identity_truth_on_lattice_sites(self):
        shape = build_target_lattice(measure_cloud(np.array([0.5]), 1), 0.25)
        positions = lattice_points(shape)
        sites = positions[1:6].ravel()
        cloud = measure_cloud(sites, 1)
        truth = GroundTruth(
            omega=np.eye(5), omega_norm=1.0, kappa=1.0, geometry=cloud,
            model_tag="identity",
        )
        errs = []
        for seed in range(5):
            z = sample(truth, 3000, seed=seed)
            est = embed_and_estimate(z, cloud, EstimatorConfig(kappa_hint=1.0), seed=seed + 40)
            errs.append(spectral_norm(symmetrize(est.matrix - np.eye(5))))
        # Seeds 40..44 realize errors of at most 0.16 at N=3000.
        assert max(errs) <= 0.3

    def test_embed_and_estimate_is_site_block_of_padded_tiles(self, rng):
        # embed_and_estimate is build_embedding, then estimate_precision on
        # the padded tiles of the same site samples, then the site block.
        # 300 padded rows fit one row block, so the streamed estimate is
        # also the estimate of the padded array the oracle writes column by
        # column, bit for bit.
        cloud = measure_cloud(perturbed_grid(30, 1, 0.25, seed=3), 1)
        z = rng.standard_normal((300, cloud.m))
        cfg = EstimatorConfig(b_override=3)
        got = embed_and_estimate(z, cloud, cfg, seed=9)
        embedding, _ = build_embedding(cloud)
        assert 300 <= block_rows(embedding)
        nodes = embedding.node_of_site
        tiles = padded_tiles(z, embedding, 9, cfg, [300])[300]
        want = estimate_precision(tiles, embedding.shape, cfg)
        assert np.array_equal(got.matrix, want.matrix[np.ix_(nodes, nodes)])
        assert (got.scheme, got.b, got.path) == (want.scheme, 3, "blockwise")
        padded = estimate_precision(padded_samples(z, embedding, 9), embedding.shape, cfg)
        assert np.array_equal(got.matrix, padded.matrix[np.ix_(nodes, nodes)])

    def test_single_site_reduces_to_variance_estimation(self):
        # Seeds 50..54 realize |estimate - direct reciprocal| <= 0.002 and
        # |estimate - 1| <= 0.05 at N=2000.
        cloud = measure_cloud(np.array([0.5]), 1)
        truth = GroundTruth(
            omega=np.eye(1), omega_norm=1.0, kappa=1.0, geometry=cloud,
            model_tag="identity",
        )
        for seed in range(5):
            z = sample(truth, 2000, seed=seed)
            est = embed_and_estimate(z, cloud, EstimatorConfig(kappa_hint=1.0), seed=seed + 50)
            direct = 2000.0 / float(z[:, 0] @ z[:, 0])
            assert abs(est.matrix[0, 0] - direct) <= 0.01
            assert abs(est.matrix[0, 0] - 1.0) <= 0.1

    def test_green_truth_close_to_lattice_run(self):
        # Paired runs: scattered reduction stays within a factor 3 of a
        # pure-lattice problem of the same size (measured ratio 0.78).
        rng = np.random.Generator(np.random.Philox(key=7))
        sites = np.arange(1, 31) / 31 + rng.uniform(-0.2, 0.2, 30) / 31
        fine_m = 123
        snapped = np.rint(sites * (fine_m + 1)) / (fine_m + 1)
        cloud = measure_cloud(snapped, 1)
        green = build_green_restriction(fine_m, 1, 2, cloud)
        lattice_truth = build_lattice_precision(30, 1, 2)
        scattered_errs, lattice_errs = [], []
        for seed in range(5):
            z = sample(green, 4000, seed=seed)
            est = embed_and_estimate(z, cloud, EstimatorConfig(kappa_hint=green.kappa), seed=seed)
            assert np.array_equal(est.matrix, est.matrix.T)
            scattered_errs.append(
                spectral_norm(symmetrize(est.matrix - green.omega)) / spectral_norm(green.omega)
            )
            zl = sample(lattice_truth, 4000, seed=seed)
            from gpprec.estimator import estimate_precision

            estl = estimate_precision(
                zl, lattice_truth.geometry, EstimatorConfig(kappa_hint=lattice_truth.kappa)
            )
            lattice_errs.append(
                spectral_norm(symmetrize(estl.matrix - lattice_truth.omega))
                / spectral_norm(lattice_truth.omega)
            )
        ratio = np.median(scattered_errs) / np.median(lattice_errs)
        assert ratio <= 3.0

    def test_padded_truth_tail_decay(self):
        # The precision of the padded problem (the site precision on the
        # matched nodes, unit variance on the unmatched ones, as the padding
        # draws them) keeps its exponential off-diagonal decay on the
        # lattice; fit quality 0.9 or better.
        rng = np.random.Generator(np.random.Philox(key=21))
        sites = np.arange(1, 21) / 21 + rng.uniform(-0.25, 0.25, 20) / 21
        fine_m = 83
        snapped = np.rint(sites * (fine_m + 1)) / (fine_m + 1)
        cloud = measure_cloud(snapped, 1)
        green = build_green_restriction(fine_m, 1, 2, cloud)
        embedding, _ = build_embedding(cloud)
        nodes = embedding.node_of_site
        padded = np.eye(embedding.shape.size)
        padded[np.ix_(nodes, nodes)] = green.omega
        ks, tails = l1_tail_profile(padded, embedding.shape, spectral_norm(padded))
        keep = tails > 1e-12
        slope, _, r2 = log_linear_fit(ks[keep], tails[keep])
        assert slope < 0
        assert r2 >= 0.9

    def test_round_trip_permutation(self, rng):
        sites = perturbed_grid(9, 1, 0.25, seed=3).ravel()
        cloud = measure_cloud(sites, 1)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((4, 9))
        padded = streamed_padding(z, embedding, seed=77)
        np.testing.assert_array_equal(padded[:, embedding.node_of_site], z)

    @pytest.mark.parametrize(
        "m, d, blocks, extra",
        [
            pytest.param(9, 1, 0, 6, id="9-1"),
            pytest.param(16, 2, 0, 6, id="16-2"),
            pytest.param(9, 1, 0, 1, id="9-1-one-row"),
            pytest.param(9, 1, 1, -1, id="9-1-block-minus-one"),
            pytest.param(9, 1, 1, 0, id="9-1-one-block"),
            pytest.param(16, 2, 1, 1, id="16-2-block-plus-one"),
            pytest.param(16, 2, 3, 7, id="16-2-three-blocks-plus-remainder"),
            pytest.param(0, 2, 2, 3, id="no-unmatched-node"),
        ],
    )
    def test_pad_samples_equals_column_scatters(self, rng, m, d, blocks, extra):
        # The block-by-block fill must equal writing the sites, then one
        # seeded draw of normals, into their columns, bit for bit.  N is
        # ``blocks`` full row blocks plus ``extra`` rows; ``m = 0`` stands
        # for a hand-built embedding that matches every node.
        if m:
            cloud = measure_cloud(perturbed_grid(m, d, 0.25, seed=3), d)
            embedding, _ = build_embedding(cloud)
        else:
            shape = LatticeShape(p=7, d=d)
            embedding = LatticeEmbedding(
                shape=shape,
                node_of_site=rng.permutation(shape.size),
                displacement=0.0,
            )
        nodes = embedding.node_of_site
        assert (nodes.size < embedding.shape.size) == bool(m)
        n = blocks * block_rows(embedding) + extra
        z = rng.standard_normal((n, nodes.size))
        assert np.array_equal(streamed_padding(z, embedding, 77), padded_samples(z, embedding, 77))

    @pytest.mark.parametrize("blocks, extra", [(0, 5), (2, 3)])
    def test_pad_samples_prefix_is_exact(self, rng, blocks, extra):
        # One padding at the largest N serves every smaller N: its first n
        # rows are the padding of the first n site rows, bit for bit, also
        # across row blocks.
        cloud = measure_cloud(perturbed_grid(16, 2, 0.25, seed=3), 2)
        embedding, _ = build_embedding(cloud)
        rows = block_rows(embedding)
        big = blocks * rows + extra
        z = rng.standard_normal((big, cloud.m))
        padded = streamed_padding(z, embedding, 77)
        for n in sorted({1, extra, rows, big - 1, big}):
            assert np.array_equal(padded[:n], streamed_padding(z[:n], embedding, 77))

    def test_early_close_leaves_the_fill_thread_idle(self, rng, monkeypatch, slow_philox):
        # The first block is yielded with the second block's fill queued;
        # closing the pass there cancels that fill or waits for it, so no
        # fill runs after close returns.
        cloud = measure_cloud(perturbed_grid(100, 1, 0.25, seed=3), 1)
        embedding, _ = build_embedding(cloud)
        n = 3 * block_rows(embedding)
        z = rng.standard_normal((n, cloud.m))
        monkeypatch.setattr(matching_module, "_philox", slow_philox)
        blocks = _padded_blocks((z,), embedding, 77, n)
        first = next(blocks).copy()
        blocks.close()
        slow_philox.assert_idle_after_close()
        assert np.array_equal(first, padded_samples(z, embedding, 77)[:first.shape[0]])

    @pytest.mark.parametrize("m, d", [(9, 1), (16, 2)])
    @pytest.mark.parametrize("blocks, extra", [(0, 40), (1, 0), (2, 7)])
    def test_streamed_band_gram_equals_padded_gram(self, rng, m, d, blocks, extra):
        # N below the block rows, equal to them, and not a multiple of them.
        # Padding block by block into one buffer gives the band Gram of the
        # padded array summed in the same row blocks bit for bit, and to
        # roundoff the Gram of the padded array as one block.
        cloud = measure_cloud(perturbed_grid(m, d, 0.25, seed=3), d)
        embedding, _ = build_embedding(cloud)
        rows = block_rows(embedding)
        n = blocks * rows + extra
        z = rng.standard_normal((n, cloud.m))
        scheme = build_scheme(embedding.shape.p, 2, d)
        got = _band_tiles(_padded_blocks((z,), embedding, 77, n), embedding.shape, {n: 2})
        got = got[n].dense()
        padded = padded_samples(z, embedding, 77)
        blocked = band_gram([padded[lo:lo + rows] for lo in range(0, n, rows)], n, scheme)
        assert np.array_equal(got, blocked)
        want = band_gram([padded], n, scheme)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if n <= rows:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [2, None])
    def test_one_pass_serves_every_prefix(self, rng, b):
        # Prefixes below one block, on a block edge, inside a later block and
        # at the last row: each size's tiles from the one pass to the largest
        # are those of a pass over its own rows.  Without a width, the rule
        # gives the sizes different widths.
        cloud = measure_cloud(perturbed_grid(200, 1, 0.25, seed=3), 1)
        embedding, _ = build_embedding(cloud)
        rows = block_rows(embedding)
        sizes = [rows // 2, rows, 2 * rows + 5, 3 * rows + 1]
        z = rng.standard_normal((sizes[-1], cloud.m))
        cfg = EstimatorConfig(b_override=b, kappa_hint=1.0)
        shared = padded_tiles(z, embedding, 77, cfg, sizes)
        if b is None:
            assert len({tiles.scheme.b for tiles in shared.values()}) > 1
        for n in sizes:
            alone = padded_tiles(z[:n], embedding, 77, cfg, [n])[n]
            assert (shared[n].n, shared[n].scheme) == (n, alone.scheme)
            assert np.array_equal(shared[n].dense(), alone.dense())
            nodes = np.ix_(embedding.node_of_site, embedding.node_of_site)
            want = embed_and_estimate(z[:n], cloud, cfg, seed=77).matrix
            got = estimate_precision(shared[n], embedding.shape, cfg).matrix[nodes]
            assert np.array_equal(got, want)

    def test_tiles_from_any_block_split(self, rng):
        # Site rows that arrive in blocks of any sizes, each overwritten
        # once read, are padded in the same padded blocks, so every size's
        # tiles are those of the rows as one array, bit for bit.
        cloud = measure_cloud(perturbed_grid(200, 1, 0.25, seed=3), 1)
        embedding, _ = build_embedding(cloud)
        rows = block_rows(embedding)
        sizes = [rows // 2, 2 * rows + 5, 3 * rows + 1]
        z = rng.standard_normal((sizes[-1] + 10, cloud.m))
        cfg = EstimatorConfig(b_override=2)
        want = padded_tiles(z, embedding, 77, cfg, sizes)

        def stream(cuts):
            buffer = np.empty_like(z)
            for lo, hi in zip(cuts, cuts[1:]):
                block = buffer[:hi - lo]
                block[...] = z[lo:hi]
                yield block
                block[...] = np.nan

        for cuts in ([0, 1, 7, rows, rows + 3, 2 * rows + 5, z.shape[0]], [0, z.shape[0]]):
            got = padded_tiles(stream(cuts), embedding, 77, cfg, sizes)
            for n in sizes:
                assert np.array_equal(got[n].dense(), want[n].dense())

    def test_short_or_foreign_stream_rejected(self, rng):
        cloud = measure_cloud(perturbed_grid(16, 2, 0.25, seed=3), 2)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((300, cloud.m))
        cfg = EstimatorConfig(b_override=1)
        with pytest.raises(InvalidInput, match="end after"):
            padded_tiles(iter([z[:100], z[100:150]]), embedding, 77, cfg, [200])
        with pytest.raises(InvalidInput, match="columns"):
            padded_tiles(iter([z[:100, :-1]]), embedding, 77, cfg, [100])

    def test_short_stream_reports_the_rows_that_arrived(self, rng):
        # 150 site rows arrive, fewer than one padded block holds, so none
        # was padded; the refusal counts the rows that arrived.
        cloud = measure_cloud(perturbed_grid(16, 2, 0.25, seed=3), 2)
        embedding, _ = build_embedding(cloud)
        assert block_rows(embedding) > 150
        z = rng.standard_normal((150, cloud.m))
        cfg = EstimatorConfig(b_override=1)
        with pytest.raises(InvalidInput, match="end after 150 rows, before row 200"):
            padded_tiles(iter([z[:100], z[100:]]), embedding, 77, cfg, [200])

    def test_refused_size_pads_nothing(self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a refused size padded its rows")

        monkeypatch.setattr(matching_module, "_padded_blocks", forbidden)
        cloud = measure_cloud(perturbed_grid(16, 2, 0.25, seed=3), 2)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((500, cloud.m))
        with pytest.raises(LocalSingular):
            padded_tiles(z, embedding, 77, EstimatorConfig(b_override=2), [10, 500])

    @pytest.mark.parametrize("sizes", [[], [200, 501]], ids=["none", "above-the-rows"])
    def test_sizes_beyond_the_samples_rejected(self, rng, sizes):
        cloud = measure_cloud(perturbed_grid(16, 2, 0.25, seed=3), 2)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((500, cloud.m))
        with pytest.raises(InvalidInput, match="sizes"):
            padded_tiles(z, embedding, 77, EstimatorConfig(b_override=1), sizes)

    def test_padded_estimate_peak_memory(self, rng):
        # With N far above the lattice size, the padded samples are never
        # held while the padded tiles are filled and estimated: the traced
        # peak stays within four lattice-square arrays, the two block
        # buffers and one block's normals, well under the padded array's
        # N * m * 8 bytes.
        cloud = measure_cloud(perturbed_grid(100, 1, 0.25, seed=3), 1)
        embedding, _ = build_embedding(cloud)
        m_lattice = embedding.shape.size
        z = rng.standard_normal((30_000, cloud.m))
        cfg = EstimatorConfig(b_override=4)
        tracemalloc.start()
        try:
            tiles = padded_tiles(z, embedding, 77, cfg, [z.shape[0]])[z.shape[0]]
            estimate_precision(tiles, embedding.shape, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        normals = block_rows(embedding) * (m_lattice - cloud.m)
        bound = 4 * 8 * m_lattice**2 + 2 * 8 * _PAD_BLOCK_ELEMENTS + 8 * normals
        assert bound <= z.shape[0] * m_lattice * 8 / 3
        assert peak <= bound

    def test_retries_halve_c1(self):
        # Within the MATCHING_RETRIES budget, halving c1 grows the lattice
        # until three close sites match.
        sites = np.array([0.47, 0.5, 0.53])
        cloud = measure_cloud(sites, 1)
        embedding, attempts = build_embedding(cloud, c1=0.99)
        assert attempts >= 1
        assert embedding.displacement <= cloud.h

    def test_clustered_cloud_fails_without_retries_then_succeeds(self, monkeypatch):
        # Five sites in a 4e-4 cluster compete for the three nodes of the
        # first lattice; halving the sizing constant eventually separates
        # them.
        sites = 0.5 + np.arange(5) * 1e-4
        cloud = measure_cloud(sites, 1)
        with monkeypatch.context() as patch:
            patch.setattr(matching_module, "MATCHING_RETRIES", 0)
            with pytest.raises(NoMatching):
                build_embedding(cloud, c1=0.9)
        embedding, attempts = build_embedding(cloud, c1=0.9)
        assert attempts > 1
        assert embedding.displacement <= cloud.h
