"""Scattered-site measurement, lattice matching, and the embedding estimator."""

import tracemalloc

import numpy as np
import pytest

from gpprec.errors import CapacityExceeded, InvalidInput, NoMatching
from gpprec.estimator import EstimatorConfig
from gpprec.lattice import LatticeShape, lattice_points
from gpprec.linalg import spectral_norm, symmetrize
from gpprec.matching import (
    _PAD_CHUNK_ELEMENTS,
    LatticeEmbedding,
    _candidate_graph,
    build_embedding,
    build_target_lattice,
    embed_and_estimate,
    measure_cloud,
    pad_samples,
    perfect_matching,
)
from gpprec.truth import GroundTruth, build_green_restriction, build_lattice_precision, l1_tail_profile, log_linear_fit, sample


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


def reference_adjacency(sites, positions, radius):
    """Edges ``|x_i - y_t| <= radius`` from all site-node pairs, ascending per site."""
    return [
        [t for t in range(len(positions)) if np.linalg.norm(positions[t] - x) <= radius]
        for x in sites
    ]


def perturbed_grid(m, d, jitter, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    per_axis = int(round(m ** (1.0 / d)))
    axes = [np.arange(1, per_axis + 1) / (per_axis + 1)] * d
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return base + rng.uniform(-jitter, jitter, size=base.shape) / (per_axis + 1)


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

    def test_capacity_cap(self):
        cloud = measure_cloud(perturbed_grid(49, 2, 0.2, seed=5), 2)
        with pytest.raises(CapacityExceeded):
            build_target_lattice(cloud, 0.5, max_vertices=10)


class TestPerfectMatching:
    def test_sites_on_nodes_have_zero_displacement(self):
        # With a tiny radius each site's only candidate is its own node.
        shape = build_target_lattice(measure_cloud(np.array([0.5]), 1), 0.3)
        positions = lattice_points(shape)
        cloud = measure_cloud(positions[1:5].ravel(), 1)
        embedding = perfect_matching(cloud, shape, radius=1e-9)
        assert embedding.displacement == 0.0
        np.testing.assert_array_equal(np.sort(embedding.node_of_site), embedding.nodes)

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
            omega=np.eye(5), kappa=1.0, geometry=cloud,
            model_tag="identity",
        )
        errs = []
        for seed in range(5):
            z = sample(truth, 3000, seed=seed)
            est = embed_and_estimate(z, cloud, EstimatorConfig(kappa_hint=1.0), seed=seed + 40)
            errs.append(spectral_norm(symmetrize(est.matrix - np.eye(5))))
        # Seeds 40..44 realize errors of at most 0.16 at N=3000.
        assert max(errs) <= 0.3

    def test_single_site_reduces_to_variance_estimation(self):
        # Seeds 50..54 realize |estimate - direct reciprocal| <= 0.002 and
        # |estimate - 1| <= 0.05 at N=2000.
        cloud = measure_cloud(np.array([0.5]), 1)
        truth = GroundTruth(
            omega=np.eye(1), kappa=1.0, geometry=cloud,
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
        # matched nodes, unit variance on the unmatched ones, as pad_samples
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
        ks, tails = l1_tail_profile(padded, embedding.shape)
        keep = tails > 1e-12
        slope, _, r2 = log_linear_fit(ks[keep], tails[keep])
        assert slope < 0
        assert r2 >= 0.9

    def test_round_trip_permutation(self, rng):
        sites = perturbed_grid(9, 1, 0.25, seed=3).ravel()
        cloud = measure_cloud(sites, 1)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((4, 9))
        padded = pad_samples(z, embedding, seed=77)
        np.testing.assert_array_equal(padded[:, embedding.node_of_site], z)

    @pytest.mark.parametrize(
        "m, d, chunks, extra",
        [
            pytest.param(9, 1, 0, 6, id="9-1"),
            pytest.param(16, 2, 0, 6, id="16-2"),
            pytest.param(9, 1, 0, 1, id="9-1-one-row"),
            pytest.param(9, 1, 1, -1, id="9-1-chunk-minus-one"),
            pytest.param(9, 1, 1, 0, id="9-1-one-chunk"),
            pytest.param(16, 2, 1, 1, id="16-2-chunk-plus-one"),
            pytest.param(16, 2, 3, 7, id="16-2-three-chunks-plus-remainder"),
            pytest.param(0, 2, 2, 3, id="no-unmatched-node"),
        ],
    )
    def test_pad_samples_equals_column_scatters(self, rng, m, d, chunks, extra):
        # The chunked fill must equal writing the sites, then one seeded
        # draw of normals, into their columns, bit for bit.  N is ``chunks``
        # full row chunks plus ``extra`` rows; ``m = 0`` stands for a
        # hand-built embedding that matches every node.
        if m:
            cloud = measure_cloud(perturbed_grid(m, d, 0.25, seed=3), d)
            embedding, _ = build_embedding(cloud)
        else:
            shape = LatticeShape(p=7, d=d)
            embedding = LatticeEmbedding(
                shape=shape,
                nodes=np.arange(shape.size),
                node_of_site=rng.permutation(shape.size),
                displacement=0.0,
                c1=0.5,
            )
        nodes = embedding.node_of_site
        rows = max(1, _PAD_CHUNK_ELEMENTS // embedding.shape.size)
        n = chunks * rows + extra
        z = rng.standard_normal((n, nodes.size))
        mask = np.ones(embedding.shape.size, dtype=bool)
        mask[nodes] = False
        assert mask.any() == bool(m)
        want = np.empty((n, embedding.shape.size))
        want[:, nodes] = z
        want[:, mask] = np.random.Generator(np.random.Philox(key=77)).standard_normal(
            (n, int(mask.sum()))
        )
        assert np.array_equal(pad_samples(z, embedding, seed=77), want)

    def test_pad_samples_peak_memory(self, rng):
        # Only the output and a few row-chunk buffers may be live at once;
        # a whole-array concatenate and gather would hold two more arrays
        # of the output's order.
        cloud = measure_cloud(perturbed_grid(200, 1, 0.25, seed=3), 1)
        embedding, _ = build_embedding(cloud)
        z = rng.standard_normal((6000, cloud.m))
        tracemalloc.start()
        try:
            padded = pad_samples(z, embedding, seed=77)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= padded.nbytes + 4 * 8 * _PAD_CHUNK_ELEMENTS

    def test_retries_halve_c1(self):
        # A small lattice with one undersized retry budget surfaces the
        # matching failure; a larger budget succeeds by growing the lattice.
        sites = np.array([0.47, 0.5, 0.53])
        cloud = measure_cloud(sites, 1)
        embedding, attempts = build_embedding(cloud, c1=0.99, retries=3)
        assert attempts >= 1
        assert embedding.displacement <= cloud.h

    def test_clustered_cloud_fails_without_retries_then_succeeds(self):
        # Five sites in a 4e-4 cluster compete for the three nodes of the
        # first lattice; halving the sizing constant eventually separates
        # them.
        sites = 0.5 + np.arange(5) * 1e-4
        cloud = measure_cloud(sites, 1)
        with pytest.raises(NoMatching):
            build_embedding(cloud, c1=0.9, retries=0)
        embedding, attempts = build_embedding(cloud, c1=0.9, retries=3)
        assert attempts > 1
        assert embedding.displacement <= cloud.h
