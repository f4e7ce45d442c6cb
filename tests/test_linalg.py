"""Dense kernel contracts: factorizations, inverses, norms, perturbations."""

import math
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from gpprec import linalg
from gpprec.errors import InvalidInput, NotPositiveDefinite, NumericalFailure
from gpprec.linalg import (
    _row_parts,
    block_inverse_schur,
    cholesky_lower,
    reverse_cholesky,
    sample_covariance,
    spd_inverse,
    spd_sqrt,
    spectral_norm,
    symmetrize,
)
from gpprec.lattice import LatticeShape
from gpprec.matching import LatticeEmbedding, _padded_blocks
from gpprec.truth import build_lattice_precision, sample, sample_blocks
from gpprec.verify import perturbation_corpus, random_spd
from oracle import padded_samples


def spd_corpus(rng, count=20, max_dim=24):
    out = []
    for _ in range(count):
        dim = int(rng.integers(2, max_dim))
        out.append(random_spd(rng, dim, float(rng.uniform(1.5, 1e4))))
    return out


class TestSampleCovariance:
    def test_rank_one_outer_product(self):
        z = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(sample_covariance(z), [[1.0, 2.0], [2.0, 4.0]])

    def test_orthogonal_pair(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sample_covariance(z), [[0.5, 0.0], [0.0, 0.5]])

    def test_law_of_large_numbers(self):
        # Seed 42 realizes a maximum entrywise deviation of 0.0427.
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = cholesky_lower(sigma)
        rng = np.random.Generator(np.random.Philox(key=42))
        z = rng.standard_normal((10_000, 2)) @ factor.T
        dev = np.max(np.abs(sample_covariance(z) - sigma))
        assert dev < 0.1

    def test_exactly_symmetric_and_psd(self, rng):
        z = rng.standard_normal((7, 40))
        c = sample_covariance(z)
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c)[0] >= -1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            sample_covariance(np.empty((0, 3)))

    def test_vector_rejected(self):
        with pytest.raises(InvalidInput):
            sample_covariance(np.ones(3))

    def test_stack_is_each_set_bit_for_bit(self, rng):
        # Column slabs of one array, stacked as a (k, N, w) view with the
        # slab's own strides, take one covariance each, as their 2-d calls.
        z = rng.standard_normal((300, 60))
        stacked = z.reshape(300, 6, 10).swapaxes(0, 1)
        got = sample_covariance(stacked)
        assert got.shape == (6, 10, 10)
        for i in range(6):
            assert np.array_equal(got[i], sample_covariance(z[:, 10 * i:10 * i + 10]))


def row_blocks(z, bounds):
    """Rows ``bounds[i]:bounds[i + 1]`` of ``z``, each copied into one reused buffer."""
    buffer = np.empty_like(z)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buffer[:hi - lo]
        block[...] = z[lo:hi]
        yield block
        block[...] = np.nan


class TestRowParts:
    """The one reader of sample rows: the rows each size takes of each block."""

    @pytest.mark.parametrize(
        "sizes, want",
        [
            ([2], [(0, 2, [2])]),  # inside the first block
            ([4], [(0, 4, [4])]),  # at its end
            ([4, 10], [(0, 4, [4, 10]), (4, 10, [10])]),
            ([11], [(0, 4, [11]), (4, 10, [11]), (10, 11, [11])]),  # beyond two blocks
            (
                [12, 3, 7, 4, 7],
                [(0, 3, [3]), (0, 4, [4, 7, 12]), (4, 7, [7]), (4, 10, [12]), (10, 12, [12])],
            ),
        ],
    )
    def test_parts_of_each_block(self, sizes, want):
        # Blocks of rows [0, 4), [4, 4), [4, 10) and [10, 12): the empty block
        # gives no part, and each part is a leading slice of its block.
        z = np.arange(36.0).reshape(12, 3)
        got = []
        for part, takers in _row_parts(row_blocks(z, [0, 4, 4, 10, 12]), 3, sizes):
            lo = int(part[0, 0]) // 3
            assert np.array_equal(part, z[lo:lo + part.shape[0]])
            got.append((lo, lo + part.shape[0], takers))
        assert got == want

    @pytest.mark.parametrize("sizes", [[12], [1, 5, 12], [3, 7]])
    def test_array_is_one_block(self, sizes):
        # An array is read as the one block it is, the same as a list of it,
        # and each size's parts, in any split, are its first n rows.
        z = np.random.Generator(np.random.Philox(key=2)).standard_normal((12, 3))
        whole = [(part.copy(), takers) for part, takers in _row_parts(z, 3, sizes)]
        listed = list(_row_parts([z], 3, sizes))
        assert len(whole) == len(listed)
        for (a, ta), (b, tb) in zip(whole, listed):
            assert ta == tb and np.array_equal(a, b)
        split = [(part.copy(), t) for part, t in _row_parts(row_blocks(z, [0, 5, 12]), 3, sizes)]
        for parts in (whole, split):
            for n in sizes:
                rows = np.concatenate([part for part, takers in parts if n in takers])
                assert np.array_equal(rows, z[:n])

    def test_integer_rows_read_as_float64(self):
        ((part, takers),) = _row_parts(np.arange(6).reshape(3, 2), 2, [3])
        assert part.dtype == np.float64 and takers == [3]

    @pytest.mark.parametrize("sizes", [[5], [2, 5], [10]])
    def test_no_block_read_past_the_largest_size(self, sizes):
        z = np.ones((10, 2))

        def blocks():
            yield z[:5]
            if max(sizes) > 5:
                yield z[5:]
            raise AssertionError("a block was read past the largest size")

        parts = list(_row_parts(blocks(), 2, sizes))
        assert sum(part.shape[0] for part, takers in parts if max(sizes) in takers) == max(sizes)

    @pytest.mark.parametrize(
        "samples, match",
        [
            (np.zeros((5, 2)), "3 columns"),
            ([np.zeros((2, 3)), np.zeros((2, 4))], "3 columns"),
            (np.zeros(15), "3 columns"),
            (iter([np.zeros((4, 3)), np.zeros((3, 3))]), "end after 7 rows, before row 8"),
            ([], "end after 0 rows"),
        ],
        ids=["columns", "block-columns", "one-dimensional", "short-stream", "no-blocks"],
    )
    def test_malformed_or_short_samples_refused(self, samples, match):
        with pytest.raises(InvalidInput, match=match):
            list(_row_parts(samples, 3, [2, 8]))


class _RecordedFills:
    """The fill thread's executor, recording each fill queued and each wait on one.

    ``events`` gets ``("fill", k)`` when block ``k``'s fill is queued and
    ``("wait", k)`` when its future's ``result()`` is called; ``outs``
    holds each fill's slot.
    """

    def __init__(self, fills, events):
        self.fills, self.events, self.outs = fills, events, []

    def submit(self, fill, out):
        k = len(self.outs)
        self.outs.append(out)
        future = self.fills.submit(fill, out=out)
        result = future.result

        def waited(*args, **kwargs):
            self.events.append(("wait", k))
            return result(*args, **kwargs)

        future.result = waited
        self.events.append(("fill", k))
        return future


def _fill_order(steps):
    """``"F2"``, ``"W2"`` and ``"Y2"`` as the events ``("fill", 2)``, ``("wait", 2)`` and ``("yield", 2)``."""
    names = {"F": "fill", "W": "wait", "Y": "yield"}
    return [(names[step[0]], int(step[1:])) for step in steps.split()]


class TestFillsAhead:
    """Each caller's slots give the order in which its fills are queued and waited on."""

    # Four blocks each: 541 draw rows of the 484-variable truth, and 512
    # padded rows of the 1024-node lattice with every other node a site.
    @pytest.fixture(scope="class")
    def draws(self):
        truth = build_lattice_precision(22, 2, 2)
        n = 3 * 541 + 100
        shape = LatticeShape(p=1024, d=1)
        embedding = LatticeEmbedding(shape, np.arange(0, shape.size, 2), 0.0)
        z = np.random.Generator(np.random.Philox(key=5)).standard_normal((3 * 512 + 100, 512))
        return {
            "one-slot-per-block": (lambda: [sample(truth, n, seed=3)], sample(truth, n, seed=3)),
            "two-slots": (lambda: sample_blocks(truth, n, seed=3), sample(truth, n, seed=3)),
            "one-slot": (
                lambda: _padded_blocks((z,), embedding, 7, z.shape[0]),
                padded_samples(z, embedding, 7),
            ),
        }

    @pytest.mark.parametrize(
        "case, slots, order",
        [
            # sample queues every fill before its first wait.
            ("one-slot-per-block", 4, _fill_order("F0 F1 F2 F3 W0 W1 W2 W3 Y0")),
            # sample_blocks queues block k + 1's fill, into the slot block k
            # does not use, before it waits on block k.
            ("two-slots", 2, _fill_order("F0 F1 W0 Y0 F2 W1 Y1 F3 W2 Y2 W3 Y3")),
            # The padding queues fill k + 1 right after it waits on block k,
            # before block k is gathered.
            ("one-slot", 1, _fill_order("F0 W0 F1 Y0 W1 F2 Y1 W2 F3 Y2 W3 Y3")),
        ],
        ids=["one-slot-per-block", "two-slots", "one-slot"],
    )
    def test_fills_queued_before_the_wait(self, monkeypatch, draws, case, slots, order):
        draw, want = draws[case]
        events = []
        recorded = _RecordedFills(linalg._FILLS, events)
        monkeypatch.setattr(linalg, "_FILLS", recorded)
        blocks = []
        for block in draw():
            events.append(("yield", len(blocks)))
            blocks.append(block.copy())
        assert events == order
        # Block k is filled into slot k % slots, and the draw is unchanged.
        assert len({out.ctypes.data for out in recorded.outs}) == slots
        for k, out in enumerate(recorded.outs):
            assert out.ctypes.data == recorded.outs[k % slots].ctypes.data
        assert np.array_equal(np.concatenate(blocks), want)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(cholesky_lower(a), [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.pivot == 1

    def test_tiny_pivot_rejected_by_scale(self):
        a = np.diag([1.0, 1e-30, 1.0])
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_lower(a)
        assert info.value.pivot == 1

    def test_round_trip_residual(self, rng):
        for a in spd_corpus(rng):
            factor = cholesky_lower(a)
            res = spectral_norm(symmetrize(factor @ factor.T - a))
            assert res <= 1e-12 * spectral_norm(a)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            cholesky_lower(np.array([[1.0, 0.1], [0.0, 1.0]]))


def csr_spectral_norm(a):
    return spectral_norm(sparse.csr_matrix(a))


def lil_spectral_norm(a):
    # A format with no array of its stored entries.
    return spectral_norm(sparse.lil_matrix(a))


@pytest.mark.parametrize(
    "function", [cholesky_lower, spd_inverse, spectral_norm, csr_spectral_norm, lil_spectral_norm]
)
@pytest.mark.parametrize(
    "entry, value", [((0, 1), np.nan), ((0, 0), np.inf)], ids=["nan-off-diagonal", "inf-diagonal"]
)
def test_non_finite_matrix_refused(function, entry, value):
    # Neither symmetrizing nor a pivot gate can mend a NaN or infinite
    # entry, so it is refused before either is reached.
    a = np.eye(3) * 2.0
    a[entry] = a[entry[::-1]] = value
    with pytest.raises(InvalidInput, match="must be finite"):
        function(a)


class TestTiledSymmetry:
    """Symmetry is checked, and made in place, tile by tile against the mirrors."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_tiles_and_mirrors_cover_every_entry_once(self, n):
        count = np.zeros((n, n), dtype=int)
        for r, c in linalg._mirror_tiles(n):
            count[r, c] += 1
            if r != c:
                count[c, r] += 1
        assert (count == 1).all()

    @pytest.mark.parametrize("n", [5, 64, 130])
    def test_symmetrize_in_place_is_symmetrize(self, rng, n):
        a = rng.standard_normal((n, n))
        got = linalg._symmetrize_in_place(a.copy())
        assert got.tobytes() == symmetrize(a).tobytes()

    def test_every_entry_is_checked(self, rng):
        # One ulp off in a single entry, in a diagonal, interior or ragged
        # last tile, or a NaN on the diagonal, is refused as before.
        a = symmetrize(rng.standard_normal((130, 130)))
        assert linalg._as_square_sym(a) is a
        for i, j in [(0, 1), (1, 0), (5, 129), (129, 5), (70, 128), (128, 127), (64, 0)]:
            b = a.copy()
            b[i, j] = np.nextafter(b[i, j], np.inf)
            with pytest.raises(InvalidInput):
                linalg._as_square_sym(b)
        a[100, 100] = np.nan
        with pytest.raises(InvalidInput):
            linalg._as_square_sym(a)


class TestReverseCholesky:
    def test_upper_with_positive_diagonal(self, rng):
        for a in spd_corpus(rng):
            r = reverse_cholesky(a)
            assert np.all(np.tril(r, -1) == 0.0)
            assert np.all(np.diag(r) > 0.0)

    def test_reproduces_input(self, rng):
        for a in spd_corpus(rng):
            r = reverse_cholesky(a)
            res = spectral_norm(symmetrize(r @ r.T - a))
            assert res <= 1e-12 * spectral_norm(a)

    def test_hand_factorization(self):
        # [[4, 2], [2, 5]] = R R^T with R = [[a, b], [0, sqrt(5)]].
        r = reverse_cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        c = 2.0 / math.sqrt(5.0)
        np.testing.assert_allclose(r, [[math.sqrt(4.0 - c * c), c], [0.0, math.sqrt(5.0)]])

    @pytest.mark.parametrize(
        "a", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], np.diag([1.0, 1e-30, 1.0])],
        ids=["indefinite", "singular", "tiny-pivot"],
    )
    def test_not_spd_rejected(self, a):
        with pytest.raises(NotPositiveDefinite):
            reverse_cholesky(np.asarray(a))


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_closed_form_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(spd_inverse(a), expected, rtol=1e-14)

    def test_residual_contract(self, rng):
        for a in spd_corpus(rng):
            inv = spd_inverse(a)
            assert np.array_equal(inv, inv.T)
            assert inv.flags.c_contiguous
            res = np.linalg.norm(a @ inv - np.eye(a.shape[0]), 2)
            assert res <= 1e-10 * np.linalg.cond(a)

    def test_not_spd_propagates(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("m", [7, 100, 484])
    def test_equals_dpotri(self, rng, m):
        # dpotri is dtrtri then dlauum, which spd_inverse runs one by one.
        x = rng.standard_normal((m + 20, m))
        a = symmetrize(x.T @ x / m)
        inv, info = lapack.dpotri(cholesky_lower(a), lower=1)
        assert info == 0
        want = np.add(inv, np.tril(inv, -1).T, order="C")
        got = spd_inverse(a)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == 1.0

    def test_known_eigenvalues(self):
        assert spectral_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, rel=1e-12)

    def test_negative_dominant(self):
        assert spectral_norm(np.diag([-5.0, 1.0])) == pytest.approx(5.0)

    def test_large_dim(self, rng):
        n = 600
        g = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        eigs = np.concatenate([[50.0, 40.0], rng.uniform(10.0, 30.0, size=n - 3), [1.0]])
        a = symmetrize(q @ np.diag(eigs) @ q.T)
        assert spectral_norm(a) == pytest.approx(50.0, rel=1e-6)

    @pytest.mark.parametrize("p,d,s", [(64, 1, 1), (22, 2, 2), (6, 3, 2)])
    def test_dirichlet_closed_form(self, p, d, s):
        # At (64, 1, 1) the top eigenvector is orthogonal to the ones
        # vector, so a constant Lanczos start vector misses the top eigenvalue.
        h = 1.0 / (p + 1)
        top = (p + 1) ** 2 * 4 * d * math.sin(p * math.pi / (2 * (p + 1))) ** 2
        want = h**d * top**s
        got = spectral_norm(build_lattice_precision(p, d, s).omega)
        assert abs(got - want) <= 1e-12 * want

    def test_over_budget_fails_fast(self):
        # The top of the 1-d Dirichlet spectrum clusters: at p = 2048 Lanczos
        # needs about 26 000 matvecs, far over the restart budget.
        a = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(2048, 2048)).tocsr()
        started = time.perf_counter()
        with pytest.raises(NumericalFailure):
            spectral_norm(a)
        assert time.perf_counter() - started < 2.0

    @staticmethod
    def _operands(a):
        op = LinearOperator(a.shape, matvec=lambda x: a @ x, dtype=a.dtype)
        return [a, sparse.csr_matrix(a), op]

    def test_storage_types_agree_with_eigvalsh(self, rng):
        n = 80
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.concatenate([[-7.0, 7.0], rng.uniform(-5.0, 5.0, size=n - 2)])
        a = symmetrize(q @ np.diag(eigs) @ q.T)
        want = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        for operand in self._operands(a):
            assert abs(spectral_norm(operand) - want) <= 1e-12 * want

    def test_zero_and_one_by_one(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0
        assert spectral_norm(sparse.csr_matrix((4, 4))) == 0.0
        for operand in self._operands(np.array([[-3.5]])):
            assert spectral_norm(operand) == 3.5

    @pytest.mark.parametrize("wrap", [np.asarray, sparse.csr_matrix])
    def test_asymmetric_rejected(self, wrap):
        with pytest.raises(InvalidInput):
            spectral_norm(wrap(np.array([[1.0, 0.1], [0.0, 1.0]])))

    def test_arpack_failure_raises_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((3, 0)))

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        with pytest.raises(NumericalFailure):
            spectral_norm(np.diag([1.0, -2.0, 3.0]))

    def test_repeated_calls_bit_identical(self, rng):
        a = symmetrize(rng.standard_normal((50, 50)))
        for operand in self._operands(a):
            assert spectral_norm(operand) == spectral_norm(operand)


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_matches_eigendecomposition_oracle(self, rng):
        a = random_spd(rng, 12, 300.0)
        w, v = np.linalg.eigh(a)
        oracle = v @ np.diag(np.sqrt(w)) @ v.T
        got = spd_sqrt(a)
        assert spectral_norm(symmetrize(got - oracle)) <= 1e-8 * spectral_norm(symmetrize(oracle))

    def test_square_residual(self, rng):
        for a in spd_corpus(rng, count=10):
            root = spd_sqrt(a)
            res = spectral_norm(symmetrize(root @ root - a))
            assert res <= 1e-10 * np.linalg.cond(a) * spectral_norm(a)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_input_checked_once(self, monkeypatch, rng):
        # The gate factors a copy, so the input's finiteness and symmetry
        # are checked once and the input is left as it was.
        a = random_spd(rng, 12, 300.0)
        kept = a.copy()
        want = spd_sqrt(a)
        checks = []
        check = linalg._as_square_sym

        def counting(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(linalg, "_as_square_sym", counting)
        assert np.array_equal(spd_sqrt(a), want)
        assert len(checks) == 1
        assert np.array_equal(a, kept)


class TestBlockInverseSchur:
    def test_identity_blocks(self):
        k11, k12, k21, k22 = block_inverse_schur(np.eye(4), 2)
        np.testing.assert_allclose(k11, np.eye(2))
        np.testing.assert_allclose(k22, np.eye(2))
        np.testing.assert_allclose(k12, np.zeros((2, 2)))
        np.testing.assert_allclose(k21, np.zeros((2, 2)))

    def test_closed_form_2x2(self):
        k11, k12, k21, k22 = block_inverse_schur(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert k11[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert k12[0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert k21[0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert k22[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_matches_direct_inverse_all_splits(self, rng):
        for a in spd_corpus(rng, count=8, max_dim=10):
            direct = spd_inverse(a)
            for split in range(1, a.shape[0]):
                k11, k12, k21, k22 = block_inverse_schur(a, split)
                stacked = np.block([[k11, k12], [k21, k22]])
                gap = spectral_norm(symmetrize(stacked - direct))
                assert gap <= 1e-9 * spectral_norm(direct)

    def test_invalid_split(self):
        with pytest.raises(InvalidInput):
            block_inverse_schur(np.eye(3), 3)

    @pytest.mark.parametrize("split", [True, 1.0, "1"])
    def test_non_integer_split_refused(self, split):
        # True used to pass as split 1.
        with pytest.raises(InvalidInput, match="split must be a positive integer"):
            block_inverse_schur(np.eye(3), split)


class TestPerturbationBounds:
    """Measured errors respect the inverse, Cholesky, and root inequalities."""

    @pytest.fixture(scope="class")
    @classmethod
    def corpus(cls):
        return perturbation_corpus(n_cases=100, dim=20)

    def test_inverse_bound(self, corpus):
        for b, b_hat, eps_b, _ in corpus:
            kappa_eps = np.linalg.cond(b) * eps_b
            assert kappa_eps <= 0.4
            err = spectral_norm(spd_inverse(b_hat) - spd_inverse(b)) / spectral_norm(spd_inverse(b))
            assert err <= kappa_eps / (1.0 - kappa_eps)

    def test_cholesky_bound(self, corpus):
        for b, b_hat, eps_b, _ in corpus:
            kappa_eps = np.linalg.cond(b) * eps_b
            l, l_hat = cholesky_lower(b), cholesky_lower(b_hat)
            err = np.linalg.norm(l_hat - l, 2) / np.linalg.norm(l, 2)
            assert err <= (2.0 * math.log2(20) + 4.0) * kappa_eps

    def test_sqrt_lipschitz(self, corpus):
        for b, b_hat, eps_b, _ in corpus:
            err = spectral_norm(spd_sqrt(b_hat) - spd_sqrt(b)) / spectral_norm(spd_sqrt(b))
            assert err <= math.sqrt(np.linalg.cond(b)) * eps_b
