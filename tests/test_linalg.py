"""Dense kernel contracts: factorizations, inverses, norms, perturbations."""

import math
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from gpprec import linalg
from gpprec.errors import InvalidInput, NotPositiveDefinite, NumericalFailure
from gpprec.linalg import (
    block_inverse_schur,
    cholesky_lower,
    condition_number,
    reverse_cholesky,
    sample_covariance,
    spd_inverse,
    spd_sqrt,
    spectral_norm,
    symmetrize,
)
from gpprec.truth import build_lattice_precision
from gpprec.verify import perturbation_corpus, random_spd


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
            res = np.linalg.norm(a @ inv - np.eye(a.shape[0]), 2)
            assert res <= 1e-10 * np.linalg.cond(a)

    def test_not_spd_propagates(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


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


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([1.0, 100.0])) == pytest.approx(100.0)

    def test_tridiagonal_closed_form(self):
        # Second-difference matrix eigenvalues are 2 - 2 cos(k pi / (n+1)).
        n = 10
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        eigs = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        assert condition_number(a) == pytest.approx(eigs.max() / eigs.min(), rel=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            condition_number(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_lattice_truth_above_512_vertices(self):
        # m = 576 with kappa near 6.4e4: the truth builds and its closed-form
        # kappa agrees with the eigenvalue ratio.
        truth = build_lattice_precision(24, 2, 2)
        assert truth.dim == 576
        assert condition_number(truth.omega) == pytest.approx(truth.kappa, rel=1e-9)


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
