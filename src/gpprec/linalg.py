"""Dense symmetric and SPD kernels shared by every estimator in the package.

Matrices are plain float64 ``numpy.ndarray`` objects.  Functions returning
symmetric matrices always return *exactly* symmetric arrays (both triangles
bitwise equal), and symmetric inputs are required to be exactly symmetric;
use :func:`symmetrize` first when a matrix was assembled entrywise.

Positive definiteness is decided by the Cholesky pivot rule: a pivot is
rejected when it is at most ``SPD_PIVOT_RTOL`` times the largest diagonal
entry of the input.  Inverses and square roots are routed through this
gate; :func:`condition_number` applies the same tolerance to the ratio of
its extreme eigenvalues, both from one full symmetric eigenvalue
decomposition.  :func:`spectral_norm` needs only the one extreme eigenvalue
and takes it by Lanczos (ARPACK's ``eigsh``), on a dense array, a scipy
sparse matrix or a ``LinearOperator`` as the caller holds it.

Every function here is a pure function of immutable inputs and never
mutates its arguments, so concurrent read-only use is safe.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, sqrtm
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import InvalidInput, NotPositiveDefinite, NumericalFailure

__all__ = [
    "SPD_PIVOT_RTOL",
    "symmetrize",
    "sample_covariance",
    "cholesky_lower",
    "reverse_cholesky",
    "spd_inverse",
    "spectral_norm",
    "condition_number",
    "spd_sqrt",
    "block_inverse_schur",
]

# Scale-invariant pivot floor: a Cholesky pivot at most this fraction of the
# largest diagonal entry counts as a positive-definiteness failure.
SPD_PIVOT_RTOL = 1e-12

# Restart budget of spectral_norm's Lanczos (eigsh's maxiter).  With k = 1
# a restart costs about 10 matvecs, so a solve stops after about 1 000.
# The norms the CLI takes need at most a few hundred (351 for the Green's
# d = 1 truth at M = 1000, 101 for the row errors at the d = 1 and d = 2
# caps).  The 1-d Dirichlet Laplacian, whose top eigenvalues cluster, needs
# 6 991 at p = 1024 and about 26 000 at p = 2048, and is refused instead of
# running for minutes; lattice truths take their norm in closed form.
_LANCZOS_MAX_RESTARTS = 100

# Philox key of spectral_norm's Lanczos start vector.  A fixed random start
# keeps reruns bit-identical and, unlike a constant vector, is not
# orthogonal to the top eigenvector of a symmetric lattice operator.
_LANCZOS_START_KEY = 0x6770707265632D6C


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput(f"{name} must have dimension at least 1")
    return a


def _as_square_sym(a, name="matrix") -> np.ndarray:
    a = _as_square(a, name)
    if not np.array_equal(a, a.T):
        raise InvalidInput(f"{name} must be exactly symmetric; call symmetrize() first")
    return a


def symmetrize(a) -> np.ndarray:
    """Return ``(a + a.T) / 2`` as an exactly symmetric array."""
    a = _as_square(a)
    return 0.5 * (a + a.T)


def sample_covariance(samples) -> np.ndarray:
    """Covariance of zero-mean observations, one per row, with divisor ``1/N``.

    Parameters
    ----------
    samples : (N, dim) array
        N observation vectors.  No mean is subtracted; the observed process
        is zero-mean by assumption.

    Returns
    -------
    (dim, dim) array
        ``(1/N) * sum_n z_n z_n^T``, exactly symmetric and positive
        semidefinite up to roundoff.

    Raises
    ------
    InvalidInput
        If the sample set is empty or not two-dimensional.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2:
        raise InvalidInput(f"samples must be a 2-d array, got shape {z.shape}")
    n = z.shape[0]
    if n < 1:
        raise InvalidInput("sample set is empty")
    c = z.T @ z / n
    return 0.5 * (c + c.T)


def cholesky_lower(a) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L L^T = a``.

    Parameters
    ----------
    a : (n, n) array
        Exactly symmetric matrix.

    Returns
    -------
    (n, n) array
        Lower-triangular factor with strictly positive diagonal.

    Raises
    ------
    NotPositiveDefinite
        If factorization hits a pivot at most ``SPD_PIVOT_RTOL`` times the
        largest diagonal entry of ``a``; the exception reports the failing
        pivot index.
    """
    a = _as_square_sym(a)
    pivot_floor = SPD_PIVOT_RTOL * float(np.max(np.diag(a), initial=0.0))
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"factorization failed at pivot {info - 1}", pivot=info - 1
        )
    if info < 0:
        raise InvalidInput(f"illegal value in argument {-info} of dpotrf")
    pivots = np.square(np.diag(c))
    bad = np.flatnonzero(pivots <= pivot_floor)
    if bad.size:
        raise NotPositiveDefinite(
            f"pivot {bad[0]} is {pivots[bad[0]]:.3e}, at or below the "
            f"tolerance {pivot_floor:.3e}",
            pivot=int(bad[0]),
        )
    return c


def reverse_cholesky(a) -> np.ndarray:
    """Upper-triangular ``R`` with ``R R^T = a``, the reverse Cholesky factor.

    ``a`` with its rows and columns flipped is factored by
    :func:`cholesky_lower`, with its pivot gate, and the factor is flipped
    back, so ``R`` has a strictly positive diagonal.  A failing pivot is
    counted from the last row and column of ``a``.
    """
    return cholesky_lower(_as_square(a)[::-1, ::-1])[::-1, ::-1]


def spd_inverse(a) -> np.ndarray:
    """Inverse of an SPD matrix through its Cholesky factorization.

    Returns an exactly symmetric array.  Raises ``NotPositiveDefinite``
    (propagated from :func:`cholesky_lower`) when ``a`` is not SPD.
    """
    c = cholesky_lower(a)
    inv, info = lapack.dpotri(c, lower=1)
    if info != 0:
        raise NumericalFailure(f"dpotri failed with info={info}")
    lower = np.tril(inv)
    return lower + np.tril(inv, -1).T


def _as_symmetric_operand(a):
    """``a`` as :func:`spectral_norm` hands it to ``eigsh``, after its checks.

    Dense and sparse arrays must be exactly symmetric; a ``LinearOperator``
    is taken as symmetric on the caller's word.
    """
    if not (isinstance(a, LinearOperator) or sparse.issparse(a)):
        return _as_square_sym(a)
    if a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInput(f"matrix must be square and nonempty, got shape {a.shape}")
    if isinstance(a, LinearOperator):
        return a
    if (a != a.T).nnz:
        raise InvalidInput("matrix must be exactly symmetric; call symmetrize() first")
    return a.astype(np.float64, copy=False)


def spectral_norm(a) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric operand.

    ``a`` is a dense array, a scipy sparse matrix or a ``LinearOperator``,
    and is used as it is held: a sparse matrix is not densified and a dense
    one is not sparsified.  Arrays must be exactly symmetric
    (``InvalidInput`` otherwise); for a ``LinearOperator`` the caller
    guarantees symmetry, which cannot be checked here.

    The norm is the extreme eigenvalue found by Lanczos (``eigsh`` with
    ``k=1``, ``which="LM"``, ``tol=0``, so converged to machine precision)
    from a fixed Philox start vector, so repeated calls on the same operand
    return bit-identical results.  An all-zero array gives 0.0 and a 1 x 1
    operand its absolute entry, the two cases where a Krylov solve is
    undefined.  The solve has a budget of ``_LANCZOS_MAX_RESTARTS``
    restarts; an operand whose top eigenvalue does not converge within it
    raises ``NumericalFailure``, as do other ARPACK failures, including a
    ``LinearOperator`` that maps everything to zero.
    """
    a = _as_symmetric_operand(a)
    n = a.shape[0]
    if n == 1:
        return abs(float((a @ np.ones(1))[0]))
    if not isinstance(a, LinearOperator):
        if not (a.count_nonzero() if sparse.issparse(a) else a.any()):
            return 0.0
    v0 = np.random.Generator(np.random.Philox(key=_LANCZOS_START_KEY)).standard_normal(n)
    try:
        top = eigsh(
            a, k=1, which="LM", tol=0, v0=v0, maxiter=_LANCZOS_MAX_RESTARTS,
            return_eigenvectors=False,
        )
    except ArpackError as exc:
        raise NumericalFailure(f"Lanczos spectral norm failed: {exc}") from exc
    return abs(float(top[0]))


def condition_number(a) -> float:
    """Ratio of extreme eigenvalues of an SPD matrix.

    Both extremes come from one full symmetric eigenvalue decomposition.
    Raises ``NotPositiveDefinite`` when the smallest eigenvalue is at or
    below ``SPD_PIVOT_RTOL`` times the largest.
    """
    a = _as_square_sym(a)
    w = np.linalg.eigvalsh(a)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= SPD_PIVOT_RTOL * max(hi, 0.0):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lo:.3e} fails the SPD tolerance"
        )
    return hi / lo


def spd_sqrt(a) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix.

    The input is gated through :func:`cholesky_lower` so non-SPD matrices
    raise ``NotPositiveDefinite`` with a pivot index; the root itself is
    computed by the Schur method, independent of any eigendecomposition.
    """
    a = _as_square_sym(a)
    cholesky_lower(a)
    root = sqrtm(a)
    root = np.ascontiguousarray(np.real(root), dtype=np.float64)
    return 0.5 * (root + root.T)


def block_inverse_schur(sigma, split: int):
    """Four blocks of ``sigma^{-1}`` via the Schur-complement formula.

    Parameters
    ----------
    sigma : (n, n) array
        SPD matrix partitioned at row/column ``split``.
    split : int
        Size of the leading block; must satisfy ``1 <= split < n``.

    Returns
    -------
    tuple of arrays
        ``(k11, k12, k21, k22)`` with shapes ``(m, m)``, ``(m, r)``,
        ``(r, m)``, ``(r, r)`` for ``m = split`` and ``r = n - split``:

        * ``k11 = (s11 - s12 s22^{-1} s21)^{-1}``
        * ``k12 = -s11^{-1} s12 (s22 - s21 s11^{-1} s12)^{-1}``
        * ``k21 = -s22^{-1} s21 (s11 - s12 s22^{-1} s21)^{-1}``
        * ``k22 = (s22 - s21 s11^{-1} s12)^{-1}``

    Raises
    ------
    NotPositiveDefinite
        When a principal block or a Schur complement fails the pivot test.
    """
    sigma = _as_square_sym(sigma, "sigma")
    n = sigma.shape[0]
    if not isinstance(split, (int, np.integer)) or not 1 <= split < n:
        raise InvalidInput(f"split must satisfy 1 <= split < {n}, got {split}")
    m = int(split)
    s11 = sigma[:m, :m]
    s12 = sigma[:m, m:]
    s21 = sigma[m:, :m]
    s22 = sigma[m:, m:]
    inv11 = spd_inverse(s11)
    inv22 = spd_inverse(s22)
    schur11 = symmetrize(s11 - s12 @ inv22 @ s21)
    schur22 = symmetrize(s22 - s21 @ inv11 @ s12)
    k11 = spd_inverse(schur11)
    k22 = spd_inverse(schur22)
    k12 = -inv11 @ s12 @ k22
    k21 = -inv22 @ s21 @ k11
    return k11, k12, k21, k22
