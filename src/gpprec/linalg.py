"""Dense symmetric and SPD kernels shared by every estimator in the package.

Matrices are plain float64 ``numpy.ndarray`` objects.  Functions returning
symmetric matrices always return *exactly* symmetric arrays (both triangles
bitwise equal), and symmetric inputs are required to be exactly symmetric;
use :func:`symmetrize` first when a matrix was assembled entrywise.  A
dense square input with a NaN or infinite entry raises ``InvalidInput``
before its symmetry is checked, as no symmetrizing or factoring mends it.

Positive definiteness is decided by the Cholesky pivot rule: a pivot is
rejected when it is at most ``SPD_PIVOT_RTOL`` times the largest diagonal
entry of the input.  The rule lives in one private gate, ``_gated_factor``,
whose precondition is an exactly symmetric input, guaranteed by its
caller: :func:`cholesky_lower` and :func:`spd_sqrt` check each input
once and gate a Fortran-ordered copy, and the blockwise estimator checks
its covariance source once per estimate and then factors each window, a
slice of it, through the gate directly.  Inverses and square roots are
routed through this gate.  A precision is read off a
factor by :func:`triangular_inverse` (``dtrtri``) and
:func:`triangular_gram` (``dlauum``, mirrored): with ``a = L L^T`` and
``W = inv(L)``, ``W^T W = inv(a)``, and the leading ``n x n`` block of
``W`` gives ``inv(a[:n, :n])`` the same way.  :func:`spectral_norm` takes
the one extreme eigenvalue by Lanczos (ARPACK's ``eigsh``), on a dense
array, a scipy sparse matrix or a ``LinearOperator`` as the caller holds
it; no function here computes a full eigendecomposition.  The truth
builders take a condition number as the product of two such norms,
``||omega||_2 ||omega^{-1}||_2``, and refuse one at or above
``1 / SPD_PIVOT_RTOL``.

Every public function here is a pure function of immutable inputs and
never mutates its arguments, so concurrent read-only use is safe; only
the private helpers work in place on an array their caller made: the
gate factors it, ``_symmetrize_in_place`` symmetrizes it, and
``_mirror_lower_in_place`` fills its upper triangle from its lower, which
finishes :func:`triangular_gram`'s product and, in place, each Gram of
the factor pass (``cholesky._prefix_covariances``).
Symmetry is checked, and made in place, tile by tile against the mirror
tiles, which reads every entry but never the whole transpose at once.

Every second-moment sum of the package is taken over the first ``n``
rows of a sample array or of a stream of its row blocks, for several
``n`` in one pass, and one private reader, ``_row_parts``, reads them:
it checks each block's columns, hands each ``n`` the rows of each block
it takes, stops at the largest ``n`` and refuses rows that run out
before it.

The package's one thread of its own lives here, and one generator owns
it: ``_fills_ahead`` fills a Philox stream's normals,
``standard_normal(out=...)``, block by block into its caller's slots on
a single worker that runs nothing else, so a draw's next normals are
made while its caller multiplies or pads the last ones.  The one worker
fills each stream in the order its fills were queued, so every draw is
bit for bit what fills in the caller would give.  The next fill is
queued before the caller waits on the last: scipy's BLAS wrappers hold
the GIL for the whole product, so a fill queued after the wait finds the
worker blocked on the GIL behind the caller's next product, not filling.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, sqrtm
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import InvalidInput, NotPositiveDefinite, NumericalFailure, _check_integer

__all__ = [
    "SPD_PIVOT_RTOL",
    "symmetrize",
    "sample_covariance",
    "cholesky_lower",
    "reverse_cholesky",
    "triangular_inverse",
    "triangular_gram",
    "spd_inverse",
    "spectral_norm",
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


def _philox(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an integer in its key range ``[0, 2**128)``.

    Any other seed, a bool, float or string included, raises
    ``InvalidInput``; numpy would raise a ``ValueError`` or take the
    float's integer part.
    """
    _check_integer(seed, "seed", minimum=0, bits=128)
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _start_fills():
    """Make the fill thread's executor, ``_FILLS``; its worker starts at the first fill.

    numpy's ``standard_normal(out=...)`` releases the GIL while it writes,
    so a fill overlaps the caller's BLAS and numpy work on a second core.
    One worker keeps each stream's fills in queue order.
    """
    global _FILLS
    _FILLS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gpprec-philox")


_start_fills()
# A forked child has no worker thread, and the executor it inherits would
# queue fills that no thread runs.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_fills)


def _fills_ahead(rng: np.random.Generator, slots, n: int):
    """The ``Future`` of each row block's fill of ``n`` rows of ``rng``, in row order.

    Block ``k`` has ``len(slots[0])`` rows, the last block fewer, and is
    filled by ``rng.standard_normal`` into the first rows of
    ``slots[k % len(slots)]`` on the fill thread; its future yields that
    view.  A slot is free once the reader resumes the generator after
    taking the block that used it: before yielding block ``k``, the
    generator queues, in row order, every later block whose slot is free,
    so with one slot per block all fills are queued up front.  Fills run
    one at a time in the order queued, so the blocks are ``rng``'s stream
    in order, bit for bit as calls in the caller would draw it.  A fill
    that raises re-raises from its future's ``result()``.  Closed early,
    the generator cancels its queued fills and waits for the running one,
    so no fill writes a slot after ``close`` returns.
    """
    step = len(slots[0])
    starts = range(0, n, step)
    # Fills queued and not yet taken by the reader, of blocks k, k + 1, ...
    queued = deque()
    try:
        for k in range(len(starts)):
            for lo in starts[k + len(queued):k + len(slots)]:
                out = slots[lo // step % len(slots)][:min(step, n - lo)]
                queued.append(_FILLS.submit(rng.standard_normal, out=out))
            yield queued[0]
            queued.popleft()
    finally:
        for fill in queued:
            fill.cancel()
        wait(queued)


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput(f"{name} must have dimension at least 1")
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} must be finite")
    return a


# Side of the square tiles that symmetry checks and in-place symmetrization
# pair with their mirrors: a 64 x 64 tile and its mirror stay in cache,
# where a whole-matrix transpose read does not (47 ms against 299 ms to
# compare m = 4096; 32 and 128 took 69 and 112 ms).
_TILE = 64


def _mirror_tiles(n: int):
    """``(rows, cols)`` slices of the tiles on and above the diagonal of an ``n x n`` array.

    The mirror of tile ``a[rows, cols]`` is ``a[cols, rows]``; the tiles
    and the mirrors of the off-diagonal ones cover every entry once.
    """
    for lo in range(0, n, _TILE):
        for start in range(lo, n, _TILE):
            yield slice(lo, lo + _TILE), slice(start, start + _TILE)


def _as_square_sym(a, name="matrix") -> np.ndarray:
    a = _as_square(a, name)
    if not all(np.array_equal(a[r, c], a[c, r].T) for r, c in _mirror_tiles(a.shape[0])):
        raise InvalidInput(f"{name} must be exactly symmetric; call symmetrize() first")
    return a


def symmetrize(a) -> np.ndarray:
    """Return ``(a + a.T) / 2`` as an exactly symmetric array."""
    a = _as_square(a)
    return 0.5 * (a + a.T)


def _symmetrize_in_place(a: np.ndarray) -> np.ndarray:
    """:func:`symmetrize` of a square array, written over it tile by tile.

    Each tile and its mirror become ``0.5 * (a_ij + a_ji)`` entry by entry,
    bit for bit what :func:`symmetrize` returns, with no temporary larger
    than a tile.
    """
    for r, c in _mirror_tiles(a.shape[0]):
        tile = 0.5 * (a[r, c] + a[c, r].T)
        a[r, c] = tile
        a[c, r] = tile.T
    return a


def _mirror_lower_in_place(a: np.ndarray) -> np.ndarray:
    """Fill the zero strict upper triangle of a square array from its lower, tile by tile.

    Every entry becomes what ``a + tril(a, -1).T`` holds, bit for bit, with
    no temporary larger than a tile.
    """
    for r, c in _mirror_tiles(a.shape[0]):
        lower = a[c, r]
        tile = lower + (np.tril(lower, -1).T if r == c else 0.0)
        a[c, r] = tile
        a[r, c] = tile.T
    return a


def _as_rows(rows, m: int) -> np.ndarray:
    """``rows`` as a float64 array of observations with ``m`` columns, else ``InvalidInput``."""
    z = np.asarray(rows, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != m:
        raise InvalidInput(f"samples must have {m} columns, got shape {z.shape}")
    return z


def _row_parts(samples, m: int, sizes):
    """The rows of each row block that each of ``sizes`` takes, read once from row 0.

    ``samples`` is an array of ``m`` columns, or an iterable of consecutive
    row blocks of one, such as :func:`~gpprec.truth.sample_blocks` yields;
    each block is checked by :func:`_as_rows` and read once, in turn,
    before the next is taken, and no block is taken once the largest size
    is reached.  Yields ``(part, takers)`` pairs per nonempty block: a
    size that ends inside the block takes its own leading ``part`` of it,
    and the sizes that reach its end take the whole block as one part.
    So a size is given exactly its first ``n`` rows, one part per block,
    in block order.  Rows that run out before the largest size raise
    ``InvalidInput`` with the count that arrived.
    """
    blocks = (samples,) if isinstance(samples, np.ndarray) else samples
    ends = sorted(set(sizes))
    start = 0
    for block in blocks:
        rows = _as_rows(block, m)
        stop = start + rows.shape[0]
        for n in ends:
            if start < n < stop:
                yield rows[:n - start], [n]
        covering = [n for n in ends if n >= stop]
        if covering and stop > start:
            yield rows, covering
        start = stop
        if start >= ends[-1]:
            return
    raise InvalidInput(
        f"samples end after {start} rows, before row {ends[-1]} of the sizes {ends}"
    )


def sample_covariance(samples) -> np.ndarray:
    """Covariance of zero-mean observations, one per row, with divisor ``1/N``.

    Parameters
    ----------
    samples : (..., N, dim) array
        N observation vectors, or a stack of such sets, each taken on its
        own.  No mean is subtracted; the observed process is zero-mean by
        assumption.

    Returns
    -------
    (..., dim, dim) array
        ``(1/N) * sum_n z_n z_n^T`` per set, exactly symmetric and positive
        semidefinite up to roundoff.  A stacked set's covariance is that of
        the set alone, bit for bit, when its rows have the same strides.

    Raises
    ------
    InvalidInput
        If the sample set is empty or has fewer than two dimensions.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim < 2:
        raise InvalidInput(f"samples must be (..., N, dim), got shape {z.shape}")
    n = z.shape[-2]
    if n < 1:
        raise InvalidInput("sample set is empty")
    c = np.swapaxes(z, -1, -2) @ z / n
    return 0.5 * (c + np.swapaxes(c, -1, -2))


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
    return _gated_factor(np.array(_as_square_sym(a), order="F"))


def _gated_factor(a) -> np.ndarray:
    """Clean lower Cholesky factor of ``a`` behind the pivot gate, in place.

    Precondition: ``a`` is an exactly symmetric float64 square array in
    Fortran order, which the caller owns.  The caller guarantees it and
    nothing here checks it, so a caller that slices many matrices from one
    symmetric source checks that source once instead of every slice.
    ``dpotrf`` overwrites ``a`` with the factor.  Raises
    ``NotPositiveDefinite`` with the failing pivot index when ``dpotrf``
    stops (``info > 0``) or a pivot is at most ``SPD_PIVOT_RTOL`` times the
    largest diagonal entry of ``a``.
    """
    pivot_floor = SPD_PIVOT_RTOL * float(np.max(np.diag(a), initial=0.0))
    c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
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


def triangular_inverse(t, lower: bool) -> np.ndarray:
    """Inverse of a triangular factor with a nonzero diagonal, by ``dtrtri``.

    ``t`` is lower triangular when ``lower`` is true and upper otherwise;
    only that triangle is read, and the other triangle of the result is
    that of ``t``, so a clean factor has a clean inverse.  The inverse is
    returned in Fortran order, as ``dtrtri`` writes it.  Raises
    ``NumericalFailure`` when ``dtrtri`` returns a nonzero ``info``.
    """
    inverse, info = lapack.dtrtri(t, lower=int(lower))
    if info != 0:
        raise NumericalFailure(f"dtrtri failed with info={info}")
    return inverse


def triangular_gram(w) -> np.ndarray:
    """``w^T w`` of a lower-triangular ``w``, exactly symmetric, by ``dlauum``.

    ``w`` is clean, with a zero strict upper triangle, as
    :func:`cholesky_lower` and :func:`triangular_inverse` leave it.  For an
    upper-triangular ``u``, ``u u^T`` is ``triangular_gram(u.T)``.  Raises
    ``NumericalFailure`` when ``dlauum`` returns a nonzero ``info``.
    """
    gram, info = lapack.dlauum(w, lower=1)
    if info != 0:
        raise NumericalFailure(f"dlauum failed with info={info}")
    # Once mirrored, the Fortran-ordered product is exactly symmetric, so its
    # transpose is the same matrix in C order, the layout callers' products
    # round by.
    return _mirror_lower_in_place(gram).T


def spd_inverse(a) -> np.ndarray:
    """Inverse of an SPD matrix through its Cholesky factorization.

    ``inv(a) = W^T W`` with ``W = inv(L)`` and ``a = L L^T``, the steps of
    ``dpotri``.  Returns an exactly symmetric array.  Raises
    ``NotPositiveDefinite`` (propagated from :func:`cholesky_lower`) when
    ``a`` is not SPD.
    """
    return triangular_gram(triangular_inverse(cholesky_lower(a), lower=True))


def _as_symmetric_operand(a):
    """``a`` as :func:`spectral_norm` hands it to ``eigsh``, after its checks.

    Dense and sparse arrays must be finite and exactly symmetric; a
    ``LinearOperator`` is taken as symmetric on the caller's word.
    """
    if not (isinstance(a, LinearOperator) or sparse.issparse(a)):
        return _as_square_sym(a)
    if a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInput(f"matrix must be square and nonempty, got shape {a.shape}")
    if isinstance(a, LinearOperator):
        return a
    # Every sparse format lists its stored entries as COO data; lil and dok have no array of them.
    if not np.isfinite(a.tocoo().data).all():
        raise InvalidInput("matrix must be finite")
    if (a != a.T).nnz:
        raise InvalidInput("matrix must be exactly symmetric; call symmetrize() first")
    return a.astype(np.float64, copy=False)


def spectral_norm(a) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric operand.

    ``a`` is a dense array, a scipy sparse matrix or a ``LinearOperator``,
    and is used as it is held: a sparse matrix is not densified and a dense
    one is not sparsified.  Arrays must be finite and exactly symmetric
    (``InvalidInput`` otherwise); for a ``LinearOperator`` the
    caller guarantees symmetry, which cannot be checked here.

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
    v0 = _philox(_LANCZOS_START_KEY).standard_normal(n)
    try:
        top = eigsh(
            a, k=1, which="LM", tol=0, v0=v0, maxiter=_LANCZOS_MAX_RESTARTS,
            return_eigenvectors=False,
        )
    except ArpackError as exc:
        raise NumericalFailure(f"Lanczos spectral norm failed: {exc}") from exc
    return abs(float(top[0]))


def spd_sqrt(a) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix.

    The input is checked once, finite and exactly symmetric, and a copy
    of it is factored behind the pivot gate, so non-SPD matrices raise
    ``NotPositiveDefinite`` with a pivot index; the root itself is
    computed by the Schur method, independent of any eigendecomposition.
    """
    a = _as_square_sym(a)
    _gated_factor(np.array(a, order="F"))
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
    _check_integer(split, "split")
    if not split < n:
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
