"""Block-Cholesky factors of the precision under a multiscale partition.

With sites grouped into levels ``1..q`` of a maximin ordering, the
precision admits an upper-triangular factorization ``omega = U U^T``
whose transpose has the explicit block form

* diagonal: ``(U^T)_{k,k} = h^{kd/2} R_k^T``
* below:    ``(U^T)_{k,l} = h^{-kd/2} R_k^{-1} omega_k[J_k, J_l]``

where ``omega_k`` is the precision of the first ``k`` levels,
``B_k = h^{-kd} omega_k[J_k, J_k]`` is the well-conditioned stiffness
block of scale ``k``, and ``R_k`` is its reverse Cholesky factor,
upper triangular with ``B_k = R_k R_k^T``.  The lower Cholesky factor
``Ltilde_k`` of ``inv(B_k)`` in the usual statement of these formulas is
``R_k^{-T}``, so neither ``inv(B_k)`` nor ``Ltilde_k`` is formed: the
off-diagonal blocks are one triangular solve.  ``h`` is fixed at 1/2.

A factor is one dense ``m x m`` array ``U`` in level order: the rows and
columns of level ``k`` are ``levels.level_slice(k)``, so the ``(k, l)``
block of ``U^T`` is ``U.T[level_slice(k), level_slice(l)]`` and the
precision is ``U @ U.T``.

Every ``omega_k`` is read off one lower-triangular ``W`` with ``W^T W``
the precision in level order: with ``W_k`` its leading ``n_k x n_k``
block, the precision of the first ``n_k`` variables is ``W_k^T W_k``.
``W`` is ``U^T`` for a known precision, and ``inv(L)`` for an estimate,
with ``L`` the Cholesky factor of the sample covariance shared by the
scales that invert their full sample covariance.  That covariance is the
leading block of one sample covariance of all the columns, which
:func:`scale_covariances` can sum from a stream of row blocks, read by
the package's one reader of sample rows,
:func:`~gpprec.linalg._row_parts`, up to the largest sample size, so no
per-scale Gram and no ``(N, m)`` sample array need be formed.  The pass
finishes each size's Gram in place, mirrored and divided where ``dsyrk``
summed it, so it holds one ``m x m`` array per size.
A square-root variant replaces ``R_k`` with the symmetric root of
``B_k``, trading the entrywise triangular structure for a slightly
better perturbation constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, solve, solve_triangular

from .errors import InvalidInput, NotPositiveDefinite, _check_dimension, _check_integer
from .estimator import EstimatorConfig
from .hierarchy import H_SCALE, LevelPartition
from .linalg import (
    _as_rows,
    _mirror_lower_in_place,
    _row_parts,
    cholesky_lower,
    reverse_cholesky,
    spd_sqrt,
    symmetrize,
    triangular_gram,
    triangular_inverse,
)
from .matching import embed_and_estimate, measure_cloud

__all__ = [
    "ScaleEstimates",
    "exact_scales",
    "exact_block_factor",
    "estimate_B",
    "assemble_U",
    "assemble_U_star",
    "plan_scales",
    "SampleCovariance",
    "scale_covariances",
    "estimate_scales",
]


@dataclass(frozen=True)
class ScaleEstimates:
    """Per-scale ingredients of the factor assembly.

    ``omegas[k-1]`` is the (estimated or exact) precision on the first
    ``k`` levels, ``b_blocks[k-1]`` the scale's stiffness block ``B_k``
    and ``b_roots[k-1]`` its reverse Cholesky factor ``R_k``, the factor
    of the SPD gate in :func:`estimate_B`.  Each holds exactly one entry
    per level of ``levels``.
    """

    levels: LevelPartition
    d: int
    omegas: tuple
    b_blocks: tuple
    b_roots: tuple

    def __post_init__(self):
        for name in ("omegas", "b_blocks", "b_roots"):
            count = len(getattr(self, name))
            if count != self.levels.q:
                raise InvalidInput(
                    f"{name} holds {count} scales, expected {self.levels.q}"
                )


def estimate_B(omega_k_hat, levels: LevelPartition, k: int, d: int):
    """Stiffness block ``B_k = h^{-kd} omega_k[J_k, J_k]`` of scale ``k`` and its factor.

    Returns ``(B_k, R_k)`` with ``R_k`` the reverse Cholesky factor,
    upper triangular with ``B_k = R_k R_k^T``.  ``omega_k_hat`` must be
    indexed by the first ``k`` levels in level order.  The factorization
    is the SPD gate: it raises ``NotPositiveDefinite`` when the scaled
    block is not SPD, which signals an insufficient sample size at this
    scale.  A ``d`` that is not the integer 1, 2 or 3 raises
    ``InvalidInput``.
    """
    _check_dimension(d)
    omega_k_hat = np.asarray(omega_k_hat, dtype=np.float64)
    expected = levels.prefix_size(k)
    if omega_k_hat.shape != (expected, expected):
        raise InvalidInput(
            f"scale-{k} precision must be {(expected, expected)}, got {omega_k_hat.shape}"
        )
    sl = levels.level_slice(k)
    block = symmetrize(H_SCALE ** (-k * d) * omega_k_hat[sl, sl])
    return block, reverse_cholesky(block)


def _at_scale(exc: NotPositiveDefinite, k: int) -> NotPositiveDefinite:
    """``exc`` restated as the failure of scale ``k``."""
    return NotPositiveDefinite(f"scale {k}: {exc}", pivot=exc.pivot, scale=k)


def _leading_precisions(w, levels: LevelPartition, count: int) -> list:
    """Precisions ``w_k^T w_k`` of the first ``n_k = prefix_size(k)`` variables, ``k <= count``.

    ``w`` is clean lower triangular with ``w^T w`` the precision in level
    order, and ``w_k`` its leading ``n_k x n_k`` block.
    """
    return [triangular_gram(w[:n, :n]) for n in map(levels.prefix_size, range(1, count + 1))]


def _scales_from(levels: LevelPartition, d: int, omegas: list) -> ScaleEstimates:
    gated = []
    for k, omega_k in enumerate(omegas, start=1):
        try:
            gated.append(estimate_B(omega_k, levels, k, d))
        except NotPositiveDefinite as exc:
            raise _at_scale(exc, k) from exc
    b_blocks, b_roots = zip(*gated)
    return ScaleEstimates(
        levels=levels, d=d, omegas=tuple(omegas), b_blocks=b_blocks, b_roots=b_roots
    )


def exact_scales(omega, levels: LevelPartition, d: int, factor=None) -> ScaleEstimates:
    """Exact per-scale blocks computed from a known precision.

    ``omega`` must be SPD and ordered by the level partition.  ``factor``
    is its clean upper-triangular ``U`` with ``omega = U U^T``
    (``GroundTruth.omega_factor``); when omitted it is computed here by
    :func:`gpprec.linalg.reverse_cholesky`.  The precision of the first
    ``n_k`` variables is the inverse of their covariance block, which is
    ``U_k U_k^T`` with ``U_k = U[:n_k, :n_k]``, because ``U^{-1}`` is upper
    triangular too; the last scale's is ``omega`` itself.  No inverse is
    formed.  A ``d`` that is not the integer 1, 2 or 3 raises
    ``InvalidInput`` before any factorization.
    """
    _check_dimension(d)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (levels.m, levels.m):
        raise InvalidInput(f"omega must be {(levels.m, levels.m)}, got {omega.shape}")
    if factor is None:
        factor = reverse_cholesky(omega)
    omegas = _leading_precisions(factor.T, levels, levels.q - 1)
    return _scales_from(levels, d, [*omegas, omega])


def _assemble(scales: ScaleEstimates, roots, solve_root) -> np.ndarray:
    """Dense ``U`` from one root ``R_k`` with ``B_k = R_k R_k^T`` per scale.

    Scale ``k`` writes ``h^{kd/2} R_k^T`` into the diagonal block of
    ``U^T`` and ``h^{-kd/2} R_k^{-1} omega_k[J_k, J_1..J_{k-1}]``, taken
    by ``solve_root(R_k, slab)``, into the row slab left of it.
    """
    levels, d = scales.levels, scales.d
    ut = np.zeros((levels.m, levels.m))
    for k, root in enumerate(roots, start=1):
        sl = levels.level_slice(k)
        ut[sl, sl] = H_SCALE ** (k * d / 2.0) * root.T
        if k > 1:
            prev = levels.prefix_size(k - 1)
            slab = scales.omegas[k - 1][sl, :prev]
            ut[sl, :prev] = H_SCALE ** (-k * d / 2.0) * solve_root(root, slab)
    return ut.T


def assemble_U(scales: ScaleEstimates) -> np.ndarray:
    """Dense upper-triangular factor ``U`` from per-scale estimates.

    ``R_k`` is the reverse Cholesky factor of ``B_k`` that
    :func:`estimate_B` kept from its SPD gate, so no block is factored
    again: the diagonal blocks of ``U^T`` are ``R_k^T`` and the blocks
    left of them one triangular solve of ``R_k`` against the in-scale
    precision slices.
    """
    return _assemble(scales, scales.b_roots, solve_triangular)


def assemble_U_star(scales: ScaleEstimates) -> np.ndarray:
    """Square-root variant of the factor assembly, as a dense ``U*``.

    ``R_k`` is the symmetric root ``sqrt(B_k)``, taken once per scale.  The
    result is block upper triangular but not entrywise triangular; it
    reconstructs the same precision.
    """
    return _assemble(
        scales,
        map(spd_sqrt, scales.b_blocks),
        lambda root, slab: solve(root, slab, assume_a="pos"),
    )


def exact_block_factor(omega, levels: LevelPartition, d: int) -> np.ndarray:
    """Exact dense factor ``U`` of a known precision; ``U U^T`` reproduces it.

    It is assembled from :func:`exact_scales` by the block formulas.  With
    positive diagonals throughout, it coincides with the unique
    upper-triangular Cholesky factor of the input.
    """
    return assemble_U(exact_scales(omega, levels, d))


def plan_scales(
    levels: LevelPartition, n: int, config: EstimatorConfig | None = None, cloud=None
) -> tuple:
    """Whether each scale, in level order, inverts its full sample covariance.

    Scale ``k`` does when no cloud is given or ``m_k = prefix_size(k) <=
    log(n * kappa_hint)``, and otherwise goes through the lattice reduction
    on its sub-cloud.  The refusals need no data, so a caller can run this
    before drawing; :func:`estimate_scales` runs it first.  Raises
    ``InvalidInput`` when ``n`` is not an integer of at least 1, and
    ``NotPositiveDefinite``, carrying the scale, at the first full-inverse
    scale with ``n <= m_k``: ``n`` samples give rank at most ``n``, and at
    ``n = m_k`` the covariance is full rank but so ill-conditioned that
    the pivot gate passes a useless inverse, the rule the one-block
    precision estimate keeps (:func:`~gpprec.estimator.plan_estimate`).
    """
    _check_integer(n, "sample count")
    config = config or EstimatorConfig()
    kappa = config.kappa_hint if config.kappa_hint is not None else float(levels.m)
    full = []
    for k in range(1, levels.q + 1):
        m_k = levels.prefix_size(k)
        full.append(cloud is None or m_k <= math.log(n * kappa))
        if full[-1] and n <= m_k:
            reason = "cannot span" if n < m_k else "leave no usable inverse of"
            raise NotPositiveDefinite(f"scale {k}: {n} samples {reason} {m_k} variables", scale=k)
    return tuple(full)


@dataclass(frozen=True)
class SampleCovariance:
    """Sample covariance of the first ``n`` rows of samples in maximin order.

    ``matrix`` is ``(1/n) sum_i z_i z_i^T`` over all ``m`` columns, exactly
    symmetric; the full-inverse scale ``k`` reads its covariance as the
    leading ``prefix_size(k)`` block.
    """

    n: int
    matrix: np.ndarray


def _prefix_covariances(samples, m: int, sizes) -> dict:
    """Sample covariance of the first ``n`` rows for each ``n`` in ``sizes``, in one pass.

    ``samples`` are ``m``-column samples, read by
    :func:`~gpprec.linalg._row_parts`, which stops at the largest size.
    Each size sums the upper triangle of its rows' Gram with one rank-k
    update (``dsyrk``) per part it takes, in block order, so its sum does
    not depend on the other sizes.  At the end each sum is finished where
    ``dsyrk`` left it: its upper triangle is mirrored into its lower and it
    is divided by ``n`` in place, so the pass holds one ``m x m`` array
    per size and no other.  The covariances are Fortran-ordered.
    """
    grams = {n: np.zeros((m, m), order="F") for n in sizes}
    for part, takers in _row_parts(samples, m, sizes):
        for n in takers:
            # part.T is Fortran-ordered, so dsyrk adds part^T part into the Gram in place.
            blas.dsyrk(1.0, part.T, beta=1.0, c=grams[n], overwrite_c=1)
    for n, gram in grams.items():
        # gram.T is C-ordered with the sum in its lower triangle.
        _mirror_lower_in_place(gram.T)
        gram /= n
    return grams


def scale_covariances(samples, levels: LevelPartition, sizes) -> dict:
    """:class:`SampleCovariance` of the first ``n`` rows for each ``n`` in ``sizes``.

    ``samples`` is an array in maximin order or an iterable of consecutive
    row blocks of one, such as :func:`~gpprec.truth.sample_blocks` yields.
    Each size is planned by :func:`plan_scales` without a cloud, so every
    scale of it inverts its full sample covariance, and a refused size
    raises before any row is read.  Then the rows up to the largest size
    are read once, block by block, and no further
    (:func:`_prefix_covariances`): each size adds its part of each block
    into its covariance, so no ``(N, m)`` array need be held.  Samples
    that end before the largest size raise ``InvalidInput`` with the
    count of rows that arrived.  ``sizes`` is read once, so it may be any
    iterable of sizes, such as an iterator or an array; an empty one
    raises ``InvalidInput``.
    """
    plans = {n: plan_scales(levels, n) for n in sizes}
    if not plans:
        raise InvalidInput("sizes must be a nonempty list")
    covariances = _prefix_covariances(samples, levels.m, plans)
    return {n: SampleCovariance(n, cov) for n, cov in covariances.items()}


def estimate_scales(
    samples,
    levels: LevelPartition,
    config: EstimatorConfig | None = None,
    cloud=None,
    seed: int = 0,
    d: int | None = None,
) -> ScaleEstimates:
    """Estimate every scale's ingredients from one sample set.

    ``samples`` is an ``(N, m)`` array whose columns follow the maximin
    order, so the first ``prefix_size(k)`` columns are the scale-``k``
    observation set, or the :class:`SampleCovariance` of such samples
    (:func:`scale_covariances`).  Each scale reuses the same draws at its
    coarser resolution.  Small scales (or all scales when no cloud is
    given) invert their sample covariance, and larger ones go through the
    lattice reduction on the sub-cloud, which needs the samples themselves
    (:func:`plan_scales`, whose refusals come before any covariance is
    formed).  The small scales come first, and their covariances are the
    leading blocks of the covariance ``C = L L^T`` of the last one's
    columns: ``C`` is gated and factored once, ``L`` is inverted once, and
    scale ``k``'s precision is ``W_k^T W_k`` with ``W_k`` the leading
    ``m_k x m_k`` block of ``W = inv(L)``.  ``d`` defaults to the cloud's
    dimension; without a cloud it is required, as the scaling ``h^{-kd}``
    of every scale depends on it, and one that is not the integer 1, 2 or
    3 raises ``InvalidInput`` before any factorization.  Failures carry
    the scale index; a pivot that fails the gate of ``C`` is charged to
    its level.
    """
    if d is None:
        if cloud is None:
            raise InvalidInput("d is required without a cloud: the scale factors h^(-kd) use it")
        d = cloud.d
    _check_dimension(d)
    if isinstance(samples, SampleCovariance):
        z, n, covariance = None, samples.n, samples.matrix
        if covariance.shape != (levels.m, levels.m):
            raise InvalidInput(
                f"covariance must be {(levels.m, levels.m)} in maximin order, "
                f"got {covariance.shape}"
            )
    else:
        z = _as_rows(samples, levels.m)
        n = z.shape[0]
    full = plan_scales(levels, n, config, cloud)
    if z is None and not all(full):
        raise InvalidInput("scales through the lattice reduction need the samples")
    # Full-inverse scales come first, as their sizes grow with k.
    n_full = sum(full)
    omegas = []
    if n_full:
        lead = levels.prefix_size(n_full)
        if z is not None:
            covariance = _prefix_covariances(z[:, :lead], lead, [n])[n]
        try:
            w = triangular_inverse(cholesky_lower(covariance[:lead, :lead]), lower=True)
        except NotPositiveDefinite as exc:
            raise _at_scale(exc, int(levels.level_of[exc.pivot])) from exc
        omegas = _leading_precisions(w, levels, n_full)
    for k in range(n_full + 1, levels.q + 1):
        m_k = levels.prefix_size(k)
        sub_cloud = measure_cloud(cloud.sites[:m_k], cloud.d)
        try:
            omegas.append(embed_and_estimate(z[:, :m_k], sub_cloud, config, seed=seed + k).matrix)
        except NotPositiveDefinite as exc:
            raise _at_scale(exc, k) from exc
    return _scales_from(levels, d, omegas)
