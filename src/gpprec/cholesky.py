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

Estimation plugs per-scale precision estimates into the same formulas.
A square-root variant replaces ``R_k`` with the symmetric root of
``B_k``, trading the entrywise triangular structure for a slightly
better perturbation constant.  Scales are independent given the
samples, so they could be estimated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve, solve_triangular

from .errors import InvalidInput, NotPositiveDefinite
from .estimator import EstimatorConfig
from .hierarchy import H_SCALE, LevelPartition
from .linalg import reverse_cholesky, sample_covariance, spd_inverse, spd_sqrt, symmetrize
from .matching import embed_and_estimate, measure_cloud

__all__ = [
    "ScaleEstimates",
    "exact_scales",
    "exact_block_factor",
    "estimate_B",
    "assemble_U",
    "assemble_U_star",
    "estimate_scales",
]


@dataclass(frozen=True)
class ScaleEstimates:
    """Per-scale ingredients of the factor assembly.

    ``omegas[k-1]`` is the (estimated or exact) precision on the first
    ``k`` levels and ``b_blocks[k-1]`` the scale's stiffness block.  Each
    holds exactly one entry per level of ``levels``.
    """

    levels: LevelPartition
    d: int
    omegas: tuple
    b_blocks: tuple

    def __post_init__(self):
        for name in ("omegas", "b_blocks"):
            count = len(getattr(self, name))
            if count != self.levels.q:
                raise InvalidInput(
                    f"{name} holds {count} scales, expected {self.levels.q}"
                )


def estimate_B(omega_k_hat, levels: LevelPartition, k: int, d: int) -> np.ndarray:
    """Stiffness block ``h^{-kd} omega_k[J_k, J_k]`` of scale ``k``.

    ``omega_k_hat`` must be indexed by the first ``k`` levels in level
    order.  Raises ``NotPositiveDefinite`` when the scaled block is not
    SPD, which signals an insufficient sample size at this scale.
    """
    omega_k_hat = np.asarray(omega_k_hat, dtype=np.float64)
    expected = levels.prefix_size(k)
    if omega_k_hat.shape != (expected, expected):
        raise InvalidInput(
            f"scale-{k} precision must be {(expected, expected)}, got {omega_k_hat.shape}"
        )
    sl = levels.level_slice(k)
    block = symmetrize(H_SCALE ** (-k * d) * omega_k_hat[sl, sl])
    reverse_cholesky(block)
    return block


def _scales_from(levels: LevelPartition, d: int, omegas: list) -> ScaleEstimates:
    b_blocks = []
    for k, omega_k in enumerate(omegas, start=1):
        try:
            b_blocks.append(estimate_B(omega_k, levels, k, d))
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"scale {k}: {exc}", pivot=exc.pivot, scale=k
            ) from exc
    return ScaleEstimates(levels=levels, d=d, omegas=tuple(omegas), b_blocks=tuple(b_blocks))


def exact_scales(omega, levels: LevelPartition, d: int, factor=None) -> ScaleEstimates:
    """Exact per-scale blocks computed from a known precision.

    ``omega`` must be SPD and ordered by the level partition.  ``factor``
    is its upper-triangular ``U`` with ``omega = U U^T``
    (``GroundTruth.omega_factor``); when omitted it is computed here by
    :func:`gpprec.linalg.reverse_cholesky`.  The precision of the first
    ``n_k`` variables is the inverse of their covariance block, which is
    ``U[:n_k, :n_k] U[:n_k, :n_k]^T`` because ``U^{-1}`` is upper
    triangular too; the last scale's is ``omega`` itself.  No inverse is
    formed.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (levels.m, levels.m):
        raise InvalidInput(f"omega must be {(levels.m, levels.m)}, got {omega.shape}")
    if factor is None:
        factor = reverse_cholesky(omega)
    omegas = []
    for k in range(1, levels.q):
        lead = factor[: levels.prefix_size(k), : levels.prefix_size(k)]
        omegas.append(symmetrize(lead @ lead.T))
    omegas.append(omega)
    return _scales_from(levels, d, omegas)


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

    ``R_k`` is the reverse Cholesky factor of ``B_k``: the diagonal blocks
    of ``U^T`` are ``R_k^T`` and the blocks left of them one triangular
    solve of ``R_k`` against the in-scale precision slices.
    """
    return _assemble(scales, map(reverse_cholesky, scales.b_blocks), solve_triangular)


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


def estimate_scales(
    samples,
    levels: LevelPartition,
    config: EstimatorConfig | None = None,
    cloud=None,
    seed: int = 0,
    d: int | None = None,
) -> ScaleEstimates:
    """Estimate every scale's ingredients from one sample set.

    Columns of ``samples`` must follow the maximin order, so the first
    ``prefix_size(k)`` columns are the scale-``k`` observation set.  Each
    scale reuses the same draws at its coarser resolution.  Small scales
    (or all scales when no cloud is given) invert the full sample
    covariance of their columns, failing before any work when ``N`` is
    below the scale's column count (a rank bound); larger ones go through
    the lattice reduction on the sub-cloud.  Failures carry the scale
    index.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != levels.m:
        raise InvalidInput(
            f"samples must have {levels.m} columns in maximin order, got shape {z.shape}"
        )
    config = config or EstimatorConfig()
    n = z.shape[0]
    kappa = config.kappa_hint if config.kappa_hint is not None else float(levels.m)
    if d is None:
        d = cloud.d if cloud is not None else 1
    omegas = []
    for k in range(1, levels.q + 1):
        m_k = levels.prefix_size(k)
        sub = z[:, :m_k]
        try:
            if cloud is None or m_k <= math.log(n * kappa):
                if n < m_k:
                    raise NotPositiveDefinite(f"{n} samples cannot span {m_k} variables")
                omega_k = spd_inverse(sample_covariance(sub))
            else:
                sub_cloud = measure_cloud(cloud.sites[:m_k], cloud.d)
                omega_k = embed_and_estimate(
                    sub, sub_cloud, config, seed=seed + k
                ).matrix
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"scale {k}: {exc}", pivot=exc.pivot, scale=k
            ) from exc
        omegas.append(omega_k)
    return _scales_from(levels, d, omegas)
