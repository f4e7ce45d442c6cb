"""Ground-truth covariance/precision models and their structural diagnostics.

Three model families are provided at desk scale:

* ``build_lattice_precision`` -- integer powers of the Dirichlet finite
  difference Laplacian on a cubic lattice, with the mesh-weighted scaling
  ``omega = h^d A^s`` for ``h = 1/(p+1)``, so eigenvalue and diagonal
  power laws in ``h`` are directly visible.
* ``build_green_restriction`` -- the discrete Green's matrix of the same
  operator on a fine grid, restricted to a subset of its nodes; this gives
  dense, exponentially decaying precisions on scattered sites.
* ``matern_covariance`` -- closed-form Matern kernels for the half-integer
  smoothness values.  Included for realism; the screening decay weakens
  near the boundary for this family, so no hard guarantee depends on it.

Sampling uses the Philox counter-based generator keyed by a seed in
``[0, 2**128)``, so experiments are bit-reproducible across platforms.  A draw is made
one row block at a time, by a block size that depends on the truth's
dimension alone: :func:`sample_blocks` streams the blocks through two
slots of one block each, and :func:`sample` stacks them.  The normals
come from numpy's ziggurat, which consumes a variable number of 64-bit
words per draw, so a stream cannot be split by counter offsets across
workers without changing the output; separate seeds give independent
streams.  So a stream is filled by one thread, in order: every block's
normals are filled on the package's single fill thread by
``linalg._fills_ahead``, by its rule for queueing a fill ahead, with the
same result bit for bit as filling them in the caller.
:func:`sample` gives it one slot per block, so every fill is queued at
once, and :func:`sample_blocks` its two slots.
"""

from __future__ import annotations

import functools
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import blas
from scipy.spatial.distance import cdist

from .errors import CapacityExceeded, InvalidInput, NotPositiveDefinite, _check_integer, _is_real
from .lattice import LatticeShape
from .linalg import (
    SPD_PIVOT_RTOL,
    _fills_ahead,
    _philox,
    cholesky_lower,
    reverse_cholesky,
    spd_inverse,
    spectral_norm,
    symmetrize,
    triangular_gram,
    triangular_inverse,
)

__all__ = [
    "GroundTruth",
    "ScreeningProfile",
    "build_lattice_precision",
    "build_green_restriction",
    "matern_covariance",
    "sample",
    "sample_blocks",
    "screening_profile",
    "l1_tail_profile",
    "log_linear_fit",
]

MAX_VERTICES = 4096


@dataclass(frozen=True)
class GroundTruth:
    """Exact precision with its geometry and provenance.

    ``omega`` is the primary object; its factor ``omega_factor``, the upper
    ``U`` with ``omega = U U^T``, gives the sampling factor and, in maximin
    order, the exact multiscale factor.  ``omega_norm`` is ``omega``'s
    spectral norm and ``kappa`` its condition number, both set at build.
    ``covariance`` is the covariance the truth was built from (Green's and
    Matern truths), or ``None`` for lattice truths, whose ``sigma`` is
    formed only when a caller reads it.
    """

    omega: np.ndarray
    omega_norm: float
    kappa: float
    geometry: object
    model_tag: str
    params: dict = field(default_factory=dict)
    covariance: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        """The covariance: ``covariance`` if given, else ``spd_inverse(omega)`` on first read."""
        if self.covariance is not None:
            return self.covariance
        return spd_inverse(self.omega)

    @functools.cached_property
    def omega_factor(self) -> np.ndarray:
        """Upper-triangular ``U`` with ``omega = U U^T``, computed on first use and kept.

        It is the :func:`gpprec.linalg.reverse_cholesky` factor of ``omega``.
        """
        return reverse_cholesky(self.omega)

    @functools.cached_property
    def sigma_factor(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` of ``sigma``, computed on first use and kept.

        A Green's or Matern truth keeps here the factor of its covariance
        that its ``omega`` was read off at build, in Fortran order; one
        derived by ``dataclasses.replace`` factors its own ``covariance``
        on first use.  Otherwise ``L`` is
        ``inv(omega_factor)^T``, one triangular inverse
        (:func:`gpprec.linalg.triangular_inverse`): from ``omega = U U^T``
        follows ``sigma = U^{-T} U^{-1}``, and ``U^{-T}`` is lower
        triangular with a positive diagonal, so ``sigma`` is never formed.
        It is the transpose of the Fortran-ordered inverse, so ``L`` is
        stored in C order and no copy is made.
        """
        if self.covariance is not None:
            return cholesky_lower(self.covariance)
        return triangular_inverse(self.omega_factor, lower=False).T


def _check_kappa(kappa: float, what: str) -> float:
    """``kappa``, or ``NotPositiveDefinite`` when it is at or above ``1 / SPD_PIVOT_RTOL``.

    This is the Cholesky pivot rule's tolerance applied to the ratio of
    ``omega``'s extreme eigenvalues, one gate for every truth model.
    """
    if kappa * SPD_PIVOT_RTOL >= 1.0:
        raise NotPositiveDefinite(
            f"{what} has condition number {kappa:.3e}, which fails the SPD tolerance"
        )
    return kappa


def _truth_from_covariance(sigma, geometry, model_tag: str, params: dict) -> GroundTruth:
    """Truth whose ``omega`` is ``inv(sigma)``, with its norm and ``kappa``.

    ``sigma = L L^T`` is factored once, ``omega`` is ``W^T W`` with
    ``W = inv(L)``, bit for bit ``spd_inverse(sigma)``, and ``L`` is kept
    as the truth's ``sigma_factor``.  For SPD ``omega``,
    ``kappa = ||omega||_2 ||sigma||_2``: two Lanczos solves
    (:func:`gpprec.linalg.spectral_norm`), each for the top of one
    spectrum, and no full eigendecomposition.
    """
    factor = cholesky_lower(sigma)
    omega = triangular_gram(triangular_inverse(factor, lower=True))
    omega_norm = spectral_norm(omega)
    truth = GroundTruth(
        omega=omega,
        omega_norm=omega_norm,
        kappa=_check_kappa(omega_norm * spectral_norm(sigma), f"{model_tag} truth"),
        geometry=geometry,
        model_tag=model_tag,
        params=params,
        covariance=sigma,
    )
    # A cached property reads the instance __dict__ first.  A field would be
    # copied by dataclasses.replace into a permuted truth, whose covariance
    # it does not factor.
    truth.__dict__["sigma_factor"] = factor
    return truth


def _laplacian_csr(p: int, d: int) -> sparse.csr_matrix:
    """(2d+1)-point finite difference Laplacian on ``{1..p}^d``, scaled by ``(p+1)^2``.

    Zero boundary values are eliminated, so the matrix is SPD.  It is the
    Kronecker sum of ``d`` copies of the 1-d second difference.
    """
    one_dim = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(p, p))
    return ((p + 1) ** 2 * functools.reduce(sparse.kronsum, [one_dim] * d)).tocsr()


def _check_capacity(n_vertices: int):
    if n_vertices > MAX_VERTICES:
        raise CapacityExceeded(
            f"problem has {n_vertices} vertices, above the cap of {MAX_VERTICES}"
        )


def build_lattice_precision(p: int, d: int, s: int) -> GroundTruth:
    """Lattice precision ``omega = h^d A^s`` with ``A`` the Dirichlet Laplacian.

    ``h = 1/(p+1)`` is the mesh width.  The theory's regime is ``s > d/2``;
    this is documented rather than enforced so that ``d=1, s=1`` works.

    ``kappa`` and the spectral norm are taken in closed form.  The
    Dirichlet Laplacian has the eigenvalues
    ``(p+1)^2 sum_i 4 sin^2(k_i pi / (2(p+1)))`` for ``k_i in 1..p``, so
    ``omega``'s largest is ``h^d ((p+1)^2 4d sin^2(p pi / (2(p+1))))^s``
    and its extreme ratio is ``cot^2(pi / (2(p+1)))`` to the power ``s``,
    in every dimension ``d``.  A truth whose ``kappa`` is at or above
    ``1 / SPD_PIVOT_RTOL`` raises ``NotPositiveDefinite``, as Green's and
    Matern truths do.  ``sigma`` is not formed here.  A lattice of more
    than ``MAX_VERTICES`` nodes raises ``CapacityExceeded``.
    """
    _check_integer(s, "s")
    shape = LatticeShape(p=p, d=d)
    _check_capacity(shape.size)
    kappa = _check_kappa(
        float(np.tan(np.pi / (2 * (p + 1))) ** (-2 * s)),
        f"lattice precision (p={p}, d={d}, s={s})",
    )
    h = 1.0 / (p + 1)
    # Entries of A^s are integer multiples of (p+1)^(2s), exact in float64
    # for every truth the kappa gate admits, so the sparse product equals
    # the dense power bit for bit and is exactly symmetric.
    a = _laplacian_csr(p, d)
    power = a
    for _ in range(s - 1):
        power = power @ a
    omega = h**d * power.toarray()
    top = (p + 1) ** 2 * 4 * d * np.sin(p * np.pi / (2 * (p + 1))) ** 2
    return GroundTruth(
        omega=omega,
        omega_norm=float(h**d * top**s),
        kappa=kappa,
        geometry=shape,
        model_tag="laplacian_power",
        params={"p": p, "d": d, "s": s},
    )


def build_green_restriction(fine_m: int, d: int, s: int, cloud) -> GroundTruth:
    """Green's matrix of the fine-grid operator restricted to site nodes.

    Every site of ``cloud`` must lie on a node ``t/(fine_m+1)``, ``t`` in
    ``{1..fine_m}^d``; other sites raise ``InvalidInput``.  The fine grid
    should oversample the sites by a factor of at least 4 for the
    restriction to approximate the continuum Green's function well.  A
    fine grid of more than ``MAX_VERTICES`` nodes raises
    ``CapacityExceeded``.
    """
    fine = build_lattice_precision(fine_m, d, s)
    sites = np.atleast_2d(np.asarray(cloud.sites, dtype=np.float64))
    if sites.shape[1] != d:
        raise InvalidInput(f"sites must have {d} coordinates, got shape {sites.shape}")
    t = sites * (fine_m + 1)
    coords = np.rint(t)
    off = (np.abs(t - coords) > 1e-9 * (fine_m + 1)) | (coords < 1) | (coords > fine_m)
    if off.any():
        site = sites[off.any(axis=1).argmax()]
        raise InvalidInput(f"site {site} does not lie on an interior node of the fine grid")
    nodes = np.ravel_multi_index(tuple(coords.T.astype(np.int64) - 1), (fine_m,) * d)
    if np.unique(nodes).size != nodes.size:
        raise InvalidInput("two sites snap to the same fine-grid node")
    sigma = fine.sigma[np.ix_(nodes, nodes)]
    params = {"fine_m": fine_m, "d": d, "s": s}
    return _truth_from_covariance(sigma, cloud, "green_restriction", params)


_MATERN_NUS = (0.5, 1.5, 2.5)


def matern_covariance(cloud, nu: float, rho: float, sigma2: float) -> GroundTruth:
    """Matern kernel matrix on a site cloud, for ``nu`` in {1/2, 3/2, 5/2}.

    This family corresponds to whole-space models; conditional correlations
    decay more slowly near the boundary, so it is tagged as a demo model.
    A cloud of more than ``MAX_VERTICES`` sites raises ``CapacityExceeded``
    before any distance is taken.  ``rho`` and ``sigma2`` must be finite,
    positive real numbers, not bools; any other value raises
    ``InvalidInput`` naming the parameter.
    """
    if nu not in _MATERN_NUS:
        raise InvalidInput(f"nu must be one of {_MATERN_NUS}, got {nu}")
    for name, value in (("rho", rho), ("sigma2", sigma2)):
        if not (_is_real(value) and 0.0 < value < np.inf):
            raise InvalidInput(f"{name} must be a finite, positive real number, got {value!r}")
    sites = np.atleast_2d(np.asarray(cloud.sites, dtype=np.float64))
    _check_capacity(sites.shape[0])
    r = cdist(sites, sites)
    if nu == 0.5:
        k = np.exp(-r / rho)
    elif nu == 1.5:
        u = np.sqrt(3.0) * r / rho
        k = (1.0 + u) * np.exp(-u)
    else:
        u = np.sqrt(5.0) * r / rho
        k = (1.0 + u + u * u / 3.0) * np.exp(-u)
    params = {"nu": nu, "rho": rho, "sigma2": sigma2, "demo_only": True}
    return _truth_from_covariance(symmetrize(sigma2 * k), cloud, "matern", params)


# A draw block holds about this many float64 entries (2 MiB), and at least
# an eighth of the truth's dimension in rows, so the two slots of a streamed
# draw hold no more than 1 << 19 entries between them.  Each block reads the
# whole m x m factor once in its triangular product, and a factor run's pass
# adds each block into an m x m Gram, so at the caps (m = 4096) blocks of
# far fewer rows spend much of their time in those per-block passes: there,
# dtrmm over 4000 rows took 1.09-1.11 s in blocks of 512 rows against
# 1.07-1.08 s in blocks of 1024.
_DRAW_BLOCK_ELEMENTS = 1 << 18


def _draw_rows(dim: int) -> int:
    """Rows per block of a draw of ``dim`` variables."""
    return max(1, _DRAW_BLOCK_ELEMENTS // dim, dim // 8)


def _draw(truth: GroundTruth, n: int, rng: np.random.Generator, slots):
    """The ``n`` rows of a draw, one row block at a time: fill a block, yield it.

    Block ``k`` is written into the first rows of ``slots[k % len(slots)]``.
    The slots are either the row blocks of an array of all ``n`` rows, one
    per block, or two buffers of one block's rows, which the blocks take in
    turn.  A block is the next rows of ``rng``, the seed's Philox stream,
    filled in place on the fill thread by
    :func:`~gpprec.linalg._fills_ahead`, then multiplied by ``L^T`` in
    place by one triangular BLAS product (``dtrmm``),
    ``L = truth.sigma_factor``.  A draw left early, by an error or its
    reader, closes the fills, so none is left queued.
    ``dtrmm`` reads its factor in place only in Fortran order: a C-ordered
    ``L``, as a lattice truth's is, is the Fortran-ordered upper ``L^T``,
    which it applies transposed.
    """
    factor = truth.sigma_factor
    if factor.flags.f_contiguous:
        operand, lower, trans_a = factor, 1, 0
    else:
        operand, lower, trans_a = factor.T, 0, 1
    with closing(_fills_ahead(rng, slots, n)) as fills:
        for fill in fills:
            block = fill.result()
            # block.T is Fortran-ordered, so dtrmm overwrites block with L block^T.
            blas.dtrmm(
                1.0, operand, block.T, side=0, lower=lower, trans_a=trans_a, overwrite_b=1
            )
            yield block


def sample_blocks(truth: GroundTruth, n: int, seed: int):
    """The rows of ``sample(truth, n, seed)``, as consecutive row blocks.

    Returns an iterator over C-contiguous ``(rows, dim)`` blocks that
    stack to :func:`sample`'s array bit for bit.  The blocks are written
    into two slots of one block's rows in turn, so a block is overwritten
    by the next but one: a reader keeps what it needs of a block before it
    takes the next, and no ``(n, dim)`` array is held.  The next block's
    normals are filled on the fill thread while this block is multiplied
    and read.  The rows per block come from ``truth.dim`` alone (about
    2 MiB of entries, and at least ``dim / 8`` rows), so the two slots
    hold about 4 MiB.  An ``n`` that is not an integer of at least 1, or
    a seed outside ``[0, 2**128)``, raises ``InvalidInput`` here, before
    any draw.
    """
    _check_integer(n, "sample count")
    rows = _draw_rows(truth.dim)
    slots = np.empty((1 if n <= rows else 2, min(rows, n), truth.dim))
    return _draw(truth, n, _philox(seed), slots)


def sample(truth: GroundTruth, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` observations ``z = L g`` with ``L L^T = sigma``, as an ``(n, dim)`` array.

    ``L`` is ``truth.sigma_factor``, formed once per truth.  The rows are
    drawn in the blocks of :func:`sample_blocks`, each written in place
    into its rows of the result: the ``(rows, dim)`` normals ``g`` of a
    block are multiplied by ``L^T`` in place with the triangular BLAS
    product ``dtrmm``, so the result is ``g @ L.T`` up to roundoff,
    C-contiguous, and no second ``(n, dim)`` buffer is made.  Every
    block's normals are queued up front on the fill thread, in row order,
    so a block is multiplied while the later ones are filled.  The result
    is the stack of ``sample_blocks(truth, n, seed)`` bit for bit: the
    same blocks, filled from the same stream in the same order, whose
    normals go into two reused slots instead.

    Deterministic given the seed: the Philox stream is keyed by ``seed``
    alone, so identical calls return bit-identical arrays.  The stream
    fills the rows in order, so the normals of the first ``n`` rows of
    ``sample(truth, N, seed)`` are those of ``sample(truth, n, seed)`` bit
    for bit for any ``n <= N``, across block edges.  So are the products,
    but in the block that holds row ``n - 1`` when ``n`` ends inside it:
    ``dtrmm`` over that block's rows may round a few rows differently
    from ``dtrmm`` over its first ``n - lo`` rows.  An ``n`` that is not an
    integer of at least 1, or a seed outside ``[0, 2**128)``, raises
    ``InvalidInput``.
    """
    _check_integer(n, "sample count")
    out = np.empty((n, truth.dim))
    step = _draw_rows(truth.dim)
    for _ in _draw(truth, n, _philox(seed), np.split(out, range(step, n, step))):
        pass
    return out


@dataclass(frozen=True)
class ScreeningProfile:
    """Max normalized precision entry per distance bin, with a decay fit."""

    bins: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    r2: float


def log_linear_fit(x, y):
    """Least-squares fit of ``log(y)`` against ``x``; returns (slope, intercept, r2).

    Requires at least two strictly positive ``y`` values; returns NaNs
    otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = y > 0
    if keep.sum() < 2:
        return float("nan"), float("nan"), float("nan")
    xs, ys = x[keep], np.log(y[keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# Normalized correlations cannot be resolved much below kappa * eps in
# float64, so screening bins at or below this are roundoff, not signal.
_SCREENING_NOISE_FLOOR = 1e-10


def screening_profile(omega, points, h: float) -> ScreeningProfile:
    """Decay of normalized conditional correlations with distance.

    Off-diagonal pairs are binned by ``ceil(|x_i - x_j| / h)`` and the
    maximum of ``|omega_ij| / sqrt(omega_ii omega_jj)`` is recorded per
    bin, together with a log-linear fit.  Bins at or below
    ``_SCREENING_NOISE_FLOOR`` (1e-10) are reported but excluded from the
    fit, as roundoff.  An ``h`` that is not a finite, positive real number
    (a bool or a string included) raises ``InvalidInput``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] != omega.shape[0]:
        raise InvalidInput("points and omega disagree on the number of variables")
    if not (_is_real(h) and 0 < h < np.inf):
        raise InvalidInput(f"h must be finite and positive, got {h!r}")
    diag = np.diag(omega)
    normalized = np.abs(omega) / np.sqrt(np.outer(diag, diag))
    dist = cdist(points, points)
    iu = np.triu_indices(omega.shape[0], k=1)
    ratios = dist[iu] / h
    bins_all = np.maximum(1, np.ceil(ratios - 1e-9).astype(int))
    n_bins = int(bins_all.max())
    values = np.zeros(n_bins)
    np.maximum.at(values, bins_all - 1, normalized[iu])
    bins = np.arange(1, n_bins + 1)
    fit_values = np.where(values > _SCREENING_NOISE_FLOOR, values, 0.0)
    slope, intercept, r2 = log_linear_fit(bins, fit_values)
    return ScreeningProfile(bins=bins, values=values, slope=slope, intercept=intercept, r2=r2)


def l1_tail_profile(omega, shape: LatticeShape, norm: float):
    """Worst-row l1 mass beyond each lattice distance, relative to the norm.

    Returns ``(k, tail)`` where ``tail[i]`` is
    ``max_t sum_{|t'-t|_1 >= k[i]} |omega(t,t')| / norm`` for
    ``k = 1 .. max distance``, computed by binning each row by the
    cityblock distance and suffix-summing.  ``norm`` is ``||omega||_2`` as
    the caller holds it: a truth's ``omega_norm``, or one
    :func:`~gpprec.linalg.spectral_norm` solve.  A ``norm`` that is not a
    finite, positive real number (a bool or a string included) raises
    ``InvalidInput``.
    """
    if not (_is_real(norm) and 0 < norm < np.inf):
        raise InvalidInput(f"norm must be finite and positive, got {norm!r}")
    omega = np.asarray(omega, dtype=np.float64)
    coords = shape.coordinates()
    if coords.shape[0] != omega.shape[0]:
        raise InvalidInput("omega does not match the lattice size")
    dist = cdist(coords, coords, "cityblock").astype(np.intp)
    max_k = int(dist.max())
    m = omega.shape[0]
    # Row r's distance k goes to bin r * (max_k + 1) + k; bincount adds
    # each bin's weights in input order, as a sequential sum would.
    dist += np.arange(m)[:, None] * (max_k + 1)
    binned = np.bincount(
        dist.ravel(), weights=np.abs(omega).ravel(), minlength=m * (max_k + 1)
    ).reshape(m, max_k + 1)
    suffix = np.cumsum(binned[:, ::-1], axis=1)[:, ::-1]
    ks = np.arange(1, max_k + 1)
    tails = suffix[:, 1:].max(axis=0) / norm
    return ks, tails
