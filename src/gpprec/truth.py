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

Sampling uses the Philox counter-based generator keyed by a 64-bit seed,
so experiments are bit-reproducible across platforms.  The normals come
from numpy's ziggurat, which consumes a variable number of 64-bit words
per draw, so a stream cannot be split by counter offsets across workers
without changing the output; separate seeds give independent streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import blas, lapack

from .errors import CapacityExceeded, InvalidInput, NotPositiveDefinite, NumericalFailure
from .lattice import LatticeShape
from .linalg import (
    SPD_PIVOT_RTOL,
    cholesky_lower,
    condition_number,
    reverse_cholesky,
    spd_inverse,
    spectral_norm,
    symmetrize,
)

__all__ = [
    "GroundTruth",
    "ScreeningProfile",
    "build_lattice_precision",
    "build_green_restriction",
    "matern_covariance",
    "sample",
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
    order, the exact multiscale factor.  ``covariance`` is the covariance
    the truth was built from (Green's and Matern truths), or ``None`` for
    lattice truths, whose ``sigma`` is formed only when a caller reads it.
    ``closed_form_norm`` is ``omega``'s spectral norm where it is known in
    closed form (lattice truths), or ``None``.
    """

    omega: np.ndarray
    kappa: float
    geometry: object
    model_tag: str
    params: dict = field(default_factory=dict)
    covariance: np.ndarray | None = None
    closed_form_norm: float | None = None

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

        A truth built from a covariance factors it.  Otherwise ``L`` is
        ``inv(omega_factor)^T``, one triangular inverse (``dtrtri``): from
        ``omega = U U^T`` follows ``sigma = U^{-T} U^{-1}``, and ``U^{-T}``
        is lower triangular with a positive diagonal, so ``sigma`` is
        never formed.
        """
        if self.covariance is not None:
            return cholesky_lower(self.covariance)
        inverse, info = lapack.dtrtri(self.omega_factor, lower=0)
        if info != 0:
            raise NumericalFailure(f"dtrtri failed with info={info}")
        return np.asfortranarray(inverse.T)

    @functools.cached_property
    def omega_norm(self) -> float:
        """Spectral norm of ``omega``, computed on first use and kept.

        It is ``closed_form_norm`` where that is known, and otherwise comes
        from :func:`gpprec.linalg.spectral_norm`, a Lanczos solve on the
        dense ``omega``.  Being lazy, it is paid by the first caller, which
        in the CLI is the first row's error, not the truth build.
        """
        if self.closed_form_norm is not None:
            return self.closed_form_norm
        return spectral_norm(self.omega)


def _laplacian_csr(p: int, d: int) -> sparse.csr_matrix:
    """(2d+1)-point finite difference Laplacian on ``{1..p}^d``, scaled by ``(p+1)^2``.

    Zero boundary values are eliminated, so the matrix is SPD.
    """
    shape = LatticeShape(p=p, d=d)
    one_dim = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(p, p))
    eye = sparse.identity(p)
    a = sparse.csr_matrix((shape.size, shape.size))
    for axis in range(d):
        term = sparse.identity(1)
        for other in range(d):
            term = sparse.kron(term, one_dim if other == axis else eye)
        a = a + term
    return ((p + 1) ** 2 * a).tocsr()


def _check_capacity(n_vertices: int, max_vertices: int):
    if n_vertices > max_vertices:
        raise CapacityExceeded(
            f"problem has {n_vertices} vertices, above the cap of {max_vertices}"
        )


def build_lattice_precision(
    p: int, d: int, s: int, max_vertices: int = MAX_VERTICES
) -> GroundTruth:
    """Lattice precision ``omega = h^d A^s`` with ``A`` the Dirichlet Laplacian.

    ``h = 1/(p+1)`` is the mesh width.  The theory's regime is ``s > d/2``;
    this is documented rather than enforced so that ``d=1, s=1`` works.

    ``kappa`` and the spectral norm are taken in closed form.  The
    Dirichlet Laplacian has the eigenvalues
    ``(p+1)^2 sum_i 4 sin^2(k_i pi / (2(p+1)))`` for ``k_i in 1..p``, so
    ``omega``'s largest is ``h^d ((p+1)^2 4d sin^2(p pi / (2(p+1))))^s``
    and its extreme ratio is ``cot^2(pi / (2(p+1)))`` to the power ``s``,
    in every dimension ``d``.  A truth whose ``kappa`` is at or above
    ``1 / SPD_PIVOT_RTOL`` raises ``NotPositiveDefinite``, the same
    eigenvalue test as ``condition_number``.  ``sigma`` is not formed here.
    """
    if s < 1:
        raise InvalidInput(f"s must be a positive integer, got {s}")
    shape = LatticeShape(p=p, d=d)
    _check_capacity(shape.size, max_vertices)
    kappa = float(np.tan(np.pi / (2 * (p + 1))) ** (-2 * s))
    if kappa * SPD_PIVOT_RTOL >= 1.0:
        raise NotPositiveDefinite(
            f"lattice precision (p={p}, d={d}, s={s}) has condition number "
            f"{kappa:.3e}, which fails the SPD tolerance"
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
        kappa=kappa,
        geometry=shape,
        model_tag="laplacian_power",
        params={"p": p, "d": d, "s": s},
        closed_form_norm=float(h**d * top**s),
    )


def build_green_restriction(
    fine_m: int,
    d: int,
    s: int,
    cloud,
    max_vertices: int = MAX_VERTICES,
) -> GroundTruth:
    """Green's matrix of the fine-grid operator restricted to site nodes.

    Every site of ``cloud`` must coincide with a node ``t/(fine_m+1)`` of
    the fine lattice; off-grid sites raise ``InvalidInput``.  The fine grid
    should oversample the sites by a factor of at least 4 for the
    restriction to approximate the continuum Green's function well.
    """
    fine = build_lattice_precision(fine_m, d, s, max_vertices=max_vertices)
    fine_shape: LatticeShape = fine.geometry
    sites = np.atleast_2d(np.asarray(cloud.sites, dtype=np.float64))
    nodes = []
    for x in sites:
        t = x * (fine_m + 1)
        t_round = np.rint(t)
        if np.max(np.abs(t - t_round)) > 1e-9 * (fine_m + 1):
            raise InvalidInput(f"site {x} does not lie on the fine grid")
        nodes.append(fine_shape.flat_index(t_round.astype(int)))
    nodes = np.asarray(nodes, dtype=np.int64)
    if np.unique(nodes).size != nodes.size:
        raise InvalidInput("two sites snap to the same fine-grid node")
    sigma = fine.sigma[np.ix_(nodes, nodes)]
    omega = spd_inverse(sigma)
    return GroundTruth(
        covariance=sigma,
        omega=omega,
        kappa=condition_number(omega),
        geometry=cloud,
        model_tag="green_restriction",
        params={"fine_m": fine_m, "d": d, "s": s},
    )


_MATERN_NUS = (0.5, 1.5, 2.5)


def matern_covariance(cloud, nu: float, rho: float, sigma2: float) -> GroundTruth:
    """Matern kernel matrix on a site cloud, for ``nu`` in {1/2, 3/2, 5/2}.

    This family corresponds to whole-space models; conditional correlations
    decay more slowly near the boundary, so it is tagged as a demo model.
    """
    if nu not in _MATERN_NUS:
        raise InvalidInput(f"nu must be one of {_MATERN_NUS}, got {nu}")
    if rho <= 0 or sigma2 <= 0:
        raise InvalidInput("rho and sigma2 must be positive")
    sites = np.atleast_2d(np.asarray(cloud.sites, dtype=np.float64))
    diff = sites[:, None, :] - sites[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    if nu == 0.5:
        k = np.exp(-r / rho)
    elif nu == 1.5:
        u = np.sqrt(3.0) * r / rho
        k = (1.0 + u) * np.exp(-u)
    else:
        u = np.sqrt(5.0) * r / rho
        k = (1.0 + u + u * u / 3.0) * np.exp(-u)
    sigma = symmetrize(sigma2 * k)
    omega = spd_inverse(sigma)
    return GroundTruth(
        covariance=sigma,
        omega=omega,
        kappa=condition_number(omega),
        geometry=cloud,
        model_tag="matern",
        params={"nu": nu, "rho": rho, "sigma2": sigma2, "demo_only": True},
    )


def sample(truth: GroundTruth, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` observations ``z = L g`` with ``L L^T = sigma``.

    ``L`` is ``truth.sigma_factor``, formed once per truth.
    The ``(n, dim)`` normals ``g`` are multiplied by ``L^T`` in place with
    the triangular BLAS product ``dtrmm``, so the result is ``g @ L.T`` up
    to roundoff, C-contiguous, and no second ``(n, dim)`` buffer is made.
    Deterministic given the seed: the Philox stream is keyed by ``seed``
    alone, so identical calls return bit-identical arrays.
    """
    if n < 1:
        raise InvalidInput(f"sample count must be positive, got {n}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = rng.standard_normal((n, truth.dim))
    # g.T is Fortran-ordered, so dtrmm overwrites g with L g^T.
    return blas.dtrmm(1.0, truth.sigma_factor, g.T, side=0, lower=1, overwrite_b=1).T


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


def screening_profile(omega, points, h: float, noise_floor: float = 1e-10) -> ScreeningProfile:
    """Decay of normalized conditional correlations with distance.

    Off-diagonal pairs are binned by ``ceil(|x_i - x_j| / h)`` and the
    maximum of ``|omega_ij| / sqrt(omega_ii omega_jj)`` is recorded per
    bin, together with a log-linear fit.  Bins below ``noise_floor`` are
    reported but excluded from the fit; normalized correlations cannot be
    resolved much below ``kappa * eps`` in float64, and such bins are
    roundoff, not signal.
    """
    omega = np.asarray(omega, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] != omega.shape[0]:
        raise InvalidInput("points and omega disagree on the number of variables")
    if h <= 0:
        raise InvalidInput("h must be positive")
    diag = np.diag(omega)
    normalized = np.abs(omega) / np.sqrt(np.outer(diag, diag))
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    iu = np.triu_indices(omega.shape[0], k=1)
    ratios = dist[iu] / h
    bins_all = np.maximum(1, np.ceil(ratios - 1e-9).astype(int))
    n_bins = int(bins_all.max())
    values = np.zeros(n_bins)
    np.maximum.at(values, bins_all - 1, normalized[iu])
    bins = np.arange(1, n_bins + 1)
    fit_values = np.where(values > noise_floor, values, 0.0)
    slope, intercept, r2 = log_linear_fit(bins, fit_values)
    return ScreeningProfile(bins=bins, values=values, slope=slope, intercept=intercept, r2=r2)


def l1_tail_profile(omega, shape: LatticeShape):
    """Worst-row l1 mass beyond each lattice distance, relative to the norm.

    Returns ``(k, tail)`` where ``tail[i]`` is
    ``max_t sum_{|t'-t|_1 >= k[i]} |omega(t,t')| / ||omega||`` for
    ``k = 1 .. max distance``, computed by binning each row by the
    cityblock distance and suffix-summing.
    """
    omega = np.asarray(omega, dtype=np.float64)
    coords = shape.coordinates()
    if coords.shape[0] != omega.shape[0]:
        raise InvalidInput("omega does not match the lattice size")
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    max_k = int(dist.max())
    norm = spectral_norm(omega)
    m = omega.shape[0]
    binned = np.zeros((m, max_k + 1))
    rows = np.repeat(np.arange(m), m)
    np.add.at(binned, (rows, dist.ravel()), np.abs(omega).ravel())
    suffix = np.cumsum(binned[:, ::-1], axis=1)[:, ::-1]
    ks = np.arange(1, max_k + 1)
    tails = suffix[:, 1:].max(axis=0) / norm
    return ks, tails
