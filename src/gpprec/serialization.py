"""Plain-text serialization of matrices, clouds, orderings, and factors.

All formats are line-oriented ASCII with values printed to 17 significant
digits, enough for exact float64 round trips.  Metadata lines start with
``#`` and hold ``key=value`` pairs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .hierarchy import LevelPartition, MaximinOrdering
from .matching import SiteCloud, measure_cloud

__all__ = [
    "format_matrix",
    "parse_matrix",
    "save_matrix",
    "load_matrix",
    "format_samples",
    "parse_samples",
    "format_sites",
    "parse_sites",
    "format_ordering",
    "parse_ordering",
    "format_factor",
    "parse_factor",
    "format_truth",
    "parse_truth",
]

_FMT = "%.17g"


def _rows(a: np.ndarray):
    return [" ".join(_FMT % v for v in row) for row in np.atleast_2d(a)]


def format_matrix(a) -> str:
    """Square matrix as ``dim`` then one space-separated row per line."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {a.shape}")
    return "\n".join([str(a.shape[0])] + _rows(a)) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    dim = int(lines[0])
    if len(lines) != dim + 1:
        raise InvalidInput(f"expected {dim} rows, found {len(lines) - 1}")
    out = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if out.shape != (dim, dim):
        raise InvalidInput(f"rows do not form a {dim}x{dim} matrix")
    return out


def save_matrix(path, a):
    with open(path, "w") as fh:
        fh.write(format_matrix(a))


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())


def format_samples(z) -> str:
    """Sample matrix as ``N dim`` then one observation per line."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise InvalidInput(f"samples must be 2-d, got shape {z.shape}")
    return "\n".join([f"{z.shape[0]} {z.shape[1]}"] + _rows(z)) + "\n"


def parse_samples(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    n, dim = (int(v) for v in lines[0].split())
    out = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if out.shape != (n, dim):
        raise InvalidInput(f"rows do not form a {n}x{dim} sample matrix")
    return out


def format_sites(cloud: SiteCloud) -> str:
    """Site cloud as ``d M`` then one site per line."""
    return "\n".join([f"{cloud.d} {cloud.m}"] + _rows(cloud.sites)) + "\n"


def parse_sites(text: str) -> SiteCloud:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    d, m = (int(v) for v in lines[0].split())
    sites = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if sites.shape != (m, d):
        raise InvalidInput(f"rows do not form {m} sites in dimension {d}")
    return measure_cloud(sites, d)


def format_ordering(ordering: MaximinOrdering, levels: LevelPartition) -> str:
    """Ordering as ``M q`` then ``orig_index level ell`` per position."""
    lines = [f"{ordering.m} {levels.q}"]
    for i in range(ordering.m):
        lines.append(
            f"{ordering.perm[i]} {levels.level_of[i]} {_FMT % ordering.ell[i]}"
        )
    return "\n".join(lines) + "\n"


def parse_ordering(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    m, q = (int(v) for v in lines[0].split())
    perm = np.empty(m, dtype=np.int64)
    level_of = np.empty(m, dtype=np.int64)
    ell = np.empty(m)
    for i, ln in enumerate(lines[1:]):
        a, b, c = ln.split()
        perm[i], level_of[i], ell[i] = int(a), int(b), float(c)
    counts = np.bincount(level_of, minlength=q + 1)[1:]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return (
        MaximinOrdering(perm=perm, ell=ell),
        LevelPartition(q=q, offsets=offsets, level_of=level_of),
    )


def format_factor(u, levels: LevelPartition, d: int) -> str:
    """Dense factor ``U`` as ``M q d``, level sizes, then ``(k, l)`` blocks.

    The blocks are those of ``U^T`` with ``l <= k``, row-major.
    """
    ut = np.asarray(u, dtype=np.float64).T
    if ut.shape != (levels.m, levels.m):
        raise InvalidInput(f"factor must be {(levels.m, levels.m)}, got {ut.shape}")
    lines = [f"{levels.m} {levels.q} {d}"]
    lines.append(" ".join(str(int(s)) for s in levels.sizes()))
    for k in range(1, levels.q + 1):
        for l in range(1, k + 1):
            block = ut[levels.level_slice(k), levels.level_slice(l)]
            lines.append(f"{k} {l} {block.shape[0]} {block.shape[1]}")
            lines.extend(_rows(block))
    return "\n".join(lines) + "\n"


def parse_factor(text: str):
    """Inverse of :func:`format_factor`: ``(u, levels, d)``."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    m, q, d = (int(v) for v in lines[0].split())
    sizes = np.array([int(v) for v in lines[1].split()], dtype=np.int64)
    if sizes.size != q or int(sizes.sum()) != m:
        raise InvalidInput("level sizes disagree with the header")
    levels = LevelPartition.from_sizes(sizes)
    ut = np.zeros((m, m))
    pos = 2
    while pos < len(lines):
        k, l, rows, cols = (int(v) for v in lines[pos].split())
        pos += 1
        block = np.array(
            [[float(v) for v in lines[pos + r].split()] for r in range(rows)]
        )
        if not 1 <= l <= k <= q:
            raise InvalidInput(f"block ({k}, {l}) is not in the lower block triangle")
        target = ut[levels.level_slice(k), levels.level_slice(l)]
        if block.shape != (rows, cols) or block.shape != target.shape:
            raise InvalidInput(f"block ({k}, {l}) does not match its declared shape")
        pos += rows
        target[...] = block
    return ut.T, levels, d


def format_truth(truth) -> str:
    """Ground truth as metadata header plus covariance and precision matrices."""
    meta = [f"# model_tag={truth.model_tag}"]
    for key, value in sorted(truth.params.items()):
        meta.append(f"# {key}={value}")
    meta.append(f"# kappa={_FMT % truth.kappa}")
    meta.append("# seed_policy=philox64")
    return (
        "\n".join(meta)
        + "\nsigma\n"
        + format_matrix(truth.sigma)
        + "omega\n"
        + format_matrix(truth.omega)
    )


def parse_truth(text: str):
    """Parse a truth file into ``(meta, sigma, omega)``."""
    meta = {}
    for ln in text.splitlines():
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    try:
        i_sigma = body.index("sigma")
        i_omega = body.index("omega")
    except ValueError as exc:
        raise InvalidInput("truth file must contain sigma and omega sections") from exc
    sigma = parse_matrix("\n".join(body[i_sigma + 1 : i_omega]))
    omega = parse_matrix("\n".join(body[i_omega + 1 :]))
    return meta, sigma, omega
