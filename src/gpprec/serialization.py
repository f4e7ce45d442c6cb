"""Plain-text serialization of matrices, samples, clouds, orderings, and truths.

All formats are line-oriented ASCII with values printed to 17 significant
digits, enough for exact float64 round trips.  Metadata lines start with
``#`` and hold ``key=value`` pairs.  The parsers raise ``InvalidInput`` for
text that does not hold what its header declares: no data lines, a line
with the wrong number of values or a non-numeric one, a line count that
disagrees with the header, or an ordering that is no permutation, has
distances that are not positive and nonincreasing, or has levels that do
not run from 1 at its first position to ``q`` at its last.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .hierarchy import LevelPartition, MaximinOrdering
from .matching import SiteCloud, measure_cloud

__all__ = [
    "format_matrix",
    "parse_matrix",
    "format_samples",
    "parse_samples",
    "format_sites",
    "parse_sites",
    "format_ordering",
    "parse_ordering",
    "format_truth",
    "parse_truth",
]

_FMT = "%.17g"


def _rows(a: np.ndarray):
    """One line per row of ``a``, its values in ``_FMT`` joined by spaces."""
    a = np.atleast_2d(a)
    # One % per row on a row-wide format string is the per-value join's
    # text, with a single formatting call per row.
    line = " ".join([_FMT] * a.shape[1])
    return [line % tuple(row) for row in a.tolist()]


def _lines(text: str) -> list[str]:
    """The data lines of ``text``: nonblank and not ``#`` metadata."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidInput("text holds no data lines")
    return lines


def _values(line: str, kinds, what: str) -> list:
    """The fields of ``line``, one per converter in ``kinds``."""
    fields = line.split()
    if len(fields) != len(kinds):
        raise InvalidInput(f"{what} must hold {len(kinds)} values, got {len(fields)}: {line!r}")
    try:
        return [kind(v) for kind, v in zip(kinds, fields)]
    except ValueError as exc:
        raise InvalidInput(f"{what} is not numeric: {line!r}") from exc


def _table(lines: list[str], rows: int, cols: int, what: str) -> np.ndarray:
    """``rows`` lines of ``cols`` floats each as a ``(rows, cols)`` array."""
    if cols < 0 or len(lines) != rows:
        raise InvalidInput(f"{what} must be {rows} rows of {cols} values, found {len(lines)} rows")
    values = [_values(ln, (float,) * cols, f"{what} row") for ln in lines]
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def format_matrix(a) -> str:
    """Square matrix as ``dim`` then one space-separated row per line."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {a.shape}")
    return "\n".join([str(a.shape[0])] + _rows(a)) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = _lines(text)
    (dim,) = _values(lines[0], (int,), "matrix header")
    return _table(lines[1:], dim, dim, "matrix")


def format_samples(z) -> str:
    """Sample matrix as ``N dim`` then one observation per line."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise InvalidInput(f"samples must be 2-d, got shape {z.shape}")
    return "\n".join([f"{z.shape[0]} {z.shape[1]}"] + _rows(z)) + "\n"


def parse_samples(text: str) -> np.ndarray:
    lines = _lines(text)
    n, dim = _values(lines[0], (int, int), "sample header")
    return _table(lines[1:], n, dim, "samples")


def format_sites(cloud: SiteCloud) -> str:
    """Site cloud as ``d M`` then one site per line."""
    return "\n".join([f"{cloud.d} {cloud.m}"] + _rows(cloud.sites)) + "\n"


def parse_sites(text: str) -> SiteCloud:
    lines = _lines(text)
    d, m = _values(lines[0], (int, int), "site header")
    return measure_cloud(_table(lines[1:], m, d, "sites"), d)


def format_ordering(ordering: MaximinOrdering, levels: LevelPartition) -> str:
    """Ordering as ``M q`` then ``orig_index level ell`` per position."""
    lines = [f"{ordering.m} {levels.q}"]
    for i in range(ordering.m):
        lines.append(
            f"{ordering.perm[i]} {levels.level_of[i]} {_FMT % ordering.ell[i]}"
        )
    return "\n".join(lines) + "\n"


def parse_ordering(text: str):
    lines = _lines(text)
    m, q = _values(lines[0], (int, int), "ordering header")
    if m < 1 or len(lines) - 1 != m:
        raise InvalidInput(f"expected {m} ordering rows, at least one, found {len(lines) - 1}")
    perm = np.empty(m, dtype=np.int64)
    level_of = np.empty(m, dtype=np.int64)
    ell = np.empty(m)
    for i, ln in enumerate(lines[1:]):
        perm[i], level_of[i], ell[i] = _values(ln, (int, int, float), "ordering row")
    if not np.array_equal(np.sort(perm), np.arange(m)):
        raise InvalidInput(f"ordering indices must be a permutation of 0..{m - 1}")
    if not (np.all(ell > 0) and np.all(np.diff(ell) <= 0)):
        raise InvalidInput("selection distances must be positive and nonincreasing")
    # assign_levels numbers the nonempty dyadic bands 1..q in order, from
    # level 1 at the first position to q at the last; from_sizes refuses a
    # level left empty in between.
    if level_of[0] != 1 or level_of[-1] != q or np.any(np.diff(level_of) < 0):
        raise InvalidInput(f"levels must be nondecreasing from 1 at the first position to {q}")
    levels = LevelPartition.from_sizes(np.bincount(level_of)[1:])
    return MaximinOrdering(perm=perm, ell=ell), levels


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
