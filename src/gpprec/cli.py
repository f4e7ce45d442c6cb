"""Experiment command line: simulate, estimate, scaling-study, verify.

Configuration comes from optional ``key=value`` lines in a ``--config``
file, overridden by command-line flags.  A key is a flag name with ``_``
for ``-`` (``save_estimates``, ``p_list``); each line becomes that flag and
is parsed by the subcommand's own parser ahead of the command line, so a
value is checked exactly as the flag would be and a flag given on the
command line wins.  All randomness is Philox-seeded, and CSV output is
written in deterministic sorted order, so identical configurations produce
byte-identical files at a fixed BLAS thread count: under another count the
truth's inverse and norms round differently, and Green's and Matern
``kappa`` move by about 1e-8 relative between 1 and 2 threads.  Wall-clock
timing is opt-in (``--timing``), because measured times would break that
determinism.

Every route runs through one row loop.  ``_route`` builds the run's
estimator once per run (the factor context of factor runs, the site
embedding of scattered runs) as three steps: ``plan(n)`` makes the
data-free refusals of size ``n`` (``estimator.plan_estimate`` for
precision rows, ``cholesky.plan_scales`` for factor rows, and a refused
matching refuses every size); ``one_pass(seed, sizes)`` draws a seed once
and maps each passing size to its rows' source; ``estimate`` makes a row's
estimate and error from its source.  Every size is planned once per run,
before any draw, and a refused size fails its rows without drawing.

The rows of one seed share one draw.  They run in descending N, and a
row's sample is the first N rows of its seed's draw at the largest
passing N, made by the seed's first passing row.  Lattice precision rows
read row prefixes of one sample array (``truth.sample``).  Scattered
precision rows and factor rows hold no ``(N, sites)`` array: the pass
streams the draw one row block at a time (``truth.sample_blocks``, two
slots of one block, the next block filled ahead on the fill thread by
``linalg._fills_ahead`` while this one is read) into the source of every
passing size, through the one
reader of sample rows (``linalg._row_parts``), which stops at the
largest passing size.  On
scattered runs the source is the band tiles of the padded rows
(``matching.padded_tiles``); on factor runs it is the sample covariance
in maximin order (``cholesky.scale_covariances``, then
``cholesky.estimate_scales``).
Lattice and scattered precision rows take one estimate step,
``estimator.estimate_precision`` on their source; a scattered row keeps
the site block of its padded lattice's estimate.  Rows ``[0, N)`` of the
draw and of the padding stream are the same at every N, so every row's
source is that of a pass over its own rows.  ``simulate`` writes the
same sample prefixes, the stacked blocks; for factor runs it writes the
truth and the samples in maximin order, with the ordering.  The
largest-N rows, and every row of a single-N run, equal a run at that N
alone byte for byte; a smaller-N row matches one to roundoff, as the
triangular product of the draw block holding its last row, over more
rows, rounds a few rows differently.  ``wall_ms`` counts a row's
estimate and error, and the seed's pass in the seed's first passing row;
the plan, made once per run, is in no row's time.

CSV schema (version 1): one comment line ``# gpprec-csv v1``, a header
row, then one row per (configuration point, seed) with the columns

    experiment_id, model_tag, d, p_or_M, s, N, seed, b, path,
    rel_spectral_error, kappa, wall_ms, error

``b`` is a precision row's block width, an integer in ``1..p``.  At
``p`` the scheme is one block and the estimate is the inverse of the full
sample covariance, with ``path`` ``fallback_full_inverse``; a narrower
width's ``path`` is ``blockwise``.  Factor rows report ``b`` 0 and
``path`` ``multiscale``, and a failed row ``b`` 0 and an empty ``path``.
``rel_spectral_error`` is the relative spectral-norm error of the row's
estimate.  Every norm in it but the truth's is one Lanczos solve for the
extreme eigenvalue (``linalg.spectral_norm``), from a fixed start vector,
so it reruns bit for bit.  The truth's norm ``GroundTruth.omega_norm`` is
in closed form for lattice truths (``--model laplacian``) and otherwise
one Lanczos solve per run, at build; a norm that fails stops the run
there with exit status 2, as every other refused build does.  Precision rows report
``||omega_hat - omega||_2 / ||omega||_2``, the numerator on the dense
difference as it is (exactly symmetric, as both operands are).  Factor
rows (``--factor cholesky`` or ``cholesky-star``) report
``||U_hat - U||_2 / ||U||_2`` against the exact factor ``U`` of the
maximin-permuted truth, as ``sqrt(||D D^T||_2 / ||omega||_2)`` with
``D = U_hat - U``: the exact factor satisfies ``U U^T = omega``, so
``||U||_2^2 = ||omega||_2``.  ``D D^T`` is applied as ``x -> D (D^T x)``
and never formed.

Every failure is a ``gpprec.errors.GpprecError``.  A row's failure is
recorded by class name in the final ``error`` column (the row's
``rel_spectral_error`` is ``nan``) and the run continues; the exit code is
zero only when every row succeeded.  Every other refusal stops the run
with its message on stderr and exit code 2; output paths are checked
before any truth is built or any suite runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import blas
from scipy.sparse.linalg import LinearOperator

from . import serialization
from .cholesky import (
    assemble_U,
    assemble_U_star,
    estimate_scales,
    exact_scales,
    plan_scales,
    scale_covariances,
)
from .errors import GpprecError, InvalidInput
from .estimator import EstimatorConfig, estimate_precision, plan_estimate
from .hierarchy import assign_levels, maximin_order
from .lattice import LatticeShape, lattice_points
from .linalg import spectral_norm
from .matching import DEFAULT_C1, build_embedding, measure_cloud, padded_tiles
from .truth import (
    _check_capacity,
    build_green_restriction,
    build_lattice_precision,
    log_linear_fit,
    matern_covariance,
    sample,
    sample_blocks,
)
from .verify import SUITES, run_suites

__all__ = ["main", "ResultRow", "CSV_COLUMNS"]

CSV_SCHEMA = "# gpprec-csv v1"
CSV_COLUMNS = (
    "experiment_id",
    "model_tag",
    "d",
    "p_or_M",
    "s",
    "N",
    "seed",
    "b",
    "path",
    "rel_spectral_error",
    "kappa",
    "wall_ms",
    "error",
)

# Site clouds are derived from this base so that --seeds only affects sampling.
_SITE_SEED = 1000003
_PAD_SEED = 7000003

@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    model_tag: str
    d: int
    p_or_m: int
    s: int
    n: int
    seed: int
    b: int
    path: str
    rel_spectral_error: float
    kappa: float
    wall_ms: float
    error: str = ""

    def as_csv(self) -> str:
        return ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in astuple(self))


def _parse_int_list(text: str):
    return [int(v) for v in str(text).split(",") if v != ""]


_TRUE_WORDS = ("1", "true", "yes")
_FALSE_WORDS = ("0", "false", "no")


def _config_tokens(path, parsed) -> list[str]:
    """Command-line tokens equivalent to the ``key=value`` lines of ``path``.

    ``parsed`` is the subcommand's parsed namespace as a dict, so its keys
    are the accepted config keys; a boolean value marks a switch, which a
    true word turns on and a false word leaves off.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInput(f"cannot read config file {path}: {exc.strerror}") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise InvalidInput(f"config line {raw!r} is not key=value")
        if key not in parsed or key in ("command", "config"):
            raise InvalidInput(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(parsed[key], bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in _TRUE_WORDS:
            tokens.append(flag)
        elif value.lower() not in _FALSE_WORDS:
            raise InvalidInput(f"{key} must be one of 1/true/yes/0/false/no, got {value!r}")
    return tokens


def _validate_config(cfg):
    """Range checks that the parser's types and choices cannot express."""
    if cfg["s"] < 1:
        raise InvalidInput(f"s must be a positive integer, got {cfg['s']}")
    if cfg["p"] < 1:
        raise InvalidInput(f"p must be positive, got {cfg['p']}")
    if cfg["b"] is not None and cfg["b"] < 1:
        raise InvalidInput(f"b must be a positive integer, got {cfg['b']}")
    sizes = cfg["n"]
    if not sizes or len(set(sizes)) != len(sizes) or min(sizes) < 1:
        raise InvalidInput(f"n must be a nonempty list of distinct positive sizes, got {sizes}")
    seeds = cfg["seeds"]
    if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise InvalidInput(
            f"seeds must be a nonempty list of distinct nonnegative values, got {seeds}"
        )
    if max(seeds) + _PAD_SEED >= 2**128:
        # A seed and its padding seed each key a Philox stream, whose keys are 128-bit.
        raise InvalidInput(f"seeds must be below 2**128 - {_PAD_SEED}, got {max(seeds)}")
    if not 0.0 < cfg["c1"] < 1.0:
        raise InvalidInput(f"c1 must lie in (0, 1), got {cfg['c1']}")
    if cfg["scattered"] and cfg["factor"] != "precision":
        # Factor rows are estimated on the cloud in maximin order, never padded.
        raise InvalidInput(f"--scattered applies to precision rows, not --factor {cfg['factor']}")
    p_list = cfg.get("p_list")
    if p_list and (len(set(p_list)) != len(p_list) or min(p_list) < 1):
        raise InvalidInput(f"p_list must be a list of distinct positive sides, got {p_list}")
    _check_output(cfg["out"], "--out", directory=cfg["command"] == "simulate")
    _check_output(cfg["save_estimates"], "--save-estimates", directory=True)


def _check_output(path, flag, directory=False):
    """Refuse with ``InvalidInput`` an output ``path`` that the run could not write.

    A file must not be a directory, and its directory must exist; a
    directory must exist, or be creatable under its nearest existing
    ancestor, which must be a directory.  The existing path written to,
    or the directory it would be made in, must be writable.  Runs check
    their outputs before they build or compute anything; no path, no check.
    """
    if not path:
        return
    target = Path(path)
    home = target if directory or target.exists() else target.parent
    while directory and not home.exists() and home != home.parent:
        home = home.parent
    # Only an existing output file is written into without being a directory.
    if home.is_dir() != (directory or home != target) or not os.access(home, os.W_OK):
        kind = "directory" if directory else "file in an existing directory"
        raise InvalidInput(f"{flag} must name a writable {kind}, got {path}")


def _jittered_grid(p: int, d: int, snap_fine_m: int | None):
    """Perturbed regular grid of p**d interior sites, optionally grid-snapped."""
    rng = np.random.Generator(np.random.Philox(key=_SITE_SEED + 17 * p + d))
    base = lattice_points(LatticeShape(p, d))
    sites = base + rng.uniform(-0.35, 0.35, size=base.shape) / (p + 1)
    if snap_fine_m is not None:
        sites = np.rint(sites * (snap_fine_m + 1)) / (snap_fine_m + 1)
    return sites


def _build_truth(cfg):
    """Ground truth plus the site cloud used for scattered or factor runs.

    Green's truth is built on a fine grid of ``fine_m**d`` nodes and
    Matern's on the ``p**d`` sites; either above ``truth.MAX_VERTICES``
    raises ``CapacityExceeded`` before the site cloud is built.
    """
    model, d, p, s = cfg["model"], cfg["d"], cfg["p"], cfg["s"]
    if model == "laplacian":
        truth = build_lattice_precision(p, d, s)
        cloud = measure_cloud(lattice_points(truth.geometry), d)
        return truth, cloud
    fine_m = 4 * (p + 1) - 1
    _check_capacity((fine_m if model == "green" else p) ** d)
    if model == "green":
        cloud = measure_cloud(_jittered_grid(p, d, snap_fine_m=fine_m), d)
        return build_green_restriction(fine_m, d, s, cloud), cloud
    cloud = measure_cloud(_jittered_grid(p, d, snap_fine_m=None), d)
    return matern_covariance(cloud, nu=1.5, rho=0.3, sigma2=1.0), cloud


def _experiment_id(cfg) -> str:
    tags = [cfg["model"], f"d{cfg['d']}", f"p{cfg['p']}", f"s{cfg['s']}", cfg["factor"]]
    if cfg["scattered"]:
        tags.append("scattered")
    return "-".join(tags)


def _maximin_truth(truth, cloud):
    """The cloud's maximin ordering, its level partition and the truth in that order.

    The permuted truth keeps the truth's ``omega_norm`` and ``kappa``,
    which a symmetric permutation does not change.  Factor rows sample
    it, so its columns follow the maximin order.
    """
    order = maximin_order(cloud)
    perm = np.ix_(order.perm, order.perm)
    truth_mm = replace(
        truth,
        omega=truth.omega[perm],
        covariance=None if truth.covariance is None else truth.covariance[perm],
        geometry=cloud,
    )
    return order, assign_levels(order), truth_mm


def _factor_context(truth, cloud, d, factor):
    """Level partition, maximin-permuted truth and the exact factor of ``factor``.

    ``factor`` is ``cholesky`` or ``cholesky-star``.  The permuted truth's
    ``omega_factor`` is the exact ``cholesky`` factor and feeds the exact
    scales of ``cholesky-star``.
    """
    _, levels, truth_mm = _maximin_truth(truth, cloud)
    if factor == "cholesky":
        return levels, truth_mm, truth_mm.omega_factor
    scales = exact_scales(truth_mm.omega, levels, d, factor=truth_mm.omega_factor)
    return levels, truth_mm, assemble_U_star(scales)


def _factor_error(u_hat, exact, truth_mm, upper: bool) -> float:
    """``||u_hat - exact||_2 / ||exact||_2`` from one symmetric eigenvalue problem.

    ``||D||_2^2 = ||D D^T||_2``, and both exact factors reconstruct the
    permuted precision, ``U U^T = U* U*^T = omega``, so
    ``||exact||_2^2 = ||omega||_2``.  ``D D^T`` is applied as the operator
    ``x -> D (D^T x)``, symmetric by construction, and never formed.  When
    ``upper``, both factors are upper triangular (``--factor cholesky``),
    and so is ``D``: the operator is two triangular products (``dtrmv``)
    on one Fortran-ordered ``D``, half the flops of two dense ones.  An
    all-zero ``D`` gives 0.0 without a Krylov solve, which would start from
    the zero vector.
    """
    diff = np.subtract(u_hat, exact, order="F" if upper else "K")
    if not diff.any():
        return 0.0
    if upper:
        def matvec(x):
            return blas.dtrmv(diff, blas.dtrmv(diff, x.ravel(), trans=1), overwrite_x=1)
    else:
        def matvec(x):
            return diff @ (diff.T @ x)
    gram = LinearOperator(diff.shape, matvec=matvec, dtype=diff.dtype)
    return float(np.sqrt(spectral_norm(gram) / truth_mm.omega_norm))


def _on_sites(cfg) -> bool:
    """Whether the run's variables are the site cloud rather than the lattice."""
    return cfg["scattered"] or cfg["model"] != "laplacian"


def _route(cfg, truth, cloud):
    """The run's estimator as three steps, ``(plan, one_pass, estimate)``.

    ``plan(n)`` makes the data-free refusals of the rows at size ``n``.
    ``one_pass(seed, sizes)`` draws ``seed`` once, up to the largest of
    ``sizes``, and maps each size to its rows' source: row prefixes of one
    sample array on lattice precision runs, the band tiles of the padded
    rows on scattered runs, and the sample covariance in maximin order on
    factor runs; the last two stream the draw.  ``estimate(source)``
    returns ``(estimate, b, path, rel_spectral_error)``.  Lattice and
    scattered precision rows share one estimate: ``estimate_precision`` on
    the source, then, when the variables are sites, the site block; the
    row's ``b`` and ``path`` are the estimate's, read off its scheme.  The
    factor context and the site embedding are built here, once per run; a
    refused matching refuses every size.  Factor rows plan and estimate
    without a cloud, so every scale inverts its full sample covariance and
    neither ``--b`` nor ``kappa`` enters them; precision rows read both
    through one ``EstimatorConfig``.
    """
    factor = cfg["factor"]
    if factor != "precision":
        levels, truth_mm, exact = _factor_context(truth, cloud, cfg["d"], factor)
        assemble = assemble_U if factor == "cholesky" else assemble_U_star

        def plan(n):
            plan_scales(levels, n)

        def one_pass(seed, sizes):
            # Factor rows sample the maximin-permuted truth.
            blocks = sample_blocks(truth_mm, max(sizes), seed)
            return scale_covariances(blocks, levels, sizes)

        def estimate(source):
            u_hat = assemble(estimate_scales(source, levels, d=cfg["d"]))
            err = _factor_error(u_hat, exact, truth_mm, upper=factor == "cholesky")
            return u_hat, 0, "multiscale", err

        return plan, one_pass, estimate
    est_cfg = EstimatorConfig(b_override=cfg["b"], kappa_hint=truth.kappa)
    # A lattice row's variables are all its nodes, a scattered row's the matched ones.
    if not _on_sites(cfg):
        shape, site_block = truth.geometry, np.s_[:]

        def one_pass(seed, sizes):
            z = sample(truth, max(sizes), seed)
            return {n: z[:n] for n in sizes}
    else:
        try:
            lattice, _ = build_embedding(cloud, c1=cfg["c1"])
        except GpprecError as exc:
            refused = exc

            def plan(n):
                raise refused

            return plan, None, None
        nodes = lattice.node_of_site
        shape, site_block = lattice.shape, np.ix_(nodes, nodes)

        def one_pass(seed, sizes):
            blocks = sample_blocks(truth, max(sizes), seed)
            return padded_tiles(blocks, lattice, _PAD_SEED + seed, est_cfg, sizes)

    def plan(n):
        plan_estimate(shape, n, est_cfg)

    def estimate(source):
        est = estimate_precision(source, shape, est_cfg)
        matrix = est.matrix[site_block]
        err = spectral_norm(matrix - truth.omega) / truth.omega_norm
        return matrix, est.b, est.path, err

    return plan, one_pass, estimate


def _save_estimate(cfg, n, seed, matrix):
    est_dir = Path(cfg["save_estimates"])
    est_dir.mkdir(parents=True, exist_ok=True)
    name = f"{_experiment_id(cfg)}-n{n}-seed{seed}-estimate.txt"
    (est_dir / name).write_text(serialization.format_matrix(matrix))


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _rows_csv(rows, extra=()):
    lines = [CSV_SCHEMA, ",".join(CSV_COLUMNS)]
    lines.extend(row.as_csv() for row in rows)
    lines.extend(extra)
    return lines


def _point_rows(cfg):
    """Rows for every (N, seed) pair at ``cfg["p"]``, sorted by N, then seed.

    The truth and its route are built once per run, and every size is
    planned once: a refused size fails its rows before any draw.  Each
    seed's rows run in descending N; the first that passes makes the
    seed's one pass, and every passing row estimates from its source in it.
    """
    truth, cloud = _build_truth(cfg)
    plan, one_pass, estimate = _route(cfg, truth, cloud)
    refused = {}
    for n in cfg["n"]:
        try:
            plan(n)
        except GpprecError as exc:
            refused[n] = type(exc).__name__
    sizes = [n for n in sorted(cfg["n"]) if n not in refused]
    p_or_m = cloud.m if _on_sites(cfg) else cfg["p"]
    rows = []
    for seed in sorted(cfg["seeds"]):
        sources = None
        for n in sorted(cfg["n"], reverse=True):
            started = time.perf_counter()
            matrix, b, path, err = None, 0, "", float("nan")
            error = refused.get(n, "")
            if not error:
                try:
                    if sources is None:
                        sources = one_pass(seed, sizes)
                    matrix, b, path, err = estimate(sources[n])
                except GpprecError as exc:
                    error = type(exc).__name__
            wall_ms = (time.perf_counter() - started) * 1000.0 if cfg["timing"] else 0.0
            if cfg["save_estimates"] and matrix is not None:
                _save_estimate(cfg, n, seed, matrix)
            rows.append(ResultRow(
                _experiment_id(cfg), truth.model_tag, cfg["d"], p_or_m, cfg["s"], n, seed,
                int(b), path, float(err), float(truth.kappa), wall_ms, error,
            ))
    return sorted(rows, key=lambda row: (row.n, row.seed))


def cmd_estimate(cfg) -> int:
    rows = _point_rows(cfg)
    _emit(_rows_csv(rows), cfg["out"])
    return 0 if all(row.error == "" for row in rows) else 1


def _slopes(medians, keys, line, axis):
    """One ``line`` per key with two or more medians: the slope of median error on log x.

    ``medians`` maps ``(p, N)`` to a median error; a key fixes the other
    coordinate, and x is the coordinate at ``axis``, 1 for N and 0 for p.
    """
    lines = []
    for key in keys:
        points = sorted(pair for pair in medians if pair[1 - axis] == key)
        if len(points) >= 2:
            slope, _, _ = log_linear_fit(
                np.log([float(pair[axis]) for pair in points]), [medians[pair] for pair in points]
            )
            lines.append(line.format(key) % slope)
    return lines


def cmd_scaling_study(cfg) -> int:
    p_values = sorted(cfg["p_list"] or [cfg["p"]])
    all_rows = []
    medians = {}
    for p in p_values:
        rows = _point_rows(dict(cfg, p=p))
        all_rows.extend(rows)
        for n in sorted(cfg["n"]):
            errs = [row.rel_spectral_error for row in rows if row.n == n and row.error == ""]
            if errs:
                medians[(p, n)] = float(np.median(errs))
    extra = []
    if len(cfg["n"]) > 1 or len(cfg["seeds"]) > 1:
        extra.append("# aggregate v1")
        extra.append("kind,p,N,value")
        for (p, n), med in sorted(medians.items()):
            extra.append(f"median,{p},{n},%.17g" % med)
        extra += _slopes(medians, p_values, "slope_vs_N,{},,%.17g", axis=1)
        extra += _slopes(medians, sorted(cfg["n"]), "slope_vs_p,,{},%.17g", axis=0)
    _emit(_rows_csv(all_rows, extra), cfg["out"])
    return 0 if all(row.error == "" for row in all_rows) else 1


def cmd_simulate(cfg) -> int:
    truth, cloud = _build_truth(cfg)
    out_dir = Path(cfg["out"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _experiment_id(cfg)
    if cfg["factor"] != "precision":
        # Factor rows sample the truth in maximin order; so do these files.
        order, levels, truth = _maximin_truth(truth, cloud)
        (out_dir / f"{stem}-ordering.txt").write_text(serialization.format_ordering(order, levels))
    (out_dir / f"{stem}-truth.txt").write_text(serialization.format_truth(truth))
    if cfg["model"] != "laplacian":
        (out_dir / f"{stem}-sites.txt").write_text(serialization.format_sites(cloud))
    for seed in sorted(cfg["seeds"]):
        # The rows of estimate read prefixes of one draw per seed; so do these files.
        z = sample(truth, max(cfg["n"]), seed)
        for n in sorted(cfg["n"]):
            name = f"{stem}-samples-n{n}-seed{seed}.txt"
            (out_dir / name).write_text(
                f"# seed={seed}\n# seed_policy=philox64\n" + serialization.format_samples(z[:n])
            )
    return 0


def cmd_verify(args) -> int:
    _check_output(args.out, "--out")
    names = args.suite or None
    results = run_suites(names)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{res.name:<16} {status}  {res.detail}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        csv_lines = [CSV_SCHEMA, "suite,passed,detail"]
        csv_lines += [f"{r.name},{int(r.passed)},\"{r.detail}\"" for r in results]
        Path(args.out).write_text("\n".join(csv_lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--model", choices=("laplacian", "green", "matern"), default="laplacian")
    parser.add_argument("--d", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--p", type=int, default=16)
    parser.add_argument("--s", type=int, default=1)
    parser.add_argument("--n", type=_parse_int_list, default=[1000],
                        help="comma list of sample sizes")
    parser.add_argument("--seeds", type=_parse_int_list, default=[0], help="comma list of seeds")
    parser.add_argument("--c1", type=float, default=DEFAULT_C1)
    parser.add_argument("--b", type=int, help="fixed block width override")
    parser.add_argument("--factor", choices=("precision", "cholesky", "cholesky-star"),
                        default="precision")
    parser.add_argument("--scattered", action="store_true")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock times (breaks byte-identical reruns)")
    parser.add_argument("--out", help="output path (directory for simulate)")
    parser.add_argument("--save-estimates", help="directory for per-row estimate matrices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpprec", description="Precision and Cholesky-factor estimation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "write ground truth and sample files"),
        ("estimate", "run the estimator over the configured grid and emit CSV"),
        ("scaling-study", "grid over p and N with median errors and fitted slopes"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "scaling-study":
            p.add_argument("--p-list", type=_parse_int_list, help="comma list of lattice sides")
    pv = sub.add_parser("verify", help="run the property suites")
    pv.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="run only this suite (repeatable)")
    pv.add_argument("--out", help="also write suite results as CSV")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.config:
            tokens = _config_tokens(args.config, vars(args))
            # The subcommand name is the first token: the top-level parser has no options.
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        cfg = vars(args)
        _validate_config(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "scaling-study":
            return cmd_scaling_study(cfg)
    except GpprecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
