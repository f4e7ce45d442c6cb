"""Experiment command line: simulate, estimate, scaling-study, verify, bench.

Configuration comes from optional ``key=value`` lines in a ``--config``
file, overridden by command-line flags (later wins).  All randomness is
Philox-seeded, and CSV output is written in deterministic sorted order, so
identical configurations produce byte-identical files.  Wall-clock timing
is opt-in (``--timing``), because measured times would break that
determinism; the ``bench`` subcommand always times.

CSV schema (version 1): one comment line ``# gpprec-csv v1``, a header
row, then one row per (configuration point, seed) with the columns

    experiment_id, model_tag, d, p_or_M, s, N, seed, b, path,
    rel_spectral_error, kappa, wall_ms, error

Estimator failures are recorded in the final ``error`` column (the row's
``rel_spectral_error`` is ``nan``) and the run continues; the exit code is
zero only when every row succeeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialization
from .cholesky import assemble_U, assemble_U_star, estimate_scales, exact_scales
from .errors import (
    CapacityExceeded,
    InvalidInput,
    LocalSingular,
    NoMatching,
    NotPositiveDefinite,
    NumericalFailure,
)
from .estimator import EstimatorConfig, estimate_precision
from .hierarchy import assign_levels, maximin_order
from .lattice import lattice_points
from .linalg import spectral_norm, symmetrize
from .matching import embed_and_estimate, measure_cloud
from .truth import (
    build_green_restriction,
    build_lattice_precision,
    log_linear_fit,
    matern_covariance,
    sample,
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

_ERRORS = (
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    LocalSingular,
    NoMatching,
    CapacityExceeded,
)


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
        return ",".join(
            [
                self.experiment_id,
                self.model_tag,
                str(self.d),
                str(self.p_or_m),
                str(self.s),
                str(self.n),
                str(self.seed),
                str(self.b),
                self.path,
                "%.17g" % self.rel_spectral_error,
                "%.17g" % self.kappa,
                "%.17g" % self.wall_ms,
                self.error,
            ]
        )


def _parse_int_list(text: str):
    return [int(v) for v in str(text).split(",") if v != ""]


def _load_config_file(path):
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInput(f"config line {raw!r} is not key=value")
        out[key.strip()] = value.strip()
    return out


_DEFAULTS = {
    "model": "laplacian",
    "d": 1,
    "p": 16,
    "s": 1,
    "n": [1000],
    "seeds": [0],
    "c1": 0.5,
    "b": None,
    "factor": "precision",
    "scattered": False,
    "out": None,
    "timing": False,
    "save_estimates": None,
}


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, value in raw.items():
            if key not in cfg:
                raise InvalidInput(f"unknown config key {key!r}")
            if key in ("n", "seeds"):
                cfg[key] = _parse_int_list(value)
            elif key in ("d", "p", "s"):
                cfg[key] = int(value)
            elif key == "b":
                cfg[key] = int(value)
            elif key == "c1":
                cfg[key] = float(value)
            elif key == "scattered":
                cfg[key] = value.lower() in ("1", "true", "yes")
            elif key == "timing":
                cfg[key] = value.lower() in ("1", "true", "yes")
            else:
                cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    if cfg["model"] not in ("laplacian", "green", "matern"):
        raise InvalidInput(f"model must be laplacian, green or matern, got {cfg['model']!r}")
    if cfg["s"] < 1:
        raise InvalidInput(f"s must be a positive integer, got {cfg['s']}")
    if cfg["d"] not in (1, 2, 3):
        raise InvalidInput(f"d must be 1, 2 or 3, got {cfg['d']}")
    if cfg["p"] < 1:
        raise InvalidInput(f"p must be positive, got {cfg['p']}")
    if not cfg["n"] or any(n < 1 for n in cfg["n"]):
        raise InvalidInput(f"n must be a nonempty list of positive sizes, got {cfg['n']}")
    if not cfg["seeds"] or len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise InvalidInput(f"seeds must be a nonempty list of distinct values, got {cfg['seeds']}")
    if not 0.0 < cfg["c1"] < 1.0:
        raise InvalidInput(f"c1 must lie in (0, 1), got {cfg['c1']}")
    if cfg["factor"] not in ("precision", "cholesky", "cholesky-star"):
        raise InvalidInput(f"factor must be precision, cholesky or cholesky-star, got {cfg['factor']!r}")


def _jittered_grid(p: int, d: int, snap_fine_m: int | None):
    """Perturbed regular grid of p**d interior sites, optionally grid-snapped."""
    rng = np.random.Generator(np.random.Philox(key=_SITE_SEED + 17 * p + d))
    axes = [np.arange(1, p + 1) / (p + 1)] * d
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    sites = base + rng.uniform(-0.35, 0.35, size=base.shape) / (p + 1)
    if snap_fine_m is not None:
        sites = np.rint(sites * (snap_fine_m + 1)) / (snap_fine_m + 1)
    return sites


def _build_truth(cfg):
    """Ground truth plus the site cloud used for scattered or factor runs."""
    model, d, p, s = cfg["model"], cfg["d"], cfg["p"], cfg["s"]
    if model == "laplacian":
        truth = build_lattice_precision(p, d, s)
        cloud = measure_cloud(lattice_points(truth.geometry), d)
        return truth, cloud
    if model == "green":
        fine_m = 4 * (p + 1) - 1
        cloud = measure_cloud(_jittered_grid(p, d, snap_fine_m=fine_m), d)
        return build_green_restriction(fine_m, d, s, cloud), cloud
    cloud = measure_cloud(_jittered_grid(p, d, snap_fine_m=None), d)
    return matern_covariance(cloud, nu=1.5, rho=0.3, sigma2=1.0), cloud


def _experiment_id(cfg) -> str:
    tags = [cfg["model"], f"d{cfg['d']}", f"p{cfg['p']}", f"s{cfg['s']}", cfg["factor"]]
    if cfg["scattered"]:
        tags.append("scattered")
    return "-".join(tags)


def _factor_context(truth, cloud, d):
    """Maximin-permuted truth with its level partition and exact factors."""
    order = maximin_order(cloud)
    levels = assign_levels(order)
    omega = symmetrize(truth.omega[np.ix_(order.perm, order.perm)])
    scales = exact_scales(omega, levels, d)
    exact_u = assemble_U(scales, levels, d).dense()
    exact_star = assemble_U_star(scales, levels, d).dense()
    return order, levels, omega, exact_u, exact_star


def _run_point(cfg, truth, cloud, factor_ctx, n, seed, timing):
    """One (configuration point, seed) evaluation; returns a ResultRow."""
    d = cfg["d"]
    est_cfg = EstimatorConfig(b_override=cfg["b"], kappa_hint=truth.kappa)
    started = time.perf_counter()
    b_used, path = 0, ""
    estimate_out = None
    try:
        if cfg["factor"] == "precision":
            z = sample(truth, n, seed)
            if cfg["scattered"] or cfg["model"] in ("green", "matern"):
                est = embed_and_estimate(
                    z, cloud, est_cfg, seed=_PAD_SEED + seed, c1=cfg["c1"]
                )
                matrix, b_used, path = est.matrix, est.b or 0, est.path
            else:
                est = estimate_precision(z, truth.geometry, est_cfg)
                matrix, b_used, path = est.matrix, est.b or 0, est.path
            estimate_out = matrix
            err = spectral_norm(symmetrize(matrix - truth.omega)) / spectral_norm(truth.omega)
        else:
            order, levels, omega_mm, exact_u, exact_star = factor_ctx
            truth_mm = type(truth)(
                sigma=symmetrize(truth.sigma[np.ix_(order.perm, order.perm)]),
                omega=omega_mm,
                kappa=truth.kappa,
                geometry=cloud,
                model_tag=truth.model_tag,
                params=truth.params,
            )
            z = sample(truth_mm, n, seed)
            scales = estimate_scales(z, levels, est_cfg, d=d)
            path = "multiscale"
            if cfg["factor"] == "cholesky":
                u_hat = assemble_U(scales, levels, d).dense()
                err = np.linalg.norm(u_hat - exact_u, 2) / np.linalg.norm(exact_u, 2)
            else:
                u_hat = assemble_U_star(scales, levels, d).dense()
                err = np.linalg.norm(u_hat - exact_star, 2) / np.linalg.norm(exact_star, 2)
            estimate_out = u_hat
        error = ""
    except _ERRORS as exc:
        err = float("nan")
        error = type(exc).__name__
    wall_ms = (time.perf_counter() - started) * 1000.0 if timing else 0.0
    if cfg.get("save_estimates") and estimate_out is not None:
        est_dir = Path(cfg["save_estimates"])
        est_dir.mkdir(parents=True, exist_ok=True)
        name = f"{_experiment_id(cfg)}-n{n}-seed{seed}-estimate.txt"
        (est_dir / name).write_text(serialization.format_matrix(estimate_out))
    p_or_m = cloud.m if (cfg["scattered"] or cfg["model"] != "laplacian") else cfg["p"]
    return ResultRow(
        experiment_id=_experiment_id(cfg),
        model_tag=truth.model_tag,
        d=d,
        p_or_m=p_or_m,
        s=cfg["s"],
        n=n,
        seed=seed,
        b=int(b_used),
        path=path,
        rel_spectral_error=float(err),
        kappa=float(truth.kappa),
        wall_ms=wall_ms,
        error=error,
    )


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


def cmd_estimate(cfg) -> int:
    truth, cloud = _build_truth(cfg)
    factor_ctx = (
        _factor_context(truth, cloud, cfg["d"]) if cfg["factor"] != "precision" else None
    )
    rows = [
        _run_point(cfg, truth, cloud, factor_ctx, n, seed, cfg["timing"])
        for n in sorted(cfg["n"])
        for seed in sorted(cfg["seeds"])
    ]
    _emit(_rows_csv(rows), cfg["out"])
    return 0 if all(row.error == "" for row in rows) else 1


def cmd_scaling_study(cfg, p_list=None) -> int:
    p_values = sorted(p_list or [cfg["p"]])
    all_rows = []
    medians = {}
    for p in p_values:
        point_cfg = dict(cfg, p=p)
        truth, cloud = _build_truth(point_cfg)
        factor_ctx = (
            _factor_context(truth, cloud, cfg["d"]) if cfg["factor"] != "precision" else None
        )
        for n in sorted(cfg["n"]):
            errs = []
            for seed in sorted(cfg["seeds"]):
                row = _run_point(point_cfg, truth, cloud, factor_ctx, n, seed, cfg["timing"])
                all_rows.append(row)
                if row.error == "":
                    errs.append(row.rel_spectral_error)
            if errs:
                medians[(p, n)] = float(np.median(errs))
    extra = []
    if len(cfg["n"]) > 1 or len(cfg["seeds"]) > 1:
        extra.append("# aggregate v1")
        extra.append("kind,p,N,value")
        for (p, n), med in sorted(medians.items()):
            extra.append(f"median,{p},{n},%.17g" % med)
        for p in p_values:
            ns = sorted(n for (pp, n) in medians if pp == p)
            if len(ns) >= 2:
                slope, _, _ = log_linear_fit(
                    np.log([float(n) for n in ns]), [medians[(p, n)] for n in ns]
                )
                extra.append(f"slope_vs_N,{p},,%.17g" % slope)
        for n in sorted(cfg["n"]):
            ps = sorted(p for (p, nn) in medians if nn == n)
            if len(ps) >= 2:
                slope, _, _ = log_linear_fit(
                    np.log([float(p) for p in ps]), [medians[(p, n)] for p in ps]
                )
                extra.append(f"slope_vs_p,,{n},%.17g" % slope)
    _emit(_rows_csv(all_rows, extra), cfg["out"])
    return 0 if all(row.error == "" for row in all_rows) else 1


def cmd_simulate(cfg) -> int:
    truth, cloud = _build_truth(cfg)
    out_dir = Path(cfg["out"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _experiment_id(cfg)
    (out_dir / f"{stem}-truth.txt").write_text(serialization.format_truth(truth))
    if cfg["model"] != "laplacian":
        (out_dir / f"{stem}-sites.txt").write_text(serialization.format_sites(cloud))
    for seed in sorted(cfg["seeds"]):
        for n in sorted(cfg["n"]):
            z = sample(truth, n, seed)
            name = f"{stem}-samples-n{n}-seed{seed}.txt"
            (out_dir / name).write_text(
                f"# seed={seed}\n# seed_policy=philox64\n" + serialization.format_samples(z)
            )
    return 0


def cmd_verify(args) -> int:
    names = args.suite or None
    results = run_suites(names, inject_asymmetry=args.inject_asymmetry)
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
    parser.add_argument("--model", choices=("laplacian", "green", "matern"))
    parser.add_argument("--d", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--n", type=_parse_int_list, help="comma list of sample sizes")
    parser.add_argument("--seeds", type=_parse_int_list, help="comma list of seeds")
    parser.add_argument("--c1", type=float)
    parser.add_argument("--b", type=int, help="fixed block width override")
    parser.add_argument("--factor", choices=("precision", "cholesky", "cholesky-star"))
    parser.add_argument("--scattered", action="store_true", default=None)
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record wall-clock times (breaks byte-identical reruns)")
    parser.add_argument("--out", help="output path (directory for simulate)")
    parser.add_argument("--save-estimates", dest="save_estimates",
                        help="directory for per-row estimate matrices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpprec", description="Precision and Cholesky-factor estimation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "write ground truth and sample files"),
        ("estimate", "run the estimator over the configured grid and emit CSV"),
        ("scaling-study", "grid over p and N with median errors and fitted slopes"),
        ("bench", "estimate with --timing always on"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "scaling-study":
            p.add_argument("--p-list", type=_parse_int_list, help="comma list of lattice sides")
    pv = sub.add_parser("verify", help="run the property suites")
    pv.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="run only this suite (repeatable)")
    pv.add_argument("--inject-asymmetry", action="store_true",
                    help="negative control: corrupt an estimate before the symmetry check")
    pv.add_argument("--out", help="also write suite results as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _merge_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "scaling-study":
            return cmd_scaling_study(cfg, p_list=getattr(args, "p_list", None))
        if args.command == "bench":
            return cmd_estimate(dict(cfg, timing=True))
    except _ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
