"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script with the BLAS thread counts pinned to 1 and
``PYTHONPATH`` set to the checkout's ``src``.  It calls
``gpprec.cli.main(["estimate", ..., "--timing", "--out", <csv>])``
in-process, cycling through the workload's seed lists, until ``--seconds``
have passed and every seed list has run.  It checks every CSV it reads and
prints the median of each metric over the repetitions.  With ``--trace 1``
the calls run under the span tracer and the per-layer metrics are printed
instead.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy
from gpprec import cli
from tracing import Tracer, layer_metrics, per_span_cost
from workloads import SEED_LISTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "benchmark"

# Printed and recorded, but not in BENCHMARK.json: the largest error of a
# run is an extreme of a few dozen rows, and its spread across workload
# seeds (up to 22 % measured) leaves no margin under the largest bound.
UNBOUNDED_UNITS = {"rel_error_max": "ratio"}


@dataclass
class Rep:
    """One ``cli.main`` call on seed list ``block``: exit code, wall time, CSV rows."""

    block: int
    code: int
    wall_s: float
    rows: list


def run_once(workload, seed: int, block: int, csv_path: Path, tracer=None, run: int = 0) -> Rep:
    """Call ``cli.main`` once on seed list ``block`` and read the CSV it wrote."""
    if csv_path.exists():
        csv_path.unlink()
    argv = workload.argv(seed, block, str(csv_path))
    if tracer is None:
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    else:
        with tracer.root(run) as span:
            code = cli.main(argv)
        wall = span.end - span.start
    return Rep(block=block, code=code, wall_s=wall, rows=read_rows(csv_path))


def read_rows(csv_path: Path) -> list:
    """Rows of a gpprec CSV as dicts; an absent or foreign file gives none."""
    if not csv_path.exists():
        return []
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != cli.CSV_SCHEMA:
        return []
    return list(csv.DictReader(lines[1:]))


def check(workload, seed: int, rep: Rep) -> tuple:
    """Correctness gate for one repetition: ``(failed_rows, problems)``.

    The CSV must hold exactly the planned (N, seed) rows, each with an empty
    ``error``, a finite ``rel_spectral_error`` and the workload's route.  A
    call that exits 2 counts every planned row as failed.
    """
    problems = []
    if rep.code != 0:
        problems.append(f"cli.main returned {rep.code}")
    if rep.code == 2:
        return workload.rows, problems
    planned = {(n, s) for n in workload.n for s in workload.seeds(seed, rep.block)}
    seen = set()
    failed = 0
    for row in rep.rows:
        try:
            key = (int(row["N"]), int(row["seed"]))
            err = float(row["rel_spectral_error"])
            b = int(row["b"])
            path, error = row["path"], row["error"]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable row {row}: {exc!r}")
            failed += 1
            continue
        seen.add(key)
        if error:
            problems.append(f"row {key} failed with {error}")
            failed += 1
        elif not math.isfinite(err):
            problems.append(f"row {key} has rel_spectral_error {err}")
            failed += 1
        elif not path.startswith(workload.path) or (workload.b is not None and b != workload.b):
            problems.append(
                f"row {key} took path={path} b={b}, expected {workload.path} b={workload.b}"
            )
            failed += 1
    missing = planned - seen
    if missing or len(rep.rows) != workload.rows:
        problems.append(
            f"{len(rep.rows)} rows for {workload.rows} planned; missing {sorted(missing)}"
        )
        failed += len(missing)
    return failed, problems


def errors_of(rep: Rep) -> list:
    return [float(row["rel_spectral_error"]) for row in rep.rows]


def row_seconds(rep: Rep) -> float:
    return sum(float(row["wall_ms"]) for row in rep.rows) / 1000.0


def end_to_end(reps: list) -> dict:
    """Times as medians over repetitions; errors over the rows of every seed list."""
    row_s = [row_seconds(r) for r in reps]
    errors = [e for r in reps[:SEED_LISTS] for e in errors_of(r)]
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(r.wall_s - t for r, t in zip(reps, row_s)),
        "rows_per_s": statistics.median(len(r.rows) / t for r, t in zip(reps, row_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error_p50": statistics.median(errors),
        "rel_error_max": max(errors),
    }


def _openblas():
    """Version string and thread count of every OpenBLAS numpy and scipy load."""
    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"library": Path(path).name}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and config is not None:
                        threads.argtypes, threads.restype = [], ctypes.c_int
                        config.argtypes, config.restype = [], ctypes.c_char_p
                        entry["threads"] = threads()
                        entry["config"] = config().decode()
            found.append(entry)
    return found


def _git_commit() -> str:
    """Commit of the checkout from its ``.git`` files, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": _openblas(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def measure(workload, seed: int, seconds: float, tracer, out_dir: Path) -> dict:
    """Run ``workload`` for ``seconds`` and return the result record.

    With a ``tracer`` the calls run traced and the metrics are per layer,
    otherwise end to end.  The record holds ``correct``, ``attempted``,
    ``failed``, ``problems``, ``reps`` and ``metrics``.
    """
    reps = []
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        csv_path = Path(tmp) / "rows.csv"
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            while len(reps) < SEED_LISTS or time.perf_counter() - start < seconds:
                block = len(reps) % SEED_LISTS
                reps.append(run_once(workload, seed, block, csv_path, tracer, run=len(reps)))
        finally:
            if tracer is not None:
                tracer.remove()
    failed = 0
    problems = []
    for rep in reps:
        rep_failed, rep_problems = check(workload, seed, rep)
        failed += rep_failed
        problems += rep_problems
    if not problems and any(
        errors_of(r) != errors_of(reps[i % SEED_LISTS]) for i, r in enumerate(reps)
    ):
        problems.append("rel_spectral_error differs between repetitions of the same seeds")
    record = {
        "correct": not problems,
        "attempted": workload.rows * len(reps),
        "failed": failed,
        "problems": problems,
        "reps": len(reps),
        "metrics": {},
    }
    if problems:
        return record
    record["rep_wall_s"] = [r.wall_s for r in reps]
    record["rep_row_s"] = [row_seconds(r) for r in reps]
    if tracer is None:
        record["metrics"] = end_to_end(reps)
    else:
        cost = per_span_cost()
        per_run = [layer_metrics(tracer.spans, run, cost) for run in range(len(reps))]
        record["metrics"] = {
            name: statistics.median(m[name] for m in per_run) for name in per_run[0]
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"gpprec was imported from {cli.__file__}, not from {src}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = environment(args.seed)
    tracer = Tracer() if args.trace else None
    record = measure(workload, args.seed, args.seconds, tracer, OUT_DIR)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl", {"workload": workload.name, **env})
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"workload": workload.name, "env": env, **record}, indent=1)
    )

    print(f"workload {workload.name}  seed {args.seed}  reps {record['reps']}  "
          f"rows/rep {workload.rows}")
    print("env " + json.dumps(env))
    print(f"{'failed_frac':<40} {record['failed'] / record['attempted']:.6g} ratio")
    for problem in record["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    metrics = {}
    if record["correct"]:
        for name, value in record["metrics"].items():
            print(f"{name:<40} {value:.6g} {units.get(name) or UNBOUNDED_UNITS[name]}")
        metrics = {name: {"value": record["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
