"""Smoke test of the benchmark's own code on a tiny configuration.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import SEED_LISTS, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    flags=("--model", "laplacian", "--d", "1", "--p", "12", "--s", "1", "--b", "3"),
    n=(200,),
    seed_count=2,
    path="blockwise",
    b=3,
)


def _gpprec_functions():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "gpprec" or name.startswith("gpprec.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = _gpprec_functions()
    tracer = tracing.Tracer()
    record = measure.measure(TINY, 0, 0.0, tracer, tmp_path_factory.mktemp("out"))
    return before, tracer, record


def test_metric_names_match_benchmark_json(traced, tmp_path):
    _, _, record = traced
    assert record["correct"], record["problems"]
    assert record["reps"] == SEED_LISTS
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    plain = measure.measure(TINY, 0, 0.0, None, tmp_path)
    assert plain["correct"], plain["problems"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]} | set(
        measure.UNBOUNDED_UNITS
    )
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_traced_counts(traced):
    _, tracer, record = traced
    metrics = record["metrics"]
    # p=12, b=3: 4 windows per row, 2 rows per repetition.
    assert metrics["estimator.windows"] == 8
    assert metrics["matching.measure_cloud_calls"] == 1
    assert metrics["truth.sample_calls"] == 2
    # estimator binds sample_covariance itself; its calls must be traced too.
    assert any(
        s.name == "linalg.sample_covariance"
        and tracer.spans[s.parent].name == "estimator.estimate_precision"
        for s in tracer.spans
    )


def test_self_times_sum_to_cli_main_total(traced):
    _, tracer, record = traced
    for run in range(record["reps"]):
        metrics = tracing.layer_metrics(tracer.spans, run, 0.0)
        root = next(s for s in tracer.spans if s.run == run and s.parent is None)
        assert root.name == tracing.ROOT
        layers = sum(metrics[f"{layer}.self_s"] for layer in ("cli",) + tracing.LAYERS)
        assert layers == pytest.approx(root.end - root.start, rel=1e-9)


def test_wrappers_are_removed(traced):
    before, tracer, _ = traced
    assert tracer.spans
    assert _gpprec_functions() == before


def test_gate_trips_on_bad_rows(tmp_path):
    rep = measure.run_once(TINY, 0, 1, tmp_path / "rows.csv")
    assert measure.check(TINY, 0, rep) == (0, [])

    def changed(index, **fields):
        rows = [dict(row) for row in rep.rows]
        rows[index].update(fields)
        return dataclasses.replace(rep, rows=rows)

    bad = [
        changed(0, path="fallback_full_inverse"),
        changed(1, b="4"),
        changed(0, error="LocalSingular", rel_spectral_error="nan"),
        changed(1, rel_spectral_error="inf"),
        dataclasses.replace(rep, rows=rep.rows[:1]),
        dataclasses.replace(rep, code=1),
    ]
    for case in bad:
        failed, problems = measure.check(TINY, 0, case)
        assert problems, case
    assert measure.check(TINY, 0, dataclasses.replace(rep, code=2, rows=[]))[0] == TINY.rows


def test_bad_row_reports_no_metrics(tmp_path, monkeypatch):
    read_rows = measure.read_rows

    def route_changed(path):
        rows = read_rows(path)
        rows[0]["path"] = "fallback_full_inverse"
        return rows

    monkeypatch.setattr(measure, "read_rows", route_changed)
    record = measure.measure(TINY, 0, 0.0, None, tmp_path)
    assert not record["correct"]
    assert record["failed"] == SEED_LISTS
    assert record["metrics"] == {}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "benchmark", tmp_path / "benchmark",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "lattice-2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
