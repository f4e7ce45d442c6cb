"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of gpprec's modules from the
benchmark's own files, so the program carries no tracing code.  Modules
import functions by name (``estimator`` binds ``sample_covariance``
itself), so every ``gpprec`` namespace that holds a traced function is
patched, and :meth:`Tracer.remove` puts the originals back.  Spans are
kept in memory; a layer's time is the self time of its spans, that is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("truth", "lattice", "linalg", "estimator", "matching", "hierarchy", "cholesky")
ROOT = "cli.main"


def _gflop_gram(args, kwargs, result):
    n_obs, dim = np.shape(args[0])
    return {"gflop": n_obs * dim * dim / 1e9}


def _gflop_cube(args, kwargs, result):
    return {"gflop": np.shape(args[0])[0] ** 3 / 1e9}


def _pad_fraction(args, kwargs, result):
    return {"pad_fraction": 1.0 - np.shape(args[0])[1] / np.shape(result)[1]}


def _attempts(args, kwargs, result):
    return {"attempts": result.attempts}


def _route(args, kwargs, result):
    if result.scheme is None:
        return {"fallback": 1}
    return {"windows": result.scheme.S ** result.scheme.shape.d}


def _levels(args, kwargs, result):
    return {"levels": result.q}


def _scales(args, kwargs, result):
    return {"scales": result.levels.q}


# Counts read from a traced call's arguments and result, keyed by span name.
COUNTERS = {
    "linalg.sample_covariance": _gflop_gram,
    "linalg.spd_inverse": _gflop_cube,
    "matching.pad_samples": _pad_fraction,
    "matching.embed_and_estimate": _attempts,
    "estimator.estimate_precision": _route,
    "hierarchy.assign_levels": _levels,
    "cholesky.estimate_scales": _scales,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.counts = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory spans of traced gpprec calls, grouped by run id."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # A changed signature or result type loses the count,
                    # not the run.
                    pass
            return result

        return traced

    def install(self):
        """Patch every gpprec namespace that holds a public layer function."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"gpprec.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "gpprec" and not name.startswith("gpprec."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def remove(self):
        """Put every patched name back to its original function."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def root(self, run: int):
        """Open the ``cli.main`` span of run ``run`` around the block."""
        self.run = run
        span = Span(ROOT, 0.0, None, run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path, header: dict):
        """Write the header and one JSON line per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for index, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "counts": s.counts,
                }) + "\n")


def _noop():
    return None


def per_span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    probe = Tracer()
    traced = probe._wrap("probe.noop", _noop)
    with probe.root(0):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - start
    return max(0.0, (wrapped - bare) / calls)


def layer_metrics(spans: list, run: int, span_cost: float) -> dict:
    """Per-layer metrics of run ``run``; functions that no longer exist read 0.

    ``spans`` is the tracer's whole span list, which span parents index.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.run == run and s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    # Scales routed through the lattice reduction are the embed_and_estimate
    # calls made directly by estimate_scales.
    embedded = 0
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        own = s.end - s.start - child_time[i]
        self_s[s.name] += own
        calls[s.name] += 1
        layer_self[s.layer] += own
        for key, value in (s.counts or {}).items():
            counts[s.name, key] += value
        if (
            s.name == "matching.embed_and_estimate"
            and s.parent is not None
            and spans[s.parent].name == "cholesky.estimate_scales"
        ):
            embedded += 1

    def per_call(name, key):
        return counts[name, key] / calls[name] if calls[name] else 0.0

    metrics = {f"{layer}.self_s": layer_self[layer] for layer in ("cli",) + LAYERS}
    metrics.update({
        "truth.build_s": layer_self["truth"] - self_s["truth.sample"],
        "truth.sample_s": self_s["truth.sample"],
        "truth.sample_calls": calls["truth.sample"],
        "matching.measure_cloud_s": self_s["matching.measure_cloud"],
        "matching.measure_cloud_calls": calls["matching.measure_cloud"],
        "matching.build_target_lattice_s": self_s["matching.build_target_lattice"],
        "matching.perfect_matching_s": self_s["matching.perfect_matching"],
        "matching.pad_samples_s": self_s["matching.pad_samples"],
        "matching.embed_and_estimate_self_s": self_s["matching.embed_and_estimate"],
        "matching.attempts_per_row": per_call("matching.embed_and_estimate", "attempts"),
        "matching.pad_fraction": per_call("matching.pad_samples", "pad_fraction"),
        "lattice.neighborhood_s": self_s["lattice.neighborhood"],
        "lattice.neighborhood_calls": calls["lattice.neighborhood"],
        "lattice.build_scheme_s": self_s["lattice.build_scheme"],
        "linalg.sample_covariance_s": self_s["linalg.sample_covariance"],
        "linalg.sample_covariance_calls": calls["linalg.sample_covariance"],
        "linalg.sample_covariance_gflop": counts["linalg.sample_covariance", "gflop"],
        "linalg.spd_inverse_s": self_s["linalg.spd_inverse"],
        "linalg.spd_inverse_calls": calls["linalg.spd_inverse"],
        "linalg.spd_inverse_gflop": counts["linalg.spd_inverse", "gflop"],
        "linalg.cholesky_lower_s": self_s["linalg.cholesky_lower"],
        "linalg.spectral_norm_s": self_s["linalg.spectral_norm"],
        "linalg.condition_number_s": self_s["linalg.condition_number"],
        "linalg.spd_sqrt_s": self_s["linalg.spd_sqrt"],
        "estimator.estimate_precision_s": self_s["estimator.estimate_precision"],
        "estimator.assemble_global_s": self_s["estimator.assemble_global"],
        "estimator.windows": counts["estimator.estimate_precision", "windows"],
        "estimator.fallback_rows": counts["estimator.estimate_precision", "fallback"],
        "hierarchy.maximin_order_s": self_s["hierarchy.maximin_order"],
        "hierarchy.assign_levels_s": self_s["hierarchy.assign_levels"],
        "hierarchy.levels": per_call("hierarchy.assign_levels", "levels"),
        "cholesky.exact_scales_s": self_s["cholesky.exact_scales"],
        "cholesky.estimate_scales_self_s": self_s["cholesky.estimate_scales"],
        "cholesky.assemble_U_s": self_s["cholesky.assemble_U"],
        "cholesky.assemble_U_star_s": self_s["cholesky.assemble_U_star"],
        "cholesky.scales_full_inverse": counts["cholesky.estimate_scales", "scales"] - embedded,
        "cholesky.scales_embedded": embedded,
        "trace.overhead_s": (sum(calls.values()) - 1) * span_cost,
    })
    return metrics
