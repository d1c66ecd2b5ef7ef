"""Span tracer that wraps the public functions of every pseudospec module.

The wrappers live only in the benchmark: ``Tracer.install`` replaces every
module-level reference to a public function of a ``pseudospec.*`` module
(including the copies other modules bound with ``from .x import f``) and
``Tracer.uninstall`` puts the originals back.  Each call records one span:
name, start, end, parent, the pipeline it belongs to, and a few counters
read from its arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "cli",
    "families",
    "io",
    "numkernel",
    "structures",
    "sensitivity",
    "approx",
    "oracle",
    "svg",
)


def _sigma_min_batch(a, result):
    return {"points": int(np.size(a["zs"])), "n": int(len(a["A"]))}


def _sweep(a, result):
    return {"eigensolves": 2 * a["cfg"].angles, "points": len(result)}


def _random_cloud(a, result):
    return {"eigensolves": a["cfg"].angles * a["samples"], "points": len(result)}


def _grid_field(a, result):
    return {"points": int(result.values.size)}


def _inclusion(a, result):
    return {"points": result.total, "ratio": result.worst_value / a["cloud"].epsilon}


def _atomic_write(a, result):
    return {"bytes": len(a["data"].encode())}


def _svg_render(a, result):
    return {"bytes": len(result.encode())}


# Counters read at a layer boundary, keyed by span name.  They see the call's
# arguments bound to parameter names, so positional and keyword calls agree.
COUNTERS = {
    "numkernel.sigma_min_batch": _sigma_min_batch,
    "approx.sweep_wilkinson": _sweep,
    "approx.random_cloud": _random_cloud,
    "oracle.grid_field": _grid_field,
    "oracle.cloud_inclusion_check": _inclusion,
    "io.atomic_write": _atomic_write,
    "svg.svg_render": _svg_render,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    pipeline: int | None
    command: str | None
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans for calls into the pseudospec modules while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pipeline: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counter_errors = 0

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        counter = COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None and span_name == "cli.main":
                command = args[0][0] if args and args[0] else None
                label = f"cli.{command}"
            else:
                command = spans[parent].command if parent is not None else None
                label = span_name
            span = Span(label, layer, 0.0, parent, self.pipeline, command)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent].child_time += span.end - span.start
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span.counts = counter(bound, result)
                except (AttributeError, KeyError, TypeError):
                    # The layer's interface changed; its counters read zero
                    # and the run record says so.
                    self.counter_errors += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded pseudospec module."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "pseudospec" or name.startswith("pseudospec.")
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                    self._patches.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._patches:
            setattr(mod, name, obj)
        self._patches.clear()


def summarize(spans: list[Span], pipelines: int) -> dict:
    """Per-layer calls, busy time and self time, plus the named counters.

    Busy time counts a layer (or function) while it is anywhere on the
    stack, so a call nested inside another call of the same layer is not
    counted twice; self time subtracts the time of child spans.  Only spans
    inside a pipeline count.  Every value is a mean per traced pipeline.
    """
    per = max(pipelines, 1)
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    fn_busy = defaultdict(float)
    fn_calls = defaultdict(int)
    fn_failed = defaultdict(int)
    counts = defaultdict(float)
    cli_self = defaultdict(float)
    worst_ratio = 0.0
    for span in spans:
        if span.pipeline is None:
            continue
        ancestors = []
        up = span.parent
        while up is not None:
            ancestors.append(spans[up])
            up = spans[up].parent
        calls[span.layer] += 1
        self_s[span.layer] += span.self_time
        if all(a.layer != span.layer for a in ancestors):
            busy[span.layer] += span.duration
        if all(a.name != span.name for a in ancestors):
            fn_busy[span.name] += span.duration
        fn_calls[span.name] += 1
        if span.error:
            fn_failed[span.name] += 1
        if span.layer == "cli":
            cli_self[span.command] += span.self_time
        for key, value in span.counts.items():
            if key == "ratio":
                worst_ratio = max(worst_ratio, value)
            elif key != "n":
                counts[f"{span.name}.{key}"] += value
        if span.name == "numkernel.sigma_min_batch" and span.counts:
            # Values-only SVD of an n x n complex matrix: Householder
            # bidiagonalisation, 8n^3/3 real-arithmetic flops times 4.
            counts["sigma_min_ops"] += span.counts["points"] * 32.0 * span.counts["n"] ** 3 / 3.0

    sigma_pts = counts["numkernel.sigma_min_batch.points"]
    sigma_s = fn_busy["numkernel.sigma_min_batch"]
    solves = (
        counts["approx.sweep_wilkinson.eigensolves"] + counts["approx.random_cloud.eigensolves"]
    )
    solve_s = fn_busy["approx.sweep_wilkinson"] + fn_busy["approx.random_cloud"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / per
        out[f"{layer}.busy_s"] = busy[layer] / per
        out[f"{layer}.self_s"] = self_s[layer] / per
    out.update({
        "numkernel.sigma_min_points": sigma_pts / per,
        "numkernel.sigma_min_s": sigma_s / per,
        "numkernel.sigma_min_us_per_point": 1e6 * sigma_s / sigma_pts if sigma_pts else 0.0,
        "numkernel.sigma_min_ops_computed": counts["sigma_min_ops"] / per,
        "numkernel.eig_pairs_s": fn_busy["numkernel.eig_pairs"] / per,
        "numkernel.eig_pairs_calls": fn_calls["numkernel.eig_pairs"] / per,
        "numkernel.eig_pairs_failed": fn_failed["numkernel.eig_pairs"] / per,
        "oracle.grid_field_s": fn_busy["oracle.grid_field"] / per,
        "oracle.grid_points": counts["oracle.grid_field.points"] / per,
        "oracle.cloud_inclusion_check_s": fn_busy["oracle.cloud_inclusion_check"] / per,
        "oracle.check_points": counts["oracle.cloud_inclusion_check.points"] / per,
        "oracle.abscissa_grid_s": fn_busy["oracle.abscissa_grid"] / per,
        "oracle.inclusion_worst_ratio": worst_ratio,
        "approx.sweep_wilkinson_s": fn_busy["approx.sweep_wilkinson"] / per,
        "approx.random_cloud_s": fn_busy["approx.random_cloud"] / per,
        "approx.eigensolves": solves / per,
        "approx.eigensolves_per_s": solves / solve_s if solve_s else 0.0,
        "approx.cloud_points": (
            counts["approx.sweep_wilkinson.points"] + counts["approx.random_cloud.points"]
        ) / per,
        "io.save_matrix_s": fn_busy["io.save_matrix"] / per,
        "io.load_matrix_s": fn_busy["io.load_matrix"] / per,
        "io.save_cloud_s": fn_busy["io.save_cloud"] / per,
        "io.load_cloud_s": fn_busy["io.load_cloud"] / per,
        "io.save_grid_s": fn_busy["io.save_grid"] / per,
        "io.bytes_written": counts["io.atomic_write.bytes"] / per,
        "svg.svg_render_s": fn_busy["svg.svg_render"] / per,
        "svg.bytes": counts["svg.svg_render.bytes"] / per,
        "sensitivity.analyze_s": fn_busy["sensitivity.analyze"] / per,
        "families.generate_s": fn_busy["families.generate"] / per,
    })
    for command in ("generate", "analyze", "approx", "oracle", "trajectory"):
        out[f"cli.{command}_self_s"] = cli_self[command] / per
    return out


def self_time_total(spans: list[Span]) -> float:
    """Sum of self times over every span inside a pipeline."""
    return sum(s.self_time for s in spans if s.pipeline is not None)
