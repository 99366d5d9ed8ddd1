"""Spans around the calls into each thermalnoon layer, taken from outside.

A Tracer replaces the traced public functions with wrappers for the length
of one operation and puts the originals back afterwards, so untraced runs
execute the program unchanged.  Each span records its name, start, end,
parent span, operation id, process CPU time and a few size attributes read
from the call's arguments.  Spans stay in memory; the caller writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from thermalnoon import fockstate

ANALYTIC_FUNCTIONS = (
    "crossover_threshold",
    "setup1_coeffs",
    "setup1_curve",
    "setup1_g",
    "setup1_visibility",
    "setup2_coeffs",
    "setup2_curve",
    "setup2_g",
    "setup2_visibility",
)

# Counts computed from the traced calls' arguments, not measured: for a given
# seed they repeat exactly.
COMPUTED = ("speckle.frame_points", "pathsum.ryser_terms", "fockstate.tensor_bytes")

# layer module -> traced public functions.  geometry and curves are too
# small to time on their own.
TRACED = {
    "speckle": ("simulate_curve", "fit_cosine"),
    "pathsum": ("correlation_pathsum", "correlation_permanent"),
    "fockstate": ("thermal_two_mode", "project_magic", "verify_isomorphism"),
    "analytic": ANALYTIC_FUNCTIONS,
    "cli": ("main",),
}


def _speckle_attrs(args: dict) -> dict:
    config = args["config"]
    layout = config.layout
    # distinct phase columns per frame: the moving group on every grid point
    # (m1 of them per point when spread), then the fixed comb
    columns = config.grid.size * (1 if layout.moving_kind == "co-located" else layout.m1)
    if config.sources.count == 3:
        kind = "k3"
    elif layout.moving_kind == "co-located":
        kind = "colocated"
    else:
        kind = "spread"
    return {"kind": kind, "frame_points": config.frames * (columns + layout.m2)}


def _exact_attrs(args: dict) -> dict:
    return {"K": args["sources"].count, "M": len(args["deltas"])}


def _cutoff(args: dict, *orders: str) -> dict:
    cutoff = args["cutoff"]
    if cutoff is None:
        cutoff = fockstate.default_cutoff(args["nbar"], *(int(args[o]) for o in orders))
    return {"D": int(cutoff)}


ATTRIBUTES = {
    "speckle.simulate_curve": _speckle_attrs,
    "pathsum.correlation_pathsum": _exact_attrs,
    "pathsum.correlation_permanent": _exact_attrs,
    "fockstate.thermal_two_mode": lambda args: _cutoff(args),
    "fockstate.verify_isomorphism": lambda args: _cutoff(args, "m1", "m2"),
}


class Tracer:
    """Records spans for the operations run inside `operation()`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._wrappers: dict[str, tuple] = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"thermalnoon.{module_name}"]
            for name in names:
                original = getattr(module, name)
                span_name = f"{module_name}.{name}"
                self._wrappers[span_name] = (original, self._wrap(span_name, original))

    def _wrap(self, span_name: str, fn):
        signature = inspect.signature(fn)
        attributes = ATTRIBUTES.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if attributes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attributes(bound.arguments)
            span = {
                "id": len(self.spans),
                "name": span_name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op,
                "attrs": attrs,
                "error": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            cpu = time.process_time()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu
                self._stack.pop()

        return wrapper

    def _swap(self, forward: bool) -> None:
        # cli and the package namespace hold their own references to the
        # layer functions, so every thermalnoon module is patched.
        swap = {
            id(old if forward else new): (new if forward else old)
            for old, new in self._wrappers.values()
        }
        for name, module in list(sys.modules.items()):
            if name != "thermalnoon" and not name.startswith("thermalnoon."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = swap.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    @contextmanager
    def operation(self, op_id: int):
        """Trace every layer call made inside the block under `op_id`."""
        self._op = op_id
        self._swap(forward=True)
        try:
            yield
        finally:
            self._swap(forward=False)
            self._op = None


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], traced_ops: dict[int, int]) -> dict:
    """Per-layer figures for one pass over the workload's operations.

    traced_ops maps each traced operation id to the index of the workload
    operation it ran.  Additive figures (self time, calls, computed counts)
    are averaged over the traced runs of each operation and summed over
    operations, so counts repeat exactly whatever the number of passes.
    """
    own = self_times(spans)
    runs_per_op: dict[int, int] = defaultdict(int)
    for index in traced_ops.values():
        runs_per_op[index] += 1

    totals: dict[str, float] = defaultdict(float)
    per_call: dict[str, list[float]] = defaultdict(list)
    speckle_wall = speckle_cpu = 0.0
    speckle_kind_wall: dict[str, float] = defaultdict(float)
    speckle_kind_points: dict[str, int] = defaultdict(int)
    tensor_dim = 0

    for span, self_s in zip(spans, own):
        weight = 1.0 / runs_per_op[traced_ops[span["op"]]]
        name, attrs = span["name"], span["attrs"]
        duration = span["end"] - span["start"]
        layer = name.split(".")[0]
        if layer in ("analytic", "cli"):
            totals[f"{layer}.self_s"] += self_s * weight
        else:
            totals[f"{name}.self_s"] += self_s * weight
            totals[f"{name}.calls"] += weight
        if name == "speckle.simulate_curve":
            speckle_wall += duration
            speckle_cpu += span["cpu_s"]
            speckle_kind_wall[attrs["kind"]] += duration
            speckle_kind_points[attrs["kind"]] += attrs["frame_points"]
            totals["speckle.frame_points"] += attrs["frame_points"] * weight
        elif name == "speckle.fit_cosine":
            per_call["speckle.fit_cosine.ms_per_call"].append(duration * 1e3)
        elif name == "pathsum.correlation_permanent":
            totals["pathsum.ryser_terms"] += 2 ** attrs["M"] * weight
            if attrs["K"] == 2:
                per_call[f"{name}.ms_per_call.M{attrs['M']}"].append(duration * 1e3)
        elif name == "pathsum.correlation_pathsum":
            key = f"{name}.ms_per_call.K{attrs['K']}-M{attrs['M']}"
            per_call[key].append(duration * 1e3)
        elif name == "fockstate.verify_isomorphism":
            per_call[f"{name}.s_per_call.D{attrs['D']}"].append(duration)
        elif name == "fockstate.thermal_two_mode" and span["error"] is None:
            tensor_dim = max(tensor_dim, attrs["D"] + 1)

    # call counts and computed counts are whole numbers once averaged
    metrics = {
        name: round(value) if name.endswith(".calls") or name in COMPUTED else value
        for name, value in totals.items()
    }
    for name, values in per_call.items():
        metrics[name] = statistics.median(values)
    for kind, points in speckle_kind_points.items():
        metrics[f"speckle.ns_per_frame_point.{kind}"] = (
            speckle_kind_wall[kind] / points * 1e9
        )
    metrics["speckle.cpu_per_wall"] = (
        speckle_cpu / speckle_wall if speckle_wall > 0 else 0.0
    )
    metrics["fockstate.tensor_bytes"] = tensor_dim**4 * 16
    return metrics
