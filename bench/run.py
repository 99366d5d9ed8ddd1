#!/usr/bin/env python3
"""thermalnoon benchmark: one workload per process, tracing off or on.

    python3 bench/run.py --workload mc-long --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  A run
repeats the workload's fixed list of operations in complete passes until the
next pass would end after --seconds from the start of the run (at least one
pass), checks every operation's output, and prints readable lines followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

wall_s is the time of one pass, each operation counted at its median run;
setup_s is the median of 11 fresh processes, spread over the run, from
start-up to the first timed operation (imports and input generation).
Both are given at a reference host speed: each set-up and each operation
runs right after a gauge, a fixed computation of the same kind, and its time
is scaled by the gauge's reference time over the gauge's time (gauge.py).

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics.  A traced run executes every operation
twice in a row, untraced and traced, so trace.overhead_s compares like with
like.  The full record (provenance, every operation, the spans) goes to
.bench_out/<workload>-seed<seed>-trace<trace>.json; CLI outputs go to a
temporary directory under .bench_out that is removed at the end.

Workload inputs are generated from --seed and the program only receives
them.  `correct` is false when a check fails outside the two known defects
listed in workloads.py, unless the miss is one that chance explains (see
is_correct).  `attempted` is the number of operations in the workload and
`failed` the number of them with a miss on any pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes, not for timing"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclass
class Execution:
    op: int
    traced: bool
    seconds: float
    cpu_seconds: float
    outcome: object  # workloads.Outcome
    scale: float  # seconds now to seconds at the gauge's reference speed


def execute(op, index: int, tmp: Path, kind: str, tracer=None, op_id: int = 0) -> Execution:
    from workloads import TYPED_ERRORS, Outcome

    scale = gauge.scale(kind)
    with tracer.operation(op_id) if tracer is not None else nullcontext():
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result, error = op.run(tmp), None
        except TYPED_ERRORS as exc:
            result, error = None, exc
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if error is not None:
            outcome = Outcome(False, f"{type(error).__name__}: {error}")
        else:
            outcome = op.check(result, tmp)
    return Execution(index, tracer is not None, seconds, cpu, outcome, scale)


def drive(
    ops: list,
    seconds: float,
    tmp: Path,
    tracer,
    set_up: Callable[[], tuple[float, float]],
    probes: int,
    kind: str,
) -> tuple[list[Execution], list[tuple[float, float]]]:
    """Run complete passes until the next one would end after `seconds`.

    The set-up probes are spread evenly over the run, at pass boundaries, so
    that setup_s and wall_s sample the host over the same stretch of time;
    probes still due when the passes end run last.
    """
    runs: list[Execution] = []
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    last_pass = 0.0
    passes = 0
    while not runs or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        while len(setup) < probes and len(setup) * seconds <= (pass_start - start) * probes:
            setup.append(set_up())
        # With tracing on, every operation runs untraced and traced back to
        # back; the order flips each pass so that warm-up does not bias
        # trace.overhead_s.
        modes = [None] if tracer is None else [None, tracer][:: 1 - 2 * (passes % 2)]
        for index, op in enumerate(ops):
            for mode in modes:
                runs.append(execute(op, index, tmp, kind, mode, len(runs)))
        last_pass = time.perf_counter() - pass_start
        passes += 1
    while len(setup) < probes:
        setup.append(set_up())
    return runs, setup


def pass_wall(runs: list[Execution], traced: bool) -> float:
    """Time to finish one pass: the sum over operations of their median run."""
    times: dict[int, list[float]] = defaultdict(list)
    for run in runs:
        if run.traced == traced:
            times[run.op].append(run.seconds * run.scale)
    return sum(statistics.median(t) for t in times.values())


def probe_argv(args: argparse.Namespace) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]  # fmt: skip
    return argv + ["--tiny"] if args.tiny else argv


def set_up(argv: list[str]) -> tuple[float, float]:
    """Process start to the first timed operation, in a fresh process.

    Returns the interpreter gauge's scale (start-up is imports, which is
    interpreter work) and the seconds.
    """
    scale = gauge.scale("interpreter")
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return scale, elapsed


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import thermalnoon

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)  # fmt: skip
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "thermalnoon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thermalnoon": thermalnoon.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def failed_ops(runs: list[Execution]) -> set[int]:
    """The operations with a failed run.

    An operation's inputs are fixed, so its outcome is the same on every pass;
    counting operations rather than runs keeps `attempted` and `failed` free
    of the number of passes that fit into --seconds.
    """
    return {run.op for run in runs if not run.outcome.ok}


def end_to_end(ops: list, runs: list[Execution], setup: list[tuple[float, float]]) -> dict:
    wall = pass_wall(runs, traced=False)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(scale * s for scale, s in setup),
        "host_speed": statistics.median(r.scale for r in runs),
        "fail_frac": len(failed_ops(runs)) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    frames = sum(op.frames for op in ops)
    if frames:
        metrics["frames_per_s"] = frames / wall
    if len(ops) == 1 and runs[0].outcome.stderr_visibility is not None:
        # a single Monte Carlo run (mc-long): wall time to a +-0.01 visibility
        # error bar, from stderr ~ 1/sqrt(frames)
        metrics["time_to_1pct_vis_s"] = wall * (runs[0].outcome.stderr_visibility / 0.01) ** 2
    return metrics


def per_layer(ops: list, runs: list[Execution], spans: list[dict]) -> dict:
    from tracing import layer_metrics
    from workloads import FOCK_FAILED, PERMANENT_FAILED

    traced_ops = {i: run.op for i, run in enumerate(runs) if run.traced}
    metrics = layer_metrics(spans, traced_ops)
    for counter in (PERMANENT_FAILED, FOCK_FAILED):
        metrics[counter] = sum(ops[op].failed_counter == counter for op in failed_ops(runs))
    gaps = [r.outcome.rel_err for r in runs
            if r.outcome.rel_err is not None and ops[r.op].failed_counter == PERMANENT_FAILED]  # fmt: skip
    metrics["pathsum.correlation_permanent.max_rel_err"] = max(gaps, default=0.0)
    metrics["trace.overhead_s"] = pass_wall(runs, traced=True) - pass_wall(runs, traced=False)
    return metrics


def is_correct(ops: list, runs: list[Execution]) -> bool:
    """False on any miss outside the known defects that chance cannot explain.

    That is an exact miss, or statistical misses on more than one operation
    of a run.  On a workload with a single Monte Carlo operation any miss
    counts: its one check is all the evidence the run has.
    """
    statistical_misses = set()
    for run in runs:
        outcome = run.outcome
        if outcome.ok or ops[run.op].known_defect:
            continue
        if not outcome.statistical:
            return False
        statistical_misses.add(run.op)
    allowed = 1 if sum(op.frames > 0 for op in ops) > 1 else 0
    return len(statistical_misses) <= allowed


UNITS = {"fail_frac": "1", "frames_per_s": "1/s", "time_to_1pct_vis_s": "s",
         "host_speed": "1"}  # fmt: skip
READABLE = ("wall_s", "setup_s", "fail_frac", "peak_rss_mb", "frames_per_s",
            "time_to_1pct_vis_s", "host_speed")  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import thermalnoon
    except ImportError as exc:
        print(f"error: cannot import thermalnoon from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(thermalnoon.__file__).resolve().parents:
        print(f"error: thermalnoon was imported from {thermalnoon.__file__}, "
              f"not from {SRC}", file=sys.stderr)  # fmt: skip
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)  # fmt: skip
        return 2
    ops = workloads.build(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(UNITS)

    argv = probe_argv(args)
    probes = 3 if args.tiny else SETUP_PROBES
    tracer = tracing.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        kind = workloads.GAUGE_KIND[args.workload]
        runs, setup = drive(ops, args.seconds, tmp, tracer, lambda: set_up(argv), probes, kind)
    finally:
        shutil.rmtree(tmp)

    metrics = end_to_end(ops, runs, setup)
    if args.trace:
        metrics.update(per_layer(ops, runs, tracer.spans))
    for metric in section:
        metrics.setdefault(metric["name"], 0)
    attempted = len(ops)
    failed = len(failed_ops(runs))
    passes = sum(not r.traced for r in runs) // len(ops)
    correct = is_correct(ops, runs)
    prov = provenance(args)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  passes {passes}  runs {len(runs)}  "
          f"set-ups {len(setup)}")  # fmt: skip
    names = READABLE + tuple(m["name"] for m in section if m["name"] not in READABLE)
    for name in names:
        if name in metrics and (args.trace or name in READABLE):
            label = "  (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:<50} {metrics[name]:>14.6g} {units[name]}{label}")
    for index, op in enumerate(ops):
        outcomes = [r.outcome for r in runs if r.op == index]
        if not outcomes[0].ok:
            note = f"  [{op.known_defect}]" if op.known_defect else ""
            print(f"  FAILED {op.name}: {outcomes[0].detail}{note}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "metrics": metrics,
        "computed": list(tracing.COMPUTED),
        "set_ups": [{"scale": scale, "setup_s": s} for scale, s in setup],
        "operations": [
            {"name": ops[r.op].name, "traced": r.traced, "seconds": r.seconds,
             "cpu_seconds": r.cpu_seconds, "scale": r.scale, "ok": r.outcome.ok, "detail": r.outcome.detail}  # fmt: skip
            for r in runs
        ],
        "spans": tracer.spans if tracer else [],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
