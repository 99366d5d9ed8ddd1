"""Command line front end.

Subcommands:
  analytic      sample a closed-form correlation curve to CSV + JSON sidecar
  oracle-check  cross-check closed forms, path sum, and permanent evaluators
  speckle       Monte Carlo speckle run: CSV curve + JSON cosine fit
  fock          truncated Fock-space projection and factorization report
  thresholds    co-located vs spread visibility crossover table

Randomized commands take an explicit --seed; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .analytic import closed_form, crossover_threshold
from .curves import default_grid
from .fockstate import verify_isomorphism
from .geometry import TWO_PI, DetectorLayout, SourceArray, relative_gap
from .pathsum import (
    ORACLE_TOLERANCE,
    correlation_pathsum_bounded,
    correlation_permanent_bounded,
)
from .speckle import SpeckleConfig, fit_cosine, simulate_curve

ISOMORPHISM_TOLERANCE = 1e-6


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_json(payload: dict, path: str | None) -> None:
    if path is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _write_json(path, payload)
        print(f"wrote {path}")


def _sidecar_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".json"


def _write_curve(out: str, columns: dict, sidecar: dict, summary: str) -> None:
    """The columns, named by their keys, to the CSV out; sidecar to its .json."""
    sidecar_path = _sidecar_path(out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow([repr(float(v)) for v in row])
    _write_json(sidecar_path, sidecar)
    print(f"wrote {out} and {sidecar_path} ({summary})")


def _given(args: argparse.Namespace, *flags: str) -> dict:
    """The named flags that were set, by name."""
    return {f: getattr(args, f) for f in flags if getattr(args, f) is not None}


def _layout(args: argparse.Namespace, *required: tuple[str, object]) -> DetectorLayout:
    """The --layout of --m1 moving and --m2 fixed detectors; all flags must be set."""
    flags = (("--m1", args.m1), ("--m2", args.m2), *required)
    missing = [name for name, value in flags if value is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)}")
    if args.layout == "spread":
        if args.m1 != args.m2:
            raise ValueError("--layout spread requires --m1 == --m2")
        return DetectorLayout.spread(args.m1)
    return DetectorLayout.colocated(args.m1, args.m2)


def _cmd_analytic(args: argparse.Namespace) -> int:
    layout = _layout(args)
    form = closed_form(layout)
    if form is None:
        raise ValueError(f"layout {layout.describe()} has no closed form")
    if args.layout == "spread":
        out = args.out or f"analytic-spread-M{layout.order}.csv"
    else:
        out = args.out or f"analytic-colocated-m1_{args.m1}-m2_{args.m2}.csv"
    curve = form.curve(layout, default_grid(args.grid))
    _write_curve(
        out,
        {"delta1": curve.grid, "G": curve.values, "g_norm": curve.normalize().values},
        {
            "c1": form.c1,
            "c2": form.c2,
            "visibility": form.c2 / form.c1,
            "frequency": form.frequency,
            "parity_sign": form.parity_sign,
        },
        f"visibility {form.c2 / form.c1:.6g}, G(0) = {form.g(0.0):g}",
    )
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    for flag in ("max_order", "samples", "random_configs"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
    rng = np.random.default_rng(args.seed)
    two = SourceArray.equidistant(2, 1.0)
    report: dict = {"tolerance": ORACLE_TOLERANCE, "seed": args.seed}
    # one stream of draws: the spread cases first, then the co-located ones,
    # each layout built as it is checked, so a path-sum refusal stops the run
    # before the next one
    cases = itertools.chain(
        (
            ("spread_closed_form", {"order": 2 * m}, DetectorLayout.spread(m))
            for m in range(1, args.max_order // 2 + 1)
        ),
        (
            (
                "colocated_closed_form",
                {"m1": m1, "m2": m2},
                DetectorLayout.colocated(m1, m2),
            )
            for m1 in range(1, args.max_order)
            for m2 in range(1, args.max_order - m1 + 1)
        ),
    )
    report["spread_closed_form"], report["colocated_closed_form"] = [], []
    gaps, path_bound = [], 0.0
    for label, row, layout in cases:
        form = closed_form(layout)
        worst = 0.0
        for delta1 in rng.uniform(0.0, TWO_PI, size=args.samples):
            direct, bound = correlation_pathsum_bounded(
                two, layout.detector_phases(delta1)
            )
            path_bound = max(path_bound, bound)
            worst = max(worst, relative_gap(direct, form.g(delta1)))
        report[label].append({**row, "max_rel_gap": worst})
        gaps.append(worst)

    worst = largest_bound = 0.0
    for _ in range(args.random_configs):
        count = int(rng.integers(1, 4))
        order = int(rng.integers(1, min(6, args.max_order) + 1))
        nbar = tuple(rng.choice([0.5, 1.0, 2.0]) for _ in range(count))
        sources = SourceArray(nbar=nbar)
        deltas = rng.uniform(0.0, TWO_PI, size=order)
        permanent, bound = correlation_permanent_bounded(sources, deltas)
        direct, own_bound = correlation_pathsum_bounded(sources, deltas)
        worst = max(worst, relative_gap(direct, permanent))
        largest_bound = max(largest_bound, bound)
        path_bound = max(path_bound, own_bound)
    report["pathsum_vs_permanent"] = {
        "configs": args.random_configs,
        "max_rel_gap": worst,
    }
    report["permanent_error_bound"] = largest_bound
    report["pathsum_error_bound"] = path_bound

    report["max_rel_gap"] = max(gaps + [worst])
    report["pass"] = bool(report["max_rel_gap"] <= ORACLE_TOLERANCE)
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def _speckle_config(args: argparse.Namespace) -> SpeckleConfig:
    """The run of --config or of the flags, passing on only the values given."""
    if args.config is not None:
        # the file describes the run; only how it is drawn may be overridden
        run_flags = ("m1", "m2", "layout", "nbar", "sources", "grid", "slit_ratio")
        given = [f"--{flag.replace('_', '-')}" for flag in _given(args, *run_flags)]
        if given:
            raise ValueError(
                f"--config describes the run; drop {', '.join(given)} "
                "(only --frames, --seed and --workers override it)"
            )
        with open(args.config) as fh:
            config = SpeckleConfig.from_dict(json.load(fh))
    else:
        layout = _layout(args, ("--frames", args.frames), ("--seed", args.seed))
        count = 2 if args.sources is None else args.sources
        config = SpeckleConfig(
            sources=SourceArray.equidistant(count, **_given(args, "nbar")),
            layout=layout,
            frames=args.frames,
            seed=args.seed,
            **({} if args.grid is None else {"grid": default_grid(args.grid)}),
            **_given(args, "slit_ratio"),
        )
    return replace(config, **_given(args, "frames", "seed", "workers"))


def _fringe_sign(config: SpeckleConfig, frequency: int) -> int | None:
    """Closed-form sign of a two-source fringe at its frequency, for any nbar."""
    form = closed_form(config.layout)
    if config.sources.count != 2 or form is None or form.frequency != frequency:
        return None  # no closed form for this run
    return form.parity_sign if form.c2 else None  # flat for m1 < m2


def _cmd_speckle(args: argparse.Namespace) -> int:
    config = _speckle_config(args)
    out = args.out or (
        f"speckle-m1_{config.layout.m1}-m2_{config.layout.m2}"
        f"-frames_{config.frames}-seed_{config.seed}.csv"
    )
    if args.config is not None:
        for path in (out, _sidecar_path(out)):
            if os.path.exists(path) and os.path.samefile(path, args.config):
                raise ValueError(f"the run would write {path} over its --config file")
    curve = simulate_curve(config)
    frequency = args.fit_frequency
    if frequency is None:
        frequency = config.layout.m2 if config.layout.m2 >= 1 else 1
    fit = fit_cosine(curve, frequency)
    sign = _fringe_sign(config, frequency)
    normalized = curve.normalize()
    _write_curve(
        out,
        {"delta1": curve.grid, "g_norm": normalized.values, "stderr": normalized.stderr},
        {
            "A": fit.offset,
            "B": fit.amplitude,
            "visibility": fit.visibility,
            "stderr_visibility": fit.stderr_visibility,
            "stderr_amplitude": fit.stderr_amplitude,
            "frequency": fit.frequency,
            "dominant_frequency": fit.dominant_frequency,
            "parity_ok": None if sign is None else bool(fit.amplitude * sign >= 0.0),
            "seed": config.seed,
            "frames": config.frames,
        },
        f"visibility {fit.visibility:.4f} +- {fit.stderr_visibility:.4f}, "
        f"dominant frequency {fit.dominant_frequency}",
    )
    return 0


def _cmd_fock(args: argparse.Namespace) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    grid = np.linspace(0.0, TWO_PI, args.grid)
    report = verify_isomorphism(args.nbar, args.m1, args.m2, grid, args.cutoff)
    payload = {k: v for k, v in vars(report).items() if k not in ("lhs", "rhs")}
    payload["grid"] = payload.pop("deltas")
    payload["support_ok"] = report.support_ok
    payload["max_relative_gap"] = report.max_relative_gap
    payload["tolerance"] = ISOMORPHISM_TOLERANCE
    within = report.max_relative_gap <= ISOMORPHISM_TOLERANCE
    payload["pass"] = report.support_ok and within
    _emit_json(payload, args.out)
    return 0 if payload["pass"] else 1


def _cmd_thresholds(args: argparse.Namespace) -> int:
    if args.max_m2 < 2:
        raise ValueError("--max-m2 must be >= 2")
    rows = []
    table = {}
    for m2 in range(2, args.max_m2 + 1):
        m1 = crossover_threshold(m2)
        table[str(m2)] = m1
        colocated = closed_form(DetectorLayout.colocated(m1, m2))
        spread = closed_form(DetectorLayout.spread(m2))
        rows.append(
            {
                "m2": m2,
                "m1_min": m1,
                "colocated_visibility": float(colocated.visibility),
                "spread_visibility": float(spread.visibility),
            }
        )
    payload = {"thresholds": table, "detail": rows}
    _emit_json(payload, args.out)
    return 0


def _add_layout_flags(p: argparse.ArgumentParser) -> None:
    """The flags that _layout reads."""
    p.add_argument("--m1", type=int, help="moving detectors")
    p.add_argument("--m2", type=int, help="fixed detectors")
    p.add_argument("--layout", choices=("colocated", "spread"), default="colocated")


# built once: parsing leaves the parser as it was, and main runs more than once in
# a process (the test suite, the benchmark)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalnoon",
        description="Thermal-light intensity correlations at magic detector positions.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analytic", help="sample a closed-form curve to CSV")
    _add_layout_flags(p)
    p.add_argument("--grid", type=int, default=181, metavar="N")
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_analytic)

    p = sub.add_parser("oracle-check", help="cross-check the evaluators")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--samples", type=int, default=25, metavar="N")
    p.add_argument("--random-configs", type=int, default=100, metavar="N")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_oracle_check)

    # unset flags stay None, so that --config can refuse the ones it would drop
    p = sub.add_parser("speckle", help="Monte Carlo speckle run")
    _add_layout_flags(p)
    p.set_defaults(layout=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=None, metavar="N")
    p.add_argument("--nbar", type=float, default=None, metavar="X")
    p.add_argument("--sources", type=int, default=None, metavar="K")
    p.add_argument("--workers", type=int, default=None, metavar="W")
    p.add_argument("--slit-ratio", type=float, default=None)
    p.add_argument("--fit-frequency", type=int, default=None)
    p.add_argument("--config", type=str, default=None, metavar="JSON")
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_speckle)

    p = sub.add_parser("fock", help="projection and factorization report")
    p.add_argument("--nbar", type=float, default=0.5, metavar="X")
    p.add_argument("--m1", type=int, default=2)
    p.add_argument("--m2", type=int, default=2)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--grid", type=int, default=9, metavar="N")
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_fock)

    p = sub.add_parser("thresholds", help="visibility crossover table")
    p.add_argument("--max-m2", type=int, default=5)
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_thresholds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
