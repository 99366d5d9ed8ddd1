"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/smoke.py

Runs every workload once with tracing off and once with it on, and checks
that each run emits exactly the metrics BENCHMARK.json declares, that each
per-layer metric is measured (non-zero) on some workload, and that a known
failing operation, the permanent at M = 18, is counted as failed instead of
stopping the run.  It also corrupts the speckle fit in-process and checks
that the Monte Carlo workloads then report correct = false.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from thermalnoon import cli, speckle  # noqa: E402
from workloads import CurveReference, check_fit  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 3


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): run_bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_declared_metrics(results, workload, trace):
    result, _ = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_measured_somewhere(results):
    measured = {
        name
        for (_, trace), (result, _) in results.items()
        if trace
        for name, metric in result["metrics"].items()
        if metric["value"] != 0
    }
    assert measured == {m["name"] for m in DECLARED["per_layer"]}


def test_known_failure_is_counted_not_fatal(results):
    result, stdout = results[("exact-oracle", 0)]
    # operations, not runs: the counts do not depend on how many passes fit
    assert result["attempted"] == len(workloads.build("exact-oracle", SEED, tiny=True))
    assert result["failed"] >= 1
    assert "FAILED permanent-M18" in stdout
    traced, _ = results[("exact-oracle", 1)]
    assert traced["metrics"]["pathsum.correlation_permanent.failed"]["value"] >= 1


def test_bare_benchmark_directory_fails(tmp_path):
    """Without the program's sources the benchmark exits non-zero, silently."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""


CORRUPTIONS = {
    "sign": lambda fit: dataclasses.replace(
        fit, amplitude=-fit.amplitude, parity_ok=not fit.parity_ok
    ),
    "frequency": lambda fit: dataclasses.replace(
        fit, dominant_frequency=fit.frequency + 1
    ),
    "visibility": lambda fit: dataclasses.replace(
        fit, visibility=fit.visibility + 10 * fit.stderr_visibility
    ),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("workload", ["mc-long", "mc-sweep"])
def test_corrupted_fit_is_not_correct(monkeypatch, capsys, workload, corruption):
    fit_cosine = speckle.fit_cosine

    def corrupted(curve, frequency):
        return CORRUPTIONS[corruption](fit_cosine(curve, frequency))

    monkeypatch.setattr(speckle, "fit_cosine", corrupted)
    monkeypatch.setattr(cli, "fit_cosine", corrupted)
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", "0", "--tiny"]  # fmt: skip
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_gross_errors_are_exact_failures():
    """Chance excuses 4-6 stderr only; beyond that, or a resolved fringe with
    the wrong frequency or sign, the check fails exactly."""
    ref = CurveReference(visibility=0.3, amplitude=0.3, dominant_frequency=2)
    fit = {"visibility": 0.3, "stderr_visibility": 0.01, "amplitude": 0.3,
           "stderr_amplitude": 0.01, "dominant_frequency": 2}  # fmt: skip
    assert check_fit(fit, ref).ok
    near = check_fit(dict(fit, visibility=0.35), ref)
    assert not near.ok and near.statistical
    for bad in (
        dict(fit, visibility=0.37),
        dict(fit, dominant_frequency=3),
        dict(fit, amplitude=-0.3),
    ):
        outcome = check_fit(bad, ref)
        assert not outcome.ok and not outcome.statistical, bad
    unresolved = dict(fit, stderr_amplitude=0.1, dominant_frequency=3)
    assert check_fit(unresolved, ref).statistical
    flat = CurveReference(visibility=0.0, amplitude=0.0, dominant_frequency=None)
    assert check_fit(dict(fit, amplitude=0.05), flat).statistical
    assert not check_fit(dict(fit, amplitude=0.07), flat).statistical
