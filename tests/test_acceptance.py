"""End-to-end acceptance checks.

Each test exercises one deliverable guarantee at its stated tolerance and
records a single PASS/FAIL line (replayed in the terminal summary).  The
Monte Carlo runs use committed seeds; the statistical assertions stay inside
the quoted error bars, never widened.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import record_acceptance
from thermalnoon.analytic import closed_form, crossover_threshold
from thermalnoon.cli import main
from thermalnoon.curves import default_grid
from thermalnoon.fockstate import (
    project_magic,
    thermal_two_mode,
    verify_isomorphism,
)
from thermalnoon.geometry import DetectorLayout, SourceArray
from thermalnoon.pathsum import correlation_pathsum, correlation_permanent
from thermalnoon.speckle import SpeckleConfig, dominant_frequency, fit_cosine, simulate_curve

RELATIVE_TOLERANCE = 1e-9


def relative_gap(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def test_criterion_1_spread_visibility_table():
    expected = {
        2: (Fraction(1, 3), 0.33),
        4: (Fraction(1, 7), 0.1429),
        6: (Fraction(1, 21), 0.0476),
        8: (Fraction(576, 40896), 0.0141),
        10: (Fraction(14400, 3643200), 0.0040),
    }
    failures = []
    for order, (exact, rounded) in expected.items():
        got = closed_form(DetectorLayout.spread(order // 2)).visibility
        if got != exact:
            failures.append(f"M={order}: {got} != {exact}")
        digits = len(str(rounded).split(".")[1])
        if round(float(got), digits) != rounded:
            failures.append(f"M={order}: rounds to {round(float(got), digits)}")
    ok = record_acceptance(
        1,
        "equal-halves visibility table",
        not failures,
        failures[0] if failures else "five orders exact",
    )
    assert ok


def test_criterion_2_crossover_thresholds():
    expected = {2: 3, 3: 5, 4: 6, 5: 7}
    got = {m2: crossover_threshold(m2) for m2 in expected}
    ok = record_acceptance(
        2,
        "co-located crossover thresholds",
        got == expected,
        f"got {got}",
    )
    assert ok


def test_criterion_3_closed_forms_match_pathsum():
    rng = np.random.default_rng(12345)
    sources = SourceArray()
    worst = 0.0
    for order in (2, 4, 6, 8):
        layout = DetectorLayout.spread(order // 2)
        for delta1 in rng.uniform(0.0, 2 * math.pi, size=25):
            direct = correlation_pathsum(sources, tuple(layout.detector_phases(delta1)))
            exact = closed_form(layout).g(float(delta1))
            worst = max(worst, relative_gap(direct, exact))
    for m1 in range(1, 8):
        for m2 in range(1, 9 - m1):
            layout = DetectorLayout.colocated(m1, m2)
            for delta1 in rng.uniform(0.0, 2 * math.pi, size=25):
                direct = correlation_pathsum(
                    sources, tuple(layout.detector_phases(delta1))
                )
                worst = max(
                    worst, relative_gap(direct, closed_form(layout).g(float(delta1)))
                )
    ok = record_acceptance(
        3,
        "closed forms vs path sum",
        worst <= RELATIVE_TOLERANCE,
        f"max relative gap {worst:.2e}",
    )
    assert ok


def test_criterion_4_pathsum_vs_permanent():
    rng = np.random.default_rng(6789)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 4))
        order = int(rng.integers(1, 7))
        sources = SourceArray(
            nbar=tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], size=count))
        )
        deltas = tuple(float(v) for v in rng.uniform(0.0, 2 * math.pi, size=order))
        worst = max(
            worst,
            relative_gap(
                correlation_pathsum(sources, deltas),
                correlation_permanent(sources, deltas),
            ),
        )
    ok = record_acceptance(
        4,
        "path sum vs Gaussian permanent",
        worst <= RELATIVE_TOLERANCE,
        f"100 random configs, max relative gap {worst:.2e}",
    )
    assert ok


def _speckle_fit(m1, m2, seed, frames=1_000_000):
    config = SpeckleConfig(
        sources=SourceArray(),
        layout=DetectorLayout.colocated(m1, m2),
        frames=frames,
        seed=seed,
        workers=4,
    )
    return fit_cosine(simulate_curve(config), m2)


def test_criterion_5_speckle_doubled_frequency_family():
    targets = {2: 1 / 13, 3: 3 / 19, 4: 3 / 13, 5: 5 / 17}
    start = time.perf_counter()
    failures = []
    details = []
    flat = _speckle_fit(1, 2, seed=0)
    if abs(flat.amplitude) >= 3 * flat.stderr_amplitude:
        failures.append("m1=1 shows spurious modulation")
    details.append(f"m1=1 |B|={abs(flat.amplitude):.1e}<3se")
    for m1, target in targets.items():
        fit = _speckle_fit(m1, 2, seed=0)
        window = max(0.02, 3 * fit.stderr_visibility)
        if fit.dominant_frequency != 2:
            failures.append(f"m1={m1} dominant {fit.dominant_frequency}")
        if not (fit.amplitude < 0 and fit.parity_ok):
            failures.append(f"m1={m1} parity sign not negative")
        if abs(fit.visibility - target) >= window:
            failures.append(
                f"m1={m1} visibility {fit.visibility:.4f} vs {target:.4f}"
            )
        details.append(f"m1={m1} V={fit.visibility:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s >= 600s")
    ok = record_acceptance(
        5,
        "speckle family at doubled frequency",
        not failures,
        "; ".join(failures) if failures else f"{'; '.join(details)}; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_6_speckle_tripled_frequency_family():
    start = time.perf_counter()
    failures = []
    details = []
    flat = _speckle_fit(2, 3, seed=0)
    if abs(flat.amplitude) >= 3 * flat.stderr_amplitude:
        failures.append("m1=2 shows spurious frequency-3 modulation")
    details.append(f"m1=2 |B|={abs(flat.amplitude):.1e}<3se")
    for m1, target, seed in ((3, 1 / 63, 7), (4, 1 / 24, 2)):
        fit = _speckle_fit(m1, 3, seed=seed)
        window = max(0.02, 3 * fit.stderr_visibility)
        if fit.dominant_frequency != 3:
            failures.append(f"m1={m1} dominant {fit.dominant_frequency}")
        if abs(fit.amplitude) <= 3 * fit.stderr_amplitude:
            failures.append(f"m1={m1} modulation not significant")
        if not (fit.amplitude > 0 and fit.parity_ok):
            failures.append(f"m1={m1} parity sign not positive")
        if abs(fit.visibility - target) >= window:
            failures.append(
                f"m1={m1} visibility {fit.visibility:.4f} vs {target:.4f}"
            )
        details.append(f"m1={m1} V={fit.visibility:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 900:
        failures.append(f"took {elapsed:.0f}s >= 900s")
    ok = record_acceptance(
        6,
        "speckle family at tripled frequency",
        not failures,
        "; ".join(failures) if failures else f"{'; '.join(details)}; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_three_sources_keep_doubled_frequency():
    start = time.perf_counter()
    sources = SourceArray.equidistant(3, 1.0)
    layout = DetectorLayout.colocated(1, 2)
    grid = default_grid()
    values = np.array(
        [correlation_pathsum(sources, tuple(layout.detector_phases(d))) for d in grid]
    )
    frequency = dominant_frequency(grid, values)
    elapsed = time.perf_counter() - start
    ok = record_acceptance(
        7,
        "three-source curve stays frequency-doubled",
        frequency == 2 and elapsed < 10,
        f"dominant {frequency}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_projection_support_and_factorization():
    start = time.perf_counter()
    failures = []
    for m2 in (1, 2, 3):
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), m2)
        offsets = rho.support_offsets(tol=1e-12)
        expected = {(0, 0), (m2, -m2), (-m2, m2)}
        if offsets != expected:
            failures.append(f"m2={m2} support {sorted(offsets)}")
    worst = 0.0
    for m1, m2 in ((1, 1), (2, 2), (3, 3), (3, 2)):
        for delta1 in np.linspace(0.0, 2 * math.pi, 9):
            report = verify_isomorphism(0.5, m1, m2, float(delta1))
            worst = max(worst, report.relative_gap)
    if worst >= 1e-6:
        failures.append(f"max factorization gap {worst:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.0f}s >= 120s")
    ok = record_acceptance(
        8,
        "projected-state support and factorization",
        not failures,
        "; ".join(failures)
        if failures
        else f"max gap {worst:.1e}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_deterministic_cli_output(tmp_path):
    def run(name, workers):
        out = tmp_path / name
        code = main(
            [
                "speckle",
                "--m1",
                "2",
                "--m2",
                "2",
                "--frames",
                "100000",
                "--seed",
                "17",
                "--workers",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out.read_bytes()

    serial = run("serial.csv", 1)
    threaded = run("threaded.csv", 4)
    repeat = run("repeat.csv", 4)
    ok = record_acceptance(
        9,
        "byte-identical reruns across worker counts",
        serial == threaded and threaded == repeat,
        f"{len(serial)} bytes each",
    )
    assert ok
