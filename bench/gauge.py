"""Gauges: fixed computations that show how fast the host runs right now.

A shared host changes speed by up to 2x, within seconds and over minutes;
CPU time follows wall time, so the cores run slower rather than being taken
away.  Interpreter-bound code slows more than vectorised numpy code.  Every
timed operation and every set-up runs right after a gauge of its own kind of
work, and its time is reported at the host speed where that gauge takes its
reference time:

    seconds * REFERENCE_S[kind] / gauge seconds

The reference times are the gauges' typical times on a 2-vCPU Xeon, so the
figures stay close to seconds there.  The gauges are the benchmark's own
code: a change to the program moves the operation's time and not the gauge.
"""

from __future__ import annotations

import time

import numpy as np

_TABLE = np.exp(-1j * np.outer([1.0, -1.0], np.linspace(0.0, 2.0 * np.pi, 181)))


def interpreter() -> None:
    """A Python loop over short complex vectors, like the Ryser permanent's."""
    vector, factor, total = np.ones(16, dtype=complex), np.full(16, 1 + 1e-7j), 0j
    for _ in range(6_000):
        vector *= factor
        total += np.prod(vector)


def vector() -> None:
    """Gaussian fields over a 181-point phase table, like a speckle batch."""
    rng = np.random.default_rng(0)
    for _ in range(6):
        z = rng.standard_normal((2048, 4))
        amps = z[:, :2] + 1j * z[:, 2:]
        fields = amps[:, :1] * _TABLE[0] + amps[:, 1:] * _TABLE[1]
        intensity = fields.real**2 + fields.imag**2
        (intensity**3).sum()


KERNELS = {"interpreter": interpreter, "vector": vector}
REFERENCE_S = {"interpreter": 0.04, "vector": 0.075}


def scale(kind: str) -> float:
    """Runs the gauge; the factor from seconds now to reference seconds."""
    start = time.perf_counter()
    KERNELS[kind]()
    return REFERENCE_S[kind] / (time.perf_counter() - start)
