"""Sampled correlation curves shared by the analytic and Monte Carlo routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import require_int, require_reals

DEFAULT_GRID_POINTS = 181


def default_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform delta1 grid over [0, 2*pi], endpoints included."""
    return np.linspace(0.0, 2.0 * math.pi, require_int("points", points, 2))


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """G(delta1) sampled on a phase grid.

    values are raw correlation values (combinatorial units) unless normalized
    is set, in which case max(values) == 1.  Monte Carlo curves also carry
    per-point standard errors, the per-batch means they derive from, and the
    (frames, seed) provenance; exact curves leave those None.
    """

    grid: np.ndarray
    values: np.ndarray
    order: int
    layout: str
    normalized: bool = False
    stderr: np.ndarray | None = None
    batch_means: np.ndarray | None = None
    frames: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        grid = require_reals("grid", self.grid, 2)
        values = require_reals("values", self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if np.any(values < 0.0):
            raise ValueError("correlation values must be nonnegative")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.stderr is not None:
            stderr = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", stderr)
            if stderr.shape != grid.shape:
                raise ValueError("stderr must match the grid shape")
        if self.batch_means is not None:
            bm = np.asarray(self.batch_means, dtype=float)
            object.__setattr__(self, "batch_means", bm)
            if bm.ndim != 2 or bm.shape[1] != grid.size:
                raise ValueError("batch_means must have shape (batches, grid points)")
        if self.normalized and not math.isclose(float(values.max()), 1.0, rel_tol=1e-12):
            raise ValueError("normalized curve must have max(values) == 1")

    def normalize(self) -> "CorrelationCurve":
        """Scale so the curve maximum is 1; stderr and batch means scale along."""
        peak = float(self.values.max())
        if peak <= 0.0:
            raise ValueError("cannot normalize a curve with nonpositive maximum")
        return replace(
            self,
            values=self.values / peak,
            stderr=None if self.stderr is None else self.stderr / peak,
            batch_means=None if self.batch_means is None else self.batch_means / peak,
            normalized=True,
        )
