"""Pseudothermal speckle Monte Carlo for intensity correlation curves.

Each frame draws one circular complex Gaussian amplitude per source with
mean square modulus nbar_l; a detector at phase delta sees the intensity
|sum_l exp(-1j*alpha_l*delta) * a_l|^2, and G(delta1) is the frame average of
the product of the M detector intensities.

The moving detectors sit at delta1 + offset, with one offset per distinct
position and a multiplicity for each (co-located: offset 0 taken m1 times;
spread: the magic comb, once each), so a frame's moving product is a
trigonometric polynomial of degree D = m1*(K-1) in delta1.  Each frame is
therefore sampled only at the N = 2D+1 nodes theta_n = 2*pi*n/N, and each
batch's node sums are mapped to the grid at the end by exact trigonometric
(Dirichlet-kernel) interpolation; the cost per frame does not depend on the
grid size.  The single-slit factor env(delta) = sin(x)/x with
x = delta*slit_ratio/2 (1 for point sources) is deterministic, so it is
applied after interpolation as the per-grid-point factor prod_d env(phase_d)^2
over the detector phases of layout.detector_phases(delta1).

Determinism contract: frames are split into min(20, frames) contiguous batches
of fixed sizes; batch b draws from its own counter-based substream
Philox(key=seed, counter lane b) in chunks of up to CHUNK_FRAMES frames, each
chunk taking standard normals of shape (chunk frames, 2K) as the real then
imaginary parts of the amplitudes; batch partial sums are combined in batch
order.  Within a chunk every array is laid out (phase column, frame): each
node's product is summed over the chunk's frames as one contiguous row, and
the chunk sums are added in draw order, with no BLAS call anywhere.  The
layout decides only the rounding; which normals each frame gets and the
batch order are fixed by the seed as above.  The result is bit-identical for
any worker count, and the batch means feed the stderr estimate and the
bootstrap in fit_cosine.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .curves import CorrelationCurve, default_grid
from .errors import AccumulatorOverflowError
from .geometry import (
    TWO_PI,
    DetectorLayout,
    SourceArray,
    comb_sign,
    require_field,
    require_int,
    require_real,
)

CHUNK_FRAMES = 4096
MAX_BATCHES = 20
BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True, eq=False)
class SpeckleConfig:
    """Everything a simulation run depends on; same config + seed, same curve."""

    sources: SourceArray
    layout: DetectorLayout
    frames: int
    seed: int
    grid: np.ndarray = field(default_factory=default_grid)
    slit_ratio: float = 0.0
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", require_int("frames", self.frames, 1))
        seed = require_int("seed", self.seed, 0)
        if seed >= 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        object.__setattr__(self, "seed", seed)
        grid = np.asarray(self.grid)
        if grid.dtype.kind not in "iuf" or grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-d numbers with at least two points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "grid", grid.astype(float, copy=False))
        slit_ratio = require_real("slit_ratio", self.slit_ratio)
        if not (0.0 <= slit_ratio < 1.0):
            raise ValueError("slit_ratio must lie in [0, 1)")
        object.__setattr__(self, "slit_ratio", slit_ratio)
        object.__setattr__(self, "workers", require_int("workers", self.workers, 1))

    def to_dict(self) -> dict:
        return {
            "sources": self.sources.to_dict(),
            "layout": self.layout.to_dict(),
            "frames": self.frames,
            "seed": self.seed,
            "grid": [float(g) for g in self.grid],
            "slit_ratio": self.slit_ratio,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpeckleConfig":
        return cls(
            sources=SourceArray.from_dict(require_field(data, "sources")),
            layout=DetectorLayout.from_dict(require_field(data, "layout")),
            frames=require_field(data, "frames"),
            seed=require_field(data, "seed"),
            grid=data["grid"] if "grid" in data else default_grid(),
            slit_ratio=data.get("slit_ratio", 0.0),
            workers=data.get("workers", 1),
        )


def _batch_sizes(frames: int) -> list[int]:
    n = min(MAX_BATCHES, frames)
    base, rem = divmod(frames, n)
    return [base + 1] * rem + [base] * (n - rem)


def _node_count(config: SpeckleConfig) -> int:
    """2D+1 nodes fix a trigonometric polynomial of degree D = m1*(K-1)."""
    return 2 * config.layout.m1 * (config.sources.count - 1) + 1


def _phase_table(config: SpeckleConfig, offsets: np.ndarray) -> np.ndarray:
    """Detector phases: every node shifted by each moving offset, then fixed."""
    count = _node_count(config)
    nodes = TWO_PI * np.arange(count) / count
    moving = (offsets[:, None] + nodes[None, :]).ravel()
    return np.concatenate(
        [moving, np.asarray(config.layout.fixed_phases, dtype=float)]
    )


def _envelope(phases: np.ndarray, slit_ratio: float) -> np.ndarray:
    if slit_ratio == 0.0:
        return np.ones_like(phases)
    # np.sinc is sin(pi x)/(pi x); we want sin(y)/y with y = delta*slit_ratio/2
    return np.sinc(phases * slit_ratio / (2.0 * math.pi))


def _envelope_factor(config: SpeckleConfig) -> np.ndarray:
    """Per grid point, the product over all M detectors of env(phase)^2."""
    phases = np.array([config.layout.detector_phases(d) for d in config.grid])
    return np.prod(_envelope(phases, config.slit_ratio) ** 2, axis=1)


def _node_weights(grid: np.ndarray, nodes: int) -> np.ndarray:
    """weights[g, n]: Dirichlet kernel of degree (nodes-1)/2 at grid[g] - theta_n."""
    theta = TWO_PI * np.arange(nodes) / nodes
    harmonics = np.arange(1, (nodes - 1) // 2 + 1)
    gap = grid[:, None] - theta[None, :]
    return (1.0 + 2.0 * np.cos(gap[:, :, None] * harmonics).sum(axis=2)) / nodes


def _chunk_node_sums(
    normals: np.ndarray,
    table: np.ndarray,
    counts: np.ndarray,
    nodes: int,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One chunk's sum over frames of the M-detector intensity product, per node.

    normals holds the chunk's standard normals, (frames, 2K).  Every array is
    laid out (phase column, frame), so numpy's inner loops run over frames,
    and integer powers are taken by repeated squaring.  work holds the
    batch's flat buffers for the fields, one source's term and the product,
    each with room for the chunk's (rows, frames) as a contiguous block.
    """
    (k, columns), frames = table.shape, normals.shape[0]
    fields, term, product = (
        w[: rows * frames].reshape(rows, frames)
        for w, rows in zip(work, (columns, columns, nodes))
    )
    amps = np.empty((k, frames), dtype=complex)
    amps.real, amps.imag = normals[:, :k].T, normals[:, k:].T
    np.multiply(table[0][:, None], amps[0], out=fields)
    for l in range(1, k):
        fields += np.multiply(table[l][:, None], amps[l], out=term)
    # |field|^2 in place of the real parts: a strided (columns, frames) view
    intensity = np.square(fields.real, out=fields.real)
    intensity += np.square(fields.imag, out=fields.imag)
    moving_columns = counts.size * nodes
    product[:] = np.prod(intensity[moving_columns:], axis=0)
    groups = intensity[:moving_columns].reshape(counts.size, nodes, frames)
    for power, count in zip(groups, counts.tolist()):
        while True:
            if count & 1:
                product *= power
            count >>= 1
            if not count:
                break
            np.multiply(power, power, out=power)
    return product.sum(axis=1)


def _run_batch(
    config: SpeckleConfig,
    table: np.ndarray,
    counts: np.ndarray,
    batch_index: int,
    batch_frames: int,
) -> np.ndarray:
    rng = np.random.Generator(
        np.random.Philox(key=config.seed, counter=[0, 0, 0, batch_index])
    )
    k = config.sources.count
    nodes = _node_count(config)
    # allocated once per batch: fresh per-chunk temporaries made the allocator
    # return their pages and fault them in again for every chunk
    width, columns = min(CHUNK_FRAMES, batch_frames), table.shape[1]
    work = (
        np.empty(columns * width, dtype=complex),
        np.empty(columns * width, dtype=complex),
        np.empty(nodes * width),
    )
    sums = np.zeros(nodes)
    remaining = batch_frames
    while remaining:
        f = min(CHUNK_FRAMES, remaining)
        normals = rng.standard_normal((f, 2 * k))
        sums += _chunk_node_sums(normals, table, counts, nodes, work)
        del normals  # freed before the next chunk is drawn
        remaining -= f
    if not np.all(np.isfinite(sums)):
        raise AccumulatorOverflowError(
            f"batch {batch_index} accumulated non-finite values"
        )
    return sums


def simulate_curve(config: SpeckleConfig) -> CorrelationCurve:
    """Frame-averaged correlation curve with batch-means standard errors.

    Raw values converge to the path-sum/permanent values of the same sources
    and layout (combinatorial units); normalize() rescales for plotting.
    """
    # distinct moving-detector offsets from delta1, and the detectors at each
    offsets, counts = np.unique(config.layout.moving_offsets, return_counts=True)
    phases = _phase_table(config, offsets)
    alphas = np.asarray(config.sources.prefactors, dtype=float)
    scale = np.sqrt(np.asarray(config.sources.nbar) / 2.0)
    # table[l, c] = sqrt(nbar_l / 2) * exp(-1j*alpha_l*delta_c): what a unit
    # standard normal pair of source l puts on phase column c
    table = scale[:, None] * np.exp(-1j * alphas[:, None] * phases[None, :])

    sizes = _batch_sizes(config.frames)
    if config.workers == 1:
        node_sums = [
            _run_batch(config, table, counts, b, size)
            for b, size in enumerate(sizes)
        ]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            node_sums = list(
                pool.map(
                    lambda args: _run_batch(config, table, counts, *args),
                    list(enumerate(sizes)),
                )
            )
    weights = _node_weights(config.grid, _node_count(config))
    # (batches, grid), combined in batch order; the node-to-grid map is an
    # explicit broadcast and a sum over the nodes, not BLAS
    sums = (np.stack(node_sums)[:, None, :] * weights[None, :, :]).sum(axis=2)
    sums *= _envelope_factor(config)[None, :]
    # every frame's product is nonnegative at every phase; interpolation can
    # leave a near-zero point a few rounding errors of the node sums below 0
    np.maximum(sums, 0.0, out=sums)
    values = sums.sum(axis=0) / config.frames
    size_arr = np.asarray(sizes, dtype=float)
    batch_means = sums / size_arr[:, None]
    if len(sizes) >= 2:
        stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(len(sizes))
    else:
        stderr = np.zeros_like(values)
    return CorrelationCurve(
        grid=config.grid,
        values=values,
        order=config.layout.order,
        layout=f"{config.layout.describe()};sources={config.sources.count}",
        stderr=stderr,
        batch_means=batch_means,
        frames=config.frames,
        seed=config.seed,
    )


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of A + B*cos(frequency*delta1) to a curve.

    parity_ok is fit_cosine's sign rule, valid for two-source co-located layouts.
    """

    offset: float
    amplitude: float
    frequency: int
    visibility: float
    stderr_visibility: float
    stderr_amplitude: float
    dominant_frequency: int | None
    parity_ok: bool


def dominant_frequency(grid: np.ndarray, values: np.ndarray) -> int | None:
    """Strongest nonzero Fourier component, in cycles per 2*pi of delta1.

    Needs a uniform grid; a duplicated 2*pi endpoint is dropped before the
    transform.  Returns None when the grid is non-uniform or too short.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    steps = np.diff(grid)
    if grid.size < 4 or not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
        return None
    step = float(steps[0])
    span = float(grid[-1] - grid[0])
    if abs(span - TWO_PI) < 1e-9:
        samples = values[:-1]
    else:
        samples = values
    period = len(samples) * step
    spectrum = np.abs(np.fft.rfft(samples))
    if spectrum.size < 2:
        return None
    k = 1 + int(np.argmax(spectrum[1:]))
    return int(round(k * TWO_PI / period))


def fit_cosine(curve: CorrelationCurve, frequency: int) -> FitResult:
    """Fit A + B*cos(frequency*delta1); bootstrap errors come from batch means.

    One least-squares map P (lstsq's minimum-norm answer) fits the curve and
    each batch mean; a bootstrap resample averages its batches' coefficients.
    The curve must span at least one period.  parity_ok: the sign of B is
    comb_sign(frequency) = (-1)**(frequency - 1), a rule of two-source
    co-located fringes only.
    """
    frequency = require_int("frequency", frequency, 1)
    grid = curve.grid
    span = float(grid.max() - grid.min())
    if span + 1e-9 < TWO_PI / frequency:
        raise ValueError(
            f"grid spans {span:.6f} rad but one period at frequency "
            f"{frequency} needs {TWO_PI / frequency:.6f}"
        )
    design = np.column_stack([np.ones_like(grid), np.cos(frequency * grid)])
    # lstsq's cutoff: a rank-deficient design gets its minimum-norm answer
    projection = np.linalg.pinv(design, rcond=max(design.shape) * np.finfo(float).eps)
    offset, amplitude = (float(c) for c in projection @ curve.values)
    if offset <= 0.0:
        raise ValueError("fitted offset must be positive for a visibility")
    stderr_vis = stderr_amp = 0.0
    if curve.batch_means is not None and curve.batch_means.shape[0] >= 2:
        nb = curve.batch_means.shape[0]
        rng = np.random.Generator(
            np.random.Philox(key=curve.seed or 0, counter=[0, 0, 1, 0])
        )
        # one call draws what BOOTSTRAP_RESAMPLES successive draws of nb would
        picks = rng.integers(0, nb, size=(BOOTSTRAP_RESAMPLES, nb))
        offsets, amplitudes = (curve.batch_means @ projection.T)[picks].mean(axis=1).T
        stderr_vis = float((np.abs(amplitudes) / offsets).std(ddof=1))
        stderr_amp = float(amplitudes.std(ddof=1))
    return FitResult(
        offset=offset,
        amplitude=amplitude,
        frequency=frequency,
        visibility=abs(amplitude) / offset,
        stderr_visibility=stderr_vis,
        stderr_amplitude=stderr_amp,
        dominant_frequency=dominant_frequency(grid, curve.values),
        parity_ok=bool(amplitude * comb_sign(frequency) >= 0.0),
    )
