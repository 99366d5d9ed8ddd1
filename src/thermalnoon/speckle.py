"""Pseudothermal speckle Monte Carlo for intensity correlation curves.

Each frame draws one circular complex Gaussian amplitude per source with
mean square modulus nbar_l; a detector at phase delta sees the intensity
|sum_l exp(-1j*l*delta) * a_l|^2, and G(delta1) is the frame average of
the product of the M detector intensities.  That intensity is the real
trigonometric polynomial c0 + 2 Re sum_{d=1}^{K-1} Y_d exp(-1j*d*delta), whose
2K-1 real coefficients are the frame's autocorrelation of the amplitudes:
c0 = sum_l |a_l|^2 and Y_d = sum_m a_(m+d) conj(a_m).  So a frame's intensities
are built from those coefficients and a fixed table of 2cos(d*delta) and
2sin(d*delta) rows, all in real arithmetic; no complex field is formed.  The
sum of terms is nonnegative only up to rounding: near a dark fringe an
intensity, and so a product, can come out a few rounding errors below zero.

The moving detectors sit at delta1 + offset, with one offset per distinct
position and a multiplicity for each (co-located: offset 0 taken m1 times;
spread: the magic comb, once each), so a frame's moving product is a
trigonometric polynomial of degree D = m1*(K-1) in delta1.  When a shift by
2*pi/p maps the offsets onto themselves (p = m for the comb of m, 1 when
co-located), it has period 2*pi/p and degree D' = floor(D/p) in p*delta1.
So each frame is sampled only at the N = 2D'+1 nodes theta_n = 2*pi*n/(p*N),
and each batch's node sums are mapped to the grid at the end by exact
trigonometric (Dirichlet-kernel) interpolation in p*delta1; the cost per frame
does not depend on the grid size.  The single-slit factor env(delta) = sin(x)/x
with x = delta*slit_ratio/2 (1 for point sources) is deterministic, so it is
applied after interpolation as the per-grid-point factor prod_d env(phase_d)^2
over the detector phases of layout.detector_phases(delta1).  _plan derives p,
N, a column per distinct phase, the grid weights and this factor once per run.

Each frame is weighted by c_M / s^M, s = sum_l |z_l|^2 over its unit-variance
complex normals z_l = a_l / sqrt(nbar_l), c_M = E[s^M] = (K+M-1)!/(K-1)!: s ~
Gamma(K, 1) is independent of z / sqrt(s), and the product is homogeneous of
degree M in s, so the mean is kept and the brightness integrated out exactly.
The weighted product does not change under a common phase, z -> exp(i psi) z,
so each frame is drawn turned by -arg z_0: z_0 = sqrt(E), E ~ Exp(1), real,
and z_1..z_(K-1) circular complex normals, which are independent of arg z_0.
Every frame's value keeps its law, drawn from 2K-1 variates instead of 2K.

Determinism contract: frames are split into min(20, frames) contiguous batches
of fixed sizes; batch b draws from its own substream, an SFC64 seeded by
SeedSequence(seed, spawn_key=(0, b)), in chunks of up to CHUNK_FRAMES frames
from the batch's start, each chunk of f frames taking f standard exponentials
E, then standard normals of shape (f, 2K-2): times sqrt(2), z_0 is sqrt(2E),
and z_1..z_(K-1) take the normals as real then imaginary parts; batch partial
sums are combined in batch order.  Work units, fixed by the batch sizes
alone, run the batches: those that fit in one chunk together share it, each
in its own slice, in batch order; a larger batch is a unit of its own.
Within a chunk every array is real and laid out (row, frame): each node's
product is summed over a batch's frames as one contiguous row, and a batch's
chunk sums are added in draw order, with no BLAS call anywhere.  Each worker
thread draws its chunks into one block and runs them through numpy calls
bound once per chunk width and kept for the run (_Worker).  The layout
decides only the rounding; the seed fixes each frame's variates and the batch order.
The result is bit-identical for any worker count, and the batch means feed
the stderr estimate and fit_cosine's error bars, which draw no variates.
"""

from __future__ import annotations

import functools
import math
import queue
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
    refuse_unknown_fields,
    require_field,
    require_int,
    require_real,
    require_reals,
)

CHUNK_FRAMES = 5600
MAX_BATCHES = 20


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
        object.__setattr__(self, "grid", require_reals("grid", self.grid, 2))
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
        """The run a to_dict() describes; an absent optional field takes its default.

        A key that names no field is refused, so a misspelt one never runs at
        the default.
        """
        config = cls(
            sources=SourceArray.from_dict(require_field(data, "sources")),
            layout=DetectorLayout.from_dict(require_field(data, "layout")),
            frames=require_field(data, "frames"),
            seed=require_field(data, "seed"),
            **{k: data[k] for k in ("grid", "slit_ratio", "workers") if k in data},
        )
        refuse_unknown_fields(data, cls.__dataclass_fields__, "config")
        return config


def _batch_sizes(frames: int) -> list[int]:
    n = min(MAX_BATCHES, frames)
    base, rem = divmod(frames, n)
    return [base + 1] * rem + [base] * (n - rem)


def _period(offsets: np.ndarray, counts: np.ndarray) -> int:
    """Largest p whose shift by 2*pi/p maps the offsets, counts each, onto themselves."""
    # each orbit of the shift holds p distinct offsets, so p divides their number
    for p in [p for p in range(offsets.size, 1, -1) if offsets.size % p == 0]:
        gap = (offsets[:, None] + TWO_PI / p - offsets) % TWO_PI
        # within 1e-12 rad, each offset must land on one of its multiplicity
        if np.array_equal((np.minimum(gap, TWO_PI - gap) <= 1e-12) @ counts, counts):
            return p
    return 1


def _plan(config: SpeckleConfig) -> tuple:
    """The run's set-up, derived once: (table, counts, nodes, fixed, weights, envelope).

    table: rows 1, 2cos(d*delta), 2sin(d*delta), d = 1..K-1, over the phase
    columns, each node theta_n = 2*pi*n/(N*p) past each distinct moving offset
    (counts: the detectors at each), then each fixed phase that is bit-equal
    to no column before it.  fixed: each fixed detector's column.  nodes: N = 2D'+1.
    weights[g, n]: the Dirichlet kernel, degree (N-1)/2, at p*grid[g] - 2*pi*n/N.
    envelope: per grid point, the product over all M detectors of env(phase)^2.
    """
    # at most M offsets: counted in Python, sorted as np.unique would sort them
    moving = config.layout.moving_offsets
    offsets = np.array(sorted(set(moving)))
    counts = np.array([moving.count(offset) for offset in offsets.tolist()])
    p, k = _period(offsets, counts), config.sources.count
    nodes = 2 * (config.layout.m1 * (k - 1) // p) + 1
    theta = TWO_PI * np.arange(nodes) / (nodes * p)
    # a fixed detector reads a column of its phase's bits: node 0 when co-located
    nodal = (offsets[:, None] + theta[None, :]).ravel().tolist()
    bits = [phase.hex() for phase in nodal]
    for phase in config.layout.fixed_phases:
        bits += [phase.hex()] * (phase.hex() not in bits)
    fixed = [bits.index(phase.hex()) for phase in config.layout.fixed_phases]
    phases = np.array([float.fromhex(b) for b in bits])
    angles = np.arange(1, k)[:, None] * phases[None, :]
    table = np.vstack([np.ones_like(phases), 2.0 * np.cos(angles), 2.0 * np.sin(angles)])
    harmonics = np.arange(1, (nodes - 1) // 2 + 1)
    gap = p * config.grid[:, None] - TWO_PI * np.arange(nodes)[None, :] / nodes
    weights = (1.0 + 2.0 * np.cos(gap[:, :, None] * harmonics).sum(axis=2)) / nodes
    # np.sinc is sin(pi x)/(pi x); env is sin(y)/y with y = delta*slit_ratio/2
    slit = config.layout.detector_phases(config.grid) * config.slit_ratio
    envelope = np.prod(np.sinc(slit / (2.0 * math.pi)) ** 2, axis=1)
    return table, counts, nodes, fixed, weights, envelope


class _Worker:
    """A worker thread's block for a run, and every chunk pipeline bound to it.

    Every chunk width bound stays bound for the run.  The block holds chunks
    of up to width frames, the run's widest unit: (2K-1) + max(5K-2, columns
    + nodes) rows, 26 floats a frame at colocated(5, 2), 1.16 MB at 5600
    frames, reused so that no chunk faults in fresh pages.
    """

    def __init__(self, config: SpeckleConfig, plan: tuple, width: int) -> None:
        (table, _, nodes), k = plan[:3], config.sources.count
        self.config, self.plan, self.width, self.pipelines = config, plan, width, {}
        rows = table.shape[0] * width
        block = np.empty(rows + max(5 * k - 2, table.shape[1] + nodes) * width)
        self.coefs, self.room = block[:rows], block[rows:]
        self.exponentials = self.coefs[:width]
        self.normals = self.room[: (2 * k - 2) * width].reshape(width, 2 * k - 2)

    def pipeline(self, frames: int) -> tuple[list, np.ndarray]:
        """The bound numpy calls of a chunk of `frames` frames, and its product rows.

        Bound once to views of the block and kept for the run, they run once
        the chunk is drawn: the coefficient rows, the first holding the
        exponentials E until c0 is formed, then the room, the normals
        (frames, 2K-2) first.  Source 0's rows are x_0 = sqrt(2E) and y_0 = 0,
        then x_l and y_l of sources 1..K-1, times sqrt(nbar_l / nbar_0) at
        unequal brightness, and -x_l; their 3K rows follow the normals.  2s
        overwrites the dead normals, the intensities and product the room from
        its start.  A frame's product is P / (nbar_0 s)^M.  Rows are scaled and
        divided one by one: numpy buffers an operand broadcast over rows of up
        to 4096 frames.
        """
        if frames in self.pipelines:
            return self.pipelines[frames]
        (table, counts, nodes, fixed), k = self.plan[:4], self.config.sources.count
        (rows, columns), nbar, room = table.shape, self.config.sources.nbar, self.room
        coefs = self.coefs[: rows * frames].reshape(rows, frames)
        parts = room[(2 * k - 2) * frames : (5 * k - 2) * frames].reshape(3 * k, frames)
        a = parts[: 2 * k].reshape(2, k, frames)
        turned = parts[k:].reshape(2, k, frames)
        normals = room[: (2 * k - 2) * frames].reshape(frames, 2 * k - 2).T
        c, x0, divisor, call = list(coefs), parts[0], coefs[0], functools.partial
        calls = [call(np.add, c[0], c[0], x0), call(np.sqrt, x0, x0)]
        calls.append(call(parts[k].fill, 0.0))
        calls.append(call(np.copyto, a[:, 1:], normals.reshape(2, k - 1, frames)))
        # the rows x_l, y_l times scale_l are sqrt(2/nbar_0)*a_l, and (y_l, -x_l) is
        # -1j times it.  At equal brightness they stay unscaled, and c0, divided
        # last, is 2s
        if len(set(nbar)) > 1:
            scale, divisor = np.sqrt(np.array(nbar + nbar) / nbar[0]), room[:frames]
            calls.append(call(np.einsum, "jmf,jmf->f", a, a, out=divisor))
            for row, x in zip(parts[: 2 * k], scale):
                calls.append(call(np.multiply, row, x, row))
        calls.append(call(np.negative, parts[:k], parts[2 * k :]))
        # coefs: c0 = sum_l |a_l|^2, Re Y_d, Im Y_d for Y_d = sum_m a_(m+d) conj(a_m)
        for d in range(k):
            head, im = a[:, : k - d], c[k - 1 + d]
            calls.append(call(np.einsum, "jmf,jmf->f", a[:, d:], head, out=c[d]))
            if d:
                calls.append(call(np.einsum, "jmf,jmf->f", turned[:, d:], head, out=im))
        calls += [call(np.divide, row, divisor, row) for row in c[::-1]]
        # the normals, 2s and parts are dead: intensities and product take their rows
        held = room[: (columns + nodes) * frames].reshape(columns + nodes, frames)
        intensity, product = held[:columns], held[columns:]
        # intensity = c0 + sum_d (Re Y_d * 2cos(d*delta) + Im Y_d * 2sin(d*delta)),
        # accumulated basis row by basis row (einsum without optimize calls no BLAS)
        calls.append(call(np.einsum, "rc,rf->cf", table, coefs, out=intensity))
        # F, the fixed detectors' product, fills every product row before a power
        # is squared over a column it reads; with no fixed detector, F = 1
        factor = 1.0
        if fixed:
            first, *rest = [intensity[column] for column in fixed]
            for row in rest:
                calls.append(call(np.multiply, first, row, product[0]))
                first = product[0]
            calls.append(call(np.copyto, product[1:] if rest else product, first))
            factor = product
        groups = intensity[: counts.size * nodes].reshape(counts.size, nodes, frames)
        for power, count in zip(groups, counts.tolist()):
            while True:
                if count & 1:
                    calls.append(call(np.multiply, factor, power, product))
                    factor = product
                count >>= 1
                if not count:
                    break
                calls.append(call(np.multiply, power, power, power))
        self.pipelines[frames] = calls, product
        return calls, product


def _work_units(sizes: list[int]) -> list[list[tuple[int, int]]]:
    """Consecutive (batch, frames) that share a chunk; a larger batch is alone."""
    units, room = [], 0
    for b, size in enumerate(sizes):
        if size > room:
            units.append([])
            room = CHUNK_FRAMES
        units[-1].append((b, size))
        room -= size
    return units


def _run_unit(worker: _Worker, unit: list[tuple[int, int]]) -> np.ndarray:
    """Node sums of a work unit's batches, (batches, nodes) in batch order.

    Each chunk of up to worker.width frames, 2K-1 variates a frame, is drawn
    into the worker's block and run through its pipeline of that width; only
    a batch past CHUNK_FRAMES takes more than one.  Per chunk only the draws,
    the bound calls and each batch's slice sums are left of the glue that
    holds the GIL between numpy calls.
    """
    sums = np.zeros((len(unit), worker.plan[2]))
    filled, slices = 0, []
    for row, (b, size) in enumerate(unit):
        seeds = np.random.SeedSequence(worker.config.seed, spawn_key=(0, b))
        rng = np.random.Generator(np.random.SFC64(seeds))
        while size:
            f = min(worker.width - filled, size)
            rng.standard_exponential(out=worker.exponentials[filled : filled + f])
            rng.standard_normal(out=worker.normals[filled : filled + f])
            slices.append(slice(filled, filled + f))
            filled, size = filled + f, size - f
            if filled == worker.width or not size and row == len(unit) - 1:
                calls, product = worker.pipeline(filled)
                for call in calls:
                    call()
                # the chunk's slices: one per batch, up to this one
                chunk = [product[:, part].sum(axis=1) for part in slices]
                sums[row + 1 - len(slices) : row + 1] += chunk
                filled, slices = 0, []
    return sums


def simulate_curve(config: SpeckleConfig) -> CorrelationCurve:
    """Frame-averaged correlation curve with batch-means standard errors.

    Raw values converge to the path-sum/permanent values of the same sources
    and layout (combinatorial units); normalize() rescales for plotting.
    """
    plan = _plan(config)
    sizes, (weights, envelope) = _batch_sizes(config.frames), plan[4:]
    units, node_sums = _work_units(sizes), np.empty((len(sizes), plan[2]))
    width = min(CHUNK_FRAMES, max(sum(size for _, size in unit) for unit in units))
    threads, todo = min(config.workers, len(units)), queue.SimpleQueue()
    for unit in units + [None] * threads:
        todo.put(unit)

    def work() -> None:
        # one block per thread, freed on return; a thread stops at its own None
        worker = _Worker(config, plan, width)
        for unit in iter(todo.get, None):
            node_sums[unit[0][0] : unit[0][0] + len(unit)] = _run_unit(worker, unit)

    # the calling thread is one of the workers: one worker starts no thread
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        others = [pool.submit(work) for _ in range(threads - 1)]
        work()
    for other in others:
        other.result()
    # c_M nbar_0^M a factor at a time, as float(c_M) overflows from K = 2, M = 170
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(config.layout.order):
            node_sums *= (config.sources.count + i) * config.sources.nbar[0]
        # (batches, grid), combined in batch order; the node-to-grid map is an
        # explicit broadcast and a sum over the nodes, not BLAS
        sums = (node_sums[:, None, :] * weights[None, :, :]).sum(axis=2)
        sums *= envelope[None, :]
        # every frame's product is nonnegative at every phase up to rounding of
        # its intensities; that and the interpolation can leave a near-zero
        # point a few rounding errors of the node sums below 0
        np.maximum(sums, 0.0, out=sums)
        values = sums.sum(axis=0) / config.frames
        batch_means = sums / np.asarray(sizes, dtype=float)[:, None]
        if len(sizes) >= 2:
            # std squares them: an exact power-of-two scale keeps means past 1e154
            e = np.frexp(np.abs(batch_means).max(axis=0))[1]
            spread = np.ldexp(batch_means, -e).std(axis=0, ddof=1)
            stderr = np.ldexp(spread, e) / math.sqrt(len(sizes))
        else:
            stderr = np.zeros_like(values)
    if not all(np.isfinite(a).all() for a in (values, batch_means, stderr)):
        raise AccumulatorOverflowError("weighted frame sums left the double range")
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

    parity_ok is fit_cosine's sign rule, valid for two-source co-located layouts:
    every spread(m) closed form has sign +1, so a correct spread(2) or spread(4)
    fringe reads False (comb_sign(m) is -1); the CLI sidecar takes the form's sign.
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
    grid, values = require_reals("grid", grid), require_reals("values", values)
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
    k = 1 + int(np.argmax(spectrum[1:]))
    return int(round(k * TWO_PI / period))


def fit_cosine(curve: CorrelationCurve, frequency: int) -> FitResult:
    """Fit A + B*cos(frequency*delta1), with the bootstrap's error bars in closed form.

    lstsq's minimum-norm map P fits the curve and each batch mean b, giving
    (A_b, B_b).  With c' = c - mean(c), c = cos(frequency*grid), its B-row is
    c'/(c'.c') and its A-row 1/n - mean(c)*(B-row).  Below lstsq's cutoff,
    s2 <= n*eps*s1 for the design's singular values, (s1*s2)^2 = n*c'.c', c
    is constant up to rounding and P has rank 1.

    A bootstrap mean (A*, B*) of the batches has, over infinitely many
    resamples, the plug-in (ddof 0) covariance of the (A_b, B_b) over nb
    (Efron & Tibshirani, An Introduction to the Bootstrap, 1993, ch. 5-6), so
    stderr_amplitude = sigma_B = sqrt(var(B_b)/nb).  In units of A, V* =
    |B*|/A* ~ |B*| - mu (A* - 1) to first order in A*, with |B*| folded normal
    for B* ~ N(B, sigma_B^2) (Leone, Nelson & Nottingham, Technometrics 3,
    1961, 543): t = |B|/(sigma_B sqrt(2)), mean mu = |B| + e, e = sigma_B
    sqrt(2/pi) exp(-t^2) - |B| erfc(t), Var|B*| = sigma_B^2 - e (2|B| + e),
    and Cov(|B*|, A*) = sigma_AB erf(t) sign(B) by Stein's lemma.  Hence
    stderr_visibility^2 = Var|B*| - 2 mu Cov(|B*|, A*) + mu^2 sigma_A^2.
    Below 20 frames, nb < 20 and the bars undercover: the plug-in spread is
    sqrt((nb-1)/nb) of the batch means' sample spread, and V* is far from first
    order (0.85 of a long bootstrap's bar at three one-frame batches).

    The curve must span at least one period.  parity_ok: the sign of B is
    comb_sign(frequency) = (-1)**(frequency - 1), a rule of two-source
    co-located fringes only.
    """
    frequency = require_int("frequency", frequency, 1)
    grid, n = curve.grid, curve.grid.size
    span = float(grid.max() - grid.min())
    if span + 1e-9 < TWO_PI / frequency:
        raise ValueError(
            f"grid spans {span:.6f} rad but one period at frequency "
            f"{frequency} needs {TWO_PI / frequency:.6f}"
        )
    c = np.cos(frequency * grid)
    mean = float(c.mean())
    centred = c - mean
    det, trace = n * float(centred @ centred), n + float(c @ c)
    top = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    if det > (n * np.finfo(float).eps * top) ** 2:
        b_row = centred * (n / det)
        projection = np.vstack([1.0 / n - mean * b_row, b_row])
    else:
        projection = np.outer([1.0, mean], np.ones(n)) / (n * (1.0 + mean * mean))
    offset, amplitude = (float(x) for x in projection @ curve.values)
    if offset <= 0.0:
        raise ValueError("fitted offset must be positive for a visibility")
    stderr_vis = stderr_amp = 0.0
    if curve.batch_means is not None and curve.batch_means.shape[0] >= 2:
        nb = curve.batch_means.shape[0]
        coefs = curve.batch_means @ (projection.T / offset)
        (var_a, cov_ab), (_, var_b) = np.cov(coefs.T, ddof=0) / nb
        sigma_b, b = math.sqrt(var_b), abs(amplitude) / offset
        t = b / (sigma_b * math.sqrt(2.0)) if sigma_b else math.inf
        # e of the folded normal, so that no B^2 - B^2 cancels
        e = sigma_b * math.sqrt(2.0 / math.pi) * math.exp(-t * t) - b * math.erfc(t)
        mu, cov_abs = b + e, cov_ab * math.erf(math.copysign(t, amplitude))
        var_vis = var_b - e * (2.0 * b + e) - 2.0 * mu * cov_abs + mu * mu * var_a
        stderr_vis = math.sqrt(max(var_vis, 0.0))
        stderr_amp = offset * sigma_b
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
