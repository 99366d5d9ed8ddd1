"""Pseudothermal speckle Monte Carlo for intensity correlation curves.

In each frame every source has one circular complex Gaussian amplitude with
mean square modulus nbar_l; a detector at phase delta sees the intensity
|sum_l exp(-1j*l*delta) * a_l|^2, and G(delta1) is the frame average of
the product of the M detector intensities.  That intensity is the real
trigonometric polynomial c0 + 2 Re sum_{d=1}^{K-1} Y_d exp(-1j*d*delta), whose
2K-1 real coefficients are the frame's autocorrelation of the amplitudes:
c0 = sum_l |a_l|^2 and Y_d = sum_m a_(m+d) conj(a_m), whose m = 0 term is x_0 a_d
as source 0's amplitude x_0 is real.  So a frame's intensities are built from
those coefficients and a fixed table of 2cos(d*delta) and 2sin(d*delta) rows,
in real arithmetic; no complex field is formed.  The sum of terms is
nonnegative only up to rounding: near a dark fringe an intensity, and so a
product, can come out a few rounding errors below zero.

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
N, a column per distinct phase and this factor once per run; the grid weights
are built once the workers are done.

Each frame is weighted by c_M / s^M, s = sum_l |z_l|^2 over its unit-variance
complex normals z_l = a_l / sqrt(nbar_l), c_M = E[s^M] = (K+M-1)!/(K-1)!: s ~
Gamma(K, 1) is independent of z / sqrt(s), and the product is homogeneous of
degree M in s, so the mean is kept and the brightness integrated out exactly.
The weighted value depends on the direction z / sqrt(s) alone, whose shares
w_l = |z_l|^2 / s are Dirichlet(1, ..., 1) and whose phases are independent
and uniform (Muirhead, Aspects of Multivariate Statistical Theory, 1982,
sec. 1.5); it does not change under a common phase either.  So each frame
draws the direction, with s = 1 (so c0 = 1 at equal brightness) and arg z_0 =
0.  K-1 uniforms U_l break a stick: r_0 = 1, r_(l+1) = r_l R_l, R_l = (1 -
U_l)^(1/(K-1-l)), w_l = r_l - r_(l+1) (r_l U_l where R_l = 1 - U_l) and w_(K-1)
= r_(K-1), so w = (U, 1 - U) at K = 2.  K-1 more uniforms V_l set each relative
phase on an L-point lattice, phi_l = 2*pi*floor(L V_l)/L, read from cos and sin
tables built once per L.
Each intensity is of degree 1 in every exp(i phi_l), so the frame's value is
a trigonometric polynomial of degree <= M in each relative phase, and its
j-th power one of degree <= jM, which the lattice averages exactly while
jM < L.  Every moment of order below L/M, the mean and the variance among
them, is therefore the continuous draw's.  L is the least power of two above
2M and at least 4096, derived from the layout.

Determinism contract: frames are split into min(20, frames) contiguous batches
of fixed sizes; batch b draws from its own substream, an SFC64 seeded by
SeedSequence(seed, spawn_key=(0, b)), in chunks of up to CHUNK_FRAMES frames
from the batch's start, each chunk of f frames taking uniforms of shape
(f, K-1) for the shares, then uniforms of shape (f, K-1) for the phases (none
at K = 1); batch partial sums are combined in batch order.  Work units, fixed
by the batch sizes alone, run the batches: those that fit in one chunk
together share it, each in its own slice, in batch order; a larger batch is a
unit of its own.  Within a chunk every array is real and laid out (row,
frame): each node's product is summed over a batch's frames as one
contiguous row, and a batch's chunk sums are added in draw order, with no
BLAS call anywhere.  Each worker thread draws its chunks into one block and
runs them through numpy calls bound once per chunk width and kept for the run
(_Worker).  The layout decides only the rounding; the seed fixes each frame's
variates and the batch order.  The result is bit-identical for any worker
count, and the batch means feed the stderr estimate and fit_cosine's error
bars, which draw no variates.
"""

from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

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


class _Plan(NamedTuple):
    """The kernel's set-up, derived once per run by _plan."""

    # rows 1, 2cos(d*delta), 2sin(d*delta), d = 1..K-1, over the phase columns:
    # each node theta_n = 2*pi*n/(N*p) past each distinct moving offset, then
    # each fixed phase that is bit-equal to no column before it
    table: np.ndarray
    counts: np.ndarray  # the detectors at each distinct moving offset
    nodes: int  # N = 2D'+1
    fixed: list[int]  # each fixed detector's column
    period: int  # p
    envelope: np.ndarray  # per grid point, the product of env(phase)^2 over M
    lattice: np.ndarray  # rows cos and sin of the L lattice phases 2*pi*n/L


def _plan(config: SpeckleConfig) -> _Plan:
    """The kernel's set-up for a run (_Plan)."""
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
    # np.sinc is sin(pi x)/(pi x); env is sin(y)/y with y = delta*slit_ratio/2
    slit = config.layout.detector_phases(config.grid) * config.slit_ratio
    envelope = np.prod(np.sinc(slit / (2.0 * math.pi)) ** 2, axis=1)
    lattice = _lattice(max(4096, 1 << (2 * config.layout.order).bit_length()))
    return _Plan(table, counts, nodes, fixed, p, envelope, lattice)


def _node_weights(grid: np.ndarray, period: int, nodes: int) -> np.ndarray:
    """weights[g, n]: the Dirichlet kernel, degree (N-1)/2, at p*grid[g] - 2*pi*n/N."""
    harmonics = np.arange(1, (nodes - 1) // 2 + 1)
    gap = period * grid[:, None] - TWO_PI * np.arange(nodes)[None, :] / nodes
    return (1.0 + 2.0 * np.cos(gap[:, :, None] * harmonics).sum(axis=2)) / nodes


@functools.cache
def _lattice(size: int) -> np.ndarray:
    """Rows cos and sin of the phases 2*pi*n/size, n = 0..size-1, built once per size."""
    angles = TWO_PI * np.arange(size) / size
    return np.vstack([np.cos(angles), np.sin(angles)])


class _Worker:
    """A worker thread's block for a run, and every chunk pipeline bound to it.

    The block holds chunks of up to width frames, the run's widest unit: 2K-1
    coefficient rows of width floats, c0 set to 1 once, then a room of
    max(5K-4, columns + nodes) rows of a chunk's frames; 26 floats a frame at
    colocated(5, 2), 1.16 MB at 5600 frames, reused so that no chunk faults in
    fresh pages.  Each chunk width's calls stay bound for the run.
    """

    def __init__(self, config: SpeckleConfig, plan: _Plan, width: int) -> None:
        (rows, columns), k = plan.table.shape, config.sources.count
        self.config, self.plan, self.width, self.pipelines = config, plan, width, {}
        block = np.empty((rows + max(5 * k - 4, columns + plan.nodes)) * width)
        self.coefs = block[: rows * width].reshape(rows, width)
        self.room = block[rows * width :]
        self.coefs[0] = 1.0

    def pipeline(self, frames: int) -> tuple[list, np.ndarray, tuple]:
        """A chunk of `frames` frames: its numpy calls bound to views of the block,
        its product rows (P / nbar_0^M a frame) and its draw rows (both, shares,
        phases).  The intensities and product overwrite the room from its start.
        """
        if frames in self.pipelines:
            return self.pipelines[frames]
        plan, k, call = self.plan, self.config.sources.count, functools.partial
        counts, nodes, columns = plan.counts, plan.nodes, plan.table.shape[1]
        rows = self.room[: (5 * k - 4) * frames].reshape(5 * k - 4, frames)
        draws = (rows[k : 3 * k - 2], *rows[k : 3 * k - 2].reshape(2, frames, k - 1))
        calls = self._coefficients(rows, *draws[1:]) if k > 1 else []
        held = self.room[: (columns + nodes) * frames].reshape(columns + nodes, frames)
        intensity, product = held[:columns], held[columns:]
        # intensity = c0 + sum_d (Re Y_d * 2cos(d*delta) + Im Y_d * 2sin(d*delta)),
        # accumulated basis row by basis row (einsum without optimize calls no BLAS)
        coefs = self.coefs[:, :frames]
        calls.append(call(np.einsum, "rc,rf->cf", plan.table, coefs, out=intensity))
        # F, the fixed detectors' product, fills every product row before a power
        # is squared over a column it reads; with no fixed detector, F = 1
        factor = 1.0
        if plan.fixed:
            first, *rest = [intensity[column] for column in plan.fixed]
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
        self.pipelines[frames] = calls, product, draws
        return self.pipelines[frames]

    def _coefficients(self, rows, shares, phases) -> list:
        """The bound calls that turn a chunk's draws into its coefficient rows.

        rows: the room at the chunk's width, K weight rows w, then the share and
        phase uniforms in one run.  Row l takes w_l scaled by nbar_l / nbar_0 (at
        K = 2, w_0 = U stays in its share row), then x_0 and the radii r_l of
        a_l = r_l (cos, sin).  The lattice indices overwrite the dead shares, one
        take fills cos and sin over the dead phases on, and from K = 3 the radii
        scale them and -Re a follows.  A broadcast writes each Y_d's m = 0 term,
        x_0 a_d; each lag's m >= 1 terms take two dead weight rows, added in.
        """
        nbar, call, frames = self.config.sources.nbar, functools.partial, rows.shape[1]
        k = len(nbar)
        w, index = rows[:k], rows[k : 2 * k - 1].view(np.intp)
        amps = rows[2 * k - 1 :].reshape(3, k - 1, frames)
        # c0, then Re Y_d and Im Y_d, d = 1..K-1
        c0, ys = self.coefs[0, :frames], self.coefs[1:, :frames].reshape(2, k - 1, -1)
        calls, u0 = [], shares[:, 0]
        for l, u in enumerate(shares.T):
            n, r, rest = k - 1 - l, w[l], w[l + 1]
            root = call(np.sqrt, rest) if n == 2 else call(np.power, rest, 1.0 / n)
            calls += [call(np.subtract, 1.0, u, rest)] + [call(root, rest)] * (n > 1)
            calls += [call(np.multiply, rest, r, rest)] * (l > 0)
            if n > 1:
                calls.append(call(np.subtract, r if l else 1.0, rest, r))
            elif l:
                calls.append(call(np.multiply, r, u, r))
        scaled = [(row, b / nbar[0]) for row, b in zip(w[1:], nbar[1:]) if b != nbar[0]]
        calls += [call(np.multiply, row, ratio, row) for row, ratio in scaled]
        # c0 = sum_l w_l nbar_l / nbar_0, and 1 at equal brightness
        if scaled:
            reduce = call(np.add.reduce, w, 0) if k > 2 else call(np.add, u0, w[1])
            calls.append(call(reduce, out=c0))
        # x_0 and the radii; at K = 2, x_0 r_1 = sqrt(w_0 w_1) alone
        calls += [call(np.multiply, w[1], u0, w[1])] * (k == 2)
        calls.append(call(np.sqrt, w, w) if k > 2 else call(np.sqrt, w[1], w[1]))
        # the phase uniforms to lattice indices floor(L V), truncated by the
        # cast; np.take buffers out unless mode is "clip", and no index reaches L
        size = float(self.plan.lattice.shape[1])
        calls.append(call(np.multiply, phases.T, size, phases.T))
        calls.append(call(np.copyto, index, phases.T, "unsafe"))
        calls.append(call(np.take, self.plan.lattice, index, 1, amps[:2], "clip"))
        if k > 2:
            calls += [call(np.multiply, row, w[1:], row) for row in amps[:2]]
            calls.append(call(np.negative, amps[0], amps[2]))
        # einsum: numpy's ufuncs buffer a broadcast operand at up to 4096 frames
        scale = w[0] if k > 2 else w[1]
        calls.append(call(np.einsum, "jmf,f->jmf", amps[:2], scale, out=ys))
        # Y_d += sum_(m>=1) a_(m+d) conj(a_m), with (Im a, -Re a) -1j times a
        for d, re, im in zip(range(1, k - 1), ys[0], ys[1]):
            head = amps[:2, : k - 1 - d]
            calls.append(call(np.einsum, "jmf,jmf->f", amps[:2, d:], head, out=w[1]))
            calls.append(call(np.einsum, "jmf,jmf->f", amps[1:, d:], head, out=w[2]))
            calls += [call(np.add, re, w[1], re), call(np.add, im, w[2], im)]
        return calls


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

    The unit's frames run in chunks of worker.width frames, the last one
    partial, each drawn into the worker's block by Generator.random, which
    releases the GIL, and run through its pipeline: per chunk only the draws,
    the bound calls and each batch's slice sums hold the GIL.
    """
    sums = np.zeros((len(unit), worker.plan.nodes))
    left, filled, slices = sum(size for _, size in unit), 0, []
    for row, (b, size) in enumerate(unit):
        seeds = np.random.SeedSequence(worker.config.seed, spawn_key=(0, b))
        rng = np.random.Generator(np.random.SFC64(seeds))
        while size:
            if not filled:
                calls, product, draws = worker.pipeline(min(worker.width, left))
            f = min(product.shape[1] - filled, size)
            # a chunk of one batch draws its shares and phases in one call
            parts = [d[filled : filled + f] for d in draws[1:]]
            for out in draws[:1] if f == product.shape[1] else parts:
                rng.random(out=out)
            slices.append(slice(filled, filled + f))
            filled, size, left = filled + f, size - f, left - f
            if filled == product.shape[1]:
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
    plan, sizes = _plan(config), _batch_sizes(config.frames)
    units, node_sums = _work_units(sizes), np.empty((len(sizes), plan.nodes))
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
    # built once the workers' blocks are freed, so that the run's peak never holds both
    weights = _node_weights(config.grid, plan.period, plan.nodes)
    # c_M nbar_0^M a factor at a time, as float(c_M) overflows from K = 2, M = 170
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(config.layout.order):
            node_sums *= (config.sources.count + i) * config.sources.nbar[0]
        # (batches, grid), combined in batch order; the node-to-grid map is an
        # explicit broadcast and a sum over the nodes, not BLAS
        sums = (node_sums[:, None, :] * weights[None, :, :]).sum(axis=2)
        sums *= plan.envelope[None, :]
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
    values must have the grid's length.
    """
    grid, values = require_reals("grid", grid), require_reals("values", values)
    if values.size != grid.size:
        raise ValueError(
            f"values has {values.size} points but the grid has {grid.size}"
        )
    steps = np.diff(grid)
    if grid.size < 4 or not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
        return None
    samples = values[:-1] if abs(float(grid[-1] - grid[0]) - TWO_PI) < 1e-9 else values
    period = len(samples) * float(steps[0])
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
    order (at three one-frame batches, a median 0.98 of a long bootstrap's bar
    over seeds 0-199).

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
