import functools
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from thermalnoon.analytic import closed_form
from thermalnoon.curves import CorrelationCurve, default_grid
from thermalnoon.errors import AccumulatorOverflowError
from thermalnoon.geometry import TWO_PI, DetectorLayout, SourceArray, magic_positions
from thermalnoon.pathsum import correlation_pathsum, correlation_pathsum_bounded
from thermalnoon.speckle import (
    CHUNK_FRAMES,
    MAX_BATCHES,
    SpeckleConfig,
    _batch_sizes,
    _node_weights,
    _period,
    _plan,
    _run_unit,
    _work_units,
    _Worker,
    dominant_frequency,
    fit_cosine,
    simulate_curve,
)


def exact_curve(layout, grid=None):
    return closed_form(layout).curve(layout, grid)


def lattice_size(layout):
    """L, the phase lattice of a run: the least power of two above 2M, at least 4096."""
    return max(4096, 1 << (2 * layout.order).bit_length())


def brute_force_batch(config, b, size):
    """Reference: batch b's frame sum, every frame's field at every grid point.

    Batch b draws from SFC64(SeedSequence(seed, spawn_key=(0, b))) in chunks
    of CHUNK_FRAMES, each chunk of f frames uniforms U of shape (f, K-1) for
    the shares, then uniforms V of shape (f, K-1) for the phases.  The shares
    break a stick: w_l = r_l (1 - R_l), R_l = (1 - U_l)^(1/(K-1-l)), r_0 = 1,
    r_(l+1) = r_l R_l, and the last share is what is left.  Source l's
    amplitude is sqrt(w_l nbar_l) exp(i phi_l), phi_0 = 0 and phi_l =
    2*pi*floor(L V_l)/L, with L = lattice_size(layout).  Each frame's product
    of |E|^2 is weighted by c_M = (K+M-1)!/(K-1)!, applied as
    (c_M >> shift) * 2**shift, as float(c_M) overflows from K = 2, M = 170.
    """
    phases = np.array([config.layout.detector_phases(d) for d in config.grid])
    envelope = np.sinc(phases * config.slit_ratio / (2.0 * math.pi))
    k, order = config.sources.count, config.layout.order
    # steer[l, g, d]: what source l puts on detector d at grid point g
    steer = envelope * np.exp(-1j * np.arange(k)[:, None, None] * phases)
    seeds = np.random.SeedSequence(config.seed, spawn_key=(0, b))
    rng = np.random.Generator(np.random.SFC64(seeds))
    lattice, chunks = lattice_size(config.layout), []
    for start in range(0, size, CHUNK_FRAMES):
        f = min(CHUNK_FRAMES, size - start)
        shares, phase = rng.random((f, k - 1)), rng.random((f, k - 1))
        left, w = np.ones(f), np.empty((f, k))
        for l in range(k - 1):
            kept = (1.0 - shares[:, l]) ** (1.0 / (k - 1 - l))
            w[:, l], left = left * (1.0 - kept), left * kept
        w[:, -1] = left
        angle = TWO_PI * np.floor(lattice * phase) / lattice
        chunks.append(np.sqrt(w) * np.exp(1j * np.column_stack([np.zeros(f), angle])))
    amps = np.concatenate(chunks) * np.sqrt(np.asarray(config.sources.nbar))
    moment = math.factorial(k + order - 1) // math.factorial(k - 1)
    shift = max(0, moment.bit_length() - 1000)
    total = np.zeros(config.grid.size)
    for start in range(0, size, 256):
        fields = np.einsum("fl,lgd->fgd", amps[start : start + 256], steer)
        products = np.prod(np.abs(fields) ** 2, axis=2)
        total += products.sum(axis=0) * float(moment >> shift)
    return np.ldexp(total, shift)


def brute_force_curve(config):
    """Reference curve values and batch means on the documented batch layout.

    min(MAX_BATCHES, frames) batches, the first frames % batches of them one
    frame longer, each summed by brute_force_batch.
    """
    batches = min(MAX_BATCHES, config.frames)
    base, rem = divmod(config.frames, batches)
    sizes = [base + (b < rem) for b in range(batches)]
    batch_means = np.array(
        [brute_force_batch(config, b, size) / size for b, size in enumerate(sizes)]
    )
    values = (batch_means * np.array(sizes)[:, None]).sum(axis=0) / config.frames
    return values, batch_means


def shifted_comb():
    """The moving comb of 3 shifted by 0.1 rad, with the fixed comb of 2."""
    return DetectorLayout(
        fixed_phases=tuple(magic_positions(2)),
        moving_offsets=tuple(0.1 + magic_positions(3)),
    )


def dark_middle_source():
    """Three sources with nbar (1, 0, 2).

    SourceArray refuses nbar = 0, but the kernel must still handle a source
    that puts nothing on the detectors, so the middle one is darkened past
    the check.
    """
    sources = SourceArray(nbar=(1.0, 1.0, 2.0))
    object.__setattr__(sources, "nbar", (1.0, 0.0, 2.0))
    return sources


def reference_fit(curve, frequency):
    """Reference: one lstsq solve for the curve and one per batch mean.

    The error bars are the bootstrap's limit written out: the resampled mean
    (A*, B*) of the nb batch coefficients has their ddof-0 covariance over nb;
    |B*| is a folded normal about the fitted B, and V* = |B*|/A* is expanded to
    first order in A* about the fitted A.  Returns the FitResult fields as a
    dict.
    """
    grid = curve.grid
    design = np.column_stack([np.ones_like(grid), np.cos(frequency * grid)])

    def lsq(values):
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        return float(coef[0]), float(coef[1])

    offset, amplitude = lsq(curve.values)
    stderr_vis = stderr_amp = 0.0
    if curve.batch_means is not None and curve.batch_means.shape[0] >= 2:
        nb = curve.batch_means.shape[0]
        refits = [lsq(batch_mean) for batch_mean in curve.batch_means]
        a = np.array([refit[0] for refit in refits]) / offset
        b = np.array([refit[1] for refit in refits]) / offset
        var_a = float(np.mean((a - a.mean()) ** 2)) / nb
        var_b = float(np.mean((b - b.mean()) ** 2)) / nb
        cov_ab = float(np.mean((a - a.mean()) * (b - b.mean()))) / nb
        # in units of the offset: A = 1, B = amplitude / offset
        big_b, sigma = amplitude / offset, math.sqrt(var_b)
        t = big_b / (sigma * math.sqrt(2.0))
        # E|B*| - |B| of the folded normal, and Var|B*| = sigma^2 - (E|B*|^2 - B^2)
        excess = sigma * math.sqrt(2.0 / math.pi) * math.exp(-t * t)
        excess -= abs(big_b) * math.erfc(abs(t))
        mean_abs = abs(big_b) + excess
        var_abs = var_b - excess * (2.0 * abs(big_b) + excess)
        # Stein's lemma: Cov(|B*|, A*) = Cov(B*, A*) * E[sign B*]
        cov_abs_a = cov_ab * math.erf(t)
        # V* ~ |B*| - mean_abs * (A* - 1)
        var_vis = var_abs - 2.0 * mean_abs * cov_abs_a + mean_abs**2 * var_a
        stderr_vis = math.sqrt(var_vis)
        stderr_amp = offset * sigma
    return {
        "offset": offset,
        "amplitude": amplitude,
        "visibility": abs(amplitude) / offset,
        "stderr_visibility": stderr_vis,
        "stderr_amplitude": stderr_amp,
        "dominant_frequency": dominant_frequency(grid, curve.values),
        "parity_ok": amplitude * (-1) ** (frequency - 1) >= 0.0,
    }


def bootstrap_fit_errors(curve, frequency, resamples=20_000, seed=0):
    """Reference: the error bars of `resamples` seeded bootstrap resamples.

    Each resample draws nb batches with replacement and refits their mean;
    the fit is linear, so that is the mean of the drawn batches' lstsq
    coefficients.  Returns (stderr_visibility, stderr_amplitude), ddof 1.
    """
    design = np.column_stack([np.ones_like(curve.grid), np.cos(frequency * curve.grid)])
    coefs = np.array(
        [np.linalg.lstsq(design, m, rcond=None)[0] for m in curve.batch_means]
    )
    nb = coefs.shape[0]
    picks = np.random.default_rng(seed).integers(0, nb, size=(resamples, nb))
    a, b = coefs[picks].mean(axis=1).T
    return float((np.abs(b) / a).std(ddof=1)), float(b.std(ddof=1))


# seeded curves that fit_cosine is checked on: (sources, layout, frames, extra)
SEEDED_FITS = {
    "colocated-5-2-1e6": (SourceArray(), DetectorLayout.colocated(5, 2), 1_000_000, {}),
    "spread-2": (SourceArray(), DetectorLayout.spread(2), 40_000, {}),
    "spread-3-slit": (
        SourceArray(),
        DetectorLayout.spread(3),
        40_000,
        {"slit_ratio": 0.3},
    ),
    "k3-2-2": (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 20_000, {}),
    "slit-361": (
        SourceArray(),
        DetectorLayout.colocated(2, 1),
        20_000,
        {"slit_ratio": 0.2, "grid": default_grid(361)},
    ),
    "grid-91": (
        SourceArray(),
        DetectorLayout.colocated(3, 1),
        40_000,
        {"grid": default_grid(91)},
    ),
    "flat-1-2": (SourceArray(), DetectorLayout.colocated(1, 2), 40_000, {}),
    "nonuniform-37-frames": (
        SourceArray(),
        DetectorLayout.colocated(2, 2),
        37,
        {"grid": np.sort(np.random.default_rng(3).uniform(-1.0, 7.0, 30))},
    ),
    "three-frames": (SourceArray(), DetectorLayout.colocated(2, 2), 3, {}),
}


@functools.cache
def seeded_fit_curve(name):
    """The curve of SEEDED_FITS[name] at seed 31 on two workers."""
    sources, layout, frames, extra = SEEDED_FITS[name]
    return simulate_curve(
        SpeckleConfig(
            sources=sources, layout=layout, frames=frames, seed=31, workers=2, **extra
        )
    )


def run_unit(config, plan, unit):
    """_run_unit on a worker of its own, its block as wide as the unit's chunk."""
    width = min(CHUNK_FRAMES, sum(size for _, size in unit))
    return _run_unit(_Worker(config, plan, width), unit)


def hbt_config(frames=100_000, seed=1, **kwargs):
    defaults = dict(
        sources=SourceArray(),
        layout=DetectorLayout.colocated(1, 1),
        frames=frames,
        seed=seed,
    )
    defaults.update(kwargs)
    return SpeckleConfig(**defaults)


class TestSpeckleConfig:
    def test_defaults(self):
        config = hbt_config()
        assert config.grid.shape == (181,)
        assert config.slit_ratio == 0.0
        assert config.workers == 1

    def test_from_dict_of_the_required_fields_takes_the_field_defaults(self):
        # the defaults are stated once, on the fields: from_dict restates none
        data = hbt_config(grid=default_grid(7), slit_ratio=0.3, workers=4).to_dict()
        for name in ("grid", "slit_ratio", "workers"):
            del data[name]
        config, built = SpeckleConfig.from_dict(data), hbt_config()
        assert config.grid.dtype == built.grid.dtype
        assert config.grid.tobytes() == built.grid.tobytes()
        assert (config.slit_ratio, config.workers) == (built.slit_ratio, built.workers)
        assert (config.slit_ratio, config.workers) == (0.0, 1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("frames", 0),
            ("frames", -10),
            ("seed", -1),
            ("seed", 2**64),
            ("workers", 0),
            ("workers", 2.5),
            ("workers", "3"),
            ("frames", True),
            ("workers", True),
            ("slit_ratio", "0.3"),
            ("slit_ratio", 1.0),
            ("slit_ratio", -0.1),
        ],
    )
    def test_rejects_bad_scalars(self, field, value):
        with pytest.raises(ValueError):
            hbt_config(**{field: value})

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            hbt_config(grid=np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="grid"):
            hbt_config(grid=np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize(
        "section,field,value",
        [
            (None, "frames", 1000.5),
            (None, "frames", 1000.0),
            (None, "seed", 3.2),
            (None, "workers", 1.5),
            ("layout", "fixed_phases", [math.nan]),
        ],
    )
    def test_from_dict_never_truncates(self, section, field, value):
        data = hbt_config().to_dict()
        (data if section is None else data[section])[field] = value
        with pytest.raises(ValueError):
            SpeckleConfig.from_dict(data)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            (None, "frames", True),
            (None, "seed", False),
            (None, "workers", True),
            (None, "slit_ratio", "0.3"),
            (None, "slit_ratio", True),
            (None, "grid", ["0.0", "1.0"]),
            ("layout", "fixed_phases", ["0.5"]),
            ("sources", "nbar", ["1.0"]),
            ("sources", "nbar", 1.0),
            ("layout", "moving_offsets", ["0.5"]),
            ("layout", "moving_offsets", 0.0),
        ],
        ids=[
            "frames-bool",
            "seed-bool",
            "workers-bool",
            "slit-string",
            "slit-bool",
            "grid-strings",
            "phase-string",
            "nbar-string",
            "nbar-scalar",
            "offset-string",
            "offsets-scalar",
        ],
    )
    def test_from_dict_rejects_bools_and_strings(self, section, field, value):
        data = hbt_config().to_dict()
        (data if section is None else data[section])[field] = value
        with pytest.raises(ValueError, match=field):
            SpeckleConfig.from_dict(data)

    def test_from_dict_names_every_unknown_key(self):
        # a misspelt optional field would otherwise run at its default
        data = hbt_config().to_dict()
        data.update(slit_ration=0.5, worker=4)
        with pytest.raises(ValueError, match="'slit_ration', 'worker'"):
            SpeckleConfig.from_dict(data)

    def test_roundtrip(self):
        config = hbt_config(slit_ratio=0.25, workers=3, grid=default_grid(61))
        restored = SpeckleConfig.from_dict(config.to_dict())
        assert restored.sources == config.sources
        assert restored.layout == config.layout
        assert restored.frames == config.frames
        assert restored.seed == config.seed
        assert restored.workers == config.workers
        assert restored.slit_ratio == config.slit_ratio
        np.testing.assert_allclose(restored.grid, config.grid)


def sinc_envelope(phases, slit_ratio):
    # np.sinc is sin(pi x)/(pi x); env is sin(y)/y with y = delta*slit_ratio/2
    return np.sinc(phases * slit_ratio / (2.0 * math.pi))


def envelope_factor(config):
    return _plan(config).envelope


class TestEnvelope:
    def test_no_slit_means_flat_envelope(self):
        phases = np.linspace(0, 2 * math.pi, 50)
        np.testing.assert_allclose(envelope_factor(hbt_config(grid=phases)), 1.0)

    def test_sinc_profile(self):
        # one moving detector at delta1: the factor is env(delta1)^2
        phases = np.array([0.0, 1.0, 2.0, math.pi])
        ratio = 0.5
        x = phases * ratio / 2.0
        expected = np.ones_like(phases)
        nz = x != 0
        expected[nz] = np.sin(x[nz]) / x[nz]
        config = hbt_config(
            layout=DetectorLayout.colocated(1, 0), grid=phases, slit_ratio=ratio
        )
        np.testing.assert_allclose(envelope_factor(config), expected**2, rtol=1e-12)

    def test_spread_envelope_follows_unwrapped_phases(self):
        # the envelope is not periodic: moving detector i at delta1 + 2*pi*i/m
        # sees env(delta1 + 2*pi*i/m); wrapping that phase into [0, 2*pi)
        # would turn the factor into a sawtooth of period 2*pi/m
        config = hbt_config(layout=DetectorLayout.spread(3), slit_ratio=0.3)
        comb = magic_positions(3)
        moving = config.grid[:, None] + comb[None, :]
        fixed = np.broadcast_to(comb, moving.shape)
        phases = np.concatenate([moving, fixed], axis=1)
        expected = np.prod(np.sinc(phases * 0.3 / (2.0 * math.pi)) ** 2, axis=1)
        factor = envelope_factor(config)
        np.testing.assert_allclose(factor, expected, rtol=1e-12)
        # neighbouring points differ by 0.5% of the peak; wrapped, by 26%
        assert np.abs(np.diff(factor)).max() < 0.01 * factor.max()


    @pytest.mark.parametrize(
        "layout",
        [
            DetectorLayout.colocated(3, 2),
            DetectorLayout.spread(3),
            DetectorLayout(fixed_phases=(0.4,), moving_offsets=(0.0, math.pi, 0.5)),
        ],
    )
    def test_factor_is_the_product_at_each_grid_point(self, layout):
        # one broadcast of the phase rows, to the bit of a per-point stack
        config = hbt_config(layout=layout, slit_ratio=0.3, grid=default_grid(361))
        phases = np.array([layout.detector_phases(d) for d in config.grid])
        expected = np.prod(sinc_envelope(phases, 0.3) ** 2, axis=1)
        assert np.array_equal(envelope_factor(config), expected)


class TestSimulateCurve:
    def test_deterministic_for_fixed_seed(self):
        config = hbt_config(frames=20_000, seed=7)
        one = simulate_curve(config)
        two = simulate_curve(config)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.batch_means, two.batch_means)

    def test_seed_changes_output(self):
        a = simulate_curve(hbt_config(frames=20_000, seed=1))
        b = simulate_curve(hbt_config(frames=20_000, seed=2))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_count_never_changes_results(self, workers):
        serial = simulate_curve(hbt_config(frames=30_000, seed=5, workers=1))
        threaded = simulate_curve(hbt_config(frames=30_000, seed=5, workers=workers))
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.batch_means, threaded.batch_means)

    def test_many_workers_under_fast_thread_switches(self):
        # more threads than cores, switching every microsecond, share the queue
        # of units and write disjoint rows of the node sums: a unit lost, or
        # its rows written to another unit's place, would change the bytes
        serial = simulate_curve(hbt_config(frames=20_001, seed=9, workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            runs = [simulate_curve(hbt_config(frames=20_001, seed=9, workers=8)) for _ in range(5)]
            assert time.monotonic() - start < 60
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            assert run.batch_means.tobytes() == serial.batch_means.tobytes()

    def test_worker_error_is_raised_on_the_calling_thread(self, monkeypatch):
        from thermalnoon import speckle

        original = speckle._run_unit

        def failing(worker, unit):
            if unit[0][0] == 7:
                raise MemoryError("unit of batch 7")
            return original(worker, unit)

        monkeypatch.setattr(speckle, "_run_unit", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="batch 7"):
            simulate_curve(hbt_config(frames=100_000, seed=5, workers=3))
        # every worker thread has been joined
        assert threading.active_count() == threads

    def test_slit_run_never_depends_on_workers(self):
        # the slit factor is applied after the node-to-grid map, per run
        runs = [
            simulate_curve(
                hbt_config(
                    frames=40_000,
                    seed=5,
                    layout=DetectorLayout.colocated(2, 1),
                    slit_ratio=0.2,
                    grid=default_grid(361),
                    workers=workers,
                )
            )
            for workers in (1, 2, 3)
        ]
        for run in runs[1:]:
            assert run.values.tobytes() == runs[0].values.tobytes()
            assert run.stderr.tobytes() == runs[0].stderr.tobytes()
            assert run.batch_means.tobytes() == runs[0].batch_means.tobytes()

    @pytest.mark.parametrize("frames", [20_001, 30])
    def test_uneven_small_batches_never_depend_on_workers(self, frames):
        # 20_001 frames: one 1001-frame batch and 1000-frame ones, four to a
        # chunk; 30 frames: ten 2-frame batches share a chunk, ten 1-frame
        # batches run alone
        runs = [
            simulate_curve(hbt_config(frames=frames, seed=13, workers=workers))
            for workers in (1, 2, 3)
        ]
        for run in runs[1:]:
            assert run.values.tobytes() == runs[0].values.tobytes()
            assert run.stderr.tobytes() == runs[0].stderr.tobytes()
            assert run.batch_means.tobytes() == runs[0].batch_means.tobytes()

    def test_batch_count_capped(self):
        curve = simulate_curve(hbt_config(frames=4_000, seed=3, grid=default_grid(9)))
        assert curve.batch_means.shape[0] == MAX_BATCHES

    def test_tiny_runs_use_one_batch_per_frame(self):
        curve = simulate_curve(hbt_config(frames=6, seed=3, grid=default_grid(9)))
        assert curve.batch_means.shape[0] == 6

    def test_provenance_recorded(self):
        curve = simulate_curve(hbt_config(frames=12_000, seed=9))
        assert curve.frames == 12_000
        assert curve.seed == 9
        assert curve.order == 2
        assert curve.stderr.shape == curve.values.shape
        assert np.all(curve.stderr > 0)

    def test_single_source_bunching_is_flat(self):
        # one source and co-located detectors: no phase dependence at all,
        # and the second moment doubles the squared mean.  At K = 1 a frame's
        # I^2 / s^2 is nbar^2 whatever its brightness s, so the weighted
        # estimator is exact up to rounding
        config = SpeckleConfig(
            sources=SourceArray(nbar=(1.0,)),
            layout=DetectorLayout.colocated(2, 0),
            frames=200_000,
            seed=11,
            grid=default_grid(25),
        )
        curve = simulate_curve(config)
        assert np.all(curve.values == curve.values[0])
        assert curve.values[0] == pytest.approx(2.0, rel=1e-12, abs=0.0)

    def test_hbt_pair_visibility(self):
        # two balanced sources, second order: 6 + 2 cos(delta)
        curve = simulate_curve(hbt_config(frames=150_000, seed=2))
        fit = fit_cosine(curve, 1)
        assert fit.dominant_frequency == 1
        assert abs(fit.visibility - 1 / 3) < max(0.02, 3 * fit.stderr_visibility)
        assert fit.offset == pytest.approx(6.0, rel=0.05)

    def test_matches_pathsum_pointwise(self):
        # cross-route check on a coarse grid at modest depth
        sources = SourceArray()
        layout = DetectorLayout.colocated(1, 2)
        config = SpeckleConfig(
            sources=sources,
            layout=layout,
            frames=120_000,
            seed=13,
            grid=default_grid(9),
        )
        curve = simulate_curve(config)
        for point, value, err in zip(curve.grid, curve.values, curve.stderr):
            exact = correlation_pathsum(sources, tuple(layout.detector_phases(point)))
            assert abs(value - exact) < 5 * err

    @pytest.mark.parametrize("seed", [5, 6])
    def test_unequal_k3_fit_matches_the_path_sum(self, seed):
        # no closed form covers K = 3 sources of unequal brightness: the
        # speckle fit must meet the fit to the certified path-sum curve over
        # the same grid, V = 0.33987, within 4 of its own error bars
        sources = SourceArray(nbar=(0.5, 1.0, 2.0))
        layout = DetectorLayout.colocated(3, 2)
        config = SpeckleConfig(sources=sources, layout=layout, frames=40_000, seed=seed)
        fit = fit_cosine(simulate_curve(config), 2)
        points = [
            correlation_pathsum_bounded(sources, layout.detector_phases(float(d)))
            for d in config.grid
        ]
        assert max(bound for _, bound in points) <= 1e-13
        values = np.array([value for value, _ in points])
        exact = fit_cosine(
            CorrelationCurve(grid=config.grid, values=values, order=5, layout="path sum"),
            2,
        )
        assert exact.visibility == pytest.approx(0.33987, abs=1e-5)
        assert fit.dominant_frequency == 2
        assert abs(fit.visibility - exact.visibility) < 4 * fit.stderr_visibility

    def test_slit_envelope_damps_moving_detector(self):
        # finite slit multiplies the mean intensity by the squared envelope
        sources = SourceArray(nbar=(1.0,))
        layout = DetectorLayout.colocated(1, 0)
        grid = default_grid(9)
        flat = simulate_curve(
            SpeckleConfig(
                sources=sources, layout=layout, frames=80_000, seed=21, grid=grid
            )
        )
        shaped = simulate_curve(
            SpeckleConfig(
                sources=sources,
                layout=layout,
                frames=80_000,
                seed=21,
                grid=grid,
                slit_ratio=0.6,
            )
        )
        expected = sinc_envelope(grid, 0.6) ** 2
        np.testing.assert_allclose(shaped.values / flat.values, expected, rtol=1e-9)

    @pytest.mark.parametrize(
        "sources,layout,frames,extra",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), 100_000, {}),
            # comb layouts sample one period: p = 3, 4 and 3 below
            (SourceArray.equidistant(3), DetectorLayout.spread(3), 20_000, {}),
            (
                SourceArray(nbar=(0.7, 1.0, 1.3, 0.4)),
                DetectorLayout.spread(4),
                20_000,
                {},
            ),
            (SourceArray.equidistant(3), shifted_comb(), 20_000, {}),
            (SourceArray(), DetectorLayout.spread(3), 20_000, {"slit_ratio": 0.3}),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 20_000, {}),
            (SourceArray(), DetectorLayout.colocated(0, 3), 20_000, {}),
            (SourceArray(nbar=(1.5,)), DetectorLayout.colocated(3, 1), 20_000, {}),
            (
                SourceArray(nbar=(0.5, 2.0)),
                DetectorLayout.colocated(2, 2),
                20_000,
                {
                    "grid": np.sort(np.random.default_rng(3).uniform(-1.0, 7.0, 30)),
                    "slit_ratio": 0.2,
                },
            ),
            (
                SourceArray.equidistant(3),
                # two moving groups squared at counts 3 and 2
                DetectorLayout(
                    fixed_phases=(0.0, math.pi),
                    moving_offsets=(0.0, 0.0, 0.0, math.pi / 2, math.pi / 2),
                ),
                20_000,
                {},
            ),
            # the lag-d sums Y_d weight each pair of sources by its own nbar
            (
                SourceArray(nbar=(0.5, 1.0, 2.0)),
                DetectorLayout.colocated(2, 2),
                20_000,
                {},
            ),
            # three harmonics, with three, two and one pairs at lags 1, 2, 3
            (
                SourceArray(nbar=(0.7, 1.0, 1.3, 0.4)),
                DetectorLayout.colocated(2, 2),
                20_000,
                {},
            ),
            (dark_middle_source(), DetectorLayout.colocated(2, 2), 20_000, {}),
            # five sources and one detector: the draws and parts, 23 floats
            # a frame, are the larger part of the unit's overlaid room
            (SourceArray.equidistant(5), DetectorLayout.colocated(1, 0), 20_000, {}),
        ],
        ids=[
            "colocated-5-2",
            "spread-3-k3",
            "spread-4-k4-unequal",
            "shifted-comb-k3",
            "spread-3-slit",
            "k3-2-2",
            "m1-0",
            "k1",
            "nonuniform",
            "k3-two-groups",
            "k3-unequal",
            "k4",
            "k3-dark",
            "k5-1-0",
        ],
    )
    def test_matches_every_grid_point_brute_force(self, sources, layout, frames, extra):
        # node sampling plus interpolation reproduces a frame-by-frame
        # evaluation on the grid to rounding, on the same random streams
        config = SpeckleConfig(
            sources=sources,
            layout=layout,
            frames=frames,
            seed=29,
            **{"grid": default_grid(37), **extra},
        )
        curve = simulate_curve(config)
        values, batch_means = brute_force_curve(config)
        np.testing.assert_allclose(curve.values, values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(curve.batch_means, batch_means, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "sources,layout",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2)),
            (SourceArray.equidistant(5), DetectorLayout.colocated(1, 0)),
        ],
        ids=["colocated-5-2", "k5-1-0"],
    )
    def test_long_batch_matches_brute_force(self, sources, layout):
        # one batch of 2.5 chunks, the last one partial, as a unit of its own:
        # each chunk's draws and parts are overwritten by its intensities
        # and product, and the next chunk's draws overwrite those in turn.
        # A unit's sums are of P / (nbar_0 s)^M: simulate_curve applies
        # c_M nbar_0^M
        frames = 5 * CHUNK_FRAMES // 2
        config = SpeckleConfig(
            sources=sources,
            layout=layout,
            frames=frames,
            seed=31,
            grid=default_grid(37),
        )
        plan = _plan(config)
        sums = run_unit(config, plan, [(0, frames)])
        moment = math.perm(sources.count + layout.order - 1, layout.order)
        moment *= sources.nbar[0] ** layout.order
        weights = _node_weights(config.grid, plan.period, plan.nodes)
        mean = (sums * weights).sum(axis=1) * moment / frames
        expected = brute_force_batch(config, 0, frames) / frames
        np.testing.assert_allclose(mean, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "sources,layout,rows,columns,overlaid,separate",
        [
            # 11 nodes, 11 + 1 columns: the fixed detector at phase 0 reads
            # node 0's column.  Per frame, the coefficients c0, Re Y_1, Im Y_1
            # (3 floats) and a room that holds the weights (2), the share
            # uniform (1) and the lattice rows over the phase uniform (3, one
            # spare), then the intensities (12) and the product (11): 3 +
            # max(6, 23) = 26 floats, 208 B, against five separate regions of
            # 36 floats, 288 B
            (SourceArray(), DetectorLayout.colocated(5, 2), 3, 12, 26, 36),
            # unequal brightness: a share row is scaled in place
            (
                SourceArray(nbar=(0.5, 2.0)),
                DetectorLayout.colocated(5, 2),
                3,
                12,
                26,
                36,
            ),
            # 3 nodes for one period of the comb, 3 offsets x 3 nodes, node 0
            # of each the column of a fixed detector: 3 + max(6, 9 + 3)
            # against 4 + 6 + 3 + 9 + 3
            (SourceArray(), DetectorLayout.spread(3), 3, 9, 15, 25),
            # 9 nodes, 9 + 1 columns: 5 + max(11, 10 + 9) against
            # 6 + 9 + 5 + 10 + 9
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 5, 10, 24, 39),
            # 9 nodes, 9 columns: the weights, draws and amplitudes are the
            # larger part, 9 + max(5 + 4 + 3 x 4, 9 + 9) against 10 + 15 + 9 +
            # 9 + 9
            (SourceArray.equidistant(5), DetectorLayout.colocated(1, 0), 9, 9, 30, 52),
        ],
        ids=["colocated-5-2", "unequal-5-2", "spread-3", "k3-2-2", "k5-1-0"],
    )
    def test_batch_memory_is_bounded(
        self, sources, layout, rows, columns, overlaid, separate
    ):
        # A worker's block is (2K-1) + max(5K-4, columns + nodes) floats a
        # frame, and no chunk allocates more.  Wider chunks must fit in the
        # bytes that five separate regions take at 4096 frames (1.18 MB at
        # colocated(5, 2)); the peak may add 64 kB for small objects, the
        # bound calls of each chunk width among them.  50k frames end on a
        # chunk of 5200 and 30k frames on one of 2000, a width at which a
        # broadcast operand would make numpy buffer it
        config = SpeckleConfig(sources=sources, layout=layout, frames=50_000, seed=3)
        plan = _plan(config)
        table, nodes, k = plan.table, plan.nodes, sources.count
        assert table.shape == (rows, columns)
        assert rows + max(5 * k - 4, columns + nodes) == overlaid
        assert 5 * k + rows + columns + nodes == separate
        assert overlaid * CHUNK_FRAMES <= separate * 4096
        # 40k frames: two 2000-frame batches share one 4000-frame chunk
        packed = _work_units(_batch_sizes(40_000))[0]
        assert packed == [(0, 2000), (1, 2000)]
        for unit in ([(0, config.frames)], [(0, 30_000)], packed):
            width = min(CHUNK_FRAMES, sum(size for _, size in unit))
            tracemalloc.start()
            try:
                run_unit(config, plan, unit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * overlaid * width + 64 * 1024
            assert peak < 8 * separate * 4096 + 64 * 1024

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_memory_is_one_block_per_worker(self, workers):
        # 250,001 frames make 20 units of 12,500 frames, each of three chunk
        # widths (5600, 5600, 1300): a block per unit, or per chunk width,
        # would exceed workers x one 5600-frame block of 26 floats a frame
        config = hbt_config(
            frames=250_001, seed=5, layout=DetectorLayout.colocated(5, 2), workers=workers
        )
        simulate_curve(config)
        block = 8 * 26 * CHUNK_FRAMES
        tracemalloc.start()
        try:
            simulate_curve(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < workers * block + 64 * 1024

    def test_single_frame_curves_match_brute_force(self):
        # one frame's curve can nearly vanish at some phase, where the
        # interpolated value is only good to rounding of the curve's scale;
        # seeds 44, 57 and 65 dip below zero there unless clipped
        for seed in range(70):
            config = SpeckleConfig(
                sources=SourceArray(),
                layout=DetectorLayout.colocated(5, 0),
                frames=1,
                seed=seed,
            )
            curve = simulate_curve(config)
            values, _ = brute_force_curve(config)
            assert np.all(curve.values >= 0.0)
            np.testing.assert_allclose(
                curve.values, values, rtol=1e-12, atol=1e-13 * values.max()
            )

    @pytest.mark.parametrize(
        "sources,layout",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2)),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2)),
        ],
        ids=["colocated-5-2", "k3-2-2"],
    )
    @pytest.mark.parametrize("frames", [2, 7, 21, 25, 39])
    def test_one_frame_batches_match_brute_force(self, sources, layout, frames):
        # under 40 frames some batches hold one frame, and they share one
        # chunk with the others: the curve and batch means stay those of the
        # reference, and bit-identical for any worker count
        config = SpeckleConfig(sources=sources, layout=layout, frames=frames, seed=9)
        runs = [simulate_curve(replace(config, workers=w)) for w in (1, 2, 3)]
        values, batch_means = brute_force_curve(config)
        for got, want in ((runs[0].values, values), (runs[0].batch_means, batch_means)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * want.max())
        for other in runs[1:]:
            for name in ("values", "stderr", "batch_means"):
                assert getattr(other, name).tobytes() == getattr(runs[0], name).tobytes()

    @pytest.mark.parametrize(
        "sources,layout,slit_ratio",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), 0.0),
            (SourceArray(), DetectorLayout.spread(3), 0.3),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 0.2),
        ],
    )
    def test_grid_point_value_independent_of_other_points(
        self, sources, layout, slit_ratio
    ):
        def run(points):
            return simulate_curve(
                SpeckleConfig(
                    sources=sources,
                    layout=layout,
                    frames=30_000,
                    seed=8,
                    grid=default_grid(points),
                    slit_ratio=slit_ratio,
                )
            )

        ends, full = run(2), run(181)
        assert np.array_equal(ends.values, full.values[[0, -1]])
        assert np.array_equal(ends.batch_means, full.batch_means[:, [0, -1]])

    @pytest.mark.parametrize(
        "sources,layout",
        [
            (SourceArray(nbar=(1e200,)), DetectorLayout.colocated(2, 0)),
            (SourceArray(nbar=(1e200, 1e200)), DetectorLayout.spread(2)),
            (SourceArray(nbar=(1e200,) * 3), DetectorLayout.colocated(2, 1)),
        ],
        ids=["colocated", "spread", "k3"],
    )
    def test_overflow_guard(self, sources, layout):
        config = SpeckleConfig(
            sources=sources, layout=layout, frames=64, seed=1, grid=default_grid(9)
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            AccumulatorOverflowError
        ):
            simulate_curve(config)

    @pytest.mark.parametrize("order", [169, 170])
    def test_moment_past_the_float_range(self, order):
        # at K = 2, c_M = (M+1)!, and float(c_M) overflows from M = 170 on.
        # Dim sources keep every weighted sum inside the double range; at
        # nbar 1 the values reach 1.4e305 at M = 169 and leave it at M = 170,
        # and at nbar 2 they leave it on both sides of the edge: a typed
        # error there, never an OverflowError or an inf curve
        dim = SpeckleConfig(
            sources=SourceArray(nbar=(0.04, 0.04)),
            layout=DetectorLayout.colocated(1, order - 1),
            frames=64,
            seed=1,
            grid=default_grid(9),
        )
        curve = simulate_curve(dim)
        values, batch_means = brute_force_curve(dim)
        np.testing.assert_allclose(curve.values, values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(curve.batch_means, batch_means, rtol=1e-12, atol=0)
        bright = replace(dim, sources=SourceArray(nbar=(1.0, 1.0)))
        if order == 169:
            curve = simulate_curve(bright)
            values, batch_means = brute_force_curve(bright)
            np.testing.assert_allclose(curve.values, values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                curve.batch_means, batch_means, rtol=1e-12, atol=0
            )
        else:
            with pytest.raises(AccumulatorOverflowError):
                simulate_curve(bright)
        brighter = replace(dim, sources=SourceArray(nbar=(2.0, 2.0)))
        with pytest.raises(AccumulatorOverflowError):
            simulate_curve(brighter)

    def test_stderr_of_means_past_the_square_root_of_the_range(self):
        # batch means of 8.7e205: their squares leave the double range, but
        # the stderr, 5e204, is taken on them scaled by a power of two
        config = SpeckleConfig(
            sources=SourceArray(nbar=(0.25, 0.25)),
            layout=DetectorLayout.colocated(1, 169),
            frames=64,
            seed=1,
        )
        curve = simulate_curve(config)
        assert np.isfinite(curve.values).all() and np.isfinite(curve.stderr).all()
        assert curve.batch_means.max() > 1e205
        spread = (curve.batch_means / 1e200).std(axis=0, ddof=1) * 1e200
        np.testing.assert_allclose(
            curve.stderr, spread / math.sqrt(MAX_BATCHES), rtol=1e-12, atol=0
        )

    def test_one_source_is_exact_past_the_float_range(self):
        # at K = 1 every frame's weighted product is M! nbar^M, here with
        # M = 171, where float(M!) overflows but the value is 1.2e70
        config = SpeckleConfig(
            sources=SourceArray(nbar=(0.04,)),
            layout=DetectorLayout.colocated(1, 170),
            frames=50,
            seed=2,
            grid=default_grid(9),
        )
        exact = math.factorial(171) * 4**171 / 100**171
        np.testing.assert_allclose(simulate_curve(config).values, exact, rtol=1e-12)

    def test_visibility_coverage_across_seeds(self):
        # the closed-form stderr of the visibility must cover the exact one:
        # 20 seeds at 2e4 frames on an M = 4 and an M = 7 layout, each fit
        # within 4 stderr of it.  Observed: 2 of the 40 fits more than 2
        # stderr off (largest 2.98), where about 2 would be expected; the two
        # layouts share each seed's directions, so their misses go together
        for m1 in (2, 5):
            layout = DetectorLayout.colocated(m1, 2)
            exact = fit_cosine(exact_curve(layout), 2).visibility
            for seed in range(20):
                config = SpeckleConfig(
                    sources=SourceArray(), layout=layout, frames=20_000, seed=seed
                )
                fit = fit_cosine(simulate_curve(config), 2)
                assert abs(fit.visibility - exact) < 4 * fit.stderr_visibility, seed


    @pytest.mark.parametrize(
        "sources,layout,relative_sd",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), (1.139, 1.720, 1.747)),
            (
                SourceArray.equidistant(3),
                DetectorLayout.colocated(2, 2),
                (1.746, 1.351, 1.198),
            ),
        ],
        ids=["colocated-5-2", "k3-2-2"],
    )
    def test_frame_distribution_follows_the_moment_theorem(
        self, sources, layout, relative_sd
    ):
        # one-frame batches make each batch mean one frame's weighted value,
        # whose j-th moment is c_M^j G_jM / c_jM, G_jM the correlation of the
        # M detectors each taken j times (ROADMAP item 10).  So the mean, the
        # variance c_M^2 G_2M / c_2M - G^2 and the standard errors of their
        # estimates from n frames are exact; 4000 frames must put both
        # estimates within 4 of those standard errors, at every delta1
        grid = np.array([0.0, 1.14, 1.71])
        frames = np.vstack(
            [
                simulate_curve(
                    SpeckleConfig(
                        sources=sources,
                        layout=layout,
                        frames=MAX_BATCHES,
                        seed=seed,
                        grid=grid,
                    )
                ).batch_means
                for seed in range(200)
            ]
        )
        n, k, order = frames.shape[0], sources.count, layout.order
        assert n == 4000
        for values, delta1, sd in zip(frames.T, grid, relative_sd):
            phases = layout.detector_phases(delta1)
            m1, m2, m3, m4 = (
                math.perm(k + order - 1, order) ** j
                * correlation_pathsum(sources, np.tile(phases, j))
                / math.perm(k + j * order - 1, j * order)
                for j in range(1, 5)
            )
            variance = m2 - m1**2
            assert math.sqrt(variance) / m1 == pytest.approx(sd, abs=5e-4)
            # the central fourth moment, and the variance of the unbiased
            # sample variance of n independent frames
            mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
            spread = mu4 / n - variance**2 * (n - 3) / (n * (n - 1))
            assert abs(values.mean() - m1) < 4 * math.sqrt(variance / n), delta1
            assert abs(values.var(ddof=1) - variance) < 4 * math.sqrt(spread), delta1


class TestWorkUnits:
    @pytest.mark.parametrize(
        "frames",
        [1, 7, 30, 39, 40, 20_001, 40_000, 56_000, 56_001, 112_000, 112_001, 1_000_000],
    )
    def test_units_hold_every_batch_in_order(self, frames):
        sizes = _batch_sizes(frames)
        units = _work_units(sizes)
        assert [batch for unit in units for batch in unit] == list(enumerate(sizes))
        totals = [sum(size for _, size in unit) for unit in units]
        for unit, total in zip(units, totals):
            if len(unit) > 1:
                assert total <= CHUNK_FRAMES
        # greedy: a unit ends only where its next batch no longer fits
        for total, after in zip(totals, units[1:]):
            assert total + after[0][1] > CHUNK_FRAMES

    @pytest.mark.parametrize(
        "frames,lengths",
        [
            # a 1001-frame batch and four of 1000 frames fill 5001 of 5600
            (20_001, [5] * 4),
            (40_000, [2] * 10),
            # two 2800-frame batches fill a chunk exactly; one frame more
            # leaves the 2801-frame first batch and the last one alone
            (56_000, [2] * 10),
            (56_001, [1] + [2] * 9 + [1]),
            # one- and two-frame batches share one chunk like any others
            (30, [20]),
            (100_000, [1] * 20),
            (6, [6]),
            (1, [1]),
        ],
    )
    def test_unit_lengths(self, frames, lengths):
        assert [len(unit) for unit in _work_units(_batch_sizes(frames))] == lengths

    def test_shared_chunk_gives_each_batch_its_own_sums(self):
        # a batch's node sums do not depend on the batches that share its
        # chunk: bit for bit the sums of the batch run alone
        config = hbt_config(
            frames=20_001, seed=17, layout=DetectorLayout.colocated(3, 2)
        )
        plan = _plan(config)
        unit = _work_units(_batch_sizes(config.frames))[0]
        together = run_unit(config, plan, unit)
        for row, batch in enumerate(unit):
            alone = run_unit(config, plan, [batch])
            assert alone.tobytes() == together[row : row + 1].tobytes()


def reference_chunk(shares, phases, sources, layout, nodes, offsets, counts):
    """Reference: a chunk's node products, (nodes, frames), with fresh arrays.

    shares and phases are the chunk's uniforms, (frames, K-1) each.  Every
    fixed phase has a column of its own, and the fixed product F is broadcast
    into every node row before the powers multiply in.  The float operations
    are _run_unit's, one for one, so the results are bit-equal.
    """
    frames, k, nbar = shares.shape[0], sources.count, sources.nbar
    coefs = np.ones((2 * k - 1, frames))
    # w[l]: source l's remainder of the stick, then its share scaled by
    # nbar_l / nbar_0, then its square root; at K = 2, w[0] is U itself
    w = np.empty((k, frames))
    for l in range(k - 1):
        n, u = k - 1 - l, shares[:, l]
        rest = 1.0 - u
        if n > 1:
            rest = np.sqrt(rest) if n == 2 else np.power(rest, 1.0 / n)
        if l:
            rest = rest * w[l]
        if n > 1:
            w[l] = (w[l] if l else 1.0) - rest
        else:
            w[l] = w[l] * u if l else u
        w[l + 1] = rest
    for l in range(1, k):
        if nbar[l] != nbar[0]:
            w[l] *= nbar[l] / nbar[0]
    if any(ratio != nbar[0] for ratio in nbar[1:]):
        coefs[0] = np.add.reduce(w, axis=0)
    if k == 2:
        scale = np.sqrt(w[1] * w[0])
    elif k > 2:
        w = np.sqrt(w)
        scale = w[0]
    lattice = lattice_size(layout)
    angles = TWO_PI * np.arange(lattice) / lattice
    index = (phases.T * float(lattice)).astype(np.intp)
    amps = np.empty((3, k - 1, frames))
    amps[0], amps[1] = np.cos(angles)[index], np.sin(angles)[index]
    if k > 2:
        amps[:2] *= w[1:]
        amps[2] = -amps[0]
    if k > 1:
        ys = coefs[1:].reshape(2, k - 1, frames)
        ys[...] = amps[:2] * scale
        for d in range(1, k - 1):
            ys[0, d - 1] += np.einsum("jmf,jmf->f", amps[:2, d:], amps[:2, : k - 1 - d])
            ys[1, d - 1] += np.einsum("jmf,jmf->f", amps[1:, d:], amps[:2, : k - 1 - d])
    theta = TWO_PI * np.arange(nodes) / (nodes * _period(offsets, counts))
    phases = np.concatenate([(offsets[:, None] + theta).ravel(), layout.fixed_phases])
    angles = np.arange(1, k)[:, None] * phases[None, :]
    table = np.vstack([np.ones_like(phases), 2.0 * np.cos(angles), 2.0 * np.sin(angles)])
    intensity = np.einsum("rc,rf->cf", table, coefs)
    product = np.empty((nodes, frames))
    np.prod(intensity[counts.size * nodes :], axis=0, out=product[0])
    product[1:] = product[0]
    groups = intensity[: counts.size * nodes].reshape(counts.size, nodes, frames)
    for power, count in zip(groups, counts.tolist()):
        while True:
            if count & 1:
                product *= power
            count >>= 1
            if not count:
                break
            power *= power
    return product


def reference_unit_sums(config, unit):
    """Reference: a unit's node sums, drawn and chunked as _run_unit draws them."""
    layout, k = config.layout, config.sources.count
    offsets, counts = np.unique(layout.moving_offsets, return_counts=True)
    nodes = 2 * (layout.m1 * (k - 1) // _period(offsets, counts)) + 1
    width = min(CHUNK_FRAMES, sum(size for _, size in unit))
    sums, pieces, filled = np.zeros((len(unit), nodes)), [], 0
    for row, (b, size) in enumerate(unit):
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(config.seed, spawn_key=(0, b)))
        )
        while size:
            f = min(width - filled, size)
            pieces.append((row, rng.random((f, k - 1)), rng.random((f, k - 1))))
            filled, size = filled + f, size - f
            if filled == width or not size and row == len(unit) - 1:
                product = reference_chunk(
                    np.concatenate([piece[1] for piece in pieces]),
                    np.concatenate([piece[2] for piece in pieces]),
                    config.sources,
                    layout,
                    nodes,
                    offsets,
                    counts,
                )
                start = 0
                for r, shares, _ in pieces:
                    sums[r] += product[:, start : start + shares.shape[0]].sum(axis=1)
                    start += shares.shape[0]
                filled, pieces = 0, []
    return sums


class TestKernelReference:
    @pytest.mark.parametrize(
        "sources,layout",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2)),
            (SourceArray(), DetectorLayout.spread(2)),
            (SourceArray(), DetectorLayout.spread(3)),
            (SourceArray(), DetectorLayout.spread(4)),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2)),
            (SourceArray(nbar=(0.5, 1.0, 2.0)), DetectorLayout.colocated(3, 2)),
            (SourceArray(), DetectorLayout.colocated(0, 3)),
            (SourceArray(), DetectorLayout.colocated(4, 0)),
            (
                SourceArray.equidistant(3),
                DetectorLayout(
                    fixed_phases=(math.pi / 2, 0.0, math.pi / 2, 1.0),
                    moving_offsets=(0.0, math.pi / 2, math.pi / 2),
                ),
            ),
        ],
        ids=[
            "colocated-5-2",
            "spread-2",
            "spread-3",
            "spread-4",
            "k3-2-2",
            "unequal-3-2",
            "fixed-only-0-3",
            "moving-only-4-0",
            "custom-repeated-fixed",
        ],
    )
    def test_unit_sums_equal_the_reference(self, sources, layout):
        # one worker, its block as wide as a full chunk, runs in turn a batch
        # of 2.5 chunks whose last chunk is partial, a unit of five batches
        # that share a chunk, a one-frame batch and the first batch again:
        # every width reuses the block, and every width bound stays bound
        config = SpeckleConfig(sources=sources, layout=layout, frames=20_001, seed=29)
        plan = _plan(config)
        packed = _work_units(_batch_sizes(config.frames))[1]
        assert len(packed) == 5 and packed[0] == (5, 1000)
        worker = _Worker(config, plan, CHUNK_FRAMES)
        units = [[(0, 5 * CHUNK_FRAMES // 2)], packed, [(3, 1)], [(0, 5 * CHUNK_FRAMES // 2)]]
        for unit in units:
            sums = _run_unit(worker, unit)
            assert np.array_equal(sums, reference_unit_sums(config, unit))
        assert sorted(worker.pipelines) == [1, 2800, 5000, CHUNK_FRAMES]

    @pytest.mark.parametrize("frames", [7, 25])
    def test_one_frame_batches_equal_the_reference(self, frames):
        # 7 one-frame batches, or 5 of two frames and 15 of one, share a chunk
        config = hbt_config(frames=frames, seed=4, layout=DetectorLayout.colocated(5, 2))
        (unit,) = _work_units(_batch_sizes(config.frames))
        assert len(unit) == min(frames, MAX_BATCHES) and unit[-1][1] == 1
        worker = _Worker(config, _plan(config), frames)
        assert np.array_equal(_run_unit(worker, unit), reference_unit_sums(config, unit))


def oracle_coefficients(shares, phases, nbar, lattice):
    """Reference: c0 = sum_l |a_l|^2 and Re, Im of Y_d = sum_m a_(m+d) conj(a_m),
    d = 1..K-1, (2K-1, frames), from complex128 amplitudes.

    The shares break the stick as the module states, w_l = r_l - r_(l+1) with
    r_(l+1) = r_l (1 - U_l)^(1/(K-1-l)), or r_l U_l for the last but one;
    a_l = sqrt(w_l nbar_l / nbar_0) exp(i phi_l), phi_0 = 0 and phi_l =
    2*pi*floor(L V_l)/L.
    """
    frames, k = shares.shape[0], len(nbar)
    rest, w = np.ones(frames), []
    for l in range(k - 1):
        n, u = k - 1 - l, shares[:, l]
        after = rest * (1.0 - u) ** (1.0 / n)
        w.append(rest - after if n > 1 else rest * u)
        rest = after if n > 1 else rest * (1.0 - u)
    w.append(rest)
    angles = np.column_stack([np.zeros(frames), np.floor(lattice * phases)])
    a = np.sqrt(np.column_stack(w) * np.asarray(nbar) / nbar[0])
    a = a * np.exp(1j * TWO_PI * angles / lattice)
    ys = [(a[:, d:] * np.conj(a[:, : k - d])).sum(axis=1) for d in range(1, k)]
    return np.vstack([(np.abs(a) ** 2).sum(axis=1)] + [y.real for y in ys] + [y.imag for y in ys])


class TestCoefficientRows:
    @pytest.mark.parametrize(
        "nbar",
        [
            (1.0,),
            (1.0, 1.0),
            (0.5, 2.0),
            (1.0, 1.0, 1.0),
            (0.5, 1.0, 2.0),
            (1.0,) * 4,
            (0.5, 1.0, 1.0, 2.0),
            (1.0,) * 5,
            (2.0, 0.25, 1.0, 3.0, 0.5),
        ],
    )
    def test_rows_are_the_autocorrelation_of_the_amplitudes(self, nbar):
        # the worker's real rows against the complex autocorrelation of the
        # same draws: c0 = 1 at equal brightness, x_0 a_d in every lag, and
        # each cross term from K = 3, to a few eps of c0 in every frame
        config = SpeckleConfig(
            sources=SourceArray(nbar=nbar),
            layout=DetectorLayout.colocated(2, 1),
            frames=1,
            seed=0,
        )
        plan, frames = _plan(config), 3000
        worker = _Worker(config, plan, frames)
        calls, _, (both, shares, phases) = worker.pipeline(frames)
        np.random.Generator(np.random.SFC64(11)).random(out=both)
        expected = oracle_coefficients(
            shares.copy(), phases.copy(), nbar, plan.lattice.shape[1]
        )
        for call in calls:
            call()
        gap = np.abs(worker.coefs[:, :frames] - expected).max(axis=0)
        assert np.all(gap <= 8 * np.finfo(float).eps * expected[0])

    @pytest.mark.parametrize(
        "sources,layout,budget",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), 14),
            (SourceArray(), DetectorLayout.spread(3), 14),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 26),
        ],
        ids=["colocated-5-2", "spread-3", "k3-2-2"],
    )
    def test_chunk_call_budget(self, sources, layout, budget):
        # each bound call gives up the GIL and takes it back, and two workers
        # wait on each other there: a chunk's calls may not grow back
        config = SpeckleConfig(sources=sources, layout=layout, frames=1, seed=0)
        worker = _Worker(config, _plan(config), CHUNK_FRAMES)
        assert len(worker.pipeline(CHUNK_FRAMES)[0]) <= budget


class TestDirectionRule:
    @pytest.mark.parametrize(
        "sources,layout",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2)),
            (SourceArray(), DetectorLayout.spread(3)),
            (SourceArray(nbar=(0.5, 2.0)), DetectorLayout.colocated(5, 2)),
        ],
        ids=["colocated-5-2", "spread-3", "unequal-5-2"],
    )
    def test_gauss_lattice_rule_gives_the_path_sum(self, sources, layout):
        # with no RNG: at K = 2 a frame's value is a trigonometric polynomial
        # of degree <= M in its relative phase, so all L lattice phases average
        # it exactly, and that average is a polynomial of degree <= M in the
        # share U, which ceil((M+1)/2) Gauss-Legendre nodes integrate exactly.
        # Fed that product rule, the draw rows give the path sum at every node
        config = SpeckleConfig(sources=sources, layout=layout, frames=1, seed=0)
        plan = _plan(config)
        nodes, period, lattice = plan.nodes, plan.period, plan.lattice.shape[1]
        order = layout.order
        points, weights = np.polynomial.legendre.leggauss(-(-(order + 1) // 2))
        frames = points.size * lattice
        worker = _Worker(config, plan, frames)
        calls, product, (_, shares, phases) = worker.pipeline(frames)
        shares[:, 0] = np.repeat((points + 1.0) / 2.0, lattice)
        phases[:, 0] = np.tile(np.arange(lattice) / lattice, points.size)
        for call in calls:
            call()
        rule = np.repeat(weights / (2.0 * lattice), lattice)
        moment = math.perm(order + 1, order) * sources.nbar[0] ** order
        got = (product * rule).sum(axis=1) * moment
        theta = TWO_PI * np.arange(nodes) / (nodes * period)
        phases = [layout.detector_phases(t) for t in theta]
        expected = [correlation_pathsum(sources, deltas) for deltas in phases]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def period_of(moving_offsets):
    return _period(*np.unique(moving_offsets, return_counts=True))


def exhaustive_period(moving_offsets):
    """Reference: every p from the detector count down to 2, divisor or not."""
    offsets, counts = np.unique(moving_offsets, return_counts=True)
    for p in range(int(counts.sum()), 1, -1):
        gap = (offsets[:, None] + TWO_PI / p - offsets) % TWO_PI
        if np.array_equal((np.minimum(gap, TWO_PI - gap) <= 1e-12) @ counts, counts):
            return p
    return 1


def period_sweep():
    """Combs of 1..9, rotated, doubled, with a stray or a near-duplicate offset."""
    yield np.zeros(0)
    for m in range(1, 10):
        comb = magic_positions(m)
        yield from (comb, comb + 0.7, (comb - 2.0) % TWO_PI, comb + TWO_PI, np.zeros(m))
        yield np.concatenate([comb, comb])
        yield np.concatenate([comb, comb, comb + math.pi / m])
        yield np.concatenate([comb, [0.3]])
        yield np.concatenate([comb, comb[:1]])
        # offsets apart by less, about as much and more than the 1e-12 rad match
        for eps in (1e-13, 5e-13, 2e-12, 1e-9):
            yield np.concatenate([comb, comb[:1] + eps])
            yield np.concatenate([comb[:-1], comb[-1:] + eps])
            yield np.concatenate([comb, comb + eps])


class TestPeriod:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_spread_comb_of_m(self, m):
        assert period_of(DetectorLayout.spread(m).moving_offsets) == m

    @pytest.mark.parametrize("m1", range(0, 9))
    def test_colocated_is_one(self, m1):
        assert period_of(DetectorLayout.colocated(m1, 2).moving_offsets) == 1

    @pytest.mark.parametrize(
        "offsets,period",
        [
            (tuple(0.1 + magic_positions(3)), 3),
            ((0.0, math.pi, 0.0, math.pi), 2),
            ((0.0, math.pi), 2),
            ((0.0, math.pi + 1e-9), 1),
            # the shift must keep each offset's multiplicity
            ((0.0, 0.0, math.pi), 1),
        ],
    )
    def test_custom_offsets(self, offsets, period):
        assert period_of(offsets) == period

    def test_divisors_agree_with_every_p(self):
        # an orbit of the shift by 2*pi/p holds p distinct offsets, so the
        # search may skip every p that does not divide their number
        layouts = list(period_sweep())
        assert len(layouts) == 190
        wrong = [
            (offsets.tolist(), period_of(offsets), exhaustive_period(offsets))
            for offsets in layouts
            if period_of(offsets) != exhaustive_period(offsets)
        ]
        assert wrong == []

    def test_one_plan_per_run(self, monkeypatch):
        # 250,001 frames at 2 workers: 20 work units, one plan and one period
        from thermalnoon import speckle

        calls = {"_plan": 0, "_period": 0}

        def counted(name):
            original = getattr(speckle, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(speckle, name, counted(name))
        assert len(_work_units(_batch_sizes(250_001))) == 20
        simulate_curve(
            hbt_config(
                frames=250_001, seed=5, layout=DetectorLayout.colocated(5, 2), workers=2
            )
        )
        assert calls == {"_plan": 1, "_period": 1}

    @pytest.mark.parametrize(
        "layout",
        [
            DetectorLayout.colocated(3, 2),
            DetectorLayout.spread(3),
            DetectorLayout(fixed_phases=(0.4,), moving_offsets=(0.0, math.pi, 0.5)),
        ],
    )
    def test_point_sources_have_a_slit_factor_of_exactly_one(self, layout):
        # sinc of +0.0 and -0.0 is exactly 1: no branch is needed for slit 0
        grid = np.array([-1e12, -40.0, -math.pi, -0.0, 0.0, 1e-300, 2.5, 700.0, 1e12])
        config = hbt_config(layout=layout, grid=grid)
        assert np.array_equal(envelope_factor(config), np.ones(grid.size))

    @pytest.mark.parametrize(
        "sources,layout,columns",
        [
            # 3 offsets x 3 nodes in [0, 2*pi/3); the 3 fixed detectors read
            # node 0 of each offset
            (SourceArray(), DetectorLayout.spread(3), 9),
            # 11 nodes at offset 0, plus the fixed detector at pi; the one at
            # 0 reads node 0
            (SourceArray(), DetectorLayout.colocated(5, 2), 12),
            (SourceArray(), DetectorLayout.spread(2), 6),
            (SourceArray(), DetectorLayout.spread(4), 12),
            # K = 3: 5 nodes a comb offset, the fixed comb on node 0 of each
            (SourceArray.equidistant(3), DetectorLayout.spread(3), 15),
            # a repeated fixed phase has one column; so has a fixed phase
            # -0.0, bit-unequal to node 0 at +0.0, of its own
            (
                SourceArray(),
                DetectorLayout(fixed_phases=(1.0, 1.0, -0.0, 0.0), moving_offsets=(0.0,)),
                5,
            ),
        ],
    )
    def test_phase_columns(self, sources, layout, columns):
        config = SpeckleConfig(sources=sources, layout=layout, frames=1, seed=0)
        table, fixed = _plan(config).table, _plan(config).fixed
        assert table.shape[1] == columns
        # each fixed detector's column holds its own phase's basis, bit for bit
        phases = np.asarray(layout.fixed_phases)
        angles = np.arange(1, sources.count)[:, None] * phases[None, :]
        own = np.vstack([np.ones_like(phases), 2.0 * np.cos(angles), 2.0 * np.sin(angles)])
        assert table[:, fixed].tobytes() == own.tobytes()


class TestFitCosine:
    def test_recovers_exact_doubled_frequency_curve(self):
        curve = exact_curve(DetectorLayout.colocated(3, 2), default_grid(721))
        fit = fit_cosine(curve, 2)
        assert fit.frequency == 2
        assert fit.dominant_frequency == 2
        assert fit.visibility == pytest.approx(3 / 19, abs=1e-9)
        assert fit.amplitude < 0
        assert fit.parity_ok
        assert fit.stderr_visibility == 0.0

    def test_recovers_exact_spread_curve(self):
        curve = exact_curve(DetectorLayout.spread(3), default_grid(721))
        fit = fit_cosine(curve, 3)
        assert fit.dominant_frequency == 3
        assert fit.visibility == pytest.approx(1 / 21, abs=1e-9)

    def test_constant_curve_has_no_modulation(self):
        grid = default_grid(181)
        curve = CorrelationCurve(
            grid=grid, values=np.full(grid.shape, 5.0), order=2, layout="test"
        )
        fit = fit_cosine(curve, 2)
        assert fit.amplitude == pytest.approx(0.0, abs=1e-12)
        assert fit.visibility == pytest.approx(0.0, abs=1e-12)
        assert fit.parity_ok

    def test_positive_parity_family(self):
        curve = exact_curve(DetectorLayout.colocated(4, 3), default_grid(361))
        fit = fit_cosine(curve, 3)
        assert fit.amplitude > 0
        assert fit.parity_ok
        assert fit.visibility == pytest.approx(1 / 24, abs=1e-9)

    def test_wrong_sign_flagged(self):
        grid = default_grid(181)
        # frequency 3 with the sign that belongs to even combs
        values = 10.0 - np.cos(3 * grid)
        curve = CorrelationCurve(grid=grid, values=values, order=6, layout="test")
        fit = fit_cosine(curve, 3)
        assert not fit.parity_ok

    @pytest.mark.parametrize("frequency", [0, -2])
    def test_rejects_bad_frequency(self, frequency):
        with pytest.raises(ValueError):
            fit_cosine(exact_curve(DetectorLayout.colocated(2, 2)), frequency)

    @pytest.mark.parametrize("frequency", [True, 2.0])
    def test_frequency_must_be_an_integer(self, frequency):
        with pytest.raises(ValueError, match="frequency must be an integer"):
            fit_cosine(exact_curve(DetectorLayout.colocated(2, 2)), frequency)

    def test_rejects_insufficient_span(self):
        grid = np.linspace(0, math.pi, 91)
        values = 10.0 - np.cos(2 * grid)
        curve = CorrelationCurve(grid=grid, values=values, order=4, layout="test")
        # frequency 2 fits inside half a turn, frequency 1 does not
        assert fit_cosine(curve, 2).dominant_frequency == 2
        with pytest.raises(ValueError):
            fit_cosine(curve, 1)

    def test_rejects_a_curve_without_positive_offset(self):
        grid = default_grid(181)
        curve = CorrelationCurve(
            grid=grid, values=np.zeros(grid.size), order=2, layout="test"
        )
        with pytest.raises(ValueError, match="fitted offset must be positive"):
            fit_cosine(curve, 2)

    def test_error_bars_depend_on_the_curve_alone(self):
        # the fit draws nothing: the curve's seed field does not enter it
        curve = simulate_curve(hbt_config(frames=40_000, seed=3))
        first = fit_cosine(curve, 1)
        second = fit_cosine(replace(curve, seed=None), 1)
        assert first.stderr_visibility == second.stderr_visibility
        assert first.stderr_amplitude == second.stderr_amplitude
        assert first.stderr_visibility > 0

    @pytest.mark.parametrize("frequency", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "grid",
        [
            lambda f: np.array([0.0, TWO_PI / f]),
            lambda f: np.array([0.0, TWO_PI / f, 2 * TWO_PI / f]),
            # cos takes the same value at both points, up to rounding
            lambda f: np.array([0.3, 0.3 + TWO_PI / f]),
        ],
        ids=["period", "two-periods", "shifted-period"],
    )
    def test_rank_deficient_design_takes_the_minimum_norm_answer(self, grid, frequency):
        # cos(frequency * grid) is constant, so 1 and cos are one column:
        # lstsq's answer is the least-squares fit of minimum norm
        grid = grid(frequency)
        values = np.linspace(2.0, 3.0, grid.size)
        curve = CorrelationCurve(grid=grid, values=values, order=2, layout="test")
        design = np.column_stack([np.ones_like(grid), np.cos(frequency * grid)])
        (offset, amplitude), *_ = np.linalg.lstsq(design, values, rcond=None)
        fit = fit_cosine(curve, frequency)
        assert fit.offset == pytest.approx(offset, rel=1e-12)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-12)
        assert fit.amplitude == pytest.approx(fit.offset * np.cos(frequency * grid[0]))


class TestFitMatchesLstsqReference:
    """fit_cosine's one projection against per-resample lstsq refits."""

    @staticmethod
    def assert_matches(curve, frequency, flat=False):
        fit = fit_cosine(curve, frequency)
        ref = reference_fit(curve, frequency)
        # a flat curve's amplitude is noise-sized: compare it on the offset's scale
        scale = 1e-12 * ref["offset"] if flat else 0.0
        for name in ("offset", "stderr_visibility", "stderr_amplitude"):
            assert getattr(fit, name) == pytest.approx(ref[name], rel=1e-12, abs=0.0)
        assert fit.amplitude == pytest.approx(ref["amplitude"], rel=1e-12, abs=scale)
        assert fit.visibility == pytest.approx(
            ref["visibility"], rel=1e-12, abs=scale / ref["offset"]
        )
        assert fit.dominant_frequency == ref["dominant_frequency"]
        assert fit.parity_ok == ref["parity_ok"]

    @pytest.mark.parametrize("name", SEEDED_FITS)
    def test_seeded_fits(self, name):
        layout = SEEDED_FITS[name][1]
        flat = layout.m1 < layout.m2
        self.assert_matches(seeded_fit_curve(name), layout.m2, flat=flat)

    @pytest.mark.parametrize("name", SEEDED_FITS)
    def test_seeded_fits_agree_with_a_long_bootstrap(self, name):
        # the closed forms are the limit of the bootstrap: 20,000 resamples
        # carry about 0.5% noise of their own.  Observed on these curves: the
        # amplitude within 0.8%, the visibility within 2.4%.  With three
        # one-frame batches the resampled mean takes ten values, and V* =
        # |B*|/A* is then far from its first-order expansion, however close
        # one seed's bar comes: only the amplitude is compared
        curve, frequency = seeded_fit_curve(name), SEEDED_FITS[name][1].m2
        fit = fit_cosine(curve, frequency)
        stderr_vis, stderr_amp = bootstrap_fit_errors(curve, frequency)
        assert fit.stderr_amplitude == pytest.approx(stderr_amp, rel=0.05)
        if curve.batch_means.shape[0] > 3:
            assert fit.stderr_visibility == pytest.approx(stderr_vis, rel=0.05)

    def test_short_runs_understate_their_error_bars(self):
        # a known limit, pinned so that it stays written down: below 20 frames
        # nb < 20, the plug-in spread is sqrt((nb-1)/nb) of the batch means'
        # sample spread, and at three one-frame batches the first-order
        # visibility bar falls short of a long bootstrap's too, in the median
        curve = seeded_fit_curve("three-frames")
        nb = curve.batch_means.shape[0]
        assert nb == 3
        fit = fit_cosine(curve, 2)
        design = np.column_stack([np.ones_like(curve.grid), np.cos(2 * curve.grid)])
        b = [np.linalg.lstsq(design, m, rcond=None)[0][1] for m in curve.batch_means]
        sample = float(np.std(b, ddof=1)) / math.sqrt(nb)
        assert fit.stderr_amplitude == pytest.approx(math.sqrt((nb - 1) / nb) * sample, rel=1e-9)
        # the visibility bar against a 20,000-draw bootstrap's is a ratio that
        # one seed's stream swings past 1 (1.001 here), so it is held over the
        # same run at seeds 0-199: median 0.980, 31% of the seeds below 0.9
        ratios, layout = [], DetectorLayout.colocated(2, 2)
        for seed in range(200):
            short = simulate_curve(hbt_config(frames=3, seed=seed, layout=layout))
            stderr_vis, _ = bootstrap_fit_errors(short, 2)
            ratios.append(fit_cosine(short, 2).stderr_visibility / stderr_vis)
        assert np.median(ratios) < 1.0

    @pytest.mark.parametrize(
        "curve,frequency",
        [
            (exact_curve(DetectorLayout.spread(2)), 2),
            (exact_curve(DetectorLayout.spread(3), default_grid(721)), 3),
            (exact_curve(DetectorLayout.colocated(3, 2), default_grid(721)), 2),
            (exact_curve(DetectorLayout.colocated(4, 3), default_grid(361)), 3),
        ],
        ids=["spread-4", "spread-6", "colocated-3-2", "colocated-4-3"],
    )
    def test_exact_fits(self, curve, frequency):
        self.assert_matches(curve, frequency)


class TestDominantFrequency:
    def test_reads_exact_harmonics(self):
        grid = default_grid(181)
        for freq in (1, 2, 3, 5):
            values = 10.0 + np.cos(freq * grid)
            curve = CorrelationCurve(
                grid=grid, values=values, order=2, layout="test"
            )
            assert dominant_frequency(curve.grid, curve.values) == freq

    def test_half_turn_grid(self):
        grid = np.linspace(0, math.pi, 91)
        values = 10.0 + np.cos(2 * grid)
        assert dominant_frequency(grid, values) == 2

    @pytest.mark.parametrize(
        "stop", [2 * math.pi, 1.5 * math.pi], ids=["endpoint", "open"]
    )
    def test_four_points_are_enough(self, stop):
        # a duplicated 2*pi endpoint leaves 3 samples, and rfft 2 bins of them
        grid = np.linspace(0.0, stop, 4)
        frequency = dominant_frequency(grid, 10.0 + np.cos(grid))
        assert type(frequency) is int
        assert frequency == 1

    def test_three_points_are_too_few(self):
        assert dominant_frequency(np.linspace(0.0, 2 * math.pi, 3), np.ones(3)) is None

    def test_nonuniform_grid_unsupported(self):
        grid = np.array([0.0, 0.1, 0.5, 2.0, 6.0])
        values = np.ones(5)
        assert dominant_frequency(grid, values) is None

    @pytest.mark.parametrize("points", [3, 7])
    def test_values_of_another_length_are_refused(self, points):
        # both lengths named, before any transform; a short grid is no excuse
        for grid in (np.arange(6.0), np.arange(2.0)):
            with pytest.raises(ValueError, match=f"{points} points .* {grid.size}"):
                dominant_frequency(grid, np.ones(points))


@dataclass(frozen=True)
class ConvergenceReport:
    frames_small: int
    frames_large: int
    stderr_small: float
    stderr_large: float
    ratio: float
    expected_ratio: float
    within_factor_two: bool


def convergence_probe(
    config: SpeckleConfig,
    frames_small: int,
    frames_large: int,
    frequency: int | None = None,
) -> ConvergenceReport:
    """Check that the visibility stderr shrinks like 1/sqrt(frames).

    Runs the same config at two frame counts (frames_large >= 4*frames_small)
    and compares the stderr ratio to sqrt(frames_large/frames_small) within a
    factor of two.
    """
    if frames_small < 1 or frames_large < 4 * frames_small:
        raise ValueError("need frames_large >= 4*frames_small >= 4")
    if frequency is None:
        frequency = config.layout.m2 if config.layout.m2 >= 1 else 1
    fit_small = fit_cosine(
        simulate_curve(replace(config, frames=frames_small)), frequency
    )
    fit_large = fit_cosine(
        simulate_curve(replace(config, frames=frames_large)), frequency
    )
    expected = math.sqrt(frames_large / frames_small)
    ratio = (
        fit_small.stderr_visibility / fit_large.stderr_visibility
        if fit_large.stderr_visibility > 0
        else math.inf
    )
    return ConvergenceReport(
        frames_small=frames_small,
        frames_large=frames_large,
        stderr_small=fit_small.stderr_visibility,
        stderr_large=fit_large.stderr_visibility,
        ratio=ratio,
        expected_ratio=expected,
        within_factor_two=bool(expected / 2.0 <= ratio <= 2.0 * expected),
    )


class TestConvergenceProbe:
    def test_error_shrinks_like_root_frames(self):
        report = convergence_probe(hbt_config(seed=4), 10_000, 40_000)
        assert report.frames_small == 10_000
        assert report.frames_large == 40_000
        assert report.expected_ratio == pytest.approx(2.0)
        assert report.within_factor_two
        assert 1.0 <= report.ratio <= 4.0

    def test_requires_meaningful_growth(self):
        with pytest.raises(ValueError):
            convergence_probe(hbt_config(), 10_000, 20_000)
