import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from conftest import older_layout_format

from thermalnoon.analytic import closed_form
from thermalnoon.curves import CorrelationCurve, default_grid
from thermalnoon.errors import AccumulatorOverflowError
from thermalnoon.geometry import DetectorLayout, SourceArray, magic_positions
from thermalnoon.pathsum import correlation_pathsum
from thermalnoon.speckle import (
    BOOTSTRAP_RESAMPLES,
    CHUNK_FRAMES,
    MAX_BATCHES,
    SpeckleConfig,
    _envelope,
    _envelope_factor,
    _phase_table,
    _run_batch,
    dominant_frequency,
    fit_cosine,
    simulate_curve,
)


def exact_curve(layout, grid=None):
    return closed_form(layout).curve(layout, grid)


def brute_force_curve(config):
    """Reference: every frame's field at every grid point's detector phases.

    Follows the documented batch layout: min(MAX_BATCHES, frames) batches,
    the first frames % batches of them one frame longer; batch b draws
    standard normals (frames, 2K) in chunks of CHUNK_FRAMES from
    Philox(key=seed, counter=[0, 0, 0, b]), real parts first.  Returns the
    curve values and the batch means.
    """
    phases = np.array([config.layout.detector_phases(d) for d in config.grid])
    envelope = np.sinc(phases * config.slit_ratio / (2.0 * math.pi))
    k = config.sources.count
    # steer[l, g, d]: what source l puts on detector d at grid point g
    steer = envelope * np.exp(-1j * np.arange(k)[:, None, None] * phases)
    scale = np.sqrt(np.asarray(config.sources.nbar) / 2.0)
    batches = min(MAX_BATCHES, config.frames)
    base, rem = divmod(config.frames, batches)
    sizes = [base + (b < rem) for b in range(batches)]
    batch_means = []
    for b, size in enumerate(sizes):
        rng = np.random.Generator(
            np.random.Philox(key=config.seed, counter=[0, 0, 0, b])
        )
        z = np.concatenate(
            [
                rng.standard_normal((min(CHUNK_FRAMES, size - start), 2 * k))
                for start in range(0, size, CHUNK_FRAMES)
            ]
        )
        amps = (z[:, :k] + 1j * z[:, k:]) * scale
        total = np.zeros(config.grid.size)
        for start in range(0, size, 256):
            fields = np.einsum("fl,lgd->fgd", amps[start : start + 256], steer)
            total += np.prod(np.abs(fields) ** 2, axis=2).sum(axis=0)
        batch_means.append(total / size)
    batch_means = np.array(batch_means)
    values = (batch_means * np.array(sizes)[:, None]).sum(axis=0) / config.frames
    return values, batch_means


def reference_fit(curve, frequency):
    """Reference: one lstsq solve for the curve and one per bootstrap resample.

    Resample i draws nb batch indices, in turn, from
    Philox(key=seed, counter=[0, 0, 1, 0]) and refits the mean of the
    resampled batch means.  Returns the FitResult fields as a dict.
    """
    grid = curve.grid
    design = np.column_stack([np.ones_like(grid), np.cos(frequency * grid)])

    def lsq(values):
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        return float(coef[0]), float(coef[1])

    offset, amplitude = lsq(curve.values)
    stderr_vis = stderr_amp = 0.0
    if curve.batch_means is not None and curve.batch_means.shape[0] >= 2:
        rng = np.random.Generator(
            np.random.Philox(key=curve.seed, counter=[0, 0, 1, 0])
        )
        nb = curve.batch_means.shape[0]
        visibilities, amplitudes = [], []
        for _ in range(BOOTSTRAP_RESAMPLES):
            idx = rng.integers(0, nb, size=nb)
            a, b = lsq(curve.batch_means[idx].mean(axis=0))
            visibilities.append(abs(b) / a)
            amplitudes.append(b)
        stderr_vis = float(np.std(visibilities, ddof=1))
        stderr_amp = float(np.std(amplitudes, ddof=1))
    return {
        "offset": offset,
        "amplitude": amplitude,
        "visibility": abs(amplitude) / offset,
        "stderr_visibility": stderr_vis,
        "stderr_amplitude": stderr_amp,
        "dominant_frequency": dominant_frequency(grid, curve.values),
        "parity_ok": amplitude * (-1) ** (frequency - 1) >= 0.0,
    }


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
            ("layout", "moving_count", 2.7),
            ("layout", "fixed_phases", [math.nan]),
        ],
    )
    def test_from_dict_never_truncates(self, section, field, value):
        data = hbt_config().to_dict()
        if field == "moving_count":
            older_layout_format(data)
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
            ("layout", "moving_count", True),
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
            "moving-count-bool",
            "phase-string",
            "nbar-string",
            "nbar-scalar",
            "offset-string",
            "offsets-scalar",
        ],
    )
    def test_from_dict_rejects_bools_and_strings(self, section, field, value):
        data = hbt_config().to_dict()
        if field == "moving_count":
            older_layout_format(data)
        (data if section is None else data[section])[field] = value
        with pytest.raises(ValueError, match=field):
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


class TestEnvelope:
    def test_no_slit_means_flat_envelope(self):
        phases = np.linspace(0, 2 * math.pi, 50)
        np.testing.assert_allclose(_envelope(phases, 0.0), 1.0)

    def test_sinc_profile(self):
        phases = np.array([0.0, 1.0, 2.0, math.pi])
        ratio = 0.5
        x = phases * ratio / 2.0
        expected = np.ones_like(phases)
        nz = x != 0
        expected[nz] = np.sin(x[nz]) / x[nz]
        np.testing.assert_allclose(_envelope(phases, ratio), expected, rtol=1e-12)

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
        factor = _envelope_factor(config)
        np.testing.assert_allclose(factor, expected, rtol=1e-12)
        # neighbouring points differ by 0.5% of the peak; wrapped, by 26%
        assert np.abs(np.diff(factor)).max() < 0.01 * factor.max()


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
        # and the second moment doubles the squared mean
        config = SpeckleConfig(
            sources=SourceArray(nbar=(1.0,)),
            layout=DetectorLayout.colocated(2, 0),
            frames=200_000,
            seed=11,
            grid=default_grid(25),
        )
        curve = simulate_curve(config)
        assert np.all(curve.values == curve.values[0])
        assert abs(curve.values[0] - 2.0) < 3 * curve.stderr[0]

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
        expected = _envelope(grid, 0.6) ** 2
        np.testing.assert_allclose(shaped.values / flat.values, expected, rtol=1e-9)

    @pytest.mark.parametrize(
        "sources,layout,frames,extra",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), 100_000, {}),
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
        ],
        ids=[
            "colocated-5-2",
            "spread-3-slit",
            "k3-2-2",
            "m1-0",
            "k1",
            "nonuniform",
            "k3-two-groups",
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

    def test_batch_memory_is_bounded(self):
        # colocated(5, 2), K = 2: 13 phase columns and 11 nodes.  A batch holds
        # the fields and one source's term, 13 x 4096 complex each, and the
        # product, 11 x 4096 floats: 504 B per frame.  A chunk adds its normals
        # (4 floats a frame), amplitudes (2 complex) and fixed-detector product
        # (1 float): 104 B per frame.  So 608 B x 4096 = 2.49 MB, and 64 kB
        # for small objects.
        config = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(5, 2),
            frames=50_000,
            seed=3,
        )
        offsets, counts = np.unique(config.layout.moving_offsets, return_counts=True)
        phases = _phase_table(config, offsets)
        table = np.exp(-1j * np.arange(2)[:, None] * phases[None, :])
        tracemalloc.start()
        try:
            _run_batch(config, table, counts, 0, config.frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 608 * CHUNK_FRAMES + 64 * 1024

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

    def test_bootstrap_spread_reproducible(self):
        curve = simulate_curve(hbt_config(frames=40_000, seed=3))
        first = fit_cosine(curve, 1)
        second = fit_cosine(curve, 1)
        assert first.stderr_visibility == second.stderr_visibility
        assert first.stderr_amplitude == second.stderr_amplitude
        assert first.stderr_visibility > 0


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

    @pytest.mark.parametrize(
        "sources,layout,frames,extra",
        [
            (SourceArray(), DetectorLayout.colocated(5, 2), 1_000_000, {}),
            (SourceArray(), DetectorLayout.spread(2), 40_000, {}),
            (SourceArray(), DetectorLayout.spread(3), 40_000, {"slit_ratio": 0.3}),
            (SourceArray.equidistant(3), DetectorLayout.colocated(2, 2), 20_000, {}),
            (
                SourceArray(),
                DetectorLayout.colocated(2, 1),
                20_000,
                {"slit_ratio": 0.2, "grid": default_grid(361)},
            ),
            (
                SourceArray(),
                DetectorLayout.colocated(3, 1),
                40_000,
                {"grid": default_grid(91)},
            ),
            (SourceArray(), DetectorLayout.colocated(1, 2), 40_000, {}),
            (
                SourceArray(),
                DetectorLayout.colocated(2, 2),
                37,
                {"grid": np.sort(np.random.default_rng(3).uniform(-1.0, 7.0, 30))},
            ),
            (SourceArray(), DetectorLayout.colocated(2, 2), 3, {}),
        ],
        ids=[
            "colocated-5-2-1e6",
            "spread-2",
            "spread-3-slit",
            "k3-2-2",
            "slit-361",
            "grid-91",
            "flat-1-2",
            "nonuniform-37-frames",
            "three-frames",
        ],
    )
    def test_seeded_fits(self, sources, layout, frames, extra):
        config = SpeckleConfig(
            sources=sources, layout=layout, frames=frames, seed=31, workers=2, **extra
        )
        flat = layout.m1 < layout.m2
        self.assert_matches(simulate_curve(config), layout.m2, flat=flat)

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

    def test_nonuniform_grid_unsupported(self):
        grid = np.array([0.0, 0.1, 0.5, 2.0, 6.0])
        values = np.ones(5)
        assert dominant_frequency(grid, values) is None


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
