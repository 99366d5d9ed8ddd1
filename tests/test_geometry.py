import math

import numpy as np
import pytest

from thermalnoon.geometry import (
    TWO_PI,
    DetectorLayout,
    SourceArray,
    magic_positions,
    moving_magic_positions,
    phase_from_angle,
    reduce_phase,
)


class TestReducePhase:
    @pytest.mark.parametrize(
        "phase,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (TWO_PI, 0.0),
            (-math.pi, math.pi),
            (3 * TWO_PI + 0.25, 0.25),
            (-7.5 * TWO_PI, math.pi),
        ],
    )
    def test_known_values(self, phase, expected):
        assert reduce_phase(phase) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(11)
        for phase in rng.uniform(-100.0, 100.0, size=500):
            reduced = reduce_phase(float(phase))
            assert 0.0 <= reduced < TWO_PI

    def test_wraps_near_two_pi_to_zero(self):
        # values a hair under 2*pi after fmod snap back to 0
        assert reduce_phase(TWO_PI - 1e-15) == 0.0
        assert reduce_phase(-1e-15) == 0.0


class TestMagicPositions:
    def test_single_detector(self):
        assert magic_positions(1).tolist() == [0.0]

    def test_pair(self):
        np.testing.assert_allclose(magic_positions(2), [0.0, math.pi])

    def test_triplet(self):
        np.testing.assert_allclose(
            magic_positions(3), [0.0, TWO_PI / 3, 2 * TWO_PI / 3]
        )

    @pytest.mark.parametrize("m", range(1, 13))
    def test_evenly_spaced_on_circle(self, m):
        phases = magic_positions(m)
        assert phases.shape == (m,)
        assert phases[0] == 0.0
        diffs = np.diff(phases)
        np.testing.assert_allclose(diffs, TWO_PI / m, rtol=1e-12)
        # total is pi*(m-1); the arrangement lemma relies on this
        assert phases.sum() == pytest.approx(math.pi * (m - 1), rel=1e-12)

    @pytest.mark.parametrize("m", [0, -1, -5])
    def test_rejects_nonpositive(self, m):
        with pytest.raises(ValueError):
            magic_positions(m)


class TestMovingMagicPositions:
    def test_shift_by_quarter_turn(self):
        np.testing.assert_allclose(
            moving_magic_positions(math.pi / 4, 2),
            [math.pi / 4, math.pi / 4 + math.pi],
        )

    def test_zero_shift_matches_static(self):
        np.testing.assert_allclose(moving_magic_positions(0.0, 5), magic_positions(5))

    @pytest.mark.parametrize("delta1", [-9.7, -0.3, 0.0, 1.0, 7.9, 50.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_reduced_into_principal_interval(self, delta1, m):
        phases = moving_magic_positions(delta1, m)
        assert np.all(phases >= 0.0)
        assert np.all(phases < TWO_PI)

    def test_pairwise_gaps_do_not_depend_on_shift(self):
        # moving the whole comb preserves the relative detector geometry;
        # compare phasors to dodge the +-pi branch cut
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            base = magic_positions(m)
            for delta1 in rng.uniform(-10.0, 10.0, size=20):
                moved = moving_magic_positions(float(delta1), m)
                gaps = np.exp(1j * (moved[:, None] - moved[None, :]))
                ref = np.exp(1j * (base[:, None] - base[None, :]))
                np.testing.assert_allclose(gaps, ref, atol=1e-9)


class TestPhaseFromAngle:
    def test_half_wavelength_path_difference_gives_pi(self):
        wavelength = 532e-9
        k = TWO_PI / wavelength
        d = 200e-6
        theta = math.asin(wavelength / (2 * d))
        assert phase_from_angle(k, d, theta) == pytest.approx(math.pi, rel=1e-12)

    def test_zero_angle(self):
        assert phase_from_angle(1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("k,d", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_geometry(self, k, d):
        with pytest.raises(ValueError):
            phase_from_angle(k, d, 0.1)


class TestSourceArray:
    def test_defaults_to_balanced_pair(self):
        sources = SourceArray()
        assert sources.nbar == (1.0, 1.0)
        assert sources.count == 2
        assert sources.prefactors == (0, 1)

    def test_equidistant(self):
        sources = SourceArray.equidistant(4, 0.5)
        assert sources.nbar == (0.5, 0.5, 0.5, 0.5)
        assert sources.prefactors == (0, 1, 2, 3)

    def test_unequal_brightness_kept_in_order(self):
        sources = SourceArray(nbar=(0.2, 1.5, 3.0))
        assert sources.count == 3
        assert sources.nbar == (0.2, 1.5, 3.0)

    @pytest.mark.parametrize("bad", [(), (0.0,), (1.0, -0.5), (math.nan,), (math.inf,)])
    def test_rejects_degenerate_brightness(self, bad):
        with pytest.raises(ValueError):
            SourceArray(nbar=bad)

    @pytest.mark.parametrize(
        "bad",
        [("1.0",), (True,), (1.0, False), 1.0, "1.0", None],
        ids=["string", "bool", "bool-second", "scalar", "string-whole", "none"],
    )
    def test_rejects_non_numbers_naming_the_field(self, bad):
        with pytest.raises(ValueError, match="nbar"):
            SourceArray(nbar=bad)

    @pytest.mark.parametrize("count", [True, 2.0, "2"])
    def test_equidistant_rejects_non_integer_count(self, count):
        with pytest.raises(ValueError, match="count"):
            SourceArray.equidistant(count)

    def test_roundtrip(self):
        sources = SourceArray(nbar=(0.25, 2.0))
        assert SourceArray.from_dict(sources.to_dict()) == sources


class TestDetectorLayout:
    def test_colocated_orders_moving_before_fixed(self):
        layout = DetectorLayout.colocated(3, 2)
        assert layout.m1 == 3
        assert layout.m2 == 2
        assert layout.order == 5
        phases = layout.detector_phases(0.7)
        np.testing.assert_allclose(phases[:3], [0.7, 0.7, 0.7])
        np.testing.assert_allclose(np.sort(phases[3:]), np.sort(layout.fixed_phases))

    def test_colocated_fixed_comb_is_magic(self):
        layout = DetectorLayout.colocated(3, 2)
        np.testing.assert_allclose(sorted(layout.fixed_phases), [0.0, math.pi])

    def test_colocated_allows_no_fixed_detectors(self):
        layout = DetectorLayout.colocated(2, 0)
        assert layout.order == 2
        assert layout.fixed_phases == ()
        np.testing.assert_allclose(layout.detector_phases(1.1), [1.1, 1.1])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_spread_moves_a_full_comb(self, m):
        layout = DetectorLayout.spread(m)
        assert layout.m1 == m
        assert layout.m2 == m
        assert layout.order == 2 * m
        phases = layout.detector_phases(0.3)
        np.testing.assert_allclose(phases[:m], moving_magic_positions(0.3, m))
        np.testing.assert_allclose(phases[m:], magic_positions(m))

    def test_spread_requires_equal_halves(self):
        with pytest.raises(ValueError):
            DetectorLayout(
                fixed_phases=(0.0, math.pi), moving_count=3, moving_kind="mmp-spread"
            )

    @pytest.mark.parametrize("m1,m2", [(0, 0), (-1, 2), (2, -1)])
    def test_rejects_empty_or_negative_counts(self, m1, m2):
        with pytest.raises(ValueError):
            DetectorLayout.colocated(m1, m2)

    def test_rejects_fixed_phase_outside_principal_interval(self):
        with pytest.raises(ValueError):
            DetectorLayout(fixed_phases=(TWO_PI + 0.1,), moving_count=1)
        with pytest.raises(ValueError):
            DetectorLayout(fixed_phases=(-0.2,), moving_count=1)

    @pytest.mark.parametrize(
        "fixed,moving",
        [
            ((0.0,), 1.5),
            ((0.0,), 2.0),
            ((0.0,), "2"),
            ((0.0,), None),
            ((math.nan,), 1),
            ((0.0, math.inf), 1),
        ],
        ids=["fractional", "float", "string", "none", "nan-phase", "inf-phase"],
    )
    def test_rejects_non_integer_count_and_non_finite_phase(self, fixed, moving):
        with pytest.raises(ValueError):
            DetectorLayout(fixed_phases=fixed, moving_count=moving)
        with pytest.raises(ValueError):
            DetectorLayout.from_dict({"fixed_phases": fixed, "moving_count": moving})

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: DetectorLayout.colocated(True, 2), "moving_count"),
            (lambda: DetectorLayout.colocated(2, True), "m2"),
            (lambda: DetectorLayout.spread(True), "m"),
            (lambda: DetectorLayout((0.0,), moving_count=False), "moving_count"),
            (lambda: DetectorLayout(("0.5",), moving_count=1), "fixed_phases"),
            (lambda: DetectorLayout((True,), moving_count=1), "fixed_phases"),
            (lambda: DetectorLayout(0.5, moving_count=1), "fixed_phases"),
        ],
        ids=[
            "colocated-m1-bool",
            "colocated-m2-bool",
            "spread-bool",
            "count-bool",
            "phase-string",
            "phase-bool",
            "phases-scalar",
        ],
    )
    def test_rejects_bools_and_strings_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DetectorLayout(fixed_phases=(0.0,), moving_count=1, moving_kind="orbit")

    def test_roundtrip(self):
        for layout in (DetectorLayout.colocated(3, 2), DetectorLayout.spread(2)):
            assert DetectorLayout.from_dict(layout.to_dict()) == layout

    def test_describe_mentions_counts(self):
        text = DetectorLayout.colocated(4, 2).describe()
        assert "4" in text and "2" in text
