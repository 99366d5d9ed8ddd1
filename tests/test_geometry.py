import math

import numpy as np
import pytest

from thermalnoon.geometry import (
    TWO_PI,
    DetectorLayout,
    SourceArray,
    comb_sign,
    magic_positions,
    phase_from_angle,
)


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


class TestCombSign:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_comb_product_collapses_to_two_terms(self, m):
        # coefficients of prod_j (x + exp(-2*pi*i*j/m)*y), highest power of x first
        product = np.array([1.0 + 0j])
        for phase in magic_positions(m):
            product = np.convolve(product, [1.0, np.exp(-1j * phase)])
        expected = np.zeros(m + 1, dtype=complex)
        expected[0], expected[m] = 1.0, comb_sign(m)
        np.testing.assert_allclose(product, expected, atol=1e-12)
        assert comb_sign(m) == (-1) ** (m - 1)


class TestMovingMagicPositions:
    # the moving group of a spread layout sits at the moving magic positions
    def test_shift_by_quarter_turn(self):
        np.testing.assert_allclose(
            DetectorLayout.spread(2).detector_phases(math.pi / 4)[:2],
            [math.pi / 4, math.pi / 4 + math.pi],
        )

    def test_zero_shift_matches_static(self):
        np.testing.assert_allclose(
            DetectorLayout.spread(5).detector_phases(0.0)[:5], magic_positions(5)
        )

    @pytest.mark.parametrize("delta1", [-9.7, -0.3, 0.0, 1.0, 7.9, 50.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_moving_phases_are_not_wrapped(self, delta1, m):
        phases = DetectorLayout.spread(m).detector_phases(delta1)
        assert np.array_equal(phases[:m], delta1 + magic_positions(m))
        assert np.array_equal(phases[m:], magic_positions(m))

    def test_pairwise_gaps_do_not_depend_on_shift(self):
        # moving the whole comb preserves the relative detector geometry;
        # compare phasors to dodge the +-pi branch cut
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            base = magic_positions(m)
            for delta1 in rng.uniform(-10.0, 10.0, size=20):
                moved = DetectorLayout.spread(m).detector_phases(float(delta1))[:m]
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


COMB2 = tuple(magic_positions(2))


def legacy(fixed, moving_count, moving_kind="co-located"):
    """A layout dict in the older config format, before moving_offsets."""
    return {
        "fixed_phases": list(fixed),
        "moving_count": moving_count,
        "moving_kind": moving_kind,
    }


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

    def test_colocated_offsets_are_zero(self):
        assert DetectorLayout.colocated(3, 2).moving_offsets == (0.0, 0.0, 0.0)
        assert DetectorLayout.colocated(0, 2).moving_offsets == ()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_spread_moves_a_full_comb(self, m):
        layout = DetectorLayout.spread(m)
        assert layout.m1 == m
        assert layout.m2 == m
        assert layout.order == 2 * m
        phases = layout.detector_phases(0.3)
        np.testing.assert_allclose(phases[:m], 0.3 + magic_positions(m))
        np.testing.assert_allclose(phases[m:], magic_positions(m))

    def test_spread_requires_equal_halves(self):
        # the older format's mmp-spread kind still demands equal halves
        with pytest.raises(ValueError, match="equal"):
            DetectorLayout.from_dict(legacy((0.0, math.pi), 3, "mmp-spread"))

    def test_unequal_halves_are_data(self):
        layout = DetectorLayout(
            fixed_phases=tuple(magic_positions(2)),
            moving_offsets=tuple(magic_positions(3)),
        )
        assert (layout.m1, layout.m2) == (3, 2)
        phases = layout.detector_phases(0.5)
        np.testing.assert_allclose(phases[:3], 0.5 + magic_positions(3))

    @pytest.mark.parametrize("m1,m2", [(0, 0), (-1, 2), (2, -1)])
    def test_rejects_empty_or_negative_counts(self, m1, m2):
        with pytest.raises(ValueError):
            DetectorLayout.colocated(m1, m2)

    def test_rejects_fixed_phase_outside_principal_interval(self):
        with pytest.raises(ValueError, match="fixed_phases"):
            DetectorLayout(fixed_phases=(TWO_PI + 0.1,), moving_offsets=(0.0,))
        with pytest.raises(ValueError, match="fixed_phases"):
            DetectorLayout(fixed_phases=(-0.2,), moving_offsets=(0.0,))

    @pytest.mark.parametrize(
        "offset", [TWO_PI, TWO_PI + 0.1, -0.2, math.nan, math.inf]
    )
    def test_rejects_moving_offset_outside_principal_interval(self, offset):
        with pytest.raises(ValueError, match="moving_offsets"):
            DetectorLayout(fixed_phases=(0.0,), moving_offsets=(0.0, offset))
        with pytest.raises(ValueError, match="moving_offsets"):
            DetectorLayout.from_dict(
                {"fixed_phases": [0.0], "moving_offsets": [offset]}
            )

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
            DetectorLayout.from_dict({"fixed_phases": fixed, "moving_count": moving})
        if isinstance(moving, int):  # a bad phase is refused as an offset too
            with pytest.raises(ValueError):
                DetectorLayout(fixed_phases=(0.0,), moving_offsets=fixed)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: DetectorLayout.colocated(True, 2), "m1"),
            (lambda: DetectorLayout.colocated(2, True), "m2"),
            (lambda: DetectorLayout.spread(True), "m"),
            (lambda: DetectorLayout.from_dict(legacy((0.0,), False)), "moving_count"),
            (lambda: DetectorLayout(("0.5",), (0.0,)), "fixed_phases"),
            (lambda: DetectorLayout((True,), (0.0,)), "fixed_phases"),
            (lambda: DetectorLayout(0.5, (0.0,)), "fixed_phases"),
            (lambda: DetectorLayout((0.0,), ("0.5",)), "moving_offsets"),
            (lambda: DetectorLayout((0.0,), (True,)), "moving_offsets"),
            (lambda: DetectorLayout((0.0,), 0.5), "moving_offsets"),
        ],
        ids=[
            "colocated-m1-bool",
            "colocated-m2-bool",
            "spread-bool",
            "count-bool",
            "phase-string",
            "phase-bool",
            "phases-scalar",
            "offset-string",
            "offset-bool",
            "offsets-scalar",
        ],
    )
    def test_rejects_bools_and_strings_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="moving_kind"):
            DetectorLayout.from_dict(legacy((0.0,), 1, "orbit"))

    def test_missing_moving_field_is_named(self):
        with pytest.raises(ValueError, match="moving_offsets"):
            DetectorLayout.from_dict({"fixed_phases": [0.0]})
        with pytest.raises(ValueError, match="fixed_phases"):
            DetectorLayout.from_dict({"moving_offsets": [0.0]})

    def test_roundtrip(self):
        for layout in (
            DetectorLayout.colocated(3, 2),
            DetectorLayout.spread(2),
            DetectorLayout(fixed_phases=(0.5,), moving_offsets=(0.0, 0.0, math.pi)),
        ):
            data = layout.to_dict()
            assert set(data) == {"fixed_phases", "moving_offsets"}
            assert DetectorLayout.from_dict(data) == layout

    @pytest.mark.parametrize(
        "data,expected",
        [
            (legacy((0.0, math.pi), 3), DetectorLayout.colocated(3, 2)),
            (
                {"fixed_phases": [0.0], "moving_count": 2},
                DetectorLayout.colocated(2, 1),
            ),
            (legacy((), 2), DetectorLayout.colocated(2, 0)),
            (legacy(magic_positions(3), 3, "mmp-spread"), DetectorLayout.spread(3)),
        ],
        ids=["colocated", "default-kind", "no-fixed", "spread"],
    )
    def test_older_format_still_loads(self, data, expected):
        assert DetectorLayout.from_dict(data) == expected

    @pytest.mark.parametrize(
        "layout,kind",
        [
            (DetectorLayout.colocated(3, 2), "co-located"),
            (DetectorLayout.colocated(0, 2), "co-located"),
            (DetectorLayout.colocated(2, 0), "co-located"),
            (DetectorLayout.colocated(1, 1), "mmp-spread"),  # the same as spread(1)
            (DetectorLayout.spread(3), "mmp-spread"),
            (DetectorLayout(COMB2, tuple(magic_positions(3))), "custom"),
            (DetectorLayout((), (0.0, math.pi)), "custom"),
            (DetectorLayout(COMB2, (0.0, 0.0, math.pi)), "custom"),
        ],
        ids=[
            "colocated",
            "no-moving",
            "no-fixed",
            "one-and-one",
            "spread-3",
            "unequal-halves",
            "moving-only",
            "partly-spread",
        ],
    )
    def test_moving_kind_is_derived(self, layout, kind):
        assert layout.moving_kind == kind
        assert layout.describe().startswith(kind + ":")

    def test_describe_mentions_counts(self):
        text = DetectorLayout.colocated(4, 2).describe()
        assert "4" in text and "2" in text
