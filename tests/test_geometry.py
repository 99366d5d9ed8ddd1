import math

import numpy as np
import pytest

from thermalnoon.geometry import (
    TWO_PI,
    DetectorLayout,
    SourceArray,
    comb_sign,
    magic_positions,
    relative_gap,
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

    def test_from_dict_names_every_unknown_key(self):
        # a count next to nbar would otherwise load as len(nbar) sources
        with pytest.raises(ValueError, match="sources has unknown fields: 'count'$"):
            SourceArray.from_dict({"nbar": [1.0, 1.0], "count": 3})


class TestRelativeGap:
    def test_equal_values_have_no_gap(self):
        assert relative_gap(0.0, 0.0) == 0.0
        assert relative_gap(-2.5, -2.5) == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.5), (-3.0, 2.0), (1e-310, 0.0)])
    def test_is_symmetric_and_scaled_by_the_larger_magnitude(self, a, b):
        gap = relative_gap(a, b)
        assert gap == relative_gap(b, a)
        assert gap == abs(a - b) / max(abs(a), abs(b), 1e-300)

    def test_scale_free(self):
        assert relative_gap(3.0, 4.0) == 0.25
        assert relative_gap(3e-200, 4e-200) == pytest.approx(0.25, rel=1e-15)

    def test_elementwise_matches_each_scalar_call_to_the_bit(self):
        rng = np.random.default_rng(20)
        a = np.concatenate(
            [rng.normal(size=50), [0.0, 0.0, 1e-300, -3e-300, 5e-310, -2.0, 7.0]]
        )
        b = np.concatenate(
            [rng.normal(size=50), [0.0, 1.0, 2e-300, 3e-300, 0.0, 2.0, -7.0]]
        )
        gaps = relative_gap(a, b)
        assert gaps.shape == a.shape
        for x, y, gap in zip(a.tolist(), b.tolist(), gaps.tolist()):
            assert gap == relative_gap(x, y)
            assert gap == abs(x - y) / max(abs(x), abs(y), 1e-300)

    def test_a_nan_gap_stays_nan(self):
        gaps = relative_gap(np.array([0.3, np.nan]), np.array([0.3, 0.3]))
        assert np.isnan(gaps).tolist() == [False, True]


COMB2 = tuple(magic_positions(2))


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

    def test_unequal_halves_are_data(self):
        layout = DetectorLayout(
            fixed_phases=tuple(magic_positions(2)),
            moving_offsets=tuple(magic_positions(3)),
        )
        assert (layout.m1, layout.m2) == (3, 2)
        phases = layout.detector_phases(0.5)
        np.testing.assert_allclose(phases[:3], 0.5 + magic_positions(3))

    @pytest.mark.parametrize(
        "layout",
        [
            DetectorLayout.colocated(3, 2),
            DetectorLayout.colocated(2, 0),
            DetectorLayout.colocated(0, 3),
            DetectorLayout.spread(3),
            DetectorLayout(fixed_phases=(0.4,), moving_offsets=(0.0, math.pi, 0.5)),
        ],
    )
    def test_a_delta1_grid_gives_one_row_per_phase(self, layout):
        grid = np.linspace(-1.0, 7.0, 13)
        rows = layout.detector_phases(grid)
        assert rows.shape == (13, layout.order)
        for delta1, row in zip(grid, rows):
            assert np.array_equal(row, layout.detector_phases(float(delta1)))
        assert layout.detector_phases(0.3).shape == (layout.order,)
        assert layout.detector_phases(grid[:0]).shape == (0, layout.order)

    def test_a_nested_delta1_grid_is_refused(self):
        with pytest.raises(ValueError, match="delta1"):
            DetectorLayout.colocated(1, 1).detector_phases(np.zeros((2, 2)))

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
        "fixed", [(math.nan,), (0.0, math.inf)], ids=["nan-phase", "inf-phase"]
    )
    def test_rejects_non_finite_phase(self, fixed):
        with pytest.raises(ValueError, match="fixed_phases"):
            DetectorLayout.from_dict({"fixed_phases": fixed, "moving_offsets": [0.0]})
        with pytest.raises(ValueError, match="moving_offsets"):  # as an offset too
            DetectorLayout(fixed_phases=(0.0,), moving_offsets=fixed)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: DetectorLayout.colocated(True, 2), "m1"),
            (lambda: DetectorLayout.colocated(2, True), "m2"),
            (lambda: DetectorLayout.spread(True), "m"),
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

    def test_missing_moving_field_is_named(self):
        with pytest.raises(ValueError, match="moving_offsets"):
            DetectorLayout.from_dict({"fixed_phases": [0.0]})
        with pytest.raises(ValueError, match="fixed_phases"):
            DetectorLayout.from_dict({"moving_offsets": [0.0]})

    def test_from_dict_names_every_unknown_key(self):
        # a kind next to the offsets would otherwise be ignored, whatever it says
        data = DetectorLayout.colocated(2, 2).to_dict()
        data.update(moving_kind="mmp-spread", moving_count=2)
        with pytest.raises(ValueError, match="'moving_kind', 'moving_count'"):
            DetectorLayout.from_dict(data)

    def test_from_dict_names_a_missing_field_before_unknown_keys(self):
        # a file that predates moving offsets is told what it lacks
        data = {"fixed_phases": [0.0], "moving_kind": "co-located"}
        with pytest.raises(ValueError, match="required field 'moving_offsets'"):
            DetectorLayout.from_dict(data)

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
        "data",
        [
            {
                "fixed_phases": [0.0, math.pi],
                "moving_count": 3,
                "moving_kind": "co-located",
            },
            {"fixed_phases": [0.0], "moving_count": 2},
            {"fixed_phases": [], "moving_count": 2, "moving_kind": "co-located"},
            {
                "fixed_phases": list(magic_positions(3)),
                "moving_count": 3,
                "moving_kind": "mmp-spread",
            },
        ],
        ids=["colocated", "default-kind", "no-fixed", "spread"],
    )
    def test_older_format_is_refused(self, data):
        # moving_count + moving_kind, the format before layouts carried offsets
        with pytest.raises(ValueError, match="moving_offsets") as refused:
            DetectorLayout.from_dict(data)
        assert "moving_count" not in str(refused.value)

    @pytest.mark.parametrize(
        "offsets",
        [1.5, "0.5", None, ["0.5"], [None], [True]],
        ids=["scalar", "string", "none", "entry-string", "entry-none", "entry-bool"],
    )
    def test_from_dict_rejects_malformed_offsets(self, offsets):
        with pytest.raises(ValueError, match="moving_offsets"):
            DetectorLayout.from_dict({"fixed_phases": [0.0], "moving_offsets": offsets})

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
