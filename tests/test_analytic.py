import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from thermalnoon.analytic import (
    ClosedForm,
    closed_form,
    crossover_threshold,
    setup1_coeffs,
    setup1_g,
    setup2_coeffs,
    setup2_g,
)
from thermalnoon.curves import default_grid
from thermalnoon.geometry import DetectorLayout, SourceArray
from thermalnoon.pathsum import correlation_pathsum


def spread(m):
    return closed_form(DetectorLayout.spread(m))


def colocated(m1, m2):
    return closed_form(DetectorLayout.colocated(m1, m2))


class TestSetup1:
    @pytest.mark.parametrize(
        "order,c1,c2",
        [
            (2, 6, 2),
            (4, 56, 8),
            (6, 1512, 72),
            (8, 81792, 1152),
            (10, 7286400, 28800),
        ],
    )
    def test_coefficients(self, order, c1, c2):
        form = spread(order // 2)
        assert (form.c1, form.c2) == (c1, c2)

    def test_fourth_order_curve_values(self):
        assert spread(2).g(0.0) == pytest.approx(64.0)
        assert spread(2).g(math.pi / 4) == pytest.approx(56.0)
        assert spread(2).g(math.pi / 2) == pytest.approx(48.0)

    @pytest.mark.parametrize(
        "order,expected",
        [
            (2, Fraction(1, 3)),
            (4, Fraction(1, 7)),
            (6, Fraction(1, 21)),
            (8, Fraction(576, 40896)),
            (10, Fraction(14400, 3643200)),
        ],
    )
    def test_visibility_exact(self, order, expected):
        assert spread(order // 2).visibility == expected

    @pytest.mark.parametrize(
        "order,rounded",
        [(2, 0.33), (4, 0.1429), (6, 0.0476), (8, 0.0141), (10, 0.0040)],
    )
    def test_visibility_rounding(self, order, rounded):
        digits = len(str(rounded).split(".")[1])
        assert round(float(spread(order // 2).visibility), digits) == rounded

    def test_visibility_decreases_with_order(self):
        values = [spread(order // 2).visibility for order in range(2, 13, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_modulation_frequency_is_half_order(self):
        # the curve repeats with period 2*pi/(M/2)
        for order in (2, 4, 6, 8):
            period = 2 * math.pi / (order // 2)
            for delta in (0.2, 1.1, 2.8):
                assert spread(order // 2).g(delta + period) == pytest.approx(
                    spread(order // 2).g(delta), rel=1e-12
                )

    @pytest.mark.parametrize("order", [0, -2, 1, 3, 7])
    def test_rejects_odd_or_nonpositive_order(self, order):
        with pytest.raises(ValueError):
            setup1_coeffs(order)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_matches_pathsum(self, order):
        sources = SourceArray()
        layout = DetectorLayout.spread(order // 2)
        rng = np.random.default_rng(order)
        for delta in rng.uniform(0, 2 * math.pi, size=10):
            expected = correlation_pathsum(
                sources, tuple(layout.detector_phases(float(delta)))
            )
            got = spread(order // 2).g(float(delta))
            assert got == pytest.approx(expected, rel=1e-10)


class TestSetup2:
    @pytest.mark.parametrize(
        "m1,m2,c1,c2,sign",
        [
            (2, 2, 104, 8, -1),
            (3, 2, 912, 144, -1),
            (4, 2, 9984, 2304, -1),
            (5, 2, 130560, 38400, -1),
            (3, 3, 4536, 72, 1),
            (4, 3, 55296, 2304, 1),
            (1, 2, 16, 0, -1),
            (2, 3, 456, 0, 1),
        ],
    )
    def test_coefficients(self, m1, m2, c1, c2, sign):
        coeffs = colocated(m1, m2)
        assert (coeffs.c1, coeffs.c2, coeffs.parity_sign) == (c1, c2, sign)
        assert coeffs.frequency == m2

    def test_second_order_reference_points(self):
        assert colocated(2, 2).g(0.0) == pytest.approx(96.0)
        assert colocated(2, 2).g(math.pi / 2) == pytest.approx(112.0)

    @pytest.mark.parametrize(
        "m1,expected",
        [
            (2, Fraction(1, 13)),
            (3, Fraction(3, 19)),
            (4, Fraction(3, 13)),
            (5, Fraction(5, 17)),
        ],
    )
    def test_visibility_frequency_doubled_family(self, m1, expected):
        assert colocated(m1, 2).visibility == expected

    @pytest.mark.parametrize(
        "m1,m2,expected",
        [(3, 3, Fraction(1, 63)), (4, 3, Fraction(1, 24))],
    )
    def test_visibility_frequency_tripled_family(self, m1, m2, expected):
        assert colocated(m1, m2).visibility == expected

    @pytest.mark.parametrize("m1", [1, 2, 3, 4, 5, 6])
    def test_doubled_family_closed_form(self, m1):
        # independent closed form for m2 = 2:
        # G = 2**(m1-1) * m1! * ((m1**2 + 7 m1 + 8) - m1 (m1 - 1) cos(2 d))
        scale = 2 ** (m1 - 1) * math.factorial(m1)
        rng = np.random.default_rng(m1)
        for delta in rng.uniform(0, 2 * math.pi, size=8):
            expected = scale * (
                (m1 * m1 + 7 * m1 + 8) - m1 * (m1 - 1) * math.cos(2 * delta)
            )
            got = colocated(m1, 2).g(float(delta))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_doubled_family_visibility_closed_form(self):
        for m1 in range(2, 9):
            expected = Fraction(m1 * (m1 - 1), m1 * m1 + 7 * m1 + 8)
            assert colocated(m1, 2).visibility == expected

    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    def test_flat_below_matching_power(self, m2):
        # fewer moving detectors than the comb size leaves no modulation
        for m1 in range(0, m2):
            if m1 == 0 and m2 == 0:
                continue
            coeffs = colocated(m1, m2)
            assert coeffs.c2 == 0
            assert colocated(m1, m2).visibility == 0

    @pytest.mark.parametrize("m2", [1, 2, 3, 4, 5])
    def test_parity_alternates_with_comb_size(self, m2):
        coeffs = colocated(m2 + 1, m2)
        assert coeffs.parity_sign == (-1) ** (m2 - 1)

    def test_visibility_grows_with_moving_power(self):
        values = [colocated(m1, 2).visibility for m1 in range(2, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_even_and_periodic(self):
        for m1, m2 in ((2, 2), (3, 2), (3, 3), (4, 3)):
            period = 2 * math.pi / m2
            for delta in (0.3, 1.4):
                assert colocated(m1, m2).g(-delta) == pytest.approx(
                    colocated(m1, m2).g(delta), rel=1e-12
                )
                assert colocated(m1, m2).g(delta + period) == pytest.approx(
                    colocated(m1, m2).g(delta), rel=1e-12
                )

    @pytest.mark.parametrize("m1,m2", [(2, 2), (3, 2), (4, 2), (3, 3), (1, 1), (2, 4)])
    def test_matches_pathsum(self, m1, m2):
        sources = SourceArray()
        layout = DetectorLayout.colocated(m1, m2)
        rng = np.random.default_rng(m1 * 10 + m2)
        for delta in rng.uniform(0, 2 * math.pi, size=10):
            expected = correlation_pathsum(
                sources, tuple(layout.detector_phases(float(delta)))
            )
            got = colocated(m1, m2).g(float(delta))
            assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("m1,m2", [(-1, 2), (2, 0), (2, -3)])
    def test_rejects_bad_counts(self, m1, m2):
        with pytest.raises(ValueError):
            setup2_coeffs(m1, m2)

    def test_coefficient_invariant_enforced(self):
        with pytest.raises(ValueError):
            ClosedForm(c1=4, c2=8, parity_sign=-1, frequency=2)


class TestCrossoverThreshold:
    @pytest.mark.parametrize("m2,expected", [(2, 3), (3, 5), (4, 6), (5, 7)])
    def test_known_thresholds(self, m2, expected):
        assert crossover_threshold(m2) == expected

    @pytest.mark.parametrize("m2", [2, 3, 4, 5])
    def test_threshold_is_tight(self, m2):
        # the threshold beats the spread benchmark and m1 - 1 does not
        threshold = crossover_threshold(m2)
        benchmark = spread(m2).visibility
        assert colocated(threshold, m2).visibility > benchmark
        assert colocated(threshold - 1, m2).visibility <= benchmark

    def test_rejects_bad_comb(self):
        with pytest.raises(ValueError):
            crossover_threshold(0)


class TestCurves:
    def test_spread_curve_samples_closed_form(self):
        curve = spread(2).curve(DetectorLayout.spread(2))
        assert curve.grid.shape == (181,)
        assert curve.order == 4
        expected = [spread(2).g(d) for d in curve.grid]
        np.testing.assert_allclose(curve.values, expected, rtol=1e-12)

    def test_colocated_curve_samples_closed_form(self):
        layout = DetectorLayout.colocated(3, 2)
        curve = closed_form(layout).curve(layout, default_grid(91))
        assert curve.grid.shape == (91,)
        assert curve.order == 5
        expected = [colocated(3, 2).g(d) for d in curve.grid]
        np.testing.assert_allclose(curve.values, expected, rtol=1e-12)

    def test_curves_carry_layout_labels(self):
        assert "spread" in spread(1).curve(DetectorLayout.spread(1)).layout
        layout = DetectorLayout.colocated(2, 2)
        assert "co-located" in closed_form(layout).curve(layout).layout


SPREAD = [DetectorLayout.spread(m) for m in range(1, 6)]
COLOCATED = [
    DetectorLayout.colocated(m1, m2) for m2 in range(1, 9) for m1 in range(9 - m2)
]


class TestClosedFormOfLayout:
    @pytest.mark.parametrize("m1", [1, 3])
    def test_no_fixed_comb_has_no_closed_form(self, m1):
        assert closed_form(DetectorLayout.colocated(m1, 0)) is None

    def test_one_plus_one_is_both_schemes(self):
        one = closed_form(DetectorLayout.colocated(1, 1))
        assert one == closed_form(DetectorLayout.spread(1))
        assert one == ClosedForm(c1=6, c2=2, parity_sign=1, frequency=1)

    @pytest.mark.parametrize("layout", SPREAD + COLOCATED, ids=DetectorLayout.describe)
    def test_matches_setup_functions_and_pathsum(self, layout):
        form = closed_form(layout)
        if layout in SPREAD:
            setup = ClosedForm(*setup1_coeffs(layout.order), 1, layout.m1)
            setup_g = functools.partial(setup1_g, layout.order)
        else:
            setup = setup2_coeffs(layout.m1, layout.m2)
            setup_g = functools.partial(setup2_g, layout.m1, layout.m2)
        assert form == setup
        rng = np.random.default_rng(layout.order)
        for delta in rng.uniform(0, 2 * math.pi, size=5):
            assert form.g(delta) == setup_g(delta)
            expected = correlation_pathsum(SourceArray(), layout.detector_phases(delta))
            assert form.g(delta) == pytest.approx(expected, rel=1e-10)

    def test_equal_layouts_share_one_cached_form(self):
        hits = closed_form.cache_info().hits
        built = DetectorLayout(fixed_phases=(0.0, math.pi), moving_offsets=(0.0,) * 3)
        first = closed_form(DetectorLayout.colocated(3, 2))
        assert closed_form(built) is first
        assert closed_form(DetectorLayout.colocated(3, 2)) is first
        assert closed_form.cache_info().hits >= hits + 2
