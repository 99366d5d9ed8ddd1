import math

import numpy as np
import pytest

from thermalnoon.curves import DEFAULT_GRID_POINTS, CorrelationCurve, default_grid


def make_curve(values, **kwargs):
    values = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, 2 * math.pi, values.size)
    defaults = dict(grid=grid, values=values, order=2, layout="test")
    defaults.update(kwargs)
    return CorrelationCurve(**defaults)


class TestDefaultGrid:
    def test_default_point_count(self):
        grid = default_grid()
        assert grid.shape == (DEFAULT_GRID_POINTS,)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * math.pi)
        np.testing.assert_allclose(np.diff(grid), np.diff(grid)[0], rtol=1e-9)

    def test_custom_point_count(self):
        assert default_grid(9).shape == (9,)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            default_grid(1)

    @pytest.mark.parametrize("points", [3.0, 2.5, True, "3"])
    def test_rejects_a_point_count_that_is_no_integer(self, points):
        with pytest.raises(ValueError, match="points must be an integer >= 2"):
            default_grid(points)


class TestCorrelationCurve:
    def test_holds_data(self):
        curve = make_curve([1.0, 2.0, 3.0])
        assert curve.order == 2
        assert not curve.normalized
        assert curve.values[2] == 3.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationCurve(
                grid=np.array([0.0, 1.0, 2.0]),
                values=np.array([1.0, 2.0]),
                order=2,
                layout="test",
            )

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            make_curve([1.0, -0.5, 2.0])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            make_curve([1.0, math.inf, 2.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            CorrelationCurve(
                grid=np.array([0.0]), values=np.array([1.0]), order=2, layout="test"
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            make_curve([1.0, 2.0], order=0)

    def test_rejects_stderr_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_curve([1.0, 2.0, 3.0], stderr=np.array([0.1, 0.1]))

    @pytest.mark.parametrize(
        "batch_means", [np.ones(3), np.ones((2, 2)), np.ones((2, 3, 1))]
    )
    def test_rejects_batch_means_shape_mismatch(self, batch_means):
        with pytest.raises(ValueError, match="batch_means"):
            make_curve([1.0, 2.0, 3.0], batch_means=batch_means)

    def test_rejects_normalized_flag_when_peak_is_not_one(self):
        with pytest.raises(ValueError):
            make_curve([1.0, 2.0, 3.0], normalized=True)

    def test_normalize_scales_everything(self):
        curve = make_curve(
            [1.0, 2.0, 4.0],
            stderr=np.array([0.1, 0.2, 0.4]),
            batch_means=np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]]),
        )
        scaled = curve.normalize()
        assert scaled.normalized
        assert scaled.values.max() == pytest.approx(1.0)
        np.testing.assert_allclose(scaled.values, [0.25, 0.5, 1.0])
        np.testing.assert_allclose(scaled.stderr, [0.025, 0.05, 0.1])
        np.testing.assert_allclose(scaled.batch_means[0], [0.25, 0.5, 1.0])
        # original untouched
        assert curve.values.max() == pytest.approx(4.0)

    def test_normalize_is_idempotent(self):
        curve = make_curve([1.0, 2.0, 4.0]).normalize()
        again = curve.normalize()
        np.testing.assert_allclose(again.values, curve.values)

    def test_normalize_rejects_all_zero(self):
        with pytest.raises(ValueError):
            make_curve([0.0, 0.0, 0.0]).normalize()

    def test_provenance_fields_carried(self):
        curve = make_curve([1.0, 2.0], frames=1000, seed=42)
        assert curve.frames == 1000
        assert curve.seed == 42
