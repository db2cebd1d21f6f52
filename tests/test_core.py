import math

import numpy as np
import pytest

from trajprior.core import (MAX_CELLS, ContractError, GridSpec, Point2,
                            Trajectory, fold_axial, segment_angle,
                            world_to_cell)


class TestGridSpec:
    def test_default_roi_dimensions(self):
        spec = GridSpec()
        assert spec.shape == (100, 200)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ContractError):
            GridSpec(x_min=10, x_max=-10)
        with pytest.raises(ContractError):
            GridSpec(cell_dx=0.0)

    def test_cell_count_capped(self):
        side = 1000
        rows = MAX_CELLS // side
        assert GridSpec(0, side, 0, rows, 1, 1).shape == (rows, side)
        with pytest.raises(ContractError):
            GridSpec(0, side, 0, rows + 1, 1, 1)
        with pytest.raises(ContractError):
            GridSpec(0, math.inf, 0, 1, 1, 1)

    def test_roundtrip_dict(self):
        spec = GridSpec(-1, 3, 0, 2, 0.25, 0.5)
        assert GridSpec.from_dict(spec.to_dict()) == spec


class TestWorldToCell:
    def test_lower_corner(self):
        assert world_to_cell(Point2(-50, -25), GridSpec()) == (0, 0)

    def test_upper_bound_exclusive(self):
        assert world_to_cell(Point2(50, 25), GridSpec()) is None
        assert world_to_cell(Point2(0, 25), GridSpec()) is None

    def test_origin(self):
        # (0 - (-25))/0.5 = 50, (0 - (-50))/0.5 = 100
        assert world_to_cell(Point2(0.0, 0.0), GridSpec()) == (50, 100)

    def test_in_roi_points_always_in_range(self):
        spec = GridSpec()
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = rng.uniform(-50, 50)
            y = rng.uniform(-25, 25)
            cell = world_to_cell(Point2(x, y), spec)
            assert cell is not None
            row, col = cell
            assert 0 <= row < spec.height and 0 <= col < spec.width
            # the cell's half-open extent contains the point
            assert spec.x_min + col * spec.cell_dx <= x
            assert x < spec.x_min + (col + 1) * spec.cell_dx
            assert spec.y_min + row * spec.cell_dy <= y
            assert y < spec.y_min + (row + 1) * spec.cell_dy


class TestSegmentAngle:
    def test_axes(self):
        assert segment_angle(Point2(0, 0), Point2(1, 0)) == 0.0
        assert segment_angle(Point2(0, 0), Point2(0, 1)) == pytest.approx(math.pi / 2)

    def test_diagonal(self):
        assert segment_angle(Point2(0, 0), Point2(-1, -1)) == pytest.approx(
            -3 * math.pi / 4)

    def test_degenerate_is_zero(self):
        assert segment_angle(Point2(2, 3), Point2(2, 3)) == 0.0

    def test_reversal_flips_by_pi(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = Point2(*rng.normal(0, 5, 2))
            b = Point2(*rng.normal(0, 5, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            fwd = segment_angle(a, b)
            back = segment_angle(b, a)
            diff = math.remainder(fwd - back, 2 * math.pi)
            assert abs(abs(diff) - math.pi) < 1e-12


class TestFoldAxial:
    def test_range(self):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(-10, 10, 1000):
            f = fold_axial(angle)
            assert -math.pi / 2 < f <= math.pi / 2

    def test_pi_periodic(self):
        for angle in np.linspace(-3, 3, 101):
            assert fold_axial(angle + math.pi) == pytest.approx(
                fold_axial(angle), abs=1e-12)


class TestTrajectory:
    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            Trajectory("x", [[0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            Trajectory("x", [[0.0, 0.0], [float("nan"), 1.0]])

    def test_arc_length(self):
        t = Trajectory("L", [[0, 0], [1, 0], [1, 1]])
        assert t.arc_length == pytest.approx(2.0)
