import math

import numpy as np
import pytest

from trajprior.core import (MAX_CELLS, MAX_COORD, ContractError, GridSpec, Trajectory,
                           fold_axial)


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

    @pytest.mark.parametrize("cell", [math.inf, 1e300])
    def test_at_least_one_cell_per_axis(self, cell):
        with pytest.raises(ContractError, match="at least one cell"):
            GridSpec(cell_dx=cell)
        with pytest.raises(ContractError, match="at least one cell"):
            GridSpec(cell_dy=cell)

    def test_roundtrip_dict(self):
        spec = GridSpec(-1, 3, 0, 2, 0.25, 0.5)
        assert GridSpec.from_dict(spec.to_dict()) == spec


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

    def test_coordinates_bounded(self):
        edge = Trajectory("e", [[-MAX_COORD, 0.0], [0.0, MAX_COORD]])
        assert edge.arc_length == pytest.approx(MAX_COORD * math.sqrt(2.0))
        for bad in (np.nextafter(MAX_COORD, np.inf), -1e308, float("inf")):
            with pytest.raises(ContractError, match="MAX_COORD"):
                Trajectory("x", [[0.0, 0.0], [1.0, bad]])

    def test_arc_length(self):
        t = Trajectory("L", [[0, 0], [1, 0], [1, 1]])
        assert t.arc_length == pytest.approx(2.0)
