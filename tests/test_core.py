import math

import numpy as np
import pytest

from trajprior.core import (MAX_CELLS, MAX_COORD, ContractError, GridSpec, Trajectory,
                           fold_axial)
from trajprior.metrics import sample_polyline_points
from trajprior.selection import resample_all

import oracles


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


class TestSampleArcLength:
    """`resample_all` and `sample_polyline_points` share one sampler; both
    match the per-polyline loops they replaced byte for byte."""

    POLYLINES = [
        Trajectory("two", [[1.5, -2.0], [4.0, 3.25]]),
        Trajectory("zero", [[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]]),
        Trajectory("signed", [[-0.0, 0.0], [3.0, -0.0], [3.0, 4.0], [-0.0, -0.0]]),
        Trajectory("signed-zero", [[-0.0, -0.0], [-0.0, -0.0]]),
        Trajectory("long", np.cumsum(
            np.random.default_rng(5).normal(0.0, 2.0, (400, 2)), axis=0)),
    ]

    @pytest.mark.parametrize("r", [2, 7, 20])
    def test_resample_all_matches_loop(self, r):
        want = np.stack([oracles.resample(t, r) for t in self.POLYLINES])
        assert resample_all(self.POLYLINES, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [0.13, 0.5, 7.0])
    def test_sample_points_match_loop(self, step):
        want = oracles.sample_polyline_points(self.POLYLINES, step)
        assert sample_polyline_points(self.POLYLINES, step).tobytes() == want.tobytes()

    def test_empty_resample_all(self):
        got = resample_all([], 7)
        assert got.shape == (0, 7, 2) and got.tobytes() == b""

    def test_underflowing_lead_segment_pins_start(self):
        # the first segment's norm underflows to 0, so np.interp at arc length
        # 0 reads the second point; the loop of eval returned it, the sampler
        # pins the start, as resample did
        t = Trajectory("d", [[0.0, 0.0], [5e-324, 0.0], [4.0, 0.0]])
        start = np.array([0.0, 0.0]).tobytes()
        assert resample_all([t], 5)[0, 0].tobytes() == start
        assert oracles.resample(t, 5)[0].tobytes() == start
        assert sample_polyline_points([t], 0.5)[0].tobytes() == start
        assert oracles.sample_polyline_points([t], 0.5)[0].tobytes() == \
            np.array([5e-324, 0.0]).tobytes()

    def test_oversized_request_refused_before_interpolating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(args))
        ten = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        far = Trajectory("f", [[-1e7, 0.0], [1e7, 0.0]])
        with pytest.raises(ContractError, match="sampling at step 0.001 needs more "
                                                "than MAX_SAMPLES="):
            sample_polyline_points([ten, far], step=1e-3)
        assert calls == []

