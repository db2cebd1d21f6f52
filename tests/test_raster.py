import math
import tracemalloc

import numpy as np
import pytest

from trajprior import core
from trajprior.core import ContractError, GridSpec, Trajectory, TrajectorySet
from trajprior.ingest import synth_scene
from trajprior.raster import (heatmap_to_feature, rasterize_polylines,
                              rasterize_trajectories)

from oracles import polyline_mask_by_cell_loop


def single_set(points, tid="t0"):
    return TrajectorySet.of([Trajectory(tid, points)])


class TestRasterizeTrajectories:
    def test_single_horizontal_trajectory(self):
        spec = GridSpec()
        ts = single_set([[-49.9, 0.1], [49.9, 0.1]])
        hm = rasterize_trajectories(ts, spec)
        hit = hm.count > 0
        assert hit.sum() == spec.width  # one full row of cells
        assert np.all(hm.density[hit] == 1.0)
        assert np.all(hm.direction[hit] == 0.0)
        assert hm.n_max == 1

    def test_two_identical_trajectories_normalize(self):
        spec = GridSpec()
        pts = [[-10, 0.1], [10, 0.1]]
        ts = TrajectorySet.of((Trajectory("a", pts), Trajectory("b", pts)))
        hm = rasterize_trajectories(ts, spec)
        hit = hm.count > 0
        assert hm.n_max == 2
        assert np.all(hm.count[hit] == 2)
        assert np.all(hm.density[hit] == 1.0)

    def test_diagonal_direction(self):
        spec = GridSpec(0, 4, 0, 4, 1.0, 1.0)
        hm = rasterize_trajectories(single_set([[0.0, 0.0], [2.0, 2.0]]), spec)
        hit_cells = set(zip(*np.nonzero(hm.count)))
        assert hit_cells == {(0, 0), (1, 1), (2, 2)}
        for cell in hit_cells:
            assert hm.direction[cell] == pytest.approx(math.pi / 4)

    def test_vertical_direction_is_plus_half_pi(self):
        # heading down, atan2 is exactly -pi/2, which fold_axial maps to +pi/2
        spec = GridSpec(0, 4, 0, 4, 1.0, 1.0)
        up = rasterize_trajectories(single_set([[1.5, 0.5], [1.5, 3.5]]), spec)
        down = rasterize_trajectories(single_set([[1.5, 3.5], [1.5, 0.5]]), spec)
        hit = down.count > 0
        assert hit.sum() == 4 and np.array_equal(hit, up.count > 0)
        assert np.all(down.direction[hit] == math.pi / 2)
        assert down.direction.tobytes() == up.direction.tobytes()

    def test_empty_set_sentinel(self):
        hm = rasterize_trajectories(TrajectorySet.of(()), GridSpec())
        assert hm.n_max == 1
        assert not hm.count.any()
        assert not hm.density.any()

    def test_outside_roi_contributes_nothing(self):
        hm = rasterize_trajectories(single_set([[100, 100], [120, 130]]), GridSpec())
        assert not hm.count.any()

    def test_order_permutation_bit_exact(self):
        ts, _ = synth_scene(5, 3, 4, 0.4)
        spec = GridSpec()
        fwd = rasterize_trajectories(ts, spec)
        perm = TrajectorySet.of(tuple(reversed(ts.trajectories)),
                                ts.frame_id, ts.centerline_count)
        back = rasterize_trajectories(perm, spec)
        assert np.array_equal(fwd.count, back.count)
        assert np.array_equal(fwd.density, back.density)
        assert np.array_equal(fwd.direction, back.direction)

    def test_reversal_leaves_direction_channel(self):
        ts, _ = synth_scene(6, 2, 3, 0.3)
        spec = GridSpec()
        fwd = rasterize_trajectories(ts, spec)
        rev = TrajectorySet.of(tuple(Trajectory(t.id, t.points[::-1])
                                     for t in ts.trajectories),
                               ts.frame_id, ts.centerline_count)
        back = rasterize_trajectories(rev, spec)
        assert np.array_equal(fwd.count, back.count)
        assert np.allclose(fwd.direction, back.direction, atol=1e-12)

    def test_ranges(self):
        ts, _ = synth_scene(2, 3, 5, 0.5)
        hm = rasterize_trajectories(ts, GridSpec())
        assert hm.density.min() >= 0.0 and hm.density.max() == 1.0
        assert np.all(hm.direction > -math.pi / 2 - 1e-15)
        assert np.all(hm.direction <= math.pi / 2)

    def test_degenerate_segments_skipped(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        hm = rasterize_trajectories(single_set(pts), GridSpec(0, 4, 0, 4, 1, 1))
        assert hm.count.sum() > 0  # the real segment still rasterizes


class TestRasterizeCenterlines:
    def test_empty_map(self):
        mask = rasterize_polylines(TrajectorySet.of(()), GridSpec(), 0.75)
        assert not mask.any()

    def test_width_cutoff_single_row(self):
        # horizontal line through cell centers: own row in, neighbors out
        spec = GridSpec(0, 5, 0, 5, 0.5, 0.5)
        y_line = 2.25  # center of row 4
        centerlines = TrajectorySet.of([Trajectory("c", [[0.0, y_line], [5.0, y_line]])])
        mask = rasterize_polylines(centerlines, spec, width_m=0.75)
        rows = set(np.nonzero(mask)[0])
        assert rows == {4}  # adjacent centers at 0.5 m > 0.375 m

    def test_deterministic(self):
        _, centerlines = synth_scene(3, 3, 1, 0.0)
        spec = GridSpec()
        a = rasterize_polylines(centerlines, spec, 0.75)
        b = rasterize_polylines(centerlines, spec, 0.75)
        assert np.array_equal(a, b)

    def test_matches_cell_loop_oracle(self):
        # ROI [-6, 6) x [-4, 5); polylines spill past it or miss it entirely
        rng = np.random.default_rng(11)
        cells = ((0.5, 0.5), (0.4, 0.7), (1.0, 0.3))
        cases = []
        for trial in range(18):
            polys = []
            for k in range(int(rng.integers(1, 4))):
                pts = rng.normal(0.0, 5.0, (int(rng.integers(2, 7)), 2))
                if k == 0:
                    pts[1] = pts[0]  # a zero-length segment
                if trial % 6 == 5 and k == 1:
                    pts += 40.0  # wholly outside the ROI
                polys.append(Trajectory(f"p{k}", pts))
            cases.append((GridSpec(-6.0, 6.0, -4.0, 5.0, *cells[trial % 3]), polys,
                          (0.1, 0.75, 1.3, 3.0)[trial % 4]))
        # along a row of centers: the neighbouring rows sit exactly at the radius
        cases.append((GridSpec(-6.0, 6.0, -4.0, 5.0, 0.5, 0.5),
                      [Trajectory("c", [[-7.0, 0.25], [7.0, 0.25]])], 1.0))
        # Near |x| = |y| = MAX_COORD an ulp is 1.9e-9 m, and a computed cell
        # center is up to 3e-7 cells off i + 0.5. Random polylines there, and
        # single segments whose box +- radius ends exactly on a cell center
        # (the radius is dyadic, so c -+ r is exact and d2 == r * r): a window
        # widened by a fixed 1e-9 cells drops about half of those centers.
        for cell, width in ((0.01, 0.03125), (0.003, 0.0078125)):
            x_max, y_min = 1e7 - 4 * cell, -1e7 + 4 * cell
            spec = GridSpec(x_max - 12 * cell, x_max, y_min, y_min + 12 * cell, cell, cell)
            for trial in range(6):
                offsets = rng.uniform(0.0, 16 * cell, (int(rng.integers(2, 7)), 2))
                pts = np.column_stack([1e7 - offsets[:, 0], -1e7 + offsets[:, 1]])
                cases.append((spec, [Trajectory("far", pts)], (1.3, 5.0)[trial % 2] * cell))
            ys, xs = spec.cell_centers()
            r = width / 2
            for i in range(12):
                for x in (xs[i] - r, xs[i] + r):
                    cases.append((spec, [Trajectory("v", [[x, ys[2]], [x, ys[3]]])], width))
                for y in (ys[i] - r, ys[i] + r):
                    cases.append((spec, [Trajectory("h", [[xs[2], y], [xs[3], y]])], width))
        for spec, polys, width in cases:
            polys = TrajectorySet.of(polys)
            got = rasterize_polylines(polys, spec, width)
            want = polyline_mask_by_cell_loop([p.points for p in polys], spec, width)
            assert np.array_equal(got, want), (spec, [p.points for p in polys], width)

    def test_memory_bounded_by_chunk(self):
        # a score-sized frame: 132 trajectories, 6,336 segments, 83.6k
        # candidate cells. It holds about 16 8-byte arrays per segment and at
        # most two dozen temporaries of core.CHUNK entries: 1.5 MiB here,
        # where it peaks near 1.2 MiB and its 1 << 16-entry chunks peaked
        # at 8.8 MiB
        ts, _ = synth_scene(0, 6, 22, 0.4)
        segments = sum(len(t.points) - 1 for t in ts.trajectories)
        tracemalloc.start()
        try:
            rasterize_polylines(ts, GridSpec(), 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * segments + 24 * 8 * core.CHUNK

    def test_nonfinite_width_rejected(self):
        line = TrajectorySet.of([Trajectory("c", [[0.0, 0.0], [1.0, 0.0]])])
        for width in (0.0, float("nan"), float("inf")):
            with pytest.raises(ContractError):
                rasterize_polylines(line, GridSpec(), width)


class TestHeatmapToFeature:
    def test_zero_heatmap(self):
        hm = rasterize_trajectories(TrajectorySet.of(()), GridSpec())
        fm = heatmap_to_feature(hm)
        assert fm.channels == 2
        assert not fm.data.any()

    def test_direction_scaling(self):
        spec = GridSpec(0, 2, 0, 2, 1.0, 1.0)
        hm = rasterize_trajectories(single_set([[0.5, 0.1], [0.5, 1.9]]), spec)
        fm = heatmap_to_feature(hm)
        hit = hm.count > 0
        # vertical segment: direction pi/2 -> channel 1 equals 1.0
        assert np.all(fm.data[:, :, 1][hit] == pytest.approx(1.0))

    def test_linear_scaling_values(self):
        spec = GridSpec(0, 1, 0, 1, 1.0, 1.0)
        hm = rasterize_trajectories(TrajectorySet.of(()), spec)
        object.__setattr__(hm, "density", np.array([[0.5]]))
        object.__setattr__(hm, "direction", np.array([[-math.pi / 4]]))
        fm = heatmap_to_feature(hm)
        assert fm.data[0, 0, 0] == 0.5
        assert fm.data[0, 0, 1] == pytest.approx(-0.5)
