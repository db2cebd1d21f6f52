"""The batched hot kernels against the per-pair and per-segment oracles."""
import tracemalloc

import numpy as np

from trajprior import selection
from trajprior.core import GridSpec, Trajectory, TrajectorySet
from trajprior.ingest import synth_scene
from trajprior.raster import rasterize_trajectories, traverse_cells
from trajprior.selection import fps, frechet_dist, frechet_dp

import oracles
from oracles import cells_by_dense_sampling, fps_by_full_matrix


def cell_set(x0, y0, x1, y1, spec):
    seg, row, col = traverse_cells(np.array([x0]), np.array([y0]),
                                   np.array([x1]), np.array([y1]), spec)
    assert not seg.any()
    return set(zip(row.tolist(), col.tolist()))


def test_traverse_matches_dense_sampling():
    rng = np.random.default_rng(12)
    spec = GridSpec(0, 10, 0, 8, 1.0, 1.0)
    for _ in range(100):
        x0, x1 = rng.uniform(-1, 11, 2)
        y0, y1 = rng.uniform(-1, 9, 2)
        got = cell_set(x0, y0, x1, y1, spec)
        want = cells_by_dense_sampling(x0, y0, x1, y1, spec)
        # dense sampling can only miss cells the segment barely clips
        assert want <= got
        assert len(got - want) <= 2


def test_traverse_exact_on_grid_aligned_cases():
    spec = GridSpec(0, 4, 0, 4, 1.0, 1.0)

    def cells(x0, y0, x1, y1):
        return cell_set(x0, y0, x1, y1, spec)

    # horizontal segment inside one row
    assert cells(0.5, 0.5, 3.5, 0.5) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    # segment exactly on a grid line belongs to the upper row (half-open)
    assert cells(0.5, 1.0, 2.5, 1.0) == {(1, 0), (1, 1), (1, 2)}
    # diagonal through corners: stays on the diagonal cells (half-open)
    assert cells(0.0, 0.0, 2.0, 2.0) == {(0, 0), (1, 1), (2, 2)}


def test_traverse_batch_matches_per_segment_oracle():
    # segments reaching far past the grid, on grid lines, and of zero length
    rng = np.random.default_rng(13)
    spec = GridSpec(-6.0, 6.0, -4.0, 5.0, 0.4, 0.7)
    p0 = rng.uniform(-9, 9, (400, 2))
    p1 = p0 + rng.normal(0, 4, (400, 2))
    p1[::7] = p0[::7]
    p0[1::9, 1] = p1[1::9, 1] = 0.9  # on a row boundary: (0.9 + 4) / 0.7 = 7
    p1[2::11] = p0[2::11] * 300.0
    seg, row, col = traverse_cells(p0[:, 0], p0[:, 1], p1[:, 0], p1[:, 1], spec)
    for k in range(len(p0)):
        want = oracles.traverse_cells(*p0[k], *p1[k], spec)
        mine = seg == k
        assert sorted(zip(row[mine].tolist(), col[mine].tolist())) == \
            sorted(map(tuple, want.tolist()))


def test_frechet_batch_bit_identical_to_oracle():
    rng = np.random.default_rng(10)
    for trial in range(60):
        a = rng.normal(0, 20, (int(rng.integers(1, 41)), 2))
        if trial % 3 == 0:
            a[1::2] = a[::2][:len(a[1::2])]  # duplicate points
        bs = [rng.normal(0, 20, (int(rng.integers(1, 41)), 2))
              for _ in range(int(rng.integers(1, 6)))]
        bs += [a.copy(), np.repeat(a[-1:], 3, axis=0), a[::-1].copy()]
        got = frechet_dp(a, bs)
        want = [oracles.frechet_dp(a, b) for b in bs]
        assert got.tolist() == want
        assert frechet_dist(a, bs[0]) == want[0]
    assert frechet_dp(a, []).shape == (0,)


def test_fps_pruned_matches_full_matrix_every_start(monkeypatch):
    # parallel lanes: the endpoint bound rules out most DPs after the first pick
    rng = np.random.default_rng(17)
    trajs = []
    for i in range(14):
        x = np.linspace(0.0, 40.0, int(rng.integers(8, 20)))
        y = 3.5 * (i % 4) + rng.normal(0, 0.3, len(x))
        trajs.append(Trajectory(f"t{i}", np.column_stack([x, y])))
    ts = TrajectorySet(tuple(trajs))
    matrix = [[frechet_dist(a, b) for b in trajs] for a in trajs]
    calls = []

    def counting(a, bs):
        calls.append(len(bs))
        return frechet_dp(a, bs)

    monkeypatch.setattr(selection, "frechet_dp", counting)
    for start in range(len(trajs)):
        res = fps(ts, len(trajs), start_index=start)
        assert res.indices == fps_by_full_matrix(matrix, len(trajs), start)
        want = [min(matrix[p][s] for s in res.indices[:k + 1])
                for k, p in enumerate(res.indices[1:])]
        assert res.min_dists == want
    # at most one call per pick after the first, and far fewer DPs than
    # the unpruned m - 1, m - 2, ... per start
    assert len(calls) <= len(trajs) * (len(trajs) - 1)
    assert sum(calls) < len(trajs) * sum(range(len(trajs))) / 2


def assert_same_heatmap(hm, trajectories, spec):
    count, density, direction = oracles.rasterize_by_segment_loop(trajectories, spec)
    assert hm.count.tobytes() == count.tobytes()
    assert hm.density.tobytes() == density.tobytes()
    assert hm.direction.tobytes() == direction.tobytes()
    assert hm.n_max == max(int(count.max()), 1)


def test_rasterize_byte_identical_to_segment_loop_oracle():
    rng = np.random.default_rng(18)
    for scene in range(6):
        ts, _ = synth_scene(scene, int(rng.integers(1, 5)),
                            int(rng.integers(1, 5)), float(rng.uniform(0, 1)))
        extra = (
            # along grid lines, with a zero-length segment and a stop outside
            Trajectory("grid", [[-10.0, 0.0], [10.0, 0.0], [10.0, 5.0],
                                [10.0, 5.0], [-60.0, -30.0]]),
            Trajectory("outside", [[100.0, 100.0], [120.0, 130.0]]),
            Trajectory("across", [[-1e4, -20.3], [1e4, 20.7]]),
        )
        trajs = list(ts.trajectories) + list(extra)
        for spec in (GridSpec(), GridSpec(-6.0, 6.0, -4.0, 5.0, 0.4, 0.7)):
            hm = rasterize_trajectories(TrajectorySet(tuple(trajs)), spec)
            assert_same_heatmap(hm, trajs, spec)
            perm = [trajs[i] for i in rng.permutation(len(trajs))]
            again = rasterize_trajectories(TrajectorySet(tuple(perm)), spec)
            assert again.direction.tobytes() == hm.direction.tobytes()
            assert again.count.tobytes() == hm.count.tobytes()


def test_rasterize_memory_bounded():
    # 78k segments: traversing them all at once peaks near 38 MB, in
    # chunks near 13 MB
    ts, _ = synth_scene(4, 8, 50, 0.5)
    long = TrajectorySet(tuple(
        Trajectory(t.id, np.repeat(t.points, 4, axis=0)
                   + np.linspace(0, 0.2, 4 * len(t.points))[:, None])
        for t in ts.trajectories))
    tracemalloc.start()
    try:
        rasterize_trajectories(long, GridSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
