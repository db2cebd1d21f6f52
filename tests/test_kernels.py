"""The batched hot kernels against the per-pair and per-segment oracles."""
import tracemalloc

import numpy as np
import pytest

from trajprior import core, raster, selection
from trajprior.core import ContractError, GridSpec, Trajectory, TrajectorySet
from trajprior.ingest import synth_scene
from trajprior.raster import rasterize_trajectories, traverse_cells
from trajprior.selection import fps, frechet_dp

import oracles
from conftest import packed
from oracles import cells_by_dense_sampling, fps_by_full_matrix, seed_of_each_start


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


def assert_traverse_matches_oracle(p0, p1, spec):
    seg, row, col = traverse_cells(p0[:, 0], p0[:, 1], p1[:, 0], p1[:, 1], spec)
    for k in range(len(p0)):
        want = oracles.traverse_cells(*p0[k], *p1[k], spec)
        mine = seg == k
        assert sorted(zip(row[mine].tolist(), col[mine].tolist())) == \
            sorted(map(tuple, want.tolist())), (p0[k], p1[k])


def test_traverse_batch_matches_per_segment_oracle(monkeypatch):
    # segments reaching far past the grid, on grid lines, and of zero length
    rng = np.random.default_rng(13)
    spec = GridSpec(-6.0, 6.0, -4.0, 5.0, 0.4, 0.7)
    p0 = rng.uniform(-9, 9, (400, 2))
    p1 = p0 + rng.normal(0, 4, (400, 2))
    p1[::7] = p0[::7]
    p0[1::9, 1] = p1[1::9, 1] = 0.9  # on a row boundary: (0.9 + 4) / 0.7 = 7
    p1[2::11] = p0[2::11] * 300.0
    assert_traverse_matches_oracle(p0, p1, spec)

    # tied crossings: slope 1 and 2 diagonals from lattice corners, in every
    # direction, cross an x- and a y-line at one t; nudging the end by one
    # ulp puts many of those crossings an ulp apart
    lattice = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5, 0.5)
    corners = np.stack(np.meshgrid(np.arange(-5.0, 5.0, 2.5),
                                   np.arange(-4.5, 5.0, 2.0)), -1).reshape(-1, 2)
    steps = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1],
                      [2, 1], [-2, 1], [1, -2], [-1, -2]], dtype=np.float64)
    moves = (steps[:, None, :] * np.array([1.0, 3.5, 9.0])[:, None]).reshape(-1, 2)
    p0 = np.repeat(corners, len(moves), axis=0)
    p1 = p0 + np.tile(moves, (len(corners), 1))
    up, down = p1.copy(), p1.copy()
    up[:, 1] = np.nextafter(p1[:, 1], np.inf)
    down[:, 0] = np.nextafter(p1[:, 0], -np.inf)
    # long runs in -x and -y, on and off the grid lines
    ys = np.array([-4.0, -2.5, 0.0, 0.3, 3.5, 4.0])
    run_x0 = np.column_stack([np.full(6, 60.0), ys])
    run_x1 = np.column_stack([np.full(6, -60.0), ys[::-1] + 0.25])
    run_y0, run_y1 = run_x0[:, ::-1], run_x1[:, ::-1]
    assert_traverse_matches_oracle(np.concatenate([p0, p0, p0, run_x0, run_y0]),
                                   np.concatenate([p1, up, down, run_x1, run_y1]),
                                   lattice)

    # through rasterize: zigzags through lattice corners (slope 8 on 0.5 m
    # cells ties every x-crossing with a y-crossing), every other one in -x;
    # about 44k segment parameters, so more than one traversal chunk
    trajs = []
    for j in range(24):
        x = np.arange(-50.0, 51.0, 5.0)
        y = np.where(np.arange(len(x)) % 2, 20.0, -20.0) + 0.5 * (j % 10)
        pts = np.column_stack([x, y])
        trajs.append(Trajectory(f"z{j}", pts[::-1] if j % 2 else pts))
    calls = []

    def counting(*args):
        calls.append(len(args[0]))  # segments in the chunk
        return traverse_cells(*args)

    monkeypatch.setattr(raster, "traverse_cells", counting)
    spec = GridSpec()
    ts = TrajectorySet.of(trajs)
    assert_same_heatmap(rasterize_trajectories(ts, spec), ts, spec)
    assert len(calls) >= 2


def test_frechet_batch_bit_identical_to_oracle(monkeypatch):
    # squared distances taken one diagonal at a time (1 entry), a few
    # diagonals at a time (64) and for the whole table (2**40 and, at these
    # sizes, the default)
    for block in (selection._FRECHET_BLOCK, 1, 64, 2**40):
        monkeypatch.setattr(selection, "_FRECHET_BLOCK", block)
        rng = np.random.default_rng(10)
        for trial in range(60):
            a = rng.normal(0, 20, (int(rng.integers(1, 41)), 2))
            if trial % 3 == 0:
                a[1::2] = a[::2][:len(a[1::2])]  # duplicate points
            bs = [rng.normal(0, 20, (int(rng.integers(1, 41)), 2))
                  for _ in range(int(rng.integers(1, 6)))]
            bs += [a.copy(), np.repeat(a[-1:], 3, axis=0), a[::-1].copy()]
            got = frechet_dp(a, packed(bs))
            want = [oracles.frechet_dp(a, b) for b in bs]
            assert got.tolist() == want
            assert frechet_dp(a, packed([bs[0]]))[0] == want[0]
        assert frechet_dp(a, packed([])).shape == (0,)


def test_fps_pruned_matches_full_matrix_every_start(monkeypatch):
    # parallel lanes: the endpoint bound rules out most DPs after the first pick
    rng = np.random.default_rng(17)
    trajs = []
    for i in range(14):
        x = np.linspace(0.0, 40.0, int(rng.integers(8, 20)))
        y = 3.5 * (i % 4) + rng.normal(0, 0.3, len(x))
        trajs.append(Trajectory(f"t{i}", np.column_stack([x, y])))
    ts = TrajectorySet.of(trajs)
    matrix = [[frechet_dp(a.points, packed([b.points]))[0] for b in trajs] for a in trajs]
    calls = []

    def counting(a, bs):
        calls.append(len(bs))
        return frechet_dp(a, bs)

    monkeypatch.setattr(selection, "frechet_dp", counting)
    seeds = seed_of_each_start(len(trajs))
    assert sorted(seeds) == list(range(len(trajs)))
    for start, seed in seeds.items():
        res = fps(ts, len(trajs), seed=seed)
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
            # steps whose squares underflow to 0 or to subnormals, where a
            # norm of sqrt(dx*dx + dy*dy) is 0 (a NaN direction) or inexact
            Trajectory("tiny", [[0.0, 0.0], [1e-170, 0.0], [10.0, 0.0]]),
            Trajectory("subnormal", [[-3.0, -3.0], [0.0, 0.0], [1e-155, 1e-155],
                                     [3.0, -3.0]]),
        )
        trajs = TrajectorySet.of(list(ts.trajectories) + list(extra))
        for spec in (GridSpec(), GridSpec(-6.0, 6.0, -4.0, 5.0, 0.4, 0.7)):
            hm = rasterize_trajectories(trajs, spec)
            assert np.isfinite(hm.direction).all()
            assert_same_heatmap(hm, trajs, spec)
            perm = [trajs[i] for i in rng.permutation(len(trajs))]
            again = rasterize_trajectories(TrajectorySet.of(perm), spec)
            assert again.direction.tobytes() == hm.direction.tobytes()
            assert again.count.tobytes() == hm.count.tobytes()


def test_rasterize_memory_bounded():
    # 78k segments. rasterize holds about 16 8-byte values per segment (the
    # canonical copy, its segment endpoints and their crossing counts), five
    # H x W arrays and at most two dozen temporaries per parameter of a
    # traversal chunk: 13 MiB here, where it peaks near 10.1 MiB (12 MiB
    # with chunks of 1 << 15 parameters, 38 MB traversing them all at once)
    ts, _ = synth_scene(4, 8, 50, 0.5)
    long = TrajectorySet.of(
        Trajectory(t.id, np.repeat(t.points, 4, axis=0)
                   + np.linspace(0, 0.2, 4 * len(t.points))[:, None])
        for t in ts.trajectories)
    segments = len(long.points) - len(long)
    spec = GridSpec()
    tracemalloc.start()
    try:
        rasterize_trajectories(long, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (18 * segments + 5 * spec.height * spec.width
                       + 24 * raster._TRAVERSE_CHUNK)


def test_frechet_memory_bounded():
    # K = 300 candidates of n = M = 120 points. The DP holds three (n + 1, K)
    # diagonals, the (M, K) gathered candidates with their index and a few
    # (cells, K) temporaries of one block: it peaks near 2.9 MB here, where
    # the n * M * K table alone would take 34.6 MB
    rng = np.random.default_rng(5)
    a = rng.normal(0, 20, (120, 2))
    bs = packed([rng.normal(0, 20, (120, 2)) for _ in range(300)])
    tracemalloc.start()
    try:
        frechet_dp(a, bs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (8 * 300 * (120 + 120) + 4 * selection._FRECHET_BLOCK)


def test_traverse_chunks_without_visits(monkeypatch):
    """No segments, or none inside the ROI, give no visits, alone and as
    traversal chunks of a rasterize."""
    spec = GridSpec()
    empty = np.empty(0)
    for got in traverse_cells(empty, empty, empty, empty, spec):
        assert got.shape == (0,) and got.dtype == np.int64
    x0, y0 = np.array([100.0, -80.0, 0.0]), np.array([100.0, 0.0, 40.0])
    for got in traverse_cells(x0, y0, x0 + 5.0, y0 - 3.0, spec):
        assert got.shape == (0,)
    # one trajectory per chunk: two wholly outside the ROI, one of zero-length
    # steps (a chunk of no segments), then one inside
    trajs = TrajectorySet.of([
        Trajectory("a", [[100.0, 100.0], [120.0, 130.0], [60.0, 30.0]]),
        Trajectory("b", [[-80.0, 0.0], [-51.0, 0.0]]),
        Trajectory("c", [[1.0, 1.0], [1.0, 1.0]]),
        Trajectory("d", [[-10.0, -3.0], [10.0, 3.5], [12.0, -1.0]])])
    monkeypatch.setattr(raster, "_TRAVERSE_CHUNK", 1)
    assert_same_heatmap(rasterize_trajectories(trajs, spec), trajs, spec)
    # a set whose every segment has zero length traverses no chunk
    still = rasterize_trajectories(TrajectorySet.of([trajs[2]]), spec)
    assert not still.count.any() and still.n_max == 1


def test_traverse_key_fits_int64_or_is_refused():
    """The keys cell * S + seg of S segments reach H * W * S - 1: within int64
    for every S up to 2**63 // (H * W) on the largest grid, and a chunk of one
    segment more is refused before anything is allocated."""
    spec = GridSpec(0.0, 5000.0, 0.0, 2000.0, 1.0, 1.0)
    cells = spec.height * spec.width
    assert cells == core.MAX_CELLS
    most = (1 << 63) // cells
    assert (cells - 1) * most + (most - 1) <= np.iinfo(np.int64).max
    over = np.broadcast_to(0.0, (most + 1,))  # no memory behind it
    with pytest.raises(ContractError, match="overflow the int64 cell keys"):
        traverse_cells(over, over, over, over, spec)
