import tracemalloc

import numpy as np
import pytest

from trajprior import core, fusion, metrics, raster, selection
from trajprior.core import (MAX_COORD, ContractError, FeatureMap, GridSpec, Trajectory,
                            TrajectorySet)
from trajprior.fusion import (finite_difference_check, fuse_pipeline, predict_offsets_grad,
                              random_params)
from trajprior.ingest import synth_scene
from trajprior.metrics import (ae_dist, ae_type, iou, prior_iou,
                               sample_polyline_points)
from trajprior.raster import heatmap_to_feature, rasterize_polylines, rasterize_trajectories
from trajprior.selection import fps, resample_all

from conftest import INVALID_POINTS
from oracles import chamfer_mean_bruteforce, chamfer_mean_dense


def chamfer_cases():
    """Random point sets, plus duplicates, single points and far clusters."""
    rng = np.random.default_rng(3)
    cases = [(rng.normal(0, 10, (int(rng.integers(1, 40)), 2)),
              rng.normal(0, 10, (int(rng.integers(1, 40)), 2)))
             for _ in range(20)]
    cases += [
        (np.full((30, 2), 2.5), rng.normal(0, 10, (25, 2))),  # all duplicates
        (np.full((12, 2), -1.0), np.full((7, 2), 4.0)),
        (np.array([[1.0, 2.0]]), np.array([[-3.0, 0.5]])),    # one point each
        (np.array([[1.0, 2.0]]), rng.normal(0, 10, (40, 2))),
        # two clusters 1e4 m apart: far queries must not walk rings forever
        (np.concatenate([rng.normal(0, 1, (50, 2)), rng.normal(1e4, 1, (50, 2))]),
         rng.normal(0, 1, (50, 2))),
        (rng.normal(0, 10, (60, 2)) + 1e6, rng.normal(0, 10, (45, 2)) + 1e6),
        # a far query, finished by brute force, whose nearest point comes last
        (np.array([[1e4, 1e4]]),
         np.concatenate([rng.normal(0, 1, (40, 2)), [[5.0, 5.0]]])),
        # the MAX_COORD corners, the widest sets the contract admits
        (np.array([[-MAX_COORD, -MAX_COORD], [MAX_COORD, MAX_COORD], [0.0, 0.0]]),
         np.array([[MAX_COORD, -MAX_COORD], [-MAX_COORD, MAX_COORD], [1.0, -2.0]])),
        # a subnormal reference span: a query MAX_COORD away from it must not
        # overflow its cell index
        (np.array([[MAX_COORD, MAX_COORD], [0.0, 0.0]]), np.array([[0.0, 0.0], [1e-320, 0.0]])),
    ]
    # references far denser than the queries, which search their own cell
    # first, and far sparser, which search the 3 x 3 block first
    dense, sparse = rng.normal(0, 10, (900, 2)), rng.normal(0, 10, (6, 2))
    cases += [(sparse, dense), (dense, sparse)]
    # collinear sets: a lattice one row tall, and one column wide
    along = np.sort(rng.uniform(-50, 50, 70))
    row = (np.c_[along, np.full(70, 3.0)], np.c_[along[::3] + 0.2, np.full(24, 3.0)])
    cases += [row, row[::-1], (row[0][:, ::-1], row[1][:, ::-1])]
    # points on cell borders: 32 + 32 points spanning a 32 m square make
    # 8 m cells from (0, 0) (test_cell_side_rule), so every multiple of 8
    # is a border; also the largest doubles just below each border
    borders = np.arange(0.0, 33.0, 8.0)
    on = np.array([(x, y) for x in borders for y in borders] + [(8.0, 3.0)] * 7)
    below = np.nextafter(rng.choice(borders[1:], (32, 2)), 0.0)
    below[::2, 1] = rng.uniform(0, 32, 16)
    cases += [(on, below), (below, on)]
    # queries beyond every side and corner of the references' cells
    around = 200.0 * np.array([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y])
    cluster = rng.normal(0, 5, (50, 2))
    cases += [(around, cluster), (cluster, around)]
    # partial coverage: trajectories of 2 of 6 lanes against all 6
    # centerlines; most centerline queries fall back to brute force
    ts, centerlines = synth_scene(1, 6, 2, 0.4)
    covered = TrajectorySet.of(t for t in ts.trajectories
                               if t.id.startswith(("lane0_", "lane1_")))
    part = (sample_polyline_points(covered, 2.0), sample_polyline_points(centerlines, 2.0))
    cases += [part, part[::-1]]
    return cases


class TestIou:
    def test_identical_nonempty(self):
        m = np.zeros((4, 4), bool)
        m[1, 1] = m[2, 3] = True
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = True
        b[3, 3] = True
        assert iou(a, b) == 0.0

    def test_one_third(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = a[0, 1] = True
        b[0, 1] = b[2, 2] = True
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_empty_convention(self):
        e = np.zeros((3, 3), bool)
        f = np.zeros((3, 3), bool)
        f[1, 1] = True
        assert iou(e, e) == 1.0
        assert iou(e, f) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random((8, 8)) > 0.5
            b = rng.random((8, 8)) > 0.5
            assert iou(a, b) == iou(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            iou(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


class TestAeType:
    def test_identical(self):
        assert ae_type([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_different(self):
        assert ae_type(["a", "b"], ["x", "y"]) == 1.0

    def test_half(self):
        assert ae_type([1, 2, 3, 4], [1, 0, 3, 0]) == 0.5

    def test_empty(self):
        assert ae_type([], []) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        a = list(rng.integers(0, 4, 30))
        b = list(rng.integers(0, 4, 30))
        perm = rng.permutation(30)
        assert ae_type(a, b) == ae_type([a[i] for i in perm], [b[i] for i in perm])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            ae_type([1], [1, 2])


class TestAeDist:
    def test_equal_sets(self):
        pts = np.array([[0, 0], [3, 4], [1, 1]], float)
        assert ae_dist(pts, pts) == 0.0

    def test_translation(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        assert ae_dist(pts, pts + [0.0, 1.0]) == pytest.approx(1.0)

    def test_asymmetric_counts(self):
        pred = np.array([[0.0, 0.0]])
        gt = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert ae_dist(pred, gt) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 5, (17, 2))
        b = rng.normal(0, 5, (9, 2))
        assert ae_dist(a, b) == ae_dist(b, a)

    def test_matches_bruteforce(self):
        for a, b in chamfer_cases():
            got = ae_dist(a, b)
            assert got == chamfer_mean_dense(a, b)
            assert got == pytest.approx(chamfer_mean_bruteforce(a, b), rel=1e-12)

    def test_nonfinite_rejected(self):
        # as well as non-finite points: beyond MAX_COORD, or not (n, 2)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        for other in INVALID_POINTS.values():
            with pytest.raises(ContractError):
                ae_dist(pts, other)
            with pytest.raises(ContractError):
                ae_dist(other, pts)

    def test_memory_grows_with_points_not_pairs(self):
        # a dense 10k x 1k difference tensor alone would take 160 MB. What
        # ae_dist holds is five 8-byte values per point (x and y sorted by
        # cell, the sort order, a minimum and its copy in input order), a
        # table of cell starts and at most two dozen temporaries of
        # core.CHUNK entries: 1.25 MiB here, where it peaks near 0.84 MiB
        # (1.0 MiB with a grid per direction, 8 MiB with 1 << 16-entry chunks).
        # The second input is collinear: a lattice one row tall, 2,001 cells wide
        rng = np.random.default_rng(4)
        inputs = [(rng.normal(0, 30, (10_000, 2)), rng.normal(0, 30, (1_000, 2)))]
        x = np.linspace(-500.0, 500.0, 10_000)
        inputs.append((np.c_[x, np.full_like(x, 3.0)],
                       np.c_[rng.uniform(-500, 500, 1_000), np.full(1_000, 3.0)]))
        for pred, gt in inputs:
            tracemalloc.start()
            try:
                ae_dist(pred, gt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 8 * (len(pred) + len(gt)) + 24 * 8 * core.CHUNK

    def test_cell_side_rule(self):
        # twice the spacing of both sets together
        assert metrics._cell_side(np.array([32.0, 32.0]), 32, 32) == 8.0
        # at least half the spacing of the sparser set
        assert metrics._cell_side(np.array([32.0, 32.0]), 1000, 8) == 0.5 * np.sqrt(128.0)
        # a collinear set's spacing is its span over its count
        assert metrics._cell_side(np.array([100.0, 0.0]), 50, 50) == 2.0
        # coincident points get a unit cell
        assert metrics._cell_side(np.array([0.0, 0.0]), 3, 4) == 1.0
        assert metrics._cell_side(np.array([1e-300, 0.0]), 3, 4) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ae_dist(np.empty((0, 2)), np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("name,value", [
    ("CHUNK", 1), ("CHUNK", 7), ("CHUNK", 2**20),
    ("_TRAVERSE_CHUNK", 1), ("_TRAVERSE_CHUNK", 7), ("_TRAVERSE_CHUNK", 2**20),
    ("_BAND", 1), ("_BAND", 2**40), ("_FRECHET_BLOCK", 1), ("_FRECHET_BLOCK", 2**40)])
def test_chunk_size_leaves_results_bit_identical(name, value, monkeypatch):
    # fusion's _BAND of 1 gives bands of one grid row, 2**40 one band per grid;
    # selection's _FRECHET_BLOCK of 1 one diagonal per block, 2**40 one per DP
    ts, centerlines = synth_scene(5, 2, 3, 0.5)
    spec = GridSpec()
    rng = np.random.default_rng(41)
    bev = FeatureMap(spec, rng.normal(0, 1, spec.shape + (2,)))
    params = random_params(0, 2)
    upstream = rng.normal(0, 1, spec.shape + (2,))

    def results():
        hm = rasterize_trajectories(ts, spec)
        prior = heatmap_to_feature(hm)
        fused, stats = fuse_pipeline(bev, prior, params)
        grads = predict_offsets_grad(bev.data, prior.data, *(params[k] for k in (
            "w1", "b1", "w2", "b2")), upstream)
        sampled = fps(ts, 6)
        return ([ae_dist(a, b).hex() for a, b in chamfer_cases()],
                sampled.indices, [d.hex() for d in sampled.min_dists],
                rasterize_polylines(ts, spec, 0.75).tobytes(),
                rasterize_polylines(centerlines, spec, 0.75).tobytes(),
                hm.density.tobytes(), hm.direction.tobytes(), hm.count.tobytes(),
                hm.n_max, sample_polyline_points(ts, 0.5).tobytes(),
                resample_all(ts, 9).tobytes(), fused.data.tobytes(),
                {k: v.hex() for k, v in stats.items()}, [g.tobytes() for g in grads],
                {k: v.hex() for k, v in finite_difference_check(3).items()})

    want = results()
    module = {"CHUNK": core, "_TRAVERSE_CHUNK": raster, "_BAND": fusion,
              "_FRECHET_BLOCK": selection}[name]
    monkeypatch.setattr(module, name, value)
    assert results() == want


class TestPriorIou:
    def test_exact_trajectories_give_one(self):
        ts, centerlines = synth_scene(0, 3, 2, 0.0)
        assert prior_iou(ts, centerlines, GridSpec()) == 1.0

    def test_noise_degrades(self):
        spec = GridSpec()
        vals = []
        for sigma in (0.0, 1.5):
            ious = []
            for seed in range(5):
                ts, centerlines = synth_scene(seed, 3, 5, sigma)
                ious.append(prior_iou(ts, centerlines, spec))
            vals.append(np.mean(ious))
        assert vals[0] > vals[1]
        assert 0.0 < vals[1] < 1.0


class TestSamplePolylines:
    def test_step_and_endpoints(self):
        poly = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        pts = sample_polyline_points(TrajectorySet.of([poly]), step=0.5)
        assert len(pts) == 21
        assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [10, 0])

    def test_sample_count_capped(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SAMPLES", 21)
        ten = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        assert len(sample_polyline_points(TrajectorySet.of([ten]), step=0.5)) == 21
        point = Trajectory("q", [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ContractError, match="MAX_SAMPLES=21"):
            sample_polyline_points(TrajectorySet.of([ten, point]), step=0.5)
