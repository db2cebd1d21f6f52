import tracemalloc

import numpy as np
import pytest

from trajprior import core
from trajprior.core import ContractError, GridSpec, Trajectory
from trajprior.ingest import synth_scene
from trajprior.metrics import (ae_dist, ae_type, iou, prior_iou,
                               sample_polyline_points)

from oracles import chamfer_mean_bruteforce, chamfer_mean_dense


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
        ]
        for a, b in cases:
            got = ae_dist(a, b)
            assert got == chamfer_mean_dense(a, b)
            assert got == pytest.approx(chamfer_mean_bruteforce(a, b), rel=1e-12)

    def test_nonfinite_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        for bad in (np.nan, np.inf, -np.inf):
            other = pts.copy()
            other[1, 0] = bad
            with pytest.raises(ContractError):
                ae_dist(pts, other)
            with pytest.raises(ContractError):
                ae_dist(other, pts)

    def test_memory_grows_with_points_not_pairs(self):
        # a dense 10k x 1k difference tensor alone would take 160 MB
        rng = np.random.default_rng(4)
        pred = rng.normal(0, 30, (10_000, 2))
        gt = rng.normal(0, 30, (1_000, 2))
        tracemalloc.start()
        try:
            ae_dist(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ae_dist(np.empty((0, 2)), np.array([[0.0, 0.0]]))


class TestPriorIou:
    def test_exact_trajectories_give_one(self):
        ts, centerlines = synth_scene(0, 3, 2, 0.0)
        assert prior_iou(ts.trajectories, centerlines, GridSpec()) == 1.0

    def test_noise_degrades(self):
        spec = GridSpec()
        vals = []
        for sigma in (0.0, 1.5):
            ious = []
            for seed in range(5):
                ts, centerlines = synth_scene(seed, 3, 5, sigma)
                ious.append(prior_iou(ts.trajectories, centerlines, spec))
            vals.append(np.mean(ious))
        assert vals[0] > vals[1]
        assert 0.0 < vals[1] < 1.0


class TestSamplePolylines:
    def test_step_and_endpoints(self):
        poly = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        pts = sample_polyline_points([poly], step=0.5)
        assert len(pts) == 21
        assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [10, 0])

    def test_sample_count_capped(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SAMPLES", 21)
        ten = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        assert len(sample_polyline_points([ten], step=0.5)) == 21
        point = Trajectory("q", [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ContractError, match="MAX_SAMPLES=21"):
            sample_polyline_points([ten, point], step=0.5)
