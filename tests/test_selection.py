
import tracemalloc

import numpy as np
import pytest

from trajprior.core import ContractError, Pcg64, Trajectory, TrajectorySet
from trajprior import core, selection
from trajprior.selection import fps, frechet_dp, kmeans, resample_all

from conftest import packed, random_set, random_trajectory
from oracles import (best_two_partition, fps_by_full_matrix, frechet_by_enumeration,
                     seed_of_each_start)


class TestResample:
    def test_uniform_on_segment(self):
        r = resample_all(TrajectorySet.of([Trajectory("t", [[0, 0], [1, 0]])]), 3)[0]
        assert np.allclose(r, [[0, 0], [0.5, 0], [1, 0]])

    def test_r2_keeps_endpoints(self):
        t = Trajectory("t", [[0, 0], [3, 1], [5, -2]])
        r = resample_all(TrajectorySet.of([t]), 2)[0]
        assert np.array_equal(r, [t.points[0], t.points[-1]])

    def test_l_shape_midpoint_at_corner(self):
        r = resample_all(TrajectorySet.of([Trajectory("t", [[0, 0], [1, 0], [1, 1]])]), 3)[0]
        assert np.allclose(r[1], [1, 0])

    def test_zero_length_collapses(self):
        r = resample_all(TrajectorySet.of([Trajectory("t", [[2, 3], [2, 3]])]), 5)[0]
        assert np.all(r == [2, 3])

    def test_endpoints_and_monotone_arc_length(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = random_trajectory(rng, n_points=int(rng.integers(2, 12)))
            r = resample_all(TrajectorySet.of([t]), 20)[0]
            assert np.allclose(r[0], t.points[0], atol=1e-9)
            assert np.allclose(r[-1], t.points[-1], atol=1e-9)


class TestFrechet:
    def test_identical_zero(self):
        t = Trajectory("t", np.array([[0, 0], [1, 2], [3, 3]], float))
        assert frechet_dp(t.points, packed([t.points]))[0] == 0.0

    def test_parallel_offset(self):
        a = Trajectory("a", np.array([[0, 0], [5, 0]], float))
        b = Trajectory("b", np.array([[0, 1], [5, 1]], float))
        assert frechet_dp(a.points, packed([b.points]))[0] == pytest.approx(1.0)

    def test_small_instance_matches_enumeration(self):
        a = np.array([[0, 0], [4, 0]], float)
        b = np.array([[0, 1], [2, 3], [4, 1]], float)
        assert frechet_dp(a, packed([b]))[0] == frechet_by_enumeration(a, b)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.normal(0, 10, (int(rng.integers(1, 7)), 2))
            b = rng.normal(0, 10, (int(rng.integers(1, 7)), 2))
            assert frechet_dp(a, packed([b]))[0] == frechet_by_enumeration(a, b)

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        trajs = [random_trajectory(rng, tid=f"t{i}").points for i in range(12)]
        for a in trajs:
            for b in trajs:
                dab = frechet_dp(a, packed([b]))[0]
                assert dab == frechet_dp(b, packed([a]))[0]
                assert dab >= 0.0
                if np.array_equal(a, b):
                    assert dab == 0.0
                else:
                    assert dab > 0.0 or np.array_equal(a, b)
        for _ in range(200):
            i, j, k = rng.integers(0, 12, 3)
            assert (frechet_dp(trajs[i], packed([trajs[k]]))[0] <=
                    frechet_dp(trajs[i], packed([trajs[j]]))[0] +
                    frechet_dp(trajs[j], packed([trajs[k]]))[0] + 1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a = rng.normal(0, 10, (n, 2))
            b = rng.normal(0, 10, (n, 2))
            d = frechet_dp(a, packed([b]))[0]
            identity_bound = float(np.linalg.norm(a - b, axis=1).max())
            assert d <= identity_bound + 1e-12
            # never below the symmetric nearest-neighbor (Chamfer-style) max
            fwd = np.linalg.norm(a[:, None] - b[None, :], axis=2)
            chamfer_max = max(fwd.min(axis=1).max(), fwd.min(axis=0).max())
            assert d >= chamfer_max - 1e-12


class TestKmeans:
    def bundles(self, rng, centers, per, spread=0.05):
        trajs = []
        for ci, (cx, cy) in enumerate(centers):
            for j in range(per):
                base = np.array([[cx - 2, cy], [cx, cy], [cx + 2, cy]])
                trajs.append(Trajectory(f"b{ci}_{j}",
                                        base + rng.normal(0, spread, base.shape)))
        return TrajectorySet.of(trajs)

    def test_k_equals_m_zero_inertia(self):
        rng = np.random.default_rng(9)
        ts = random_set(rng, 5)
        res = kmeans(ts, 5, seed=3)
        assert res.inertia_trace[-1] == pytest.approx(0.0, abs=1e-18)

    def test_separated_bundles(self):
        rng = np.random.default_rng(10)
        ts = self.bundles(rng, [(0, 0), (100, 100)], per=4, spread=0.0)
        res = kmeans(ts, 2, seed=1)
        labels = res.assignment
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_tiny_instance_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        ts = self.bundles(rng, [(0, 0), (30, 10)], per=3, spread=0.3)
        res = kmeans(ts, 2, r=6, seed=0)
        x = np.stack([resample_all(TrajectorySet.of([t]), 6)[0].ravel()
                      for t in ts.trajectories])
        want_labels, want_inertia = best_two_partition(x)
        got = res.assignment
        same = np.array_equal(got == got[0], want_labels == want_labels[0])
        assert same
        assert res.inertia_trace[-1] == pytest.approx(want_inertia, rel=1e-9)

    def test_inertia_trace_nonincreasing(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            ts = random_set(rng, 15, n_points=6)
            res = kmeans(ts, 4, seed=seed)
            trace = res.inertia_trace
            assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        ts = random_set(rng, 10, n_points=5)
        a = kmeans(ts, 3, seed=42)
        b = kmeans(ts, 3, seed=42)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.inertia_trace == b.inertia_trace
        for ca, cb in zip(a.centers, b.centers):
            assert np.array_equal(ca, cb)

    def test_bad_k_rejected(self):
        rng = np.random.default_rng(14)
        ts = random_set(rng, 3)
        with pytest.raises(ContractError):
            kmeans(ts, 0)
        with pytest.raises(ContractError):
            kmeans(ts, 4)


class TestFps:
    def triangle_set(self):
        # mutual Frechet distances roughly {d01=1, d02=10, d12=10}
        return TrajectorySet.of((
            Trajectory("a", [[0, 0], [1, 0]]),
            Trajectory("b", [[0, 1], [1, 1]]),
            Trajectory("c", [[0, 10], [1, 10]]),
        ))

    def test_max_min_pick(self):
        res = fps(self.triangle_set(), 2, seed=seed_of_each_start(3)[0])
        assert res.indices == [0, 2]
        assert res.min_dists == [pytest.approx(10.0)]

    def test_count_one(self):
        res = fps(self.triangle_set(), 1, seed=seed_of_each_start(3)[1])
        assert res.indices == [1]
        assert res.min_dists == []

    def test_exhaustion(self):
        rng = np.random.default_rng(15)
        ts = random_set(rng, 6)
        res = fps(ts, 6, seed=0)
        assert sorted(res.indices) == list(range(6))

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = int(rng.integers(3, 9))
            ts = random_set(rng, m)
            matrix = [[frechet_dp(a.points, packed([b.points]))[0] for b in ts.trajectories]
                      for a in ts.trajectories]
            seeds = seed_of_each_start(m)
            assert sorted(seeds) == list(range(m))
            for start, seed in seeds.items():
                got = fps(ts, m, seed=seed).indices
                want = fps_by_full_matrix(matrix, m, start)
                assert got == want

    def test_order_of_unselected_does_not_matter(self):
        # tie-free distances: permuting non-start trajectories permutes
        # indices consistently
        ts = self.triangle_set()
        seed = seed_of_each_start(3)[0]
        res = fps(ts, 3, seed=seed)
        perm = TrajectorySet.of((ts.trajectories[0], ts.trajectories[2],
                                 ts.trajectories[1]))
        res_p = fps(perm, 3, seed=seed)
        ids = [ts.trajectories[i].id for i in res.indices]
        ids_p = [perm.trajectories[i].id for i in res_p.indices]
        assert ids == ids_p

    def test_count_too_large_rejected(self):
        with pytest.raises(ContractError):
            fps(self.triangle_set(), 4, seed=0)


def test_resample_all_stacks_and_caps(monkeypatch):
    ts = random_set(np.random.default_rng(17), 3)
    got = resample_all(ts, 7)
    assert np.array_equal(got, np.stack([resample_all(TrajectorySet.of([t]), 7)[0]
                                         for t in ts.trajectories]))
    monkeypatch.setattr(core, "MAX_SAMPLES", 20)
    assert resample_all(TrajectorySet.of(ts.trajectories[:2]), 10).shape == (2, 10, 2)
    with pytest.raises(ContractError, match="resample count 7 for 3 trajectories"):
        resample_all(ts, 7)


@pytest.mark.parametrize("r", [2 ** 62, 2 ** 63 - 1, 2 ** 63])
@pytest.mark.parametrize("count", [0, 1])
def test_resample_count_beyond_cap_refused_before_sampling(r, count, monkeypatch):
    # numpy cannot even shape an empty set's (0, r, 2) result at these sizes
    calls = []
    monkeypatch.setattr(selection, "sample_arc_length", lambda *a: calls.append(a))
    ts = TrajectorySet.of([Trajectory("p", [[0.0, 0.0], [1.0, 0.0]])] * count)
    with pytest.raises(ContractError, match=f"resample count {r} for {count} "):
        resample_all(ts, r)
    assert calls == []


def test_kmeans_peak_memory_bounded():
    """Distances are taken one center at a time, never as an (m, k, 2R) block,
    and the sums are bit-identical to that block's."""
    rng = np.random.default_rng(18)
    x, c = rng.normal(0, 10, (60, 40)), rng.normal(0, 10, (7, 40))
    d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    assignment, costs = selection._assign(x, c)
    assert np.array_equal(assignment, d2.argmin(axis=1))
    assert np.array_equal(costs, d2.min(axis=1))
    ts = random_set(rng, 500, n_points=12)
    tracemalloc.start()
    try:
        res = kmeans(ts, 50, r=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.centers.shape == (50, 200, 2)
    assert peak < 16 * 2**20, f"kmeans peaked at {peak / 2**20:.1f} MiB"


SEEDS = list(range(60)) + [2**32, 2**40 + 7, 12345678901234567890, 10**40, 10**100,
                           2**128 - 1, 2**128, 2**160 + 3]
SIZES = [1, 2, 3, 5, 7, 15, 16, 17, 100, 192, 1000, 65537]


class TestPcg64:
    """core.Pcg64 draws what np.random.default_rng draws."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, seed):
        # the 65537-element shuffle takes 0.1 s in Python: five seeds run it
        long = seed in (0, 1, 2**32, 10**40, 2**160 + 3)
        for m in SIZES:
            want = np.random.default_rng(seed)
            assert Pcg64(seed).integers(m) == want.integers(m)
            if m < 2**16 or long:
                assert np.array_equal(Pcg64(seed).permutation(m),
                                      np.random.default_rng(seed).permutation(m))
        # one generator, many draws: the buffered half-words carry over
        got, want = Pcg64(seed), np.random.default_rng(seed)
        for m in SIZES + [2**31, 2**31 + 1, 3 * 10**9, 2**32 - 1]:
            assert got.integers(m) == want.integers(m)
        assert np.array_equal(got.permutation(50), want.permutation(50))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matches_numpy(self, seed):
        for n in (0, 1, 7, 1000):
            got = Pcg64(seed).random(n)
            assert got.dtype == np.float64
            assert got.tobytes() == np.random.default_rng(seed).random(n).tobytes()
        # 64-bit draws between 32-bit ones: the buffered half-word survives them
        got, want = Pcg64(seed), np.random.default_rng(seed)
        for m in (7, 2**31 + 1, 1, 100):
            assert got.integers(m) == want.integers(m)
            assert got.random(3).tobytes() == want.random(3).tobytes()
            assert np.array_equal(got.permutation(m % 17 + 1),
                                  want.permutation(m % 17 + 1))
            assert got.random(1).tobytes() == want.random(1).tobytes()

    def test_full_32_bit_range_matches_numpy(self):
        for seed in range(200):
            for m in (2**31 + 1, 3 * 10**9, 2**32 - 1):
                assert Pcg64(seed).integers(m) == \
                    np.random.default_rng(seed).integers(m)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ContractError, match="seed must be an integer"):
            Pcg64(seed)

    @pytest.mark.parametrize("m", [0, 2**32, 2**32 + 1])
    def test_range_outside_32_bits_rejected(self, m):
        rng = Pcg64(0)
        with pytest.raises(ContractError, match="range must be in"):
            rng.integers(m)
        with pytest.raises(ContractError, match="range must be in"):
            rng.permutation(m)
