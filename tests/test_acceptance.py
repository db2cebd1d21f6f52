"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""
import json
import math
import time

import numpy as np
import pytest

from trajprior import tensorio
from trajprior.cli import main as cli_main
from trajprior.core import GridSpec, Trajectory, TrajectorySet
from trajprior.fusion import confidence_fuse, confidence_weights, \
    finite_difference_check, warp
from trajprior.ingest import IngestConfig, filter_by_length, smooth_set, \
    synth_scene
from trajprior.metrics import ae_dist, ae_type, iou, prior_iou, \
    sample_polyline_points
from trajprior.raster import heatmap_to_feature, rasterize_trajectories
from trajprior.selection import fps, frechet_dist, kmeans, resample_all

from conftest import random_set, random_trajectory
from oracles import (best_two_partition, chamfer_mean_bruteforce,
                     fps_by_full_matrix, frechet_by_enumeration,
                     sign_test_p_value)


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_frechet_oracle_equivalence():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    for _ in range(200):
        a = rng.normal(0, 10, (int(rng.integers(1, 7)), 2))
        b = rng.normal(0, 10, (int(rng.integers(1, 7)), 2))
        got = frechet_dist(a, b)
        want = frechet_by_enumeration(a, b)
        if got != want:
            report(1, False, f"{got} != {want}")
    elapsed = time.monotonic() - start
    report(1, elapsed < 10.0,
           f"(200 pairs exact vs enumeration, {elapsed:.2f} s)")


def test_criterion_2_frechet_metric_axioms():
    rng = np.random.default_rng(101)
    trajs = [random_trajectory(rng, tid=f"t{i}") for i in range(25)]
    for i, a in enumerate(trajs):
        for b in trajs:
            dab = frechet_dist(a, b)
            assert dab == frechet_dist(b, a)
            if np.array_equal(a.points, b.points):
                assert dab == 0.0
            else:
                assert dab > 0.0
    worst_slack = 0.0
    for _ in range(1000):
        i, j, k = rng.integers(0, 25, 3)
        slack = (frechet_dist(trajs[i], trajs[k])
                 - frechet_dist(trajs[i], trajs[j])
                 - frechet_dist(trajs[j], trajs[k]))
        worst_slack = max(worst_slack, slack)
    report(2, worst_slack <= 1e-9,
           f"(symmetry/zero exact; triangle worst slack {worst_slack:.2e})")


def test_criterion_3_kmeans_contract():
    rng = np.random.default_rng(102)
    # monotone inertia on 100 seeded runs
    for seed in range(100):
        ts = random_set(rng, 12, n_points=5)
        res = kmeans(ts, 3, seed=seed)
        trace = res.inertia_trace
        ok = all(trace[i + 1] <= trace[i] * (1 + 1e-12) + 1e-12
                 for i in range(len(trace) - 1))
        if not ok:
            report(3, False, f"non-monotone trace at seed {seed}: {trace}")
    # convergence on synthetic bundles at the stated tolerance
    ts, _ = synth_scene(0, 4, 8, 0.2)
    res = kmeans(ts, 4, tol=1e-4, max_iter=100, seed=0)
    converged = res.iterations < 100
    # K = m degenerate case
    small = random_set(rng, 6, n_points=4)
    zero = kmeans(small, 6, seed=1).inertia
    # tiny-instance brute force
    bundle = []
    for ci, cx in enumerate((0.0, 40.0)):
        for j in range(3):
            base = np.array([[cx - 2, 0.0], [cx, 0.0], [cx + 2, 0.0]])
            bundle.append(Trajectory(f"b{ci}{j}",
                                     base + rng.normal(0, 0.3, base.shape)))
    tiny = TrajectorySet(tuple(bundle))
    res6 = kmeans(tiny, 2, r=6, seed=0)
    x = np.stack([resample_all([t], 6)[0].ravel() for t in tiny.trajectories])
    want_labels, want_inertia = best_two_partition(x)
    match = (np.array_equal(res6.assignment == res6.assignment[0],
                            want_labels == want_labels[0])
             and abs(res6.inertia - want_inertia) <= 1e-9 * max(1, want_inertia))
    report(3, converged and zero <= 1e-18 and match,
           f"(converged in {res.iterations} iters; K=m inertia {zero:.1e}; "
           f"brute-force partition match {match})")


def test_criterion_4_fps_oracle():
    rng = np.random.default_rng(103)
    for trial in range(8):
        m = int(rng.integers(3, 9))
        ts = random_set(rng, m)
        matrix = [[frechet_dist(a, b) for b in ts.trajectories]
                  for a in ts.trajectories]
        for start in range(m):
            got = fps(ts, m, start_index=start).indices
            want = fps_by_full_matrix(matrix, m, start)
            if got != want:
                report(4, False, f"start {start}: {got} != {want}")
    report(4, True, "(all m <= 8 instances, all start indices)")


def test_criterion_5_heatmap_invariants():
    rng = np.random.default_rng(104)
    spec = GridSpec()
    for scene in range(100):
        ts, _ = synth_scene(scene, int(rng.integers(1, 4)),
                            int(rng.integers(1, 4)), float(rng.uniform(0, 1)))
        hm = rasterize_trajectories(ts, spec)
        assert hm.density.min() >= 0.0
        assert hm.density.max() == 1.0  # nonempty scenes
        assert np.all(hm.direction > -math.pi / 2)
        assert np.all(hm.direction <= math.pi / 2)
        if scene % 10 == 0:  # permutation / reversal on a subsample
            perm = TrajectorySet(
                tuple(ts.trajectories[i] for i in rng.permutation(len(ts))),
                ts.frame_id, ts.centerline_count)
            hp = rasterize_trajectories(perm, spec)
            assert np.array_equal(hm.density, hp.density)
            assert np.array_equal(hm.direction, hp.direction)
            rev = TrajectorySet(tuple(Trajectory(t.id, t.points[::-1])
                                      for t in ts.trajectories),
                                ts.frame_id, ts.centerline_count)
            hr = rasterize_trajectories(rev, spec)
            assert np.array_equal(hm.count, hr.count)
            assert np.allclose(hm.direction, hr.direction, atol=1e-12)
    report(5, True, "(100 scenes: ranges, permutation bit-exact, reversal)")


def test_criterion_6_warp_kernel():
    rng = np.random.default_rng(105)
    shape = (h, w) = (8, 9)
    prior = rng.normal(0, 1, shape + (3,))
    identity = np.array_equal(warp(prior, np.zeros(shape + (2,))), prior)

    field = 1.3 * np.arange(h)[:, None] + 0.4 * np.arange(w)[None, :] - 2.0
    off = np.stack([np.full(shape, 0.375), np.full(shape, 0.625)], axis=2)
    got = warp(field[:, :, None], off)[:-1, :-1, 0]
    want = (1.3 * (np.arange(h)[:, None] + 0.375)
            + 0.4 * (np.arange(w)[None, :] + 0.625) - 2.0)[:-1, :-1]
    affine_ok = np.allclose(got, want, atol=1e-12)

    off_r = rng.uniform(0.05, 0.95, shape + (2,))
    sums = warp(np.ones(shape + (1,)), off_r)[:-1, :-1, 0]
    weight_sum_ok = np.allclose(sums, 1.0, atol=1e-12)
    report(6, identity and affine_ok and weight_sum_ok,
           f"(identity {identity}, affine {affine_ok}, "
           f"weight-sum {weight_sum_ok})")


def test_criterion_7_gradient_checks(tmp_path):
    worst = max(max(finite_difference_check(seed).values()) for seed in range(50))
    # CLI --check-grads path
    d = tmp_path / "scene"
    cli_main(["synth", "--seed", "0", "--lanes", "2", "--per-lane", "2",
              "--noise", "0", "--out-dir", str(d)])
    cli_main(["rasterize", "--input", str(d / "trajectories.jsonl"),
              "--out", str(tmp_path / "hm.tp")])
    fm = heatmap_to_feature(tensorio.load_heatmap(tmp_path / "hm.tp"))
    tensorio.save_feature_map(tmp_path / "bev.tp", fm)
    cli_main(["gen-params", "--seed", "1", "--channels", "2",
              "--out", str(tmp_path / "p.tp")])
    code = cli_main(["fuse", "--bev", str(tmp_path / "bev.tp"),
                     "--prior", str(tmp_path / "bev.tp"),
                     "--params", str(tmp_path / "p.tp"),
                     "--out", str(tmp_path / "f.tp"), "--check-grads"])
    report(7, worst < 1e-5 and code == 0,
           f"(50 instances, max rel err {worst:.2e}; CLI exit {code})")


def test_criterion_8_confidence_fusion():
    rng = np.random.default_rng(106)
    n = 1_000_000
    side = (1000, 1000)
    la = rng.uniform(-1e4, 1e4, side)
    lb = rng.uniform(-1e4, 1e4, side)
    alpha, beta = confidence_weights(la, lb)
    ulp_ok = bool(np.all(np.abs(alpha + beta - 1.0) <= np.spacing(1.0)))
    finite_ok = bool(np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta)))
    a_eq, b_eq = confidence_weights(np.full((2, 2), 3.0), np.full((2, 2), 3.0))
    equal_ok = bool(np.all(a_eq == 0.5) and np.all(b_eq == 0.5))

    small = (5, 6)
    bev = rng.normal(0, 1, small + (3,))
    prior = rng.normal(0, 1, small + (3,))
    out = confidence_fuse(bev, prior, rng.normal(0, 3, small),
                          rng.normal(0, 3, small))
    lo = np.minimum(bev, prior)
    hi = np.maximum(bev, prior)
    bounded = bool(np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12))
    report(8, ulp_ok and finite_ok and equal_ok and bounded,
           f"({n} pairs within 1 ulp: {ulp_ok}; no overflow: {finite_ok}; "
           f"equal-logit 0.5: {equal_ok}; bounded: {bounded})")


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(107)
    for _ in range(100):
        a = rng.normal(0, 10, (int(rng.integers(1, 201)), 2))
        b = rng.normal(0, 10, (int(rng.integers(1, 201)), 2))
        got = ae_dist(a, b)
        want = chamfer_mean_bruteforce(a, b)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            report(9, False, f"ae_dist {got} != {want}")
    ma = np.zeros((3, 3), bool)
    mb = np.zeros((3, 3), bool)
    ma[0, 0] = ma[0, 1] = True
    mb[0, 1] = mb[1, 1] = True
    iou_ok = iou(ma, mb) == 1.0 / 3.0
    type_ok = ae_type([1, 2, 3, 4], [1, 0, 3, 0]) == 0.5
    report(9, iou_ok and type_ok,
           f"(100 ae_dist pairs exact; iou 1/3 {iou_ok}; ae_type {type_ok})")


def test_criterion_10_end_to_end_pipeline(tmp_path):
    # noise = 0: CLI synth -> ingest -> eval gives IoU 1.0
    d = tmp_path / "scene"
    assert cli_main(["synth", "--seed", "0", "--lanes", "3", "--per-lane", "4",
                     "--noise", "0", "--out-dir", str(d)]) == 0
    ing = tmp_path / "ing.jsonl"
    assert cli_main(["ingest", "--input", str(d / "trajectories.jsonl"),
                     "--smooth-window", "1", "--out", str(ing)]) == 0
    rep = tmp_path / "report.json"
    assert cli_main(["eval", "--pred", str(ing),
                     "--gt", str(d / "centerlines.jsonl"),
                     "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    half_diag = 0.5 * math.hypot(0.5, 0.5)
    clean_ok = doc["iou"] == 1.0 and doc["ae_dist"] <= half_diag

    # monotone degradation with noise (paired sign test over 20 seeds)
    spec = GridSpec()
    cfg = IngestConfig()
    sigmas = (0.25, 0.5, 1.0)
    ious = {s: [] for s in sigmas}
    for seed in range(20):
        for sigma in sigmas:
            ts, centerlines = synth_scene(seed, 3, 6, sigma)
            ts = smooth_set(filter_by_length(ts, cfg), cfg)
            ious[sigma].append(prior_iou(ts.trajectories, centerlines, spec))
    means = [float(np.mean(ious[s])) for s in sigmas]
    decreasing = means[0] > means[1] > means[2]
    p_values = []
    for lo, hi in ((0.25, 0.5), (0.5, 1.0)):
        wins = sum(1 for a, b in zip(ious[lo], ious[hi]) if a > b)
        p_values.append(sign_test_p_value(wins, 20))
    trend_ok = decreasing and all(p < 0.01 for p in p_values)
    report(10, clean_ok and trend_ok,
           f"(clean iou {doc['iou']}, ae_dist {doc['ae_dist']:.3g}; "
           f"means {['%.3f' % v for v in means]}, sign-test p "
           f"{['%.2g' % p for p in p_values]})")


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        run_dir.mkdir()
        d = run_dir / "scene"
        cli_main(["synth", "--seed", "5", "--lanes", "2", "--per-lane", "4",
                  "--noise", "0.3", "--out-dir", str(d)])
        ing = run_dir / "ing.jsonl"
        cli_main(["ingest", "--input", str(d / "trajectories.jsonl"),
                  "--out", str(ing)])
        cli_main(["rasterize", "--input", str(ing),
                  "--out", str(run_dir / "hm.tp"),
                  "--png", str(run_dir / "hm.pgm")])
        cli_main(["cluster", "--input", str(ing), "--k", "2", "--seed", "3",
                  "--out", str(run_dir / "c.json")])
        cli_main(["sample", "--input", str(ing), "--count", "3", "--seed", "3",
                  "--out", str(run_dir / "s.json")])
        cli_main(["gen-params", "--seed", "2", "--channels", "2",
                  "--out", str(run_dir / "p.tp")])
        fm = heatmap_to_feature(tensorio.load_heatmap(run_dir / "hm.tp"))
        tensorio.save_feature_map(run_dir / "bev.tp", fm)
        cli_main(["fuse", "--bev", str(run_dir / "bev.tp"),
                  "--prior", str(run_dir / "bev.tp"),
                  "--params", str(run_dir / "p.tp"),
                  "--out", str(run_dir / "f.tp")])
        cli_main(["eval", "--pred", str(ing),
                  "--gt", str(d / "centerlines.jsonl"),
                  "--out", str(run_dir / "report.json")])
        names = ["scene/trajectories.jsonl", "scene/centerlines.jsonl",
                 "ing.jsonl", "hm.tp", "hm.pgm", "c.json", "s.json", "p.tp",
                 "bev.tp", "f.tp", "f.tp.json", "report.json"]
        outputs.append([(run_dir / n).read_bytes() for n in names])
    same = all(a == b for a, b in zip(*outputs))
    report(11, same, "(all subcommand outputs byte-identical across reruns)")
