"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs on one tiny frame shape, traced and untraced, against a
reference recorded on the spot; then deliberately wrong outputs are fed to
the checker, which must count them as failures. Files go under
.perfbench-work/smoke in the checkout.
"""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
from frames import Shape
from record_reference import record_workload

TINY = {name: replace(w, slots=(Shape(2, 3, 0.3, 4.0),))
        for name, w in run.WORKLOADS.items()}


SMOKE = run.WORK / "smoke"


@pytest.fixture
def tmp_path(request):
    """A fresh directory under the checkout's work directory."""
    path = SMOKE / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def refs():
    base = SMOKE / "ref"
    shutil.rmtree(base, ignore_errors=True)
    yield {name: record_workload(w, base / name) for name, w in TINY.items()}
    shutil.rmtree(base, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(name, trace, refs, tmp_path):
    r = run.measure(TINY[name], 0, 0.0, trace, tmp_path, refs[name])
    assert r.failures == []
    assert r.cycles == 2 and r.attempted >= 2 * len(TINY[name].stages)
    e2e = run.end_to_end(r)
    for key, _ in run.END_TO_END:
        assert math.isfinite(e2e[key]) and e2e[key] > 0, key
    assert e2e["_error_rate"] == 0
    if trace:
        layer = run.per_layer(r)
        assert 0.0 < layer["trace.coverage"][0] <= 1.0
        stage_ms = {"raster_prior": "cli.rasterize_ms", "vector_prior": "cli.sample_ms",
                    "score": "cli.eval_ms"}[name]
        assert layer[stage_ms][0] > 0


def _job(w, refs, tmp_path):
    r = run.Run()
    files, params = run.prepare(w, 0, tmp_path, refs[w.name], r)
    f = files[0]
    plan = run.job_plan(w, f, params)
    reports = [run.run_stage(r, stage, argv, outputs, f, False, refs[w.name][f.key],
                             tmp_path, (f.key, stage)) for stage, argv, outputs in plan]
    assert r.failed == 0
    return r, f, plan, reports


def test_checker_counts_a_wrong_output(refs, tmp_path):
    w = TINY["vector_prior"]
    r, f, plan, reports = _job(w, refs, tmp_path)
    stage, _, outputs = plan[-1]
    doc = json.loads(outputs["samples"].read_text())
    doc["indices"][:2] = doc["indices"][1::-1]  # swap the first two picks
    outputs["samples"].write_text(json.dumps(doc))
    run.check_outputs(r, reports[-1], outputs, f, refs[w.name][f.key], (f.key, stage))
    assert r.failed == 1 and "sample" in r.failures[0]


def test_checker_counts_a_failed_stage(refs, tmp_path):
    w = TINY["vector_prior"]
    r, f, plan, _ = _job(w, refs, tmp_path)
    stage, argv, outputs = plan[1]
    bad_argv = [a if a != str(f.frame.lanes) else "0" for a in argv]  # --k 0
    run.run_stage(r, stage, bad_argv, outputs, f, False, refs[w.name][f.key],
                  tmp_path, ("bad", stage))
    assert r.failed == 1 and r.attempted == len(plan) + 1


def test_invariants_catch_structural_faults():
    obs = {"count": 3, "indices": [2, 0, 2], "min_dists": [1.0, 2.0]}
    assert len(checks.invariants("sample", obs, 5, 5)) == 2
    obs = {"n_max": 0, "count_max": 9, "density_range": [0.0, 1.5]}
    assert len(checks.invariants("rasterize", obs, 5, 5)) == 4


def test_tail_has_ten_slower_jobs():
    lat = [float(i) for i in range(1, 31)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_names_match_the_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = dict(run.END_TO_END) | {n: u for n, u, _ in run.PER_LAYER}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
