"""trajprior benchmark: the CLI pipeline end to end, one closed-loop client.

    python3 perfbench/run.py --workload raster_prior --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload

Run from the repository root. Every CLI stage runs in its own fresh
interpreter with ``PYTHONPATH=src``, one at a time. A job's latency is the sum
of its stage times measured inside each child after ``import trajprior.cli``;
the import time is reported apart as ``setup_s``. ``--trace 1`` wraps the
library from outside (see tracer.py) and reports per-layer metrics instead.
The last line of standard output is one JSON object; the exit code is 1 when
any stage failed or any output check failed. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import frames
from frames import Shape

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGE_PY = HERE / "stage.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench-work"
VARIANTS = 8          # frames per schedule slot a seed can pick from
RUN_DEADLINE_S = 165  # a run must end within 180 s, set-up included
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The benchmark itself cannot run as specified (not a program failure)."""


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    setup_ingest: bool  # ingest every frame before measuring
    slots: tuple        # one Shape per schedule slot, in run order


# Slot order is fixed, so every seed runs the same mix of frame shapes; the
# seed picks which generated frame fills each slot. Shapes: lanes, per-lane
# trajectories, jitter (m), vertex spacing (m). Within a workload the shapes
# split about the same work differently (few long trajectories or many short
# ones), so job latencies cluster and their median and tail are steady; one
# `score` slot is several times larger, to carry the Chamfer memory peak.
WORKLOADS = {w.name: w for w in (
    Workload("raster_prior", ("ingest", "rasterize", "bridge", "fuse"), False, (
        Shape(6, 28, 0.2, 1.0), Shape(3, 66, 0.5, 2.5), Shape(4, 40, 0.8, 1.5),
        Shape(5, 42, 0.3, 4.0), Shape(2, 80, 0.6, 1.0), Shape(4, 62, 0.4, 3.0),
        Shape(5, 40, 0.7, 2.0), Shape(6, 46, 0.2, 3.5), Shape(3, 48, 0.4, 1.2))),
    Workload("vector_prior", ("ingest", "cluster", "sample"), False, (
        Shape(2, 16, 0.2, 1.0), Shape(6, 8, 0.6, 2.0), Shape(3, 16, 0.5, 1.5),
        Shape(5, 3, 0.3, 1.0), Shape(4, 16, 0.8, 2.0), Shape(2, 32, 0.7, 1.5),
        Shape(4, 6, 0.4, 1.2), Shape(6, 13, 0.5, 2.5), Shape(3, 8, 0.3, 1.0),
        Shape(4, 48, 0.5, 4.0))),
    Workload("score", ("eval",), True, (
        Shape(2, 64, 0.5, 2.0), Shape(4, 16, 0.8, 1.5), Shape(3, 28, 0.2, 3.0),
        Shape(5, 10, 0.3, 4.0), Shape(6, 7, 0.6, 1.0), Shape(2, 64, 0.7, 3.5),
        Shape(6, 22, 0.4, 1.0), Shape(3, 28, 0.6, 1.0), Shape(4, 16, 0.3, 2.5),
        Shape(5, 10, 0.4, 2.0), Shape(6, 7, 0.2, 4.0), Shape(4, 16, 0.5, 1.0))),
)}


@dataclass
class FrameFiles:
    slot: int
    variant: int
    frame: frames.Frame
    dir: Path
    kept: int = 0   # trajectories that survived ingest

    @property
    def key(self) -> str:
        return f"{self.slot}:{self.variant}"

    def path(self, name: str) -> Path:
        return self.dir / name


@dataclass
class Job:
    cycle: int
    frame: str      # frame key, slot:variant
    latency: float  # sum of the stage times, seconds
    n_traj: int     # input trajectories
    ok: bool
    reports: list   # one child report per stage run


@dataclass
class Run:
    """Everything one run measured; stage results are the child reports."""

    deadline: float = field(default_factory=lambda: time.monotonic() + RUN_DEADLINE_S)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    stage_results: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    cycles: int = 0
    measured_s: float = 0.0
    bench_setup_s: float = 0.0


def job_plan(w: Workload, f: FrameFiles, params: Path):
    """[(stage, argv, outputs)] for one job on frame f; outputs go to f/out."""
    out = f.dir / "out"
    clean = out / "clean.jsonl"
    ingest = ("ingest", ["ingest", "--input", str(f.path("traj.jsonl")),
                         "--out", str(clean)], {"traj": clean})
    lanes = str(f.frame.lanes)
    if w.name == "raster_prior":
        heat, feat, fused = out / "heat.tp", out / "feat.tp", out / "fused.tp"
        return [ingest,
                ("rasterize", ["rasterize", "--input", str(clean), "--out", str(heat)],
                 {"heatmap": heat}),
                ("bridge", [str(heat), str(feat)], {"feature": feat}),
                ("fuse", ["fuse", "--bev", str(f.path("bev.tp")), "--prior", str(feat),
                          "--params", str(params), "--out", str(fused),
                          "--seed", str(f.variant), "--check-grads"],
                 {"fused": fused, "sidecar": Path(str(fused) + ".json")})]
    if w.name == "vector_prior":
        return [ingest,
                ("cluster", ["cluster", "--input", str(clean), "--k", lanes,
                             "--seed", "0", "--out", str(out / "clusters.json")],
                 {"clusters": out / "clusters.json"}),
                ("sample", ["sample", "--input", str(clean), "--count", lanes,
                            "--seed", "0", "--out", str(out / "samples.json")],
                 {"samples": out / "samples.json"})]
    report = out / "report.json"
    return [("eval", ["eval", "--pred", str(f.path("clean.jsonl")),
                      "--gt", str(f.path("centerlines.jsonl")), "--out", str(report)],
             {"report": report})]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(stage: str, argv, trace: bool, scratch: Path, timeout: float) -> dict:
    """Run one stage process to completion, or kill it after ``timeout``
    seconds; returns its report."""
    result_path = scratch / "stage-result.json"
    result_path.unlink(missing_ok=True)
    req = json.dumps({"stage": stage, "argv": argv, "trace": trace,
                      "result": str(result_path)})
    with open(scratch / "stage-stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(STAGE_PY), req], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if result_path.exists():
        report = json.loads(result_path.read_text())
    else:
        report = {"rc": proc.returncode, "error": "stage process wrote no report"}
    report["exit"] = proc.returncode
    if report["exit"] != 0 or report.get("rc") != 0:
        tail = (scratch / "stage-stderr.txt").read_text(errors="replace")[-2000:]
        report.setdefault("error", f"exit {report['exit']}, rc {report.get('rc')}: {tail}")
    report["stage"] = stage
    return report


def run_stage(run: Run, stage: str, argv, outputs: dict, f: FrameFiles, trace: bool,
              reference: dict, scratch: Path, rerun_key) -> dict:
    """Run a stage and check its outputs; failures are counted on ``run``."""
    for path in outputs.values():
        path.unlink(missing_ok=True)
    report = run_child(stage, argv, trace, scratch, run.deadline - time.monotonic())
    run.attempted += 1
    run.stage_results.append(report)
    check_outputs(run, report, outputs, f, reference, rerun_key)
    return report


def check_outputs(run: Run, report: dict, outputs: dict, f: FrameFiles,
                  reference: dict, rerun_key) -> None:
    """Check one stage's outputs: invariants, the recorded reference, and
    byte-identity with the first run of the same stage on the same frame."""
    stage = report["stage"]
    bad = [report["error"]] if "error" in report else []
    if not bad:
        try:
            obs = checks.observe(stage, outputs)
            bad = checks.check(stage, obs, reference.get(stage), f.frame.n_traj, f.kept)
            if stage == "ingest":
                f.kept = obs["kept"]
            sums = {role: checks.digest(p) for role, p in sorted(outputs.items())}
            if run.digests.setdefault(rerun_key, sums) != sums:
                bad.append("rerun output differs byte-wise from the first run")
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            bad = [f"unreadable output: {e!r}"]
    report["ok"] = not bad
    if bad:
        run.failed += 1
        lines = bad[0].strip().splitlines() or ["?"]
        run.failures.append(f"{stage} on frame {f.key}: {lines[-1]}")


def prepare(w: Workload, seed: int, workdir: Path, reference: dict, run: Run):
    """Write every frame of the schedule; ingest them first when the workload
    measures a later stage."""
    rng = random.Random(f"{w.name}:{seed}")
    files = []
    for slot, shape in enumerate(w.slots):
        variant = rng.randrange(VARIANTS)
        frame = make_workload_frame(w, slot, variant)
        f = FrameFiles(slot, variant, frame, workdir / f"slot{slot}")
        (f.dir / "out").mkdir(parents=True)
        write_frame(w, f)
        files.append(f)
        if reference.get(f.key, {}).get("input") != checks.digest(f.path("traj.jsonl")):
            raise BenchmarkError(f"{w.name} frame {f.key}: the generated inputs differ "
                                 "from the ones reference.json was recorded on")
    params = write_params(w, workdir)
    for f in files:
        for stage, argv, outputs in setup_plan(w, f):
            run_stage(run, stage, argv, outputs, f, False, reference.get(f.key, {}),
                      workdir, ("setup", f.key))
    return files, params


def setup_plan(w: Workload, f: FrameFiles):
    """Stages run once per frame before measuring: ingest, for ``score``."""
    if not w.setup_ingest:
        return []
    clean = f.path("clean.jsonl")
    return [("ingest", ["ingest", "--input", str(f.path("traj.jsonl")),
                        "--out", str(clean)], {"traj": clean})]


def write_params(w: Workload, workdir: Path) -> Path:
    params = workdir / "params.tp"
    frames.write_params(params, random.Random(f"{w.name}:params"))
    return params


def make_workload_frame(w: Workload, slot: int, variant: int) -> frames.Frame:
    rng = random.Random(f"{w.name}:{slot}:{variant}")
    return frames.make_frame(f"{w.name}-{slot}-{variant}", w.slots[slot], rng)


def write_frame(w: Workload, f: FrameFiles) -> None:
    frames.write_lines(f.path("traj.jsonl"), f.frame.traj_lines)
    frames.write_lines(f.path("centerlines.jsonl"), f.frame.centerline_lines)
    if "fuse" in w.stages:
        frames.write_bev(f.path("bev.tp"), random.Random(f"{w.name}:bev:{f.key}"))


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            reference: dict) -> Run:
    """Set up and measure one workload; ``reference`` maps frame keys to the
    recorded observations of each stage."""
    run = Run()
    t_setup = time.perf_counter()
    files, params = prepare(w, seed, workdir, reference, run)
    run.bench_setup_s = time.perf_counter() - t_setup
    # Whole cycles of the schedule, so each run measures the same mix. At
    # least two: the second reruns every job of the first, which checks that
    # outputs are byte-identical; with --trace 1 the first is the untraced
    # baseline for the tracing overhead.
    start = time.perf_counter()
    cycle = 0
    while time.monotonic() < run.deadline:
        for f in files:
            if time.monotonic() >= run.deadline:
                break
            traced = trace and cycle > 0
            ref = reference.get(f.key, {})
            n_traj = f.kept if w.setup_ingest else f.frame.n_traj
            reports = []
            for stage, argv, outputs in job_plan(w, f, params):
                reports.append(run_stage(run, stage, argv, outputs, f, traced, ref,
                                         workdir, (f.key, stage)))
                if not reports[-1]["ok"]:
                    break
            ok = all(r["ok"] for r in reports) and len(reports) == len(w.stages)
            latency = sum(r.get("stage_s", 0.0) for r in reports)
            run.jobs.append(Job(cycle, f.key, latency, n_traj, ok, reports))
        cycle += 1
        elapsed = time.perf_counter() - start
        # stop at the whole number of cycles nearest to --seconds
        if cycle >= 2 and elapsed * (1 + 0.5 / cycle) >= seconds:
            break
    run.measured_s = time.perf_counter() - start
    run.cycles = cycle
    return run


# ---------------------------------------------------------------------------
# metrics

END_TO_END = [  # name, unit
    ("job_p50_s", "s"), ("job_tail_s", "s"), ("traj_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

# name, unit, source: (sum key, scale) of per-job means, or a ratio name
PER_LAYER = [
    ("cli.ingest_ms", "ms", ("cli.ingest", 1e3)),
    ("cli.rasterize_ms", "ms", ("cli.rasterize", 1e3)),
    ("cli.cluster_ms", "ms", ("cli.cluster", 1e3)),
    ("cli.sample_ms", "ms", ("cli.sample", 1e3)),
    ("cli.fuse_ms", "ms", ("cli.fuse", 1e3)),
    ("cli.eval_ms", "ms", ("cli.eval", 1e3)),
    ("cli.self_ms", "ms", ("cli.self", 1e3)),
    ("ingest.parse_ms", "ms", ("ingest.parse", 1e3)),
    ("ingest.smooth_ms", "ms", ("ingest.smooth", 1e3)),
    ("ingest.serialize_ms", "ms", ("ingest.serialize", 1e3)),
    ("ingest.traj_in", "count", ("ingest.filter.traj_in", 1)),
    ("ingest.traj_kept", "count", ("ingest.filter.traj_kept", 1)),
    ("raster.rasterize_trajectories_ms", "ms", ("raster.rasterize_trajectories", 1e3)),
    ("raster.rasterize_trajectories_1t_ms", "ms", ("raster.rasterize_trajectories_1t", 1e3)),
    ("raster.segments", "count", ("raster.rasterize_trajectories.segments", 1)),
    ("raster.hit_cells", "count", ("raster.rasterize_trajectories.hit_cells", 1)),
    ("raster.rasterize_polylines_ms", "ms", ("raster.rasterize_polylines", 1e3)),
    ("raster.polyline_segments", "count", ("raster.rasterize_polylines.segments", 1)),
    ("_kernels.traverse_cells_ms", "ms", ("_kernels.traverse_cells", 1e3)),
    ("_kernels.traverse_cells_calls", "count", ("_kernels.traverse_cells.calls", 1)),
    ("_kernels.frechet_dp_ms", "ms", ("_kernels.frechet_dp", 1e3)),
    ("_kernels.frechet_dp_calls", "count", ("_kernels.frechet_dp.calls", 1)),
    ("_kernels.frechet_dp_cells", "count", ("_kernels.frechet_dp.cells", 1)),
    ("selection.fps_ms", "ms", ("selection.fps", 1e3)),
    ("selection.kmeans_ms", "ms", ("selection.kmeans", 1e3)),
    ("selection.kmeans_iterations", "count", ("selection.kmeans.iterations", 1)),
    ("selection.fps_useful_ratio", "ratio", "fps_useful_ratio"),
    ("fusion.fuse_pipeline_ms", "ms", ("fusion.fuse_pipeline", 1e3)),
    ("fusion.predict_offsets_ms", "ms", ("fusion.predict_offsets", 1e3)),
    ("fusion.warp_ms", "ms", ("fusion.warp", 1e3)),
    ("fusion.grad_check_ms", "ms", ("fusion.grad_check", 1e3)),
    ("fusion.grad_check_forward_calls", "count", ("fusion.grad_check.forward_calls", 1)),
    ("metrics.ae_dist_ms", "ms", ("metrics.ae_dist", 1e3)),
    ("metrics.prior_iou_ms", "ms", ("metrics.prior_iou", 1e3)),
    ("metrics.sample_points_ms", "ms", ("metrics.sample_points", 1e3)),
    ("metrics.chamfer_pairs", "count", ("metrics.ae_dist.pairs", 1)),
    ("metrics.chamfer_bytes_computed", "B", ("metrics.ae_dist.bytes", 1)),
    ("tensorio.save_ms", "ms", ("tensorio.save", 1e3)),
    ("tensorio.load_ms", "ms", ("tensorio.load", 1e3)),
    ("tensorio.bytes_written", "B", ("tensorio.save.bytes", 1)),
    ("tensorio.bytes_read", "B", ("tensorio.load.bytes", 1)),
    ("trace.coverage", "ratio", "coverage"),
    ("trace.overhead", "ratio", "overhead"),
]

FORWARD_KERNELS = ("fusion.predict_offsets", "fusion.warp", "fusion.compute_logits",
                   "fusion.confidence_fuse")


def tail(latencies):
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND jobs slower than it; the maximum when there are too few jobs."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run) -> dict:
    """End-to-end metrics, plus error_rate and the tail's percentile and job
    count under the keys ``_error_rate``, ``_tail_pct`` and ``_jobs``."""
    good = [j for j in run.jobs if j.ok]
    lat = [j.latency for j in good] or [float("nan")]
    tail_s, tail_p = tail(lat)
    imports = [r["import_s"] for r in run.stage_results if "import_s" in r]
    rss = [r["maxrss_kb"] for r in run.stage_results if "maxrss_kb" in r]
    return {
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "traj_per_s": sum(j.n_traj for j in good) / sum(lat) if good else 0.0,
        "peak_rss_mb": max(rss) / 1024.0 if rss else float("nan"),
        "setup_s": statistics.median(imports) if imports else float("nan"),
        "_error_rate": run.failed / max(1, run.attempted),
        "_tail_pct": tail_p,
        "_jobs": len(good),
    }


def span_totals(reports) -> tuple:
    """Sums over the spans of some stage reports: (totals, job-time, unattributed)."""
    tot = defaultdict(float)
    job_s = unattributed = 0.0
    for rep in reports:
        spans = rep.get("spans") or []
        job_s += rep.get("stage_s", 0.0)
        if "raster_1t_s" in rep:
            tot["raster.rasterize_trajectories_1t"] += rep["raster_1t_s"]
        child_s = defaultdict(float)
        for name, start, end, parent, counters, agg in spans:
            tot[name] += end - start
            if parent is not None:
                child_s[parent] += end - start
            for key, value in counters.items():
                tot[f"{name}.{key}"] += value
            for kname, entry in agg.items():
                tot[kname] += entry["s"]
                for key, value in entry.items():
                    if key != "s":
                        tot[f"{kname}.{key}"] += value
                if name == "fusion.grad_check" and kname in FORWARD_KERNELS:
                    tot["fusion.grad_check.forward_calls"] += entry["calls"]
        for i, (name, start, end, parent, _, agg) in enumerate(spans):
            if parent is None:
                own = (end - start) - child_s[i] - sum(e["s"] for e in agg.values())
                unattributed += own
                if name.startswith("cli."):
                    tot["cli.self"] += own
    return tot, job_s, unattributed


def per_layer(run: Run) -> dict:
    """{name: (value, unit)} of every PER_LAYER metric, plus the traced mean
    job time under ``_job_ms``."""
    traced = [j for j in run.jobs if j.cycle > 0 and j.ok]
    base = [j for j in run.jobs if j.cycle == 0 and j.ok]
    tot, job_s, unattributed = span_totals(r for j in traced for r in j.reports)
    n = max(1, len(traced))
    evals = tot.get("selection.fps.evals", 0.0)
    ratios = {
        "fps_useful_ratio": tot.get("selection.fps.useful", 0.0) / evals if evals else 0.0,
        "coverage": 1.0 - unattributed / job_s if job_s else 0.0,
        "overhead": (statistics.mean(j.latency for j in traced)
                     / statistics.mean(j.latency for j in base) - 1.0) if traced and base else 0.0,
    }
    out = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, str):
            out[name] = (ratios[source], unit)
        else:
            key, scale = source
            out[name] = (tot.get(key, 0.0) * scale / n, unit)
    out["_job_ms"] = (job_s * 1e3 / n, "ms")
    return out


# ---------------------------------------------------------------------------
# reporting


def environment(report: dict) -> dict:
    """Where a result was measured; ``report`` is a stage process's report."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"kernel_backend": report.get("backend", "unknown"),
            "python": report.get("python"), "numpy": report.get("numpy"),
            "nproc": os.cpu_count(), "git_rev": rev, "src_sha256": src.hexdigest()[:16]}


def write_trace(path: Path, run: Run) -> None:
    """One JSON line per span; a span id is ``job.stage.index``."""
    with open(path, "w", encoding="utf-8") as f:
        for job, j in enumerate(run.jobs):
            for st, rep in enumerate(j.reports):
                for i, (name, start, end, parent, counters, agg) in enumerate(
                        rep.get("spans") or []):
                    f.write(json.dumps({
                        "id": f"{job}.{st}.{i}", "job": job, "frame": j.frame,
                        "parent": None if parent is None else f"{job}.{st}.{parent}",
                        "name": name, "start": start, "end": end,
                        "counters": counters, "agg": agg}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; print its report lines; return (ok, metrics, run)."""
    w = WORKLOADS[name]
    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        reference = json.loads(REFERENCE.read_text())[name]
        run = measure(w, seed, seconds, trace, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(run.stage_results[0] if run.stage_results else {})
    e2e = end_to_end(run)
    print(f"[{name}] seed={seed} cycles={run.cycles} jobs={e2e['_jobs']} "
          f"stage_processes={run.attempted} measured={run.measured_s:.1f}s "
          f"bench_setup={run.bench_setup_s:.2f}s trace={int(trace)}")
    print(f"[{name}] env {json.dumps(env, sort_keys=True)}")
    for failure in run.failures[:20]:
        print(f"[{name}] FAILED {failure}")
    if trace:
        layer = per_layer(run)
        job_ms = layer.pop("_job_ms")[0]
        for key, (value, unit) in layer.items():
            print(f"[{name}] {key} = {value:.6g} {unit}")
        cov = layer["trace.coverage"][0]
        print(f"[{name}] coverage check: named spans hold {cov:.1%} of job time "
              f"({'pass' if cov >= 0.95 else 'FAIL'}, need 95%); job {job_ms:.1f} ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        write_trace(WORK / f"trace-{name}-s{seed}.jsonl", run)
    else:
        units = dict(END_TO_END)
        for key, unit in END_TO_END:
            note = (f" (p{e2e['_tail_pct']:.1f} of {e2e['_jobs']} jobs)"
                    if key == "job_tail_s" else "")
            print(f"[{name}] {key} = {e2e[key]:.6g} {unit}{note}")
        print(f"[{name}] error_rate = {e2e['_error_rate']:.6g} "
              f"({run.failed} of {run.attempted} stage invocations)")
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k, _ in END_TO_END}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                            "trace": int(trace), "env": env, "failed": run.failed,
                            "attempted": run.attempted, "metrics": metrics}) + "\n")
    return run.failed == 0, metrics, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trajprior" / "cli.py").is_file():
        print(f"error: no trajprior sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok_all, attempted, failed, merged = True, 0, 0, {}
    for name in names:
        try:
            ok, metrics, run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        ok_all &= ok
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": ok_all, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
