"""Record the reference outputs the benchmark checks every job against.

    python3 perfbench/record_reference.py

Runs every frame a seed can pick (each slot of each workload, in all
VARIANTS) through the same stages as the benchmark, in this interpreter,
and writes perfbench/reference.json. Run it only on a commit whose outputs
are known to be right: the file was recorded on the seed commit, and a
change that alters any output is then reported as a failed check.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import (REFERENCE, ROOT, VARIANTS, WORK, WORKLOADS, FrameFiles, job_plan,
                 make_workload_frame, setup_plan, write_frame, write_params)

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stage  # noqa: E402


def record_frame(w, f, params) -> dict:
    entry = {"input": checks.digest(f.path("traj.jsonl"))}
    for name, argv, outputs in setup_plan(w, f) + job_plan(w, f, params):
        rc = stage.execute(name, argv)
        if rc != 0:
            raise SystemExit(f"{w.name} frame {f.key}: {name} exited {rc}")
        obs = checks.observe(name, outputs)
        if name == "ingest":
            f.kept = obs["kept"]
        bad = checks.invariants(name, obs, f.frame.n_traj, f.kept)
        if bad:
            raise SystemExit(f"{w.name} frame {f.key}: {name}: {bad}")
        entry[name] = obs
    return entry


def record_workload(w, wdir) -> dict:
    """{frame key: recorded observations} for every frame of workload w."""
    wdir.mkdir(parents=True)
    params = write_params(w, wdir)
    recorded = {}
    for slot in range(len(w.slots)):
        for variant in range(VARIANTS):
            f = FrameFiles(slot, variant, make_workload_frame(w, slot, variant),
                           wdir / f"slot{slot}-{variant}")
            (f.dir / "out").mkdir(parents=True)
            write_frame(w, f)
            recorded[f.key] = record_frame(w, f, params)
            shutil.rmtree(f.dir)
    return recorded


def main() -> None:
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        reference = {}
        for w in WORKLOADS.values():
            reference[w.name] = record_workload(w, workdir / w.name)
            print(f"{w.name}: recorded {len(reference[w.name])} frames", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
