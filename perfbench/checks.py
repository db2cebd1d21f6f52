"""Output checks: what each stage wrote, reduced to comparable observations.

``observe`` reads a stage's output files with the benchmark's own readers
(never through trajprior) and returns a JSON-able dict. ``check`` applies the
structural invariants to one observation and compares it with the reference
recorded from the seed commit: integers, ids and digests exactly, floats
within ``REL_TOL`` relative. Large float arrays are compared through a
weighted-sum fingerprint whose tolerance scales with the array's L1 mass, so
a change in summation order passes and a changed value does not.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from frames import read_tp

REL_TOL = 1e-9
GRAD_CHECK_TOL = 1e-4  # the gate `fuse --check-grads` documents


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(arr) -> dict:
    """{"sum": sum(x*w), "abs": sum(|x|*w)} with fixed weights w in [1, 2)."""
    x = np.asarray(arr, dtype=np.float64).ravel()
    i = np.arange(x.size, dtype=np.uint64)
    w = 1.0 + ((i * np.uint64(2654435761)) % np.uint64(2 ** 32)) / 2.0 ** 32
    return {"sum": float((x * w).sum()), "abs": float((np.abs(x) * w).sum()),
            "n": int(x.size)}


def _jsonl(path: Path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def observe(stage: str, out: dict) -> dict:
    """Observation of one stage's outputs; ``out`` maps a role to its path."""
    if stage == "ingest":
        recs = _jsonl(out["traj"])
        header, body = recs[0], recs[1:]
        ids = [r["id"] for r in body]
        return {"centerline_count": header.get("centerline_count"),
                "kept": len(ids), "distinct": len(set(ids)) == len(ids),
                "ids_sha": hashlib.sha256("\n".join(ids).encode()).hexdigest(),
                "points": fingerprint([p for r in body for p in r["points"]])}
    if stage == "rasterize":
        t, meta = read_tp(out["heatmap"])
        count = np.asarray(t["count"], dtype="<i8")
        return {"n_max": int(meta["n_max"]), "count_max": int(count.max()),
                "count_sha": hashlib.sha256(count.tobytes()).hexdigest(),
                "density": fingerprint(t["density"]),
                "density_range": [float(t["density"].min()), float(t["density"].max())],
                "direction": fingerprint(t["direction"])}
    if stage == "bridge":
        t, _ = read_tp(out["feature"])
        return {"finite": bool(np.isfinite(t["data"]).all()),
                "data": fingerprint(t["data"])}
    if stage == "fuse":
        t, _ = read_tp(out["fused"])
        side = json.loads(Path(str(out["fused"]) + ".json").read_text())
        return {"finite": bool(np.isfinite(t["data"]).all()),
                "data": fingerprint(t["data"]),
                "grad_err": side.get("grad_check_max_rel_err"),
                "stats": {k: side[k] for k in ("mean_alpha", "offset_abs_max",
                                                "offset_abs_mean")}}
    if stage == "cluster":
        doc = json.loads(Path(out["clusters"]).read_text())
        return {"k": doc["k"], "assignment": doc["assignment"],
                "iterations": doc["iterations"], "inertia": doc["inertia"],
                "centers": fingerprint([c["points"] for c in doc["centers"]])}
    if stage == "sample":
        doc = json.loads(Path(out["samples"]).read_text())
        return {"count": doc["count"], "indices": doc["indices"],
                "min_dists": doc["min_dists"]}
    if stage == "eval":
        doc = json.loads(Path(out["report"]).read_text())
        return {"iou": doc["iou"], "ae_dist": doc["ae_dist"]}
    raise ValueError(f"unknown stage {stage!r}")


def invariants(stage: str, obs: dict, n_in: int, kept: int) -> list:
    """Structural failures of one observation; ``kept`` is the ingested count."""
    bad = []
    if stage == "ingest":
        if obs["kept"] > n_in or not obs["distinct"]:
            bad.append("ingest kept more or duplicate trajectories")
    elif stage == "rasterize":
        if obs["n_max"] < 1:
            bad.append("n_max < 1")
        if obs["count_max"] > kept:
            bad.append("a cell counts more trajectories than were kept")
        if obs["count_max"] and obs["n_max"] != obs["count_max"]:
            bad.append("n_max differs from the largest count")
        lo, hi = obs["density_range"]
        if lo < 0.0 or hi > 1.0:
            bad.append("density outside [0, 1]")
    elif stage in ("bridge", "fuse"):
        if not obs["finite"]:
            bad.append(f"{stage} output is not finite")
        if stage == "fuse" and not (obs["grad_err"] is not None
                                    and obs["grad_err"] <= GRAD_CHECK_TOL):
            bad.append(f"gradient check error {obs['grad_err']} above {GRAD_CHECK_TOL}")
    elif stage == "cluster":
        a = obs["assignment"]
        if len(a) != kept or any(not 0 <= j < obs["k"] for j in a):
            bad.append("cluster assignment has the wrong length or range")
        if obs["iterations"] < 1:
            bad.append("kmeans reports no iterations")
    elif stage == "sample":
        idx, d = obs["indices"], obs["min_dists"]
        if len(idx) != obs["count"] or len(set(idx)) != len(idx):
            bad.append("fps picks are not distinct")
        if any(not 0 <= i < kept for i in idx):
            bad.append("fps pick out of range")
        if len(d) != len(idx) - 1 or any(b > a for a, b in zip(d, d[1:])):
            bad.append("fps min_dists increase")
    elif stage == "eval":
        if not 0.0 <= obs["iou"] <= 1.0:
            bad.append("iou outside [0, 1]")
        if not (math.isfinite(obs["ae_dist"]) and obs["ae_dist"] >= 0.0):
            bad.append("ae_dist not a finite non-negative number")
    return bad


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(got, want, path="") -> list:
    """Differences between an observation and its reference."""
    if isinstance(want, dict) and set(want) == {"sum", "abs", "n"}:
        if got.get("n") != want["n"] or not (
                abs(got["sum"] - want["sum"]) <= REL_TOL * want["abs"]):
            return [f"{path}: values differ from the reference"]
        return []
    if isinstance(want, dict):
        out = []
        for key in want:
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += compare(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out[:3]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if _close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check(stage: str, obs: dict, ref, n_in: int, kept: int) -> list:
    """All failures of one stage's observation: invariants, then the reference."""
    bad = invariants(stage, obs, n_in, kept)
    if ref is None:
        return bad + ["no reference output recorded for this frame"]
    # the gradient-check error is gated, not compared: it is a by-product
    # of the check's own rounding
    want = {k: v for k, v in ref.items() if k != "grad_err"}
    return bad + compare(obs, want, stage)
