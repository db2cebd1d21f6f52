"""Seeded workload inputs, written in the formats trajprior documents.

Nothing here imports trajprior, so a change to the program cannot change the
inputs it is measured on. Randomness comes from the standard library's
``random.Random``, not from numpy's generators. reference.json stores a
digest of every generated trajectory file, and the benchmark refuses to run
when the generator's output ever differs from it.

A frame is a straight-ish multi-lane road crossing the default ROI
(x in [-50, 50], y in [-25, 25]): one centerline per lane and jittered
trajectories along it. The knobs a workload varies per frame are the lane
count, trajectories per lane, jitter and vertex spacing.
"""
from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

X_LO, X_HI = -48.0, 48.0
LANE_GAP = 3.5
CENTERLINE_STEP = 2.0
GRID_SHAPE = (100, 200)  # rows, cols of the default 0.5 m grid
GRID_SPEC = {"x_min": -50.0, "x_max": 50.0, "y_min": -25.0, "y_max": 25.0,
             "cell_dx": 0.5, "cell_dy": 0.5}
TP_MAGIC = b"TRAJPRI1"


@dataclass(frozen=True)
class Shape:
    """Per-frame generator knobs; one schedule slot of a workload."""

    lanes: int
    per_lane: int
    jitter: float   # metres, standard deviation of per-vertex noise
    spacing: float  # metres between trajectory vertices


@dataclass
class Frame:
    key: str
    traj_lines: list        # JSONL lines, header first
    centerline_lines: list  # JSONL lines
    n_traj: int
    lanes: int


def _lane_y(base, amp, phase, x):
    return base + amp * math.sin(phase + 2.0 * math.pi * (x - X_LO) / 200.0)


def make_frame(key: str, shape: Shape, rng: random.Random) -> Frame:
    """One road frame. Odd lanes are driven in -x, so headings differ by lane.

    Every lane has the same multiset of trajectory lengths (70-100% of the
    road, shuffled) and one noise-free 2-4 m stub in every 16 trajectories,
    which ingest's 5 m length filter always drops. The seed moves the lanes,
    starts and noise but not the point counts, so the work a slot costs
    barely depends on the seed.
    """
    lanes = []
    for k in range(shape.lanes):
        base = (k - (shape.lanes - 1) / 2.0) * LANE_GAP + rng.uniform(-0.3, 0.3)
        amp = rng.uniform(0.5, 2.5) if k % 2 else rng.uniform(0.0, 0.5)
        lanes.append((base, amp, rng.uniform(0.0, math.pi)))

    centerlines = []
    for k, (base, amp, phase) in enumerate(lanes):
        xs = np.arange(X_LO, X_HI + 1e-9, CENTERLINE_STEP)
        pts = [[round(float(x), 3), round(_lane_y(base, amp, phase, x), 3)]
               for x in xs]
        centerlines.append(json.dumps({"id": f"lane{k}", "centerlines": pts},
                                      separators=(",", ":")))

    header = json.dumps({"frame_id": key, "centerline_count": shape.lanes},
                        sort_keys=True, separators=(",", ":"))
    trajs = [header]
    span = X_HI - X_LO
    for k, (base, amp, phase) in enumerate(lanes):
        fracs = [0.7 + 0.3 * (j + 0.5) / shape.per_lane for j in range(shape.per_lane)]
        rng.shuffle(fracs)
        for j in range(shape.per_lane):
            if j % 16 == 5:
                length, step, jitter = rng.uniform(2.0, 4.0), 1.0, 0.0
            else:
                length, step, jitter = span * fracs[j], shape.spacing, shape.jitter
            x0 = rng.uniform(X_LO, X_HI - length)
            pts = []
            for i in range(int(length / step) + 1):
                x = x0 + i * step
                y = _lane_y(base, amp, phase, x)
                pts.append([round(x + rng.gauss(0.0, jitter), 3),
                            round(y + rng.gauss(0.0, jitter), 3)])
            if k % 2:
                pts.reverse()
            trajs.append(json.dumps({"id": f"l{k}t{j}", "points": pts},
                                    separators=(",", ":")))
    return Frame(key, trajs, centerlines, len(trajs) - 1, shape.lanes)


def write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the .tp tensor container: magic, uint32 header length, sorted-key JSON
# header, then raw little-endian payloads in header order


def write_tp(path: Path, tensors: dict, meta: dict) -> None:
    entries, payloads, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        raw = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "float64", "offset": offset})
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"tensors": entries, "meta": meta}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(TP_MAGIC + struct.pack("<I", len(header)) + header)
        for raw in payloads:
            f.write(raw)


def read_tp(path: Path):
    """({name: array}, meta) from a .tp file; raises ValueError if malformed."""
    blob = Path(path).read_bytes()
    if blob[:8] != TP_MAGIC:
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    payload = blob[12 + hlen:]
    dtypes = {"float64": "<f8", "int64": "<i8"}
    out = {}
    for e in header["tensors"]:
        dt = np.dtype(dtypes[e["dtype"]])
        n = int(np.prod(e["shape"], dtype=np.int64))
        if e["offset"] + n * dt.itemsize > len(payload):
            raise ValueError(f"{path}: tensor {e['name']} overruns the payload")
        out[e["name"]] = np.frombuffer(payload, dt, n, e["offset"]).reshape(e["shape"])
    return out, header.get("meta", {})


def _gauss(rng: random.Random, shape, scale: float) -> np.ndarray:
    n = int(np.prod(shape))
    return np.array([rng.gauss(0.0, scale) for _ in range(n)]).reshape(shape)


def write_bev(path: Path, rng: random.Random, channels: int = 2) -> None:
    """A smooth random BEV feature map on the default grid."""
    h, w = GRID_SHAPE
    coarse = _gauss(rng, (h // 10, w // 10, channels), 1.0)
    data = np.repeat(np.repeat(coarse, 10, axis=0), 10, axis=1)
    meta = {"kind": "feature", "layout": "row-major", "height": h, "width": w,
            "channels": channels, "spec": GRID_SPEC}
    write_tp(path, {"data": data}, meta)


def write_params(path: Path, rng: random.Random, channels: int = 2,
                 hidden: int = 8, scale: float = 0.1) -> None:
    """Offset-predictor and fusion weights under the names `fuse` loads."""
    c2 = 2 * channels
    tensors = {
        "off_w1": _gauss(rng, (hidden, c2, 3, 3), scale),
        "off_b1": _gauss(rng, (hidden,), scale),
        "off_w2": _gauss(rng, (2, hidden, 3, 3), scale),
        "off_b2": _gauss(rng, (2,), scale),
        "logit_weight": _gauss(rng, (2, c2), scale),
        "logit_bias": _gauss(rng, (2,), scale),
    }
    write_tp(path, tensors, {"kind": "params", "channels": channels,
                             "hidden": hidden})
