"""Trajectory/centerline file parsing, quality filters, smoothing, synth scenes.

File formats (coordinates in meters, ego/BEV frame):

* JSONL trajectories: optional first-line header object
  ``{"frame_id": str, "centerline_count": int}``; each following line
  ``{"id": str, "points": [[x, y], ...]}``. An optional ``"type"`` field
  carries a discrete label used by the attribute-error metric.
* CSV trajectories: columns ``traj_id,seq,x,y``; rows grouped by traj_id,
  ordered by seq.
* JSONL centerlines: one ``{"id": str, "centerlines": [[x, y], ...]}`` per line.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import CenterlineMap, ContractError, GridSpec, Trajectory, TrajectorySet


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


@dataclass(frozen=True)
class IngestConfig:
    min_length_m: float = 5.0
    smooth_window: int = 5
    retention_ratio: float = 5.0

    def __post_init__(self):
        if self.min_length_m < 0:
            raise ContractError("min_length_m must be >= 0")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ContractError("smooth_window must be odd and >= 1")


def _traj_from_record(line_no: int, rec: dict) -> Trajectory:
    if "points" not in rec:
        raise ParseError(line_no, "record missing 'points'")
    pts = rec["points"]
    if not isinstance(pts, list) or len(pts) < 2:
        raise ParseError(line_no, "trajectory shorter than 2 points")
    try:
        return Trajectory(str(rec.get("id", f"traj{line_no}")), pts)
    except ContractError as e:
        raise ParseError(line_no, str(e)) from e


def parse_trajectories(text: str, fmt: str = "jsonl") -> TrajectorySet:
    """Parse a trajectory file; order preserved, errors name the line."""
    if fmt == "jsonl":
        return _parse_jsonl(text)
    if fmt == "csv":
        return _parse_csv(text)
    raise ContractError(f"unknown format {fmt!r}")


def _parse_jsonl(text: str) -> TrajectorySet:
    frame_id = "unknown"
    centerline_count = 0
    trajectories: List[Trajectory] = []
    labels: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(line_no, f"invalid JSON: {e.msg}") from e
        if not isinstance(rec, dict):
            raise ParseError(line_no, "record is not an object")
        if line_no == 1 and "points" not in rec and (
                "frame_id" in rec or "centerline_count" in rec):
            frame_id = str(rec.get("frame_id", "unknown"))
            centerline_count = int(rec.get("centerline_count", 0))
            continue
        t = _traj_from_record(line_no, rec)
        if "type" in rec:
            labels[t.id] = rec["type"]
        trajectories.append(t)
    ts = TrajectorySet(tuple(trajectories), frame_id, centerline_count)
    if labels:
        object.__setattr__(ts, "_labels", labels)  # sidecar, optional
    return ts


def _parse_csv(text: str) -> TrajectorySet:
    reader = csv.reader(io.StringIO(text))
    groups: dict = {}
    order: List[str] = []
    for line_no, row in enumerate(reader, start=1):
        if not row or (line_no == 1 and row[0] == "traj_id"):
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 columns traj_id,seq,x,y, got {len(row)}")
        tid = row[0]
        try:
            seq, x, y = int(row[1]), float(row[2]), float(row[3])
        except ValueError as e:
            raise ParseError(line_no, f"bad numeric field: {e}") from e
        if tid not in groups:
            groups[tid] = []
            order.append(tid)
        groups[tid].append((seq, x, y, line_no))
    trajectories = []
    for tid in order:
        rows = sorted(groups[tid], key=lambda r: r[0])
        if len(rows) < 2:
            raise ParseError(rows[0][3], "trajectory shorter than 2 points")
        pts = [(x, y) for _, x, y, _ in rows]
        trajectories.append(Trajectory(tid, pts))
    return TrajectorySet(tuple(trajectories))


def traj_labels(ts: TrajectorySet) -> dict:
    """Optional per-trajectory discrete labels parsed from "type" fields."""
    return getattr(ts, "_labels", {})


def serialize_trajectories(ts: TrajectorySet, fmt: str = "jsonl") -> str:
    if fmt == "jsonl":
        lines = [json.dumps({"frame_id": ts.frame_id,
                             "centerline_count": ts.centerline_count},
                            sort_keys=True, separators=(",", ":"))]
        labels = traj_labels(ts)
        for t in ts.trajectories:
            rec = {"id": t.id, "points": [[float(x), float(y)] for x, y in t.points]}
            if t.id in labels:
                rec["type"] = labels[t.id]
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["traj_id", "seq", "x", "y"])
        for t in ts.trajectories:
            for seq, (x, y) in enumerate(t.points):
                w.writerow([t.id, seq, repr(float(x)), repr(float(y))])
        return out.getvalue()
    raise ContractError(f"unknown format {fmt!r}")


def parse_centerlines(text: str, spec: Optional[GridSpec] = None) -> CenterlineMap:
    polylines = []
    labels: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(line_no, f"invalid JSON: {e.msg}") from e
        if "centerlines" not in rec:
            raise ParseError(line_no, "record missing 'centerlines'")
        pts = rec["centerlines"]
        if not isinstance(pts, list) or len(pts) < 2:
            raise ParseError(line_no, "centerline shorter than 2 points")
        poly = Trajectory(str(rec.get("id", f"cl{line_no}")), pts)
        if "type" in rec:
            labels[poly.id] = rec["type"]
        polylines.append(poly)
    cmap = CenterlineMap(tuple(polylines), spec or GridSpec())
    if labels:
        object.__setattr__(cmap, "_labels", labels)
    return cmap


def centerline_labels(cmap: CenterlineMap) -> dict:
    """Optional per-centerline discrete labels parsed from "type" fields."""
    return getattr(cmap, "_labels", {})


def serialize_centerlines(cmap: CenterlineMap) -> str:
    lines = []
    for p in cmap.polylines:
        rec = {"id": p.id,
               "centerlines": [[float(x), float(y)] for x, y in p.points]}
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def filter_by_length(ts: TrajectorySet, cfg: IngestConfig) -> TrajectorySet:
    """Keep trajectories whose arc length is >= cfg.min_length_m."""
    kept = tuple(t for t in ts.trajectories if t.arc_length >= cfg.min_length_m)
    out = TrajectorySet(kept, ts.frame_id, ts.centerline_count)
    labels = traj_labels(ts)
    if labels:
        object.__setattr__(out, "_labels",
                           {t.id: labels[t.id] for t in kept if t.id in labels})
    return out


def smooth(t: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Centered moving average; endpoints use shrunken symmetric windows.

    The window radius is clipped to the available neighbors on each side,
    so the point count never changes and window=1 is the identity.
    """
    if cfg.smooth_window == 1:
        return t
    radius = cfg.smooth_window // 2
    pts = t.points
    n = len(pts)
    out = np.empty_like(pts)
    for i in range(n):
        r = min(radius, i, n - 1 - i)
        out[i] = pts[i - r:i + r + 1].mean(axis=0)
    return Trajectory(t.id, out)


def smooth_set(ts: TrajectorySet, cfg: IngestConfig) -> TrajectorySet:
    out = TrajectorySet(tuple(smooth(t, cfg) for t in ts.trajectories),
                        ts.frame_id, ts.centerline_count)
    labels = traj_labels(ts)
    if labels:
        object.__setattr__(out, "_labels", dict(labels))
    return out


def retention_check(ts: TrajectorySet, cfg: IngestConfig) -> bool:
    """True iff the frame has more than ratio x centerline_count trajectories."""
    return len(ts) > cfg.retention_ratio * ts.centerline_count


def synth_scene(seed: int, lanes: int, per_lane: int,
                noise_sigma: float,
                spec: Optional[GridSpec] = None) -> Tuple[TrajectorySet, CenterlineMap]:
    """Deterministic synthetic scene: lane centerlines plus jittered trajectories.

    Lanes are laid out as parallel polylines spanning the ROI in x; every
    other lane carries a gentle sine curve. Each trajectory samples its
    centerline vertices and adds iid Gaussian jitter of scale noise_sigma.
    """
    if lanes < 1 or per_lane < 1:
        raise ContractError("lanes and per_lane must be >= 1")
    spec = spec or GridSpec()
    rng = np.random.default_rng(seed)
    margin_x = 0.02 * (spec.x_max - spec.x_min)
    xs = np.arange(spec.x_min + margin_x, spec.x_max - margin_x + 1e-9, 2.0)
    spacing = 3.5
    y0 = -spacing * (lanes - 1) / 2.0
    span = spec.x_max - spec.x_min

    centerlines = []
    trajectories = []
    for lane in range(lanes):
        base_y = y0 + lane * spacing
        amp = 2.0 if lane % 2 == 1 else 0.0
        ys = base_y + amp * np.sin(2.0 * np.pi * (xs - spec.x_min) / (2.0 * span))
        pts = np.column_stack([xs, ys])
        centerlines.append(Trajectory(f"lane{lane}", pts))
        for j in range(per_lane):
            jitter = rng.normal(0.0, 1.0, size=pts.shape) * noise_sigma
            trajectories.append(Trajectory(f"lane{lane}_traj{j}", pts + jitter))
    ts = TrajectorySet(tuple(trajectories), frame_id=f"synth-{seed}",
                       centerline_count=lanes)
    return ts, CenterlineMap(tuple(centerlines), spec)
