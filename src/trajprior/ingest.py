"""Trajectory/centerline file parsing, quality filters, smoothing, synth scenes.

File formats (coordinates in meters, ego/BEV frame):

* JSONL trajectories: optional header object on the first nonblank line
  ``{"frame_id": str, "centerline_count": int}``, where ``centerline_count``
  is a non-negative JSON integer; each following line
  ``{"id": str, "points": [[x, y], ...]}``.
* CSV trajectories, read by every trajectory input: columns
  ``traj_id,seq,x,y``, optionally named by a header on the first nonblank
  row; rows grouped by traj_id, ordered by seq.
* JSONL centerlines: one ``{"id": str, "centerlines": [[x, y], ...]}`` per
  line, each record a single polyline; parsed to a tuple of ``Trajectory``.

Records of both JSONL kinds may carry an optional ``"type"`` field, the
discrete lane label that ``Trajectory.label`` holds and the attribute-error
metric scores; ``"type": null`` counts as no label. Every malformed record
raises a ``ParseError`` that names its line.

Smoothing is a centered moving average whose window shrinks symmetrically
at a polyline's ends. ``smooth_set`` runs it for a whole set in one pass:
the points of all trajectories are concatenated, every window is summed by
one ``take`` of rows per window offset, and the result is split back per
trajectory. Each mean is summed in the order ``np.mean`` sums, so the output
is bit-identical to averaging every window on its own.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from typing import Iterator, List, Tuple

import numpy as np

from .core import MAX_COORD, ContractError, GridSpec, Trajectory, TrajectorySet

# A frame passes the retention check with more than this many trajectories
# per centerline. An int, so the check stays exact for any integer count.
RETENTION_RATIO = 5


class ParseError(ValueError):
    """Malformed input; the message starts with its 1-based line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")


def _records(text: str) -> Iterator[Tuple[int, dict]]:
    """(line number, object) for every nonblank JSONL line."""
    # "\n" alone ends a record: JSON strings may hold U+0085, U+2028 and U+2029
    # raw, and a trailing "\r" is JSON whitespace
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(line_no, f"invalid JSON: {e.msg}") from e
        except (ValueError, RecursionError) as e:  # too many digits, too deep
            raise ParseError(line_no, f"invalid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ParseError(line_no, "record is not an object")
        yield line_no, rec


_DEFAULT_ID = {"points": "traj", "centerlines": "cl"}


def _from_record(line_no: int, rec: dict, key: str) -> Trajectory:
    """The polyline under ``key`` ("points" or "centerlines") of one record."""
    if key not in rec:
        raise ParseError(line_no, f"record missing {key!r}")
    try:
        return Trajectory(str(rec.get("id", f"{_DEFAULT_ID[key]}{line_no}")),
                          rec[key], rec.get("type"))
    except ContractError as e:
        raise ParseError(line_no, str(e)) from e


def _to_record(t: Trajectory, key: str = "points") -> dict:
    """The JSON record of a polyline; ``type`` only when it has a label."""
    rec = {"id": t.id, key: t.points.tolist()}
    if t.label is not None:
        rec["type"] = t.label
    return rec


def _dumps(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def parse_trajectories(text: str) -> TrajectorySet:
    """Parse a trajectory file; order preserved, errors name the line.

    The first character that is not whitespace (``str.isspace``, as for
    blank JSONL lines) picks the reader: ``{`` or none means JSONL, whose
    records are objects, and any other, such as a CSV header's, means CSV.
    """
    first = next((c for c in text if not c.isspace()), "{")
    return (_parse_jsonl if first == "{" else _parse_csv)(text)


def _parse_jsonl(text: str) -> TrajectorySet:
    frame_id = "unknown"
    centerline_count = 0
    trajectories: List[Trajectory] = []
    for i, (line_no, rec) in enumerate(_records(text)):
        if i == 0 and "points" not in rec and (
                "frame_id" in rec or "centerline_count" in rec):
            frame_id = str(rec.get("frame_id", "unknown"))
            centerline_count = rec.get("centerline_count", 0)
            # bool is an int subclass but not a JSON integer
            if type(centerline_count) is not int or centerline_count < 0:
                raise ParseError(line_no, "centerline_count must be a "
                                 f"non-negative integer, got {centerline_count!r}")
            if not frame_id:
                raise ParseError(line_no, "frame_id must be nonempty")
            continue
        trajectories.append(_from_record(line_no, rec, "points"))
    return TrajectorySet(tuple(trajectories), frame_id, centerline_count)


def _parse_csv(text: str) -> TrajectorySet:
    reader = csv.reader(io.StringIO(text))
    groups: dict = {}
    end = 0  # a record's line number is its first physical line
    first = 0  # line of the first nonblank row, the only one a header may take
    try:
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row or (line_no == (first := first or line_no)
                           and row[0] == "traj_id"):
                continue
            if len(row) != 4:
                raise ParseError(line_no, f"expected 4 columns traj_id,seq,x,y, got {len(row)}")
            tid = row[0]
            try:
                seq, x, y = int(row[1]), float(row[2]), float(row[3])
            except ValueError as e:
                raise ParseError(line_no, f"bad numeric field: {e}") from e
            # NaN fails the comparison too
            if not (abs(x) <= MAX_COORD and abs(y) <= MAX_COORD):
                raise ParseError(line_no, "points must be finite with |coordinate| "
                                 f"<= MAX_COORD={MAX_COORD:g}")
            if tid not in groups:
                groups[tid] = []
            groups[tid].append((seq, x, y, line_no))
    except csv.Error as e:  # e.g. a field beyond csv.field_size_limit()
        raise ParseError(end + 1, f"bad CSV record: {e}") from e
    trajectories = []
    for tid, rows in groups.items():
        rows = sorted(rows, key=lambda r: r[0])
        if len(rows) < 2:
            raise ParseError(rows[0][3], "trajectory shorter than 2 points")
        pts = [(x, y) for _, x, y, _ in rows]
        trajectories.append(Trajectory(tid, pts))
    return TrajectorySet(tuple(trajectories))


def serialize_trajectories(ts: TrajectorySet) -> str:
    lines = [_dumps({"frame_id": ts.frame_id,
                     "centerline_count": ts.centerline_count})]
    lines += [_dumps(_to_record(t)) for t in ts.trajectories]
    return "\n".join(lines) + "\n"


def parse_centerlines(text: str) -> Tuple[Trajectory, ...]:
    return tuple(_from_record(line_no, rec, "centerlines")
                 for line_no, rec in _records(text))


def serialize_centerlines(polylines: Tuple[Trajectory, ...]) -> str:
    return "\n".join(_dumps(_to_record(p, "centerlines"))
                     for p in polylines) + "\n"


def filter_by_length(ts: TrajectorySet, min_length_m: float) -> TrajectorySet:
    """Keep trajectories whose arc length is >= min_length_m."""
    if not min_length_m >= 0:  # NaN fails too
        raise ContractError(f"min_length_m must be >= 0, got {min_length_m}")
    return replace(ts, trajectories=tuple(
        t for t in ts.trajectories if t.arc_length >= min_length_m))


def smooth(points: np.ndarray, lengths, window: int) -> np.ndarray:
    """Centered moving average of polylines stored end to end, in one pass.

    ``points`` (N, 2) holds the polylines back to back and ``lengths`` their
    point counts. Point j of a polyline of n points becomes the mean of the
    2r+1 points around it, r = min(window // 2, j, n - 1 - j): the window
    shrinks symmetrically at the ends, so the point count never changes,
    endpoints stay put and window=1 is the identity.

    Each window is summed from +0.0 in window order and divided by its size,
    the arithmetic of ``np.mean`` over axis 0, so every point is
    bit-identical to averaging its own window. Offset k of every window of
    radius r >= k/2 is added by one ``take`` of rows.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = np.repeat(lengths, lengths)
    j = np.arange(len(points)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # No point has a radius beyond what the longest polyline allows, so the
    # clip changes nothing but bounds the work for any window.
    radius = min(window // 2, (int(lengths.max(initial=1)) - 1) // 2)
    r = np.minimum(np.minimum(j, n - 1 - j), radius)
    # Sorted by radius, descending, the points whose window still reaches
    # offset k (2r >= k) are a prefix that shrinks as k grows.
    order = np.argsort(-r, kind="stable")
    r = r[order]
    start = order - r
    acc = points.take(start, axis=0) + 0.0
    offsets = np.arange(1, 2 * radius + 1)
    active = np.searchsorted(-r, -((offsets + 1) // 2), side="right")
    for k, a in zip(offsets, active):
        acc[:a] += points.take(start[:a] + k, axis=0)
    # ``take`` gathers rows several times faster than fancy indexing, and
    # restores input order several times faster than a 2-D scatter
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return (acc / (2 * r + 1)[:, None]).take(inverse, axis=0)


def smooth_set(ts: TrajectorySet, window: int) -> TrajectorySet:
    """Smooth every trajectory of a set with one ``smooth`` call.

    Ids, labels and order are kept; window 1 and an empty set return ``ts``.
    """
    if window < 1 or window % 2 == 0:
        raise ContractError(f"smooth_window must be odd and >= 1, got {window}")
    if window == 1 or not ts.trajectories:
        return ts
    lengths = [len(t) for t in ts.trajectories]
    points = smooth(np.concatenate([t.points for t in ts.trajectories]),
                    lengths, window)
    parts = np.split(points, np.cumsum(lengths[:-1]))
    return replace(ts, trajectories=tuple(
        replace(t, points=p) for t, p in zip(ts.trajectories, parts)))


def retention_check(ts: TrajectorySet) -> bool:
    """True iff the frame has more than RETENTION_RATIO x centerline_count trajectories."""
    return len(ts) > RETENTION_RATIO * ts.centerline_count


def synth_scene(seed: int, lanes: int, per_lane: int,
                noise_sigma: float) -> Tuple[TrajectorySet, Tuple[Trajectory, ...]]:
    """Deterministic synthetic scene: trajectories and their lane centerlines.

    Lanes are laid out as parallel polylines spanning the default ROI in x; every
    other lane carries a gentle sine curve. Each trajectory samples its
    centerline vertices and adds iid Gaussian jitter of scale noise_sigma.
    """
    if lanes < 1 or per_lane < 1:
        raise ContractError(f"lanes and per_lane must be >= 1, got "
                            f"lanes={lanes} per_lane={per_lane}")
    if not (0 <= noise_sigma < math.inf):
        raise ContractError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    spec = GridSpec()
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
    return ts, tuple(centerlines)
