"""Trajectory/centerline file parsing, quality filters, smoothing, synth scenes.

File formats (coordinates in meters, ego/BEV frame):

* JSONL trajectories: optional header object on the first nonblank line
  ``{"frame_id": str, "centerline_count": int}``; each following line
  ``{"id": str, "points": [[x, y], ...]}``.
* CSV trajectories, read by every trajectory input: columns
  ``traj_id,seq,x,y``, optionally named by a header on the first nonblank
  row; rows grouped by traj_id, ordered by seq.
* JSONL centerlines: one ``{"id": str, "centerlines": [[x, y], ...]}`` per
  line, each record a single polyline; parsed to a ``TrajectorySet``.

Records of both JSONL kinds may carry an optional ``"type"`` field, the
discrete lane label that ``TrajectorySet.labels`` holds and the
attribute-error metric scores; ``"type": null`` counts as no label. The
record schema lives in ``core``: its key sets and ``TrajectorySet``. Each
line is decoded once, and a header, record or CSV row that fails any check
raises a ``ParseError`` that names its line.

Smoothing is a centered moving average whose window shrinks symmetrically
at a polyline's ends. ``smooth_set`` runs it over a set's packed points in
one pass: every window is summed by one ``take`` of rows per window offset.
Each mean is summed in the order ``np.mean`` sums, so the output is
bit-identical to averaging every window on its own.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from itertools import chain
from typing import Iterator, List, Tuple

import numpy as np

from .core import (CENTERLINE_KEYS, HEADER_KEYS, TRAJECTORY_KEYS, ContractError, GridSpec,
                   Trajectory, TrajectorySet, _segment_lengths, decode_json, encode_json)

# A frame passes the retention check with more than this many trajectories
# per centerline. An int, so the check stays exact for any integer count.
RETENTION_RATIO = 5


class ParseError(ValueError):
    """Malformed input; the message starts with its 1-based line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no, self.msg = line_no, msg


def _records(lines: List[str]) -> Iterator[Tuple[int, str, dict]]:
    """(line number, line, object) for every nonblank line of a JSONL text split
    at "\n" alone: JSON strings may hold U+0085, U+2028 and U+2029 raw, and a
    trailing "\r" is JSON whitespace."""
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = decode_json(line)
        except ValueError as e:  # a constant, a number beyond float range, too deep
            raise ParseError(line_no, f"invalid JSON: {getattr(e, 'msg', e)}") from e
        if not isinstance(rec, dict):
            raise ParseError(line_no, "record is not an object")
        yield line_no, line, rec


def _check_keys(line_no: int, rec: dict, keys: frozenset) -> None:
    if not rec.keys() <= keys:
        raise ParseError(line_no, f"unknown key {min(rec.keys() - keys)!r}")


def _holds_bool(pts) -> bool:  # numpy would read a row [true, 2.5] as [1.0, 2.5]
    return type(pts) is list and any(type(v) is bool for r in pts if type(r) is list for v in r)


def _polylines(records: Iterator[Tuple[int, str, dict]], key: str, header_line: int = 0,
               **header) -> TrajectorySet:
    """The set of the polylines under ``key`` ("points" or "centerlines") of
    ``records`` and of the ``header`` read at ``header_line``. Each record goes
    to ``TrajectorySet.of`` as it is decoded, so no list of points outlives it
    (at 24,000 records they cost the garbage collector a second)."""
    keys = TRAJECTORY_KEYS if key == "points" else CENTERLINE_KEYS
    lines = []  # each record's, in polyline order

    def trajectories() -> Iterator[Trajectory]:
        for line_no, line, rec in records:
            _check_keys(line_no, rec, keys)
            try:
                points, tid = rec[key], rec["id"]
            except KeyError as e:
                raise ParseError(line_no, f"record missing {e.args[0]!r}") from None
            if ("true" in line or "false" in line) and _holds_bool(points):
                raise ParseError(line_no, "points must be numbers: got bool values")
            lines.append(line_no)
            yield Trajectory(tid, points, rec.get("type"))

    try:
        return TrajectorySet.of(trajectories(), **header)
    except ContractError as e:  # a polyline's line, else the header's
        raise ParseError(header_line if e.index is None else lines[e.index], e.msg) from None


def _to_record(t: Trajectory, key: str = "points") -> dict:
    """The JSON record of a polyline; ``type`` only when it has a label."""
    rec = {"id": t.id, key: t.points}
    if t.label is not None:
        rec["type"] = t.label
    return rec


def parse_trajectories(text: str) -> TrajectorySet:
    """Parse a trajectory file; order preserved, errors name the line.

    The first character that is not whitespace (``str.isspace``, as for
    blank JSONL lines) picks the reader: ``{`` or none means JSONL, whose
    records are objects, and any other, such as a CSV header's, means CSV.
    """
    first = next((c for c in text if not c.isspace()), "{")
    return (_parse_jsonl if first == "{" else _parse_csv)(text)


def _parse_jsonl(text: str) -> TrajectorySet:
    records = _records(text.split("\n"))
    for line_no, line, rec in records:  # the first record, or the header
        if "points" in rec or HEADER_KEYS.isdisjoint(rec):
            return _polylines(chain([(line_no, line, rec)], records), "points")
        _check_keys(line_no, rec, HEADER_KEYS)
        return _polylines(records, "points", line_no, **rec)
    return TrajectorySet.of(())


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
            groups.setdefault(tid, []).append((seq, x, y, line_no))
    except csv.Error as e:  # e.g. a field beyond csv.field_size_limit()
        raise ParseError(end + 1, f"bad CSV record: {e}") from e
    rows_of = list(groups.values())
    for rows in rows_of:
        rows.sort(key=lambda r: r[0])
    try:
        return TrajectorySet.of([Trajectory(tid, [r[1:3] for r in rows])
                                 for tid, rows in groups.items()])
    except ContractError as e:  # the line of a bad point, else of its polyline's first
        raise ParseError(rows_of[e.index][e.point or 0][3], e.msg) from None


def serialize_trajectories(ts: TrajectorySet) -> str:
    lines = [encode_json({"frame_id": ts.frame_id,
                          "centerline_count": ts.centerline_count})]
    lines += [encode_json(_to_record(t)) for t in ts]
    return "\n".join(lines) + "\n"


def parse_centerlines(text: str) -> TrajectorySet:
    return _polylines(_records(text.split("\n")), "centerlines")


def serialize_centerlines(polylines: TrajectorySet) -> str:
    return "\n".join(encode_json(_to_record(p, "centerlines"))
                     for p in polylines) + "\n"


def filter_by_length(ts: TrajectorySet, min_length_m: float) -> TrajectorySet:
    """The set's ``take`` of the trajectories whose arc length, the pairwise
    ``np.sum`` of their segment norms, is >= min_length_m."""
    if not min_length_m >= 0:  # NaN fails too
        raise ContractError(f"min_length_m must be >= 0, got {min_length_m}")
    seg, off = _segment_lengths(ts.points), ts.offsets.tolist()
    return ts.take([i for i in range(len(ts)) if seg[off[i]:off[i + 1] - 1].sum() >= min_length_m])


def smooth(points: np.ndarray, offsets: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average of polylines stored end to end, in one pass.

    ``points`` (N, 2) holds the polylines back to back, polyline i in rows
    ``offsets[i]:offsets[i + 1]``, as a ``TrajectorySet`` does. Point j of a polyline of n points becomes the mean of the
    2r+1 points around it, r = min(window // 2, j, n - 1 - j): the window
    shrinks symmetrically at the ends, so the point count never changes,
    endpoints stay put and window=1 is the identity.

    Each window is summed from +0.0 in window order and divided by its size,
    the arithmetic of ``np.mean`` over axis 0, so every point is
    bit-identical to averaging its own window. Offset k of every window of
    radius r >= k/2 is added by one ``take`` of rows.
    """
    lengths = np.diff(offsets)
    n = np.repeat(lengths, lengths)
    j = np.arange(len(points)) - np.repeat(offsets[:-1], lengths)
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
    if window == 1 or not ts:
        return ts
    return replace(ts, points=smooth(ts.points, ts.offsets, window))


def retention_check(ts: TrajectorySet) -> bool:
    """True iff the frame has more than RETENTION_RATIO x centerline_count trajectories."""
    return len(ts) > RETENTION_RATIO * ts.centerline_count


def synth_scene(seed: int, lanes: int, per_lane: int,
                noise_sigma: float) -> Tuple[TrajectorySet, TrajectorySet]:
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
    ts = TrajectorySet.of(trajectories, frame_id=f"synth-{seed}", centerline_count=lanes)
    return ts, TrajectorySet.of(centerlines)
