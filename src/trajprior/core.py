"""Core domain types and grid geometry shared by the whole pipeline.

All grid products use row-major H x W layout: row indexes y, col indexes x,
and cell (0, 0) sits at the (y_min, x_min) corner. Cell extents are
half-open [low, high) so every in-ROI point maps to exactly one cell.

One strict JSON codec (RFC 8259, on orjson) reads and writes every record,
report, sidecar and ``.tp`` header: ``decode_json`` and ``encode_json`` (UTF-8,
sorted keys, no spaces) refuse NaN, ±Infinity and nesting beyond MAX_DEPTH.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np
import orjson

# Largest grid any product may use. rasterize holds five H x W float64/int64
# arrays, so 1e7 cells keep it near 400 MB.
MAX_CELLS = 10_000_000

# Largest |coordinate| in metres of any point. Differences, squared lengths
# and arc lengths of such points stay far from float64 overflow.
MAX_COORD = 1e7

# Most values one request may allocate: the points one `sample_arc_length`
# call returns (16 bytes each; `eval` samples each of its two inputs once,
# `cluster` and `sample` their curves) and the w1 weights of `random_params`.
MAX_SAMPLES = 10_000_000

# Entries held at once by the blocked kernels: raster.rasterize_polylines'
# candidate cells, sample_arc_length's points, and the Chamfer search behind
# metrics.ae_dist (its queries, row runs, point pairs and brute-force blocks
# of reference points). At 32 KiB per float64 array their per-chunk
# temporaries stay below the allocator's mmap threshold, so it recycles them
# instead of mapping, and page-faulting, fresh pages every chunk.
CHUNK = 1 << 12


class ContractError(ValueError):
    """Inputs that violate an operation's contract, the one error of bad input;
    ``msg`` says why. A TrajectorySet check names polyline ``index`` by id before
    it and ``point``, the bad row in it; a reader names the 1-based input ``line``."""

    def __init__(self, msg: str, index: Optional[int] = None, tid=None, point=None, line=None):
        super().__init__(f"line {line}: {msg}" if line is not None else
                         msg if index is None else f"trajectory {tid!r}: {msg}")
        self.msg, self.index, self.point, self.line = msg, index, point, line


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ContractError(msg)


# Deepest nesting of any JSON text: orjson.dumps writes no deeper. The scan in
# decode_json exists for orjson 3.8.3, whose loads recurses and overflows the C
# stack on objects nested 100,000 deep. A string is "", and one left open runs
# to the end of the text, so the scan stays linear.
MAX_DEPTH = 255
_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"?|([][{}])', re.S)


def decode_json(text: str):
    """The value of a strict JSON text, else ValueError."""
    brackets = text.count("[") + text.count("{") > MAX_DEPTH and "".join(_BRACKETS.findall(text))
    if brackets and max(accumulate(1 if c in "[{" else -1 for c in brackets)) > MAX_DEPTH:
        raise ValueError(f"JSON nested deeper than MAX_DEPTH={MAX_DEPTH} levels")
    return orjson.loads(text)


def _finite(value) -> bool:
    """No NaN or infinity in a float, an array, or a list, tuple or dict of them."""
    if isinstance(value, (list, tuple, dict)):  # a dict's keys too
        return all(map(_finite, value.items() if isinstance(value, dict) else value))
    return (not isinstance(value, (float, np.floating, np.ndarray))
            or bool(np.isfinite(value).all()))


def encode_json(value) -> str:
    """One line, keys sorted, numpy values as numbers and a key that is not a
    string as one, as the json module writes it; else ValueError."""
    try:
        text = orjson.dumps(value, option=orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS
                            | orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError as e:  # beyond 64 bits or MAX_DEPTH, not C-contiguous
        raise ValueError(f"not JSON: {e}") from None
    # orjson writes NaN and the infinities as null, so a text without one has none
    _require(b"null" not in text or _finite(value), "NaN and Infinity are not JSON compliant")
    return text.decode()


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Pcg64:
    """np.random.default_rng(seed) bit for bit for integers(m) and permutation(m),
    m < 2**32, and random(n), without importing numpy.random (which pulls in
    OpenSSL): SeedSequence mixing into generate_state(4, uint64), the 128-bit LCG
    with XSL-RR output (O'Neill, 2014), Lemire's bounded integers (2019), a
    masked-rejection shuffle and 53-bit doubles."""

    def __init__(self, seed: int):
        if not hasattr(seed, "__index__") or seed < 0:
            raise ContractError(f"seed must be an integer >= 0, got {seed!r}")
        seed = int(seed)  # entropy as 32-bit words, low word first
        words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
        h = [0x43B0D7E5, 0x931E8875]  # hash constant and its multiplier

        def hashmix(value: int) -> int:
            value ^= h[0]
            h[0] = h[0] * h[1] & _M32
            value = value * h[0] & _M32
            return value ^ value >> 16

        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for src in range(max(4, len(words))):
            for dst in range(4):
                if dst != src:
                    v = hashmix(pool[src] if src < 4 else words[src])
                    v = (0xCA01F9DD * pool[dst] - 0x4973F715 * v) & _M32
                    pool[dst] = v ^ v >> 16
        h[:] = [0x8B51F9DD, 0x58F38DED]  # generate_state(4, uint64) as w0:w1:w2:w3
        state = sum(hashmix(pool[i % 4]) << (64 * (3 - i // 2) + 32 * (i % 2))
                    for i in range(8))
        self._inc = (state << 1 | 1) & _M128
        self._state = ((self._inc + (state >> 128)) * _PCG_MULT + self._inc) & _M128
        self._buf: List[int] = []

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if not self._buf:  # one 64-bit output feeds two draws, low half first
            out = self._next64()
            self._buf = [out >> 32, out & _M32]
        return self._buf.pop()

    def integers(self, m: int) -> int:
        """One draw from [0, m)."""
        if not 1 <= m <= _M32:
            raise ContractError(f"range must be in [1, 2**32), got {m}")
        if m == 1:
            return 0
        while (prod := self._next32() * m) & _M32 < (1 << 32) % m:
            pass
        return prod >> 32

    def permutation(self, m: int) -> List[int]:
        """A shuffle of range(m), swapping i = m-1 down to 1."""
        if not 1 <= m <= _M32:
            raise ContractError(f"range must be in [1, 2**32), got {m}")
        out = list(range(m))
        for i in range(m - 1, 0, -1):
            while (j := self._next32() & (1 << i.bit_length()) - 1) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out

    def random(self, n: int) -> np.ndarray:
        """n doubles from [0, 1), the top 53 bits of one 64-bit output each;
        the buffered 32-bit half is left for the next 32-bit draw."""
        return np.array([(self._next64() >> 11) * 2.0 ** -53 for _ in range(n)])


def _point_array(points) -> np.ndarray:
    """``points`` read with no dtype forced: an (n, 2) array of integers or
    floats, else ContractError."""
    try:
        arr = np.asarray(points)
        if arr.dtype.kind not in "iuf":  # a string, None, or only true and false
            raise TypeError(f"got {arr.dtype.name} values")
    except (TypeError, ValueError, OverflowError) as e:  # ragged rows too
        raise ContractError(f"points must be numbers: {e}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractError(f"expected (n, 2) point array, got shape {arr.shape}")
    return arr


def _as_points(points) -> np.ndarray:
    """The one check raw points pass: a finite C-contiguous float64 (n, 2) array,
    |coordinate| <= MAX_COORD, else ContractError, ``point`` its first bad row."""
    # float64 first: the bound below would pass np.abs of INT64_MIN, itself
    arr = np.ascontiguousarray(_point_array(points), dtype=np.float64)
    within = np.abs(arr) <= MAX_COORD
    if not within.all():
        raise ContractError(f"points must be finite with |coordinate| <= MAX_COORD={MAX_COORD:g}",
                            point=int(np.argmin(within.all(axis=1))))
    return arr


def _segment_lengths(pts: np.ndarray) -> np.ndarray:
    """Each segment's length along an (n, 2) polyline: the bits of
    ``np.linalg.norm(np.diff(pts, axis=0), axis=1)``, which sums the same two
    squares, without its row-by-row reduction."""
    dx, dy = np.diff(pts, axis=0).T
    return np.sqrt(dx * dx + dy * dy)


class Trajectory(NamedTuple):
    """One polyline, unchecked: a set checks all its records' fields at once.
    ``label`` is a lane type scored by ``metrics.ae_type``; None is no label."""

    id: str
    points: np.ndarray  # (n, 2)
    label: Optional[object] = None


# The keys each kind of record may hold, as README's field table names them.
HEADER_KEYS = frozenset({"frame_id", "centerline_count"})
TRAJECTORY_KEYS = frozenset({"id", "points", "type"})
CENTERLINE_KEYS = frozenset({"id", "centerlines", "type"})


def _label_fault(labels: tuple) -> Optional[str]:
    """Why ``labels`` do not read back from JSON as written, or None."""
    labels = [label for label in labels if label is not None]  # null reads back as None
    try:
        if decode_json(encode_json(labels)) == labels:
            return None
    except ValueError as e:  # NaN, an integer beyond 64 bits, not JSON
        return f"type must be JSON without NaN or Infinity: {e}"
    return "type must read back as written, with no tuple and no object key that is not a string"


@dataclass(frozen=True)
class TrajectorySet(Sequence):
    """A frame's polylines end to end, plus scene metadata: ``self[i]`` is
    polyline i, the view ``points[offsets[i]:offsets[i + 1]]``, with
    ``ids[i]`` and ``labels[i]``. ``of`` builds a set from records, ``take``
    and ``dataclasses.replace`` from a set. The record schema lives here:
    ``__post_init__`` checks every field below, the header's first, then each
    one of every polyline at once, and names the first polyline that fails."""

    points: np.ndarray   # (N, 2) float64, checked by one _as_points call
    offsets: np.ndarray  # (M + 1,) int64, from 0 to N
    ids: Tuple[str, ...]  # str each: a JSON string, or a CSV field's text
    labels: Tuple[object, ...]  # each a JSON value that round-trips; None is no label
    frame_id: str = "unknown"  # nonempty
    centerline_count: int = 0  # >= 0; a bool is an int but not a JSON integer

    def __post_init__(self):
        _require(isinstance(self.frame_id, str) and self.frame_id != "",
                 f"frame_id must be a nonempty string, got {self.frame_id!r}")
        _require(type(self.centerline_count) is int and self.centerline_count >= 0,
                 f"centerline_count must be a non-negative integer, got {self.centerline_count!r}")
        try:
            object.__setattr__(self, "points", _as_points(self.points))
        except ContractError as e:  # a bad row, in the polyline that holds it
            if e.point is None:
                raise
            i = int(np.searchsorted(self.offsets, e.point, "right")) - 1
            self._fail(e.msg, i, e.point - int(self.offsets[i]))
        short = np.diff(self.offsets) < 2
        if short.any():
            self._fail("trajectory shorter than 2 points", int(short.argmax()))
        for i, tid in enumerate(self.ids):
            if not isinstance(tid, str):
                self._fail(f"id must be a string, got {type(tid).__name__}", i)
        if _label_fault(self.labels):  # a label fails alone as it fails among the rest
            self._fail(*next((why, i) for i, label in enumerate(self.labels)
                             if (why := _label_fault((label,)))))

    def _fail(self, msg: str, i: int, point: Optional[int] = None):
        """Raise polyline i's ContractError, its bad point at row ``point`` of it."""
        raise ContractError(msg, i, self.ids[i], point)

    @classmethod
    def of(cls, trajectories: Iterable[Trajectory], frame_id: str = "unknown",
           centerline_count: int = 0) -> "TrajectorySet":
        """The set of ``trajectories``, in order. Each one's points become an
        array as it is taken, so a generator of decoded records holds no lists."""
        ids, labels, arrays = [], [], []
        for t in trajectories:
            try:
                arrays.append(_point_array(t.points))
            except ContractError as e:
                raise ContractError(e.msg, len(ids), t.id) from None
            ids.append(t.id)
            labels.append(t.label)
        return cls(np.concatenate(arrays) if arrays else np.empty((0, 2)),
                   np.cumsum([0] + [len(p) for p in arrays]), tuple(ids), tuple(labels),
                   frame_id, centerline_count)

    def take(self, indices) -> "TrajectorySet":
        """The polylines at ``indices``, in that order, under this set's header."""
        picks = np.asarray(indices, dtype=np.int64)
        sizes = np.diff(self.offsets)[picks]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rows = np.repeat(self.offsets[:-1][picks] - offsets[:-1], sizes) + np.arange(offsets[-1])
        ids, labels = ([field[i] for i in picks.tolist()] for field in (self.ids, self.labels))
        return replace(self, points=self.points.take(rows, axis=0), offsets=offsets,
                       ids=tuple(ids), labels=tuple(labels))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Trajectory:
        return self.trajectories[i]

    @cached_property  # made once, so a polyline is the same record each time
    def trajectories(self) -> Tuple[Trajectory, ...]:
        ends = self.offsets.tolist()
        return tuple(Trajectory(tid, self.points[a:b], label)
                     for tid, a, b, label in zip(self.ids, ends, ends[1:], self.labels))

    def segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each segment's start and end points, (S, 2) each, and its polyline's index."""
        first = np.delete(np.arange(len(self.points)), self.offsets[1:] - 1)
        owner = np.repeat(np.arange(len(self)), np.diff(self.offsets) - 1)
        return self.points[first], self.points[first + 1], owner


def chunk_spans(counts: np.ndarray, chunk: int):
    """Split the enumeration of ``counts[i]`` entries of every item i into
    spans of at most ``chunk`` entries.

    Yields ``(a, take, lo)`` for each span: it holds ``take[j]`` entries of
    item ``a + j``, in item order, and begins with entry ``lo`` of the whole
    enumeration. Items may be split across spans.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        yield a, np.minimum(ends[a:b], hi) - np.maximum(ends[a:b] - counts[a:b], lo), lo


def chunked_repeat(counts: np.ndarray, chunk: int):
    """Enumerate ``counts[i]`` entries of every item i, ``chunk`` entries at a time.

    Yields ``(item, rank)`` arrays for each span of ``chunk_spans``: entry e
    is the ``rank[e]``-th entry of item ``item[e]``. Every temporary a caller
    derives from one span is bounded by ``chunk``.
    """
    starts = np.cumsum(counts) - counts
    for a, take, lo in chunk_spans(counts, chunk):
        item = np.repeat(np.arange(a, a + len(take)), take)
        yield item, np.arange(lo, lo + len(item)) - starts[item]


def sample_arc_length(polylines: TrajectorySet,
                      count: Callable[[np.ndarray], np.ndarray],
                      request: str) -> np.ndarray:
    """Points evenly spaced in arc length along each polyline, its endpoints
    included bit for bit, concatenated into one (N, 2) array.

    ``count`` maps the arc lengths to float point counts, so no request can
    overflow, and their total is checked against MAX_SAMPLES before any point
    is interpolated. A zero-length polyline gives copies of its first point.

    Every value equals that of ``np.linspace(0, length, n)`` and ``np.interp``
    per polyline and axis, in one pass over all polylines: the arc lengths are
    summed by ``np.cumsum`` along zero-padded rows, which adds each row in its
    own order, and each target finds its segment by one ``searchsorted`` of
    complex keys ``polyline + i*arc`` (ordered by real and then imaginary
    part, both exact). Targets are taken ``CHUNK // 2`` at a time, so
    no temporary but the output holds more than 32 KiB, a complex key included.
    """
    pts, sizes = polylines.points, np.diff(polylines.offsets)
    first, last = polylines.offsets[:-1], polylines.offsets[1:] - 1
    seg = np.zeros(len(pts))  # norm of the segment ending at each point
    seg[1:] = _segment_lengths(pts)
    seg[first] = 0.0  # 0 + norm is the norm, so each row sums as [0, cumsum]
    arc = np.empty(len(pts))
    a = 0
    while a < len(sizes):  # blocks of rows padded to at most CHUNK values
        rows = max(1, CHUNK // int(sizes[a]))
        while rows > 1 and rows * int(sizes[a:a + rows].max()) > CHUNK:
            rows = max(1, CHUNK // int(sizes[a:a + rows].max()))
        size = sizes[a:a + rows]
        span = slice(first[a], last[a + len(size) - 1] + 1)
        fill = np.arange(size.max()) < size[:, None]
        grid = np.zeros(fill.shape)
        grid[fill] = seg[span]
        arc[span] = np.cumsum(grid, axis=1)[fill]
        a += len(size)
    total = arc[last]
    counts = count(total)
    if counts.sum() > MAX_SAMPLES:
        raise ContractError(f"{request} needs more than MAX_SAMPLES={MAX_SAMPLES} points")
    counts = counts.astype(np.int64)
    spacing = total / np.maximum(counts - 1, 1)  # np.linspace's step
    keys = np.empty(len(pts), dtype=np.complex128)
    keys.real, keys.imag = np.repeat(np.arange(len(sizes)), sizes), arc
    out = np.empty((counts.sum(), 2))
    coords = np.ascontiguousarray(pts.T)
    start = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # slopes kept only where mid
        for item, rank in chunked_repeat(counts, max(1, CHUNK // 2)):
            part = out[start:start + len(item)]
            start += len(item)
            # np.linspace's rank * step; its step == 0 branch would need a
            # length below (n - 1) * 5e-324, and no nonzero norm is below 2.2e-162
            x = rank * spacing[item]
            key = np.empty(len(x), dtype=np.complex128)
            key.real, key.imag = item, x
            # np.interp: the last arc point <= x, its own value when it is the
            # polyline's end or sits at x, else slope * (x - arc) + value
            j = np.searchsorted(keys, key, side="right") - 1
            j = np.where(total[item] > 0.0, j, first[item])  # copies of the first
            end = last[item]
            j1 = np.minimum(j + 1, end)
            a0 = arc[j]
            mid = (j < end) & (a0 != x)
            da, dx = arc[j1] - a0, x - a0
            for axis, p in enumerate(coords):
                f0 = p[j]
                part[:, axis] = np.where(mid, (p[j1] - f0) / da * dx + f0, f0)
    # the ends of a polyline of nonzero length are its own points, exactly
    moving = total > 0.0
    ends = np.cumsum(counts)[moving]
    out[ends - counts[moving]] = pts[first[moving]]
    out[ends - 1] = pts[last[moving]]
    return out


@dataclass(frozen=True)
class GridSpec:
    """BEV region of interest and cell size for all rasterized products."""

    x_min: float = -50.0
    x_max: float = 50.0
    y_min: float = -25.0
    y_max: float = 25.0
    cell_dx: float = 0.5
    cell_dy: float = 0.5

    def __post_init__(self):
        _require(self.x_min < self.x_max and self.y_min < self.y_max,
                 f"require x_min < x_max and y_min < y_max, got x_min={self.x_min} "
                 f"x_max={self.x_max} y_min={self.y_min} y_max={self.y_max}")
        _require(self.cell_dx > 0 and self.cell_dy > 0, f"cell sizes must be "
                 f"> 0, got cell_dx={self.cell_dx} cell_dy={self.cell_dy}")
        _require(math.isfinite((self.x_max - self.x_min) / self.cell_dx
                               * ((self.y_max - self.y_min) / self.cell_dy)),
                 "grid extent must be finite")
        _require(self.height >= 1 and self.width >= 1,
                 f"grid needs at least one cell per axis, got "
                 f"{self.height} x {self.width} cells")
        _require(self.height * self.width <= MAX_CELLS,
                 f"grid of {self.height} x {self.width} cells exceeds "
                 f"MAX_CELLS={MAX_CELLS}")

    @property
    def height(self) -> int:
        # tiny slack guards against float overshoot when the span is an
        # exact multiple of the cell size
        return int(math.ceil((self.y_max - self.y_min) / self.cell_dy - 1e-9))

    @property
    def width(self) -> int:
        return int(math.ceil((self.x_max - self.x_min) / self.cell_dx - 1e-9))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.height, self.width)

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(ys, xs) world coordinates of cell centers, per row / per col."""
        ys = self.y_min + (np.arange(self.height) + 0.5) * self.cell_dy
        xs = self.x_min + (np.arange(self.width) + 0.5) * self.cell_dx
        return ys, xs


def fold_axial(angle: np.ndarray) -> np.ndarray:
    """Fold angles mod pi into (-pi/2, pi/2] (orientation without heading),
    elementwise; ``np.fmod`` and each step of pi (Sterbenz's lemma) are exact."""
    r = np.fmod(angle, math.pi)
    r = np.where(r > math.pi / 2, r - math.pi, r)
    return np.where(r <= -math.pi / 2, r + math.pi, r)


@dataclass(frozen=True)
class Heatmap:
    """Rasterized trajectory prior: per-cell density, direction and raw count."""

    spec: GridSpec
    density: np.ndarray    # (H, W) float64 in [0, 1]
    direction: np.ndarray  # (H, W) float64 in (-pi/2, pi/2]
    count: np.ndarray      # (H, W) int64, trajectories per cell
    n_max: int

    def __post_init__(self):
        shape = self.spec.shape
        for name in ("density", "direction", "count"):
            arr = getattr(self, name)
            _require(arr.shape == shape, f"{name} shape {arr.shape} != {shape}")
        _require(self.n_max >= 1, "n_max must be positive")


@dataclass(frozen=True)
class FeatureMap:
    """Generic H x W x C real-valued tensor on a grid."""

    spec: GridSpec
    data: np.ndarray  # (H, W, C) float64

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        _require(arr.ndim == 3, "feature data must be (H, W, C)")
        _require(arr.shape[:2] == self.spec.shape,
                 f"feature shape {arr.shape[:2]} != grid shape {self.spec.shape}")
        _require(bool(np.all(np.isfinite(arr))), "feature data must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[2]

