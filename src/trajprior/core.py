"""Core domain types and grid geometry shared by the whole pipeline.

All grid products use row-major H x W layout: row indexes y, col indexes x,
and cell (0, 0) sits at the (y_min, x_min) corner. Cell extents are
half-open [low, high) so every in-ROI point maps to exactly one cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# Largest grid any product may use. rasterize holds five H x W float64/int64
# arrays, so 1e7 cells keep it near 400 MB.
MAX_CELLS = 10_000_000

# Largest |coordinate| in metres of any point. Differences, squared lengths
# and arc lengths of such points stay far from float64 overflow.
MAX_COORD = 1e7

# Most values one request may allocate: the points one `sample_arc_length`
# call returns (16 bytes each; `eval` samples each of its two inputs once,
# `cluster` and `sample --queries-out` their curves) and the w1 weights of
# `random_params`.
MAX_SAMPLES = 10_000_000


class ContractError(ValueError):
    """An operation was called with inputs that violate its contract."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ContractError(msg)


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


def _as_points(points) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ContractError(f"points must be numbers: {e}") from e
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractError(f"expected (n, 2) point array, got shape {arr.shape}")
    if not np.all(np.abs(arr) <= MAX_COORD):
        raise ContractError(f"points must be finite with |coordinate| <= "
                            f"MAX_COORD={MAX_COORD:g}")
    return arr


@dataclass(frozen=True)
class Trajectory:
    """An ordered 2D polyline with an opaque id; at least 2 points.

    ``label`` is an optional discrete attribute (a lane type) scored by
    ``metrics.ae_type``; None means unlabelled.
    """

    id: str
    points: np.ndarray  # (n, 2) float64
    label: Optional[object] = None

    def __post_init__(self):
        arr = _as_points(self.points)
        _require(len(arr) >= 2, "trajectory shorter than 2 points")
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def arc_length(self) -> float:
        """Total polyline length (sum of segment norms)."""
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())


@dataclass(frozen=True)
class TrajectorySet:
    """A frame's trajectories plus scene metadata."""

    trajectories: Tuple[Trajectory, ...]
    frame_id: str = "unknown"
    centerline_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        _require(bool(self.frame_id), "frame_id must be nonempty")
        _require(self.centerline_count >= 0, "centerline_count must be >= 0")

    def __len__(self) -> int:
        return len(self.trajectories)



def sample_arc_length(polylines: Sequence[Trajectory],
                      count: Callable[[np.ndarray], np.ndarray],
                      request: str) -> np.ndarray:
    """Points evenly spaced in arc length along each polyline, its endpoints
    included bit for bit, concatenated into one (N, 2) array.

    ``count`` maps the arc lengths to float point counts, so no request can
    overflow, and their total is checked against MAX_SAMPLES before any point
    is interpolated. A zero-length polyline gives copies of its first point.
    """
    arcs = [np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(t.points, axis=0), axis=1))]) for t in polylines]
    counts = count(np.array([s[-1] for s in arcs]))
    if counts.sum() > MAX_SAMPLES:
        raise ContractError(f"{request} needs more than MAX_SAMPLES={MAX_SAMPLES} points")
    counts = counts.astype(np.int64)
    out = np.empty((counts.sum(), 2))
    ends = np.cumsum(counts).tolist()
    for t, s, start, end in zip(polylines, arcs, [0] + ends, ends):
        pts, part = t.points, out[start:end]
        if s[-1] == 0.0:
            part[:] = pts[0]
            continue
        targets = np.linspace(0.0, s[-1], len(part))
        part[:, 0] = np.interp(targets, s, pts[:, 0])
        part[:, 1] = np.interp(targets, s, pts[:, 1])
        part[0], part[-1] = pts[0], pts[-1]
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

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "cell_dx": self.cell_dx, "cell_dy": self.cell_dy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(d["x_min"], d["x_max"], d["y_min"], d["y_max"],
                   d["cell_dx"], d["cell_dy"])


def fold_axial(angle: float) -> float:
    """Fold an angle mod pi into (-pi/2, pi/2] (orientation without heading)."""
    folded = math.remainder(angle, math.pi)
    if folded <= -math.pi / 2:
        folded += math.pi
    return folded


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

