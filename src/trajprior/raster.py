"""Rasterization: trajectory density/direction heatmaps and centerline masks."""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ._kernels import traverse_cells
from .core import (ContractError, FeatureMap, GridSpec, Heatmap, Trajectory,
                   TrajectorySet, fold_axial)


def worker_count() -> int:
    """Parallelism cap from TRAJPRIOR_THREADS (0 or unset = auto)."""
    raw = os.environ.get("TRAJPRIOR_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def _trajectory_contribution(t: Trajectory, spec: GridSpec):
    """Cells visited by one trajectory and the per-cell direction-vector sums.

    Counts are deduplicated per trajectory (a trajectory increments a cell
    at most once); every segment visit contributes its unit direction vector.
    Zero-length segments are skipped.
    """
    visited: Dict[Tuple[int, int], None] = {}
    vec: Dict[Tuple[int, int], List[float]] = {}
    pts = t.points
    for i in range(len(pts) - 1):
        x0, y0 = pts[i]
        x1, y1 = pts[i + 1]
        if x0 == x1 and y0 == y1:
            continue
        norm = math.hypot(x1 - x0, y1 - y0)
        ux = (x1 - x0) / norm
        uy = (y1 - y0) / norm
        cells = traverse_cells(x0, y0, x1, y1, spec.x_min, spec.y_min,
                               spec.cell_dx, spec.cell_dy,
                               spec.height, spec.width)
        for row, col in cells:
            key = (int(row), int(col))
            visited[key] = None
            acc = vec.get(key)
            if acc is None:
                vec[key] = [ux, uy]
            else:
                acc[0] += ux
                acc[1] += uy
    return list(visited.keys()), vec


def rasterize_trajectories(ts: TrajectorySet, spec: GridSpec) -> Heatmap:
    """Density/direction heatmap of a trajectory set (visit-frequency encoding).

    Per cell: N = number of distinct trajectories touching it, theta = circular
    mean of the touching segments' directions folded into (-pi/2, pi/2], and
    density = N / N_max with N_max the max cell count of this heatmap. The
    result is independent of trajectory order: contributions are merged in a
    canonical order (sorted by id then coordinates).
    """
    h, w = spec.shape
    count = np.zeros((h, w), dtype=np.int64)
    sum_x = np.zeros((h, w), dtype=np.float64)
    sum_y = np.zeros((h, w), dtype=np.float64)

    trajs = list(ts.trajectories)
    workers = min(worker_count(), max(1, len(trajs)))
    if workers > 1 and len(trajs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            contributions = list(pool.map(
                lambda t: _trajectory_contribution(t, spec), trajs))
    else:
        contributions = [_trajectory_contribution(t, spec) for t in trajs]

    # fixed reduction order so float sums don't depend on input order
    order = sorted(range(len(trajs)),
                   key=lambda i: (trajs[i].id, trajs[i].points.tobytes()))
    for i in order:
        visited, vec = contributions[i]
        for (row, col) in visited:
            count[row, col] += 1
        for (row, col), (vx, vy) in vec.items():
            sum_x[row, col] += vx
            sum_y[row, col] += vy

    n_max = int(count.max()) if count.size and count.max() > 0 else 1
    density = count.astype(np.float64) / float(n_max)
    direction = np.zeros((h, w), dtype=np.float64)
    hit = count > 0
    for row, col in zip(*np.nonzero(hit)):
        direction[row, col] = fold_axial(
            math.atan2(sum_y[row, col], sum_x[row, col]))
    return Heatmap(spec, density, direction, count, n_max)


def chunked_repeat(counts: np.ndarray, chunk: int):
    """Enumerate ``counts[i]`` entries of every item i, ``chunk`` entries at a time.

    Yields ``(item, rank)`` arrays for each run of at most ``chunk`` entries of
    the flattened enumeration: entry e is the ``rank[e]``-th entry of item
    ``item[e]``. Items are visited in order and may be split across chunks, so
    every temporary a caller derives from one chunk is bounded by ``chunk``.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        take = np.minimum(ends[a:b], hi) - np.maximum(starts[a:b], lo)
        item = np.repeat(np.arange(a, b), take)
        yield item, np.arange(lo, hi) - starts[item]


_MASK_CHUNK = 1 << 16  # candidate cells tested at once by rasterize_polylines


def _window(lo: np.ndarray, hi: np.ndarray, origin: float, cell: float, n: int):
    """First index and count of the cells whose centers may lie in [lo, hi]."""
    first = np.clip(np.floor((lo - origin) / cell - 0.5), 0, n).astype(np.int64)
    stop = np.clip(np.ceil((hi - origin) / cell + 0.5), 0, n).astype(np.int64)
    return first, np.maximum(stop - first, 0)


def rasterize_polylines(polylines: Sequence[Trajectory], spec: GridSpec,
                        width_m: float = 0.75) -> np.ndarray:
    """Binary mask: cell is 1 iff its center lies within width_m/2 of a polyline.

    Each segment tests the cells of its bounding box grown by the radius, with
    the distance from the cell center to the segment clamp-projected onto it.
    All segments are processed together, in chunks of candidate cells.
    """
    if not (math.isfinite(width_m) and width_m > 0):
        raise ContractError("width_m must be finite and > 0")
    mask = np.zeros(spec.shape, dtype=bool)
    if not polylines:
        return mask
    a = np.concatenate([p.points[:-1] for p in polylines])
    b = np.concatenate([p.points[1:] for p in polylines])
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    radius = width_m / 2.0
    c0, ncol = _window(np.minimum(ax, bx) - radius, np.maximum(ax, bx) + radius,
                       spec.x_min, spec.cell_dx, spec.width)
    r0, nrow = _window(np.minimum(ay, by) - radius, np.maximum(ay, by) + radius,
                       spec.y_min, spec.cell_dy, spec.height)
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    # a zero-length segment gets tt = 0 / 1: its start point
    seg2[seg2 == 0.0] = 1.0
    ys, xs = spec.cell_centers()
    for seg, rank in chunked_repeat(nrow * ncol, _MASK_CHUNK):
        row = r0[seg] + rank // ncol[seg]
        col = c0[seg] + rank % ncol[seg]
        cx, cy = xs[col], ys[row]
        sx, sy, sdx, sdy = ax[seg], ay[seg], dx[seg], dy[seg]
        tt = np.clip(((cx - sx) * sdx + (cy - sy) * sdy) / seg2[seg], 0.0, 1.0)
        d2 = (cx - (sx + tt * sdx)) ** 2 + (cy - (sy + tt * sdy)) ** 2
        hit = d2 <= radius * radius
        mask[row[hit], col[hit]] = True
    return mask


def heatmap_to_feature(h: Heatmap) -> FeatureMap:
    """2-channel feature map: density, and direction scaled by 2/pi into (-1, 1]."""
    data = np.stack([h.density, h.direction * (2.0 / math.pi)], axis=2)
    return FeatureMap(h.spec, data)
