"""Rasterization: trajectory density/direction heatmaps and centerline masks."""
from __future__ import annotations

import math

import numpy as np

from . import core
from .core import ContractError, FeatureMap, GridSpec, Heatmap, TrajectorySet, fold_axial

# Segment parameters traversed at once by rasterize_trajectories: 64 KiB float64
# temporaries, reused below the mmap threshold, fault a third as much as 1 << 15 on
# small sets; 1 << 12 made 24,000 trajectories rasterize 10-18% slower, 1 << 15 15% faster.
_TRAVERSE_CHUNK = 1 << 13


def _crossings(x0, y0, x1, y1, spec: GridSpec):
    """Segments in grid units, and the grid lines each one crosses.

    Returns ``(p0, span, first, count)`` per axis, u along columns and then v
    along rows: lines ``first .. first + count - 1`` are the integers k in
    [0, n] strictly between p0 and p0 + span. Lines outside [0, n] are left
    out: the pieces they would split lie wholly outside the grid.
    """
    axes = []
    for a0, a1, origin, cell, n in ((x0, x1, spec.x_min, spec.cell_dx, spec.width),
                                    (y0, y1, spec.y_min, spec.cell_dy, spec.height)):
        p0, p1 = (a0 - origin) / cell, (a1 - origin) / cell
        first = np.clip(np.floor(np.minimum(p0, p1)) + 1.0, 0, n + 1)
        stop = np.clip(np.ceil(np.maximum(p0, p1)), 0, n + 1)
        axes.append((p0, p1 - p0, first, np.maximum(stop - first, 0).astype(np.int64)))
    return axes


def traverse_cells(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray,
                   y1: np.ndarray, spec: GridSpec):
    """Cells touched by each segment (x0, y0) -> (x1, y1), clipped to the grid.

    A cell is touched iff it contains some point of the segment under the
    half-open cell convention. Each segment is split at its grid-line
    crossings, with parameters t = (k - p0) / (p1 - p0). The t of each
    segment are put in ascending order by one stable sort of complex keys
    seg + i*t: numpy orders complex numbers by real and then imaginary part,
    and both parts hold seg and t exactly, so the values equal those of a
    lexicographic (seg, t) sort. The two endpoints plus the midpoint of every
    nonempty piece are then mapped to cells. Returns ``(seg, row, col)`` with
    every touched cell once per segment, by cell and then segment: one int64
    sort of keys cell * S + seg, S segments, refused where H * W * S > 2**63.
    """
    (h, w), n = spec.shape, len(x0)
    if h * w * n > 1 << 63:
        raise ContractError(f"{n} segments on {h * w} cells overflow the int64 cell keys")
    (u0, du, kx, nx), (v0, dv, ky, ny) = _crossings(x0, y0, x1, y1, spec)
    counts = 2 + nx + ny  # t = 0, t = 1, then the crossings
    seg = np.repeat(np.arange(n), counts)
    rank = np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]
    t = (rank == 1).astype(np.float64)
    on_x = (rank >= 2) & (rank < 2 + nx[seg])
    on_y = rank >= 2 + nx[seg]
    sx, sy = seg[on_x], seg[on_y]
    t[on_x] = (kx[sx] + (rank[on_x] - 2) - u0[sx]) / du[sx]
    t[on_y] = (ky[sy] + (rank[on_y] - 2 - nx[sy]) - v0[sy]) / dv[sy]
    key = np.empty(len(t), dtype=np.complex128)
    key.real, key.imag = seg, t
    key.sort(kind="stable")
    t = key.imag
    # samples: each segment's first and last t, and the midpoint of every
    # pair of consecutive distinct t
    inner = (seg[1:] == seg[:-1]) & (t[1:] > t[:-1])
    ends = np.cumsum(counts)
    sample_seg = np.concatenate([np.arange(n), seg[:-1][inner], np.arange(n)])
    sample_t = np.concatenate([t[ends - counts], 0.5 * (t[:-1] + t[1:])[inner],
                               t[ends - 1]])
    row = np.floor(v0[sample_seg] + sample_t * dv[sample_seg])
    col = np.floor(u0[sample_seg] + sample_t * du[sample_seg])
    keep = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    key = np.sort((row[keep].astype(np.int64) * w + col[keep].astype(np.int64)) * n
                  + sample_seg[keep])
    key = np.concatenate([key[:1], key[1:][key[1:] != key[:-1]]])
    cell, seg = np.divmod(key, max(n, 1))
    row, col = np.divmod(cell, w)
    return seg, row, col


def rasterize_trajectories(ts: TrajectorySet, spec: GridSpec) -> Heatmap:
    """Density/direction heatmap of a trajectory set (visit-frequency encoding).

    Per cell: N = number of distinct trajectories touching it, theta = circular
    mean of the touching segments' directions folded into (-pi/2, pi/2], and
    density = N / N_max with N_max the max cell count of this heatmap. Every
    segment visit of a cell contributes the segment's unit vector; zero-length
    segments are skipped. The result is independent of trajectory order:
    trajectories are taken in a canonical order (sorted by id then
    coordinates), unit vectors are summed per trajectory and cell in segment
    order, and those sums per cell in the canonical order.
    """
    h, w = spec.shape
    count = np.zeros(h * w, dtype=np.int64)
    sum_x = np.zeros(h * w, dtype=np.float64)
    sum_y = np.zeros(h * w, dtype=np.float64)
    canonical = sorted(range(len(ts)), key=lambda i: (ts.ids[i], ts[i].points.tobytes()))
    a, b, owner = ts.take(canonical).segments()
    real = (a[:, 0] != b[:, 0]) | (a[:, 1] != b[:, 1])
    a, b, owner = a[real], b[real], owner[real]
    # whole trajectories per chunk, so each per-trajectory sum is made in
    # one pass: a chunk takes the trajectories whose segments' t parameters
    # start in the same window of _TRAVERSE_CHUNK
    (*_, nx), (*_, ny) = _crossings(a[:, 0], a[:, 1], b[:, 0], b[:, 1], spec)
    per_traj = np.bincount(owner, weights=2 + nx + ny, minlength=len(ts))
    window = (np.cumsum(per_traj) - per_traj) // _TRAVERSE_CHUNK
    cuts = np.searchsorted(owner, np.flatnonzero(np.diff(window, prepend=-1)))
    for lo, hi in zip(cuts, np.append(cuts[1:], len(owner))):
        x0, y0, x1, y1 = a[lo:hi, 0], a[lo:hi, 1], b[lo:hi, 0], b[lo:hi, 1]
        seg, row, col = traverse_cells(x0, y0, x1, y1, spec)
        ddx, ddy = x1 - x0, y1 - y0
        # math.hypot: np.hypot may round the norm differently
        norm = np.fromiter(map(math.hypot, ddx.tolist(), ddy.tolist()),
                           dtype=np.float64, count=len(ddx))
        # visits come sorted by cell, trajectory and segment: each (trajectory,
        # cell) run sums in segment order, and add.at a cell's runs in trajectory order
        cell, who = row * w + col, owner[lo + seg]
        new = (np.diff(cell, prepend=-1) | np.diff(who, prepend=-1)) != 0
        group, cell = np.cumsum(new) - 1, cell[new]
        np.add.at(count, cell, 1)
        np.add.at(sum_x, cell, np.bincount(group, weights=(ddx / norm)[seg]))
        np.add.at(sum_y, cell, np.bincount(group, weights=(ddy / norm)[seg]))

    n_max = max(int(count.max()), 1)
    density = count.astype(np.float64) / float(n_max)
    direction = np.zeros(h * w, dtype=np.float64)
    hit = np.flatnonzero(count)
    # math.atan2: np.arctan2 may round the angle differently
    angle = map(math.atan2, sum_y[hit].tolist(), sum_x[hit].tolist())
    direction[hit] = fold_axial(np.fromiter(angle, dtype=np.float64, count=len(hit)))
    return Heatmap(spec, density.reshape(h, w), direction.reshape(h, w),
                   count.reshape(h, w), n_max)


def _window(lo: np.ndarray, hi: np.ndarray, origin: float, cell: float, n: int):
    """First index and count of the cells whose computed centers
    ``origin + (i + 0.5) * cell`` may lie in [lo, hi].

    The bounds are widened by a slack, in cells, that scales with the
    coordinates' ulp: every rounding in the centers, in lo and hi and in a
    caller's distance test is a few ulps of the largest coordinate, which is
    far more than any fixed fraction of a small cell near |x| = MAX_COORD.
    """
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), abs(origin))
    slack = 1e-9 + 32.0 * np.spacing(scale) / cell
    first = np.clip(np.ceil((lo - origin) / cell - 0.5 - slack), 0, n).astype(np.int64)
    stop = np.clip(np.floor((hi - origin) / cell - 0.5 + slack) + 1.0, 0, n).astype(np.int64)
    return first, np.maximum(stop - first, 0)


def rasterize_polylines(polylines: TrajectorySet, spec: GridSpec,
                        width_m: float) -> np.ndarray:
    """Binary mask: cell is 1 iff its center lies within width_m/2 of a polyline.

    Each segment tests the cells of its bounding box grown by the radius, with
    the distance from the cell center to the segment clamp-projected onto it.
    All segments are processed together, in chunks of candidate cells.
    """
    if not (math.isfinite(width_m) and width_m > 0):
        raise ContractError(f"width_m must be finite and > 0, got {width_m}")
    mask = np.zeros(spec.shape, dtype=bool)
    a, b, _ = polylines.segments()
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
    for seg, rank in core.chunked_repeat(nrow * ncol, core.CHUNK):
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
