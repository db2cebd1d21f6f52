"""Prior-quality metrics: mask IoU, attribute error, and Chamfer-style distance."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import core
from .core import ContractError, GridSpec, TrajectorySet, _as_points, sample_arc_length
from .raster import rasterize_polylines

DEFAULT_LINE_WIDTH = 0.75  # meters
DEFAULT_SAMPLE_STEP = 0.5  # meters, polyline -> point-set sampling
# A length within 4 ulps below a multiple of the sample step counts as that
# multiple: the summed segment norms round, and a lane of integer length sits
# exactly on that edge (96 m came out 2 ulps short, and one point fewer).
_COUNT_TOL = 1.0 + 4 * np.finfo(np.float64).eps


def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """|A∩B| / |A∪B|; 1.0 when both masks are empty."""
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise ContractError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum()) / union


def prior_iou(pred: TrajectorySet, gt: TrajectorySet,
              spec: GridSpec, width_m: float = DEFAULT_LINE_WIDTH) -> float:
    """IoU of the rasterized prior polylines against rasterized centerlines."""
    mask_pred = rasterize_polylines(pred, spec, width_m)
    mask_gt = rasterize_polylines(gt, spec, width_m)
    return iou(mask_pred, mask_gt)


def ae_type(pred: Sequence, gt: Sequence) -> float:
    """Proportion of mismatched elements between two equal-length label arrays."""
    if len(pred) != len(gt):
        raise ContractError(f"label arrays differ in length: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        return 0.0
    mismatches = sum(1 for p, g in zip(pred, gt) if p != g)
    return mismatches / len(pred)


# Nearest-neighbour search for the Chamfer mean (Bentley, Weide & Yao,
# "Optimal expected-time algorithms for closest point problems", ACM TOMS
# 1980). Both directions share one lattice of square cells whose origin is
# the joint minimum of the two sets. Each set is sorted once by cell key
# ``row * width + col``, with a table of cell starts, so the points of any
# run of cells along one lattice row are one contiguous slice of the set.
# The cell side is twice the spacing of both sets together, but at least
# half the spacing of the sparser set (_cell_side): a cell sized from the
# union alone shrinks with the denser set until its queries find no point of
# the sparser set within _RINGS rings and fall back to brute force.
# A query searches row runs of cells around its own cell: the cell alone
# first when the references are the denser set, else the 3 x 3 block (three
# runs), then rings 2.._RINGS. Once the cells within Chebyshev distance k are
# searched, a query's minimum is proven when it is no larger than the
# distance from the query to the outside of that block: k cells plus the
# query's distance to the border of its own cell, less _SLACK. A query still
# unproven after _RINGS rings (far from the references, or in an empty
# region) is finished by _brute_sq. Queries, their cell locations, runs,
# candidate pairs and brute-force pairs are all taken core.CHUNK at a
# time.
_RINGS = 3         # rings searched before a query falls back to brute force
_SLACK = 1e-6      # cells; absorbs rounding in cell indices and distances


def _cell_side(span: np.ndarray, n: int, m: int) -> float:
    """Side of the lattice's cells for sets of n and m points within ``span``.

    The spacing s(k) of k points is the side of the square each owns in the
    box, and at least the gap between k points along its longer side, which
    a collinear set needs.
    """
    def spacing(k: int) -> float:
        return max(math.sqrt(float(span[0] * span[1]) / k), float(span.max()) / k)

    cell = max(2.0 * spacing(n + m), 0.5 * spacing(min(n, m)))
    # also keeps (x - lo) / cell finite for |x - lo| <= 2 * MAX_COORD
    return cell if cell >= 1e-290 else 1.0  # all points coincide, or nearly


def _ring_runs(ring: int) -> list:
    """Row runs ``(dy, dx0, dx1)``, cells dx0..dx1 of row dy relative to a
    query's own cell, that cover the cells at Chebyshev distance ``ring``."""
    if ring == 0:
        return [(0, 0, 0)]
    sides = [(dy, dx, dx) for dy in range(1 - ring, ring) for dx in (-ring, ring)]
    return [(-ring, -ring, ring), (ring, -ring, ring)] + sides


def _locate(q: np.ndarray, lo: np.ndarray, cell: float, width: int):
    """Cell key of each point of q, and its distance in cells to the border
    of its cell."""
    u = (q - lo) / cell
    cells = np.floor(u)
    u -= cells
    edge = np.minimum(u, 1.0 - u)
    cells = cells.astype(np.int64)
    return cells[:, 1] * width + cells[:, 0], np.minimum(edge[:, 0], edge[:, 1])


def _bucket(pts: np.ndarray, lo: np.ndarray, cell: float, shape: tuple):
    """pts sorted by cell key, the order that sorts them, and the table of
    cell starts: the points of cells k..l are rows ``start[k]:start[l + 1]``
    of the sorted points."""
    chunk = core.CHUNK
    keys = np.empty(len(pts), dtype=np.int64)
    for s in range(0, len(pts), chunk):
        keys[s:s + chunk] = _locate(pts[s:s + chunk], lo, cell, shape[0])[0]
    # np.sort of (key, index) pairs packed in one int64 is several times
    # faster than np.argsort, and orders ties by index like a stable sort
    bits = len(pts).bit_length()
    keys <<= bits
    keys |= np.arange(len(pts))
    keys.sort()
    start = np.searchsorted(keys, np.arange(shape[0] * shape[1] + 1) << bits)
    keys &= (1 << bits) - 1
    return pts.take(keys, axis=0), keys, start


def _brute_sq(q: np.ndarray, r: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Lower each query's running minimum ``best`` to its squared distance to
    the nearest point of r, over blocks of at most ``core.CHUNK`` pairs.

    r is sorted by cell key, so each block of ``core.CHUNK`` consecutive
    points has a small bounding box. A block whose box is no nearer to a
    query than its running minimum cannot lower it and is skipped: each
    rounded coordinate difference to a point of the box is at least the one
    to the box's edge. Blocks are visited nearest first, so the minimum falls
    early and the remaining blocks are skipped together.
    """
    chunk = core.CHUNK
    rs = min(len(r), chunk)
    cuts = np.arange(0, len(r), rs)
    rx, ry = r[:, 0], r[:, 1]
    x0, x1 = np.minimum.reduceat(rx, cuts), np.maximum.reduceat(rx, cuts)
    y0, y1 = np.minimum.reduceat(ry, cuts), np.maximum.reduceat(ry, cuts)
    qs = max(1, chunk // max(rs, len(cuts)))
    for i in range(0, len(q), qs):
        x, y, out = q[i:i + qs, 0, None], q[i:i + qs, 1, None], best[i:i + qs]
        gx = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
        gy = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
        gap = gx * gx + gy * gy
        nearest = gap.min(axis=0)
        for j in np.argsort(nearest):
            if nearest[j] >= out.max():
                break  # every block left is as far from every query
            hit = gap[:, j] < out
            dx = x[hit] - rx[cuts[j]:cuts[j] + rs]
            dy = y[hit] - ry[cuts[j]:cuts[j] + rs]
            out[hit] = np.minimum(out[hit], (dx * dx + dy * dy).min(axis=1))
    return best


def _nearest_sq(q: np.ndarray, r: np.ndarray, start: np.ndarray, lo: np.ndarray,
                cell: float, width: int) -> np.ndarray:
    """Squared distance from each point of q to its nearest point of r; q and
    r are sorted by cell key, and ``start`` is r's table of cell starts.

    Every candidate is ``dx*dx + dy*dy`` of the coordinate differences, so each
    minimum equals the one over all pairs bit for bit; the sign of dx and dy
    does not matter, because IEEE negation is exact. A run is the key range
    of its cells; one that crosses the end of a lattice row, or lies in a row
    beyond the lattice, is clipped to the table and may take in a few cells
    at the other end of an adjacent row, which only adds candidates. Each batch's
    pairs are enumerated with ``np.repeat`` and reduced with
    ``np.minimum.at``. Memory is O(len(q) + len(r) + CHUNK), never
    O(len(q) * len(r)).
    """
    chunk = core.CHUNK
    if len(r) > len(q):
        stages = [(_ring_runs(0), 0), (_ring_runs(1), 1)]
    else:
        stages = [([(dy, -1, 1) for dy in (-1, 0, 1)], 1)]  # the 3 x 3 block
    stages += [(_ring_runs(ring), ring) for ring in range(2, _RINGS + 1)]
    plan = []  # each run as the keys of its first cell and of the cell after its last
    for runs, ring in stages:
        dy, dx0, dx1 = np.array(runs).T
        plan.append((dy * width + dx0, dy * width + dx1 + 1, ring))
    best = np.empty(len(q))
    for s in range(0, len(q), chunk):
        qb, out = q[s:s + chunk], best[s:s + chunk]
        out.fill(np.inf)
        qkey, edge = _locate(qb, lo, cell, width)
        pending = np.arange(len(out))
        for first_off, stop_off, ring in plan:
            step = max(1, chunk // len(first_off))
            for t in range(0, len(pending), step):
                idx = pending[t:t + step]
                key = qkey[idx, None]
                first = start.take(key + first_off, mode="clip").ravel()
                count = start.take(key + stop_off, mode="clip").ravel() - first
                first -= np.cumsum(count) - count  # pair e of run i is point first[i] + e
                owner = np.repeat(idx, len(first_off))
                for a, take, e in core.chunk_spans(count, chunk):
                    b = a + len(take)
                    near = np.repeat(first[a:b], take) + np.arange(e, e + take.sum())
                    who = np.repeat(owner[a:b], take)
                    d = qb.take(who, axis=0)
                    d -= r.take(near, axis=0)
                    d *= d
                    # np.minimum.reduceat over each query's pairs, a handful
                    # here, costs three times as much per pair
                    np.minimum.at(out, who, d[:, 0] + d[:, 1])
            bound = np.maximum(ring + edge[pending] - _SLACK, 0.0) * cell
            pending = pending[out[pending] > bound * bound]
            if len(pending) == 0:
                break
        else:
            out[pending] = _brute_sq(qb[pending], r, out[pending])
    return best


def ae_dist(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric Chamfer mean between two point sets, each a finite (n, 2) array,
    n >= 1, with |coordinate| <= MAX_COORD; anything else raises ContractError.

    0.5 * (mean over pred of min dist to gt + mean over gt of min dist to pred).
    Exact: every minimum is the one over all pairs, and both means run over the
    minima in the input order, so the result is bit-identical to the dense
    N x M computation while memory grows with N + M.
    """
    p, g = _as_points(pred), _as_points(gt)
    if len(p) == 0 or len(g) == 0:
        raise ContractError("point sets must be nonempty")
    # per column: numpy reduces an (n, 2) array along axis 0 many times slower
    lo = np.array([min(p[:, k].min(), g[:, k].min()) for k in (0, 1)])
    span = np.array([max(p[:, k].max(), g[:, k].max()) for k in (0, 1)]) - lo
    cell = _cell_side(span, len(p), len(g))
    # floor((x - lo) / cell) never decreases with x, so the largest cell
    # index on each axis is that of the span
    shape = tuple(int(n) for n in np.floor(span / cell) + 1)  # columns, rows
    sets = _bucket(p, lo, cell, shape), _bucket(g, lo, cell, shape)
    means = []
    for (q, order, _), (r, _, start) in (sets, sets[::-1]):
        best = _nearest_sq(q, r, start, lo, cell, shape[0])
        dist = np.empty(len(q))
        dist[order] = np.sqrt(best, out=best)
        means.append(float(dist.mean()))
    return 0.5 * (means[0] + means[1])


def sample_polyline_points(polylines: TrajectorySet,
                           step: float = DEFAULT_SAMPLE_STEP) -> np.ndarray:
    """Points along each polyline at a fixed arc-length step (endpoints included)."""
    if not step > 0:
        raise ContractError(f"step must be > 0, got {step}")
    if not polylines:
        raise ContractError("no polylines to sample")

    def count(total: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a tiny step counts inf points
            n = np.maximum(2.0, np.floor(total / step * _COUNT_TOL) + 1.0)
        return np.where(total == 0.0, 1.0, n)

    return sample_arc_length(polylines, count, f"sampling at step {step}")
