"""Prior-quality metrics: mask IoU, attribute error, and Chamfer-style distance."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import raster
from .core import ContractError, GridSpec, Trajectory, _as_points, sample_arc_length
from .raster import chunked_repeat, rasterize_polylines

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


def prior_iou(pred: Sequence[Trajectory], gt: Sequence[Trajectory],
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


# Nearest-neighbour search for the Chamfer mean: the reference points are
# bucketed in a sparse uniform grid and each query searches the Chebyshev rings
# of cells around its own (Bentley, Weide & Yao, "Optimal expected-time
# algorithms for closest point problems", ACM TOMS 1980). Queries, reference
# keys, ring cells, candidate pairs and brute-force pairs are all taken
# raster._CHUNK at a time.
_RINGS = 3         # rings searched before a query falls back to brute force
_SLACK = 1e-6      # cells; absorbs rounding in cell indices and distances


def _ring_keys(ring: int, width: int) -> np.ndarray:
    """Key offsets ``dy * width + dx`` of the cells at Chebyshev distance
    exactly ``ring``, on a grid ``width`` cells wide."""
    side = np.arange(-ring, ring + 1)
    ox, oy = np.meshgrid(side, side)
    on_ring = np.maximum(np.abs(ox), np.abs(oy)) == ring
    return oy[on_ring] * width + ox[on_ring]


def _brute_sq(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Squared distance from each point of q to its nearest point of r, over
    blocks of at most ``raster._CHUNK`` pairs with a running minimum."""
    best = np.full(len(q), np.inf)
    rs = min(len(r), raster._CHUNK)
    qs = max(1, raster._CHUNK // rs)
    for i in range(0, len(q), qs):
        out = best[i:i + qs]
        for j in range(0, len(r), rs):
            dx = q[i:i + qs, 0, None] - r[j:j + rs, 0]
            dy = q[i:i + qs, 1, None] - r[j:j + rs, 1]
            np.minimum(out, (dx * dx + dy * dy).min(axis=1), out=out)
    return best


def _nearest_sq(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Squared distance from each point of q to its nearest point of r.

    Every candidate is ``dx*dx + dy*dy`` of the coordinate differences, so each
    minimum equals the one over all pairs bit for bit; the sign of dx and dy
    does not matter, because IEEE negation is exact.

    The cell side is derived from the density of r. Queries are searched one
    block of ``raster._CHUNK`` at a time. After rings 0..k around its cell are
    searched, a query's minimum is proven once it is no larger than the
    distance from the query to the outside of the searched block of cells. A
    query still unproven after ``_RINGS`` rings (far from r, or in an empty
    region) is finished by blocked brute force. Memory is
    O(len(q) + len(r) + _CHUNK), never O(len(q) * len(r)).
    """
    chunk = raster._CHUNK
    m = len(r)
    lo = r.min(axis=0)
    span = r.max(axis=0) - lo
    cell = 2.0 * max(math.sqrt(span[0] * span[1] / m), float(span.max()) / m)
    if cell < 1e-290:  # also keeps (q - lo) / cell finite for |q - lo| <= 2 * MAX_COORD
        cell = 1.0  # all reference points coincide, or nearly
    # floor((x - lo) / cell) never decreases with x, so the largest cell
    # index on each axis is that of the span
    shape = np.floor(span / cell).astype(np.int64) + 1
    # Cells are keyed on the grid padded by _RINGS + 1 on every side. Queries
    # are clipped to one cell beyond the grid, so every cell a ring reaches
    # has its own key, and one outside the grid holds no reference point.
    pad = _RINGS + 1
    width = int(shape[0]) + 2 * pad
    keys = np.empty(m, dtype=np.int64)
    for s in range(0, m, chunk):
        rc = np.floor((r[s:s + chunk] - lo) / cell).astype(np.int64) + pad
        keys[s:s + chunk] = rc[:, 1] * width + rc[:, 0]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rx, ry = r[order, 0], r[order, 1]
    # runs of equal keys: each occupied cell's first point and point count
    cell_start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    cell_keys = keys[cell_start]
    cell_count = np.diff(cell_start, append=m)
    rings = [_ring_keys(ring, width) for ring in range(_RINGS + 1)]
    best = np.full(len(q), np.inf)
    for s in range(0, len(q), chunk):
        qb, out = q[s:s + chunk], best[s:s + chunk]
        qx, qy = qb[:, 0], qb[:, 1]
        # A query beyond the grid is moved onto its border: only empty cells
        # lie between, so the moved query's proof bound is still a lower
        # bound on the distance to every unsearched point.
        u = np.clip((qb - lo) / cell, -1, shape)
        qc = np.floor(u)
        frac = u - qc
        edge = np.minimum(frac, 1.0 - frac).min(axis=1)
        qc = qc.astype(np.int64) + pad
        qkey = qc[:, 1] * width + qc[:, 0]
        pending = np.arange(len(out))
        for ring, offsets in enumerate(rings):
            step = max(1, chunk // len(offsets))
            for t in range(0, len(pending), step):
                idx = pending[t:t + step]
                key = qkey[idx, None] + offsets
                pos = np.minimum(np.searchsorted(cell_keys, key), len(cell_keys) - 1)
                found = cell_keys[pos] == key
                owner = np.broadcast_to(idx[:, None], key.shape)[found]
                pos = pos[found]
                first = cell_start[pos]
                for k, rank in chunked_repeat(cell_count[pos], chunk):
                    who = owner[k]
                    near = first[k] + rank
                    dx = qx[who] - rx[near]
                    dy = qy[who] - ry[near]
                    np.minimum.at(out, who, dx * dx + dy * dy)
            bound = np.maximum(ring + edge[pending] - _SLACK, 0.0) * cell
            pending = pending[out[pending] > bound * bound]
            if len(pending) == 0:
                break
        else:
            out[pending] = _brute_sq(qb[pending], r)
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
    fwd = np.sqrt(_nearest_sq(p, g))
    bwd = np.sqrt(_nearest_sq(g, p))
    return 0.5 * (float(fwd.mean()) + float(bwd.mean()))


def sample_polyline_points(polylines: Sequence[Trajectory],
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
