"""Prior-quality metrics: mask IoU, attribute error, and Chamfer-style distance."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ContractError, GridSpec, Trajectory, sample_arc_length
from .raster import chunked_repeat, rasterize_polylines

DEFAULT_LINE_WIDTH = 0.75  # meters
DEFAULT_SAMPLE_STEP = 0.5  # meters, polyline -> point-set sampling


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
# algorithms for closest point problems", ACM TOMS 1980).
_RINGS = 3         # rings searched before a query falls back to brute force
_BLOCK = 1 << 16   # (query, reference) pairs, or ring cells, held at once
_SLACK = 1e-6      # cells; absorbs rounding in cell indices and distances


def _ring_offsets(ring: int) -> np.ndarray:
    """(k, 2) cell offsets at Chebyshev distance exactly ``ring``."""
    side = np.arange(-ring, ring + 1)
    ox, oy = np.meshgrid(side, side)
    on_ring = np.maximum(np.abs(ox), np.abs(oy)) == ring
    return np.column_stack([ox[on_ring], oy[on_ring]])


def _nearest_sq(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Squared distance from each point of q to its nearest point of r.

    Every candidate is ``dx*dx + dy*dy`` of the coordinate differences, so each
    minimum equals the one over all pairs bit for bit; the sign of dx and dy
    does not matter, because IEEE negation is exact.

    The cell side is derived from the density of r. After rings 0..k around
    its cell are searched, a query's minimum is proven once it is no larger
    than the distance from the query to the outside of the searched block. A
    query still unproven after ``_RINGS`` rings (far from r, or in an empty
    region) is finished by blocked brute force. Memory is
    O(len(q) + len(r) + _BLOCK), never O(len(q) * len(r)).
    """
    m = len(r)
    qx, qy = q[:, 0], q[:, 1]
    best = np.full(len(q), np.inf)
    pending = np.arange(len(q))
    lo = r.min(axis=0)
    span = r.max(axis=0) - lo
    cell = 2.0 * max(math.sqrt(span[0] * span[1] / m), float(span.max()) / m)
    if cell == 0.0:
        cell = 1.0  # all reference points coincide
    if math.isfinite(cell):
        rc = np.floor((r - lo) / cell).astype(np.int64)
        shape = rc.max(axis=0) + 1
        keys = rc[:, 1] * shape[0] + rc[:, 0]
        order = np.argsort(keys, kind="stable")
        rx, ry = r[order, 0], r[order, 1]
        cell_keys, cell_start, cell_count = np.unique(
            keys[order], return_index=True, return_counts=True)
        # A query beyond the grid is moved onto its border: only empty cells
        # lie between, so the moved query's proof bound is still a lower
        # bound on the distance to every unsearched point.
        u = np.clip((q - lo) / cell, -1, shape)
        qc = np.floor(u)
        frac = u - qc
        edge = np.minimum(frac, 1.0 - frac).min(axis=1)
        qc = qc.astype(np.int64)
        for ring in range(_RINGS + 1):
            offsets = _ring_offsets(ring)
            step = max(1, _BLOCK // len(offsets))
            for s in range(0, len(pending), step):
                idx = pending[s:s + step]
                cells = qc[idx, None, :] + offsets
                key = cells[..., 1] * shape[0] + cells[..., 0]
                pos = np.minimum(np.searchsorted(cell_keys, key), len(cell_keys) - 1)
                found = ((cells >= 0) & (cells < shape)).all(axis=2) \
                    & (cell_keys[pos] == key)
                owner = np.broadcast_to(idx[:, None], key.shape)[found]
                pos = pos[found]
                first = cell_start[pos]
                for k, rank in chunked_repeat(cell_count[pos], _BLOCK):
                    who = owner[k]
                    near = first[k] + rank
                    dx = qx[who] - rx[near]
                    dy = qy[who] - ry[near]
                    np.minimum.at(best, who, dx * dx + dy * dy)
            bound = np.maximum(ring + edge[pending] - _SLACK, 0.0) * cell
            pending = pending[best[pending] > bound * bound]
            if len(pending) == 0:
                return best
    step = max(1, _BLOCK // m)
    for s in range(0, len(pending), step):
        idx = pending[s:s + step]
        dx = qx[idx, None] - r[:, 0]
        dy = qy[idx, None] - r[:, 1]
        best[idx] = (dx * dx + dy * dy).min(axis=1)
    return best


def ae_dist(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric Chamfer mean between two nonempty finite 2D point sets.

    0.5 * (mean over pred of min dist to gt + mean over gt of min dist to pred).
    Exact: every minimum is the one over all pairs, and both means run over the
    minima in the input order, so the result is bit-identical to the dense
    N x M computation while memory grows with N + M.
    """
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    g = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    if len(p) == 0 or len(g) == 0:
        raise ContractError("point sets must be nonempty")
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise ContractError("point sets must be finite")
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
            n = np.maximum(2.0, np.floor(total / step) + 1.0)
        return np.where(total == 0.0, 1.0, n)

    return sample_arc_length(polylines, count, f"sampling at step {step}")
