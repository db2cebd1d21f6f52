"""Representative trajectories: arc-length resampling, Frechet FPS, K-means."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import MAX_SAMPLES, ContractError, Pcg64, TrajectorySet, sample_arc_length

DEFAULT_RESAMPLE = 20
KMEANS_TOL = 1e-4
KMEANS_MAX_ITER = 100


@dataclass
class ClusterResult:
    centers: np.ndarray  # (k, R, 2) float64
    assignment: np.ndarray  # (m,) int64
    iterations: int
    inertia_trace: List[float]  # the last entry is the returned centers' inertia


@dataclass
class SampleResult:
    indices: List[int]
    min_dists: List[float]  # one per selection after the first


def resample_all(ts: TrajectorySet, r: int) -> np.ndarray:
    """(n, R, 2): R points of each trajectory at arc-length fractions k/(R-1),
    refused before any is computed when they would hold more than MAX_SAMPLES
    points, or R alone exceeds it."""
    if r < 2:
        raise ContractError(f"resample count must be >= 2, got {r}")
    request = f"resample count {r} for {len(ts)} trajectories"
    if r > MAX_SAMPLES:  # numpy cannot shape even an empty set's (0, r, 2) near 2**62
        raise ContractError(f"{request} exceeds MAX_SAMPLES={MAX_SAMPLES} points each")
    points = sample_arc_length(ts, lambda t: np.full(len(t), float(r)), request)
    return points.reshape(len(ts), r, 2)


def frechet_dp(a: np.ndarray, bs: TrajectorySet) -> np.ndarray:
    """Discrete Frechet distance from polyline a (n, 2) to every candidate
    ``bs.points[bs.offsets[j]:bs.offsets[j + 1]]``, as in a ``TrajectorySet``.

    Runs the coupling-table DP of all candidates at once, one anti-diagonal
    i + j = s at a time: cell (i, j) needs only diagonals s-1 and s-2, so
    memory is O(K * (n + M)) for K candidates of up to M points. The DP runs
    on squared distances dx*dx + dy*dy with one sqrt per result: sqrt is
    monotone and correctly rounded, so it commutes with max and min and each
    result is exactly the row-by-row DP's. All are taken unchecked as
    nonempty float64 (n, 2) polylines, as a set checks them.
    """
    lens = np.diff(bs.offsets)
    k = len(lens)
    if k == 0:
        return np.empty(0)
    n, m = len(a), int(lens.max())
    # candidates reversed, so diagonal s reads the contiguous columns
    # [m-1-s+i0, m-s+i1) for rows i0..i1; a short candidate is padded with
    # its last point, which only feeds columns past its own end
    idx = bs.offsets[:-1, None] + np.minimum(np.arange(m - 1, -1, -1), lens[:, None] - 1)
    rx, ry = bs.points[idx, 0], bs.points[idx, 1]
    # column p = i + 1 holds row i; column 0 and unwritten cells stay inf
    diag = [np.full((k, n + 1), np.inf) for _ in range(3)]
    last = np.empty((k, m))  # row n-1 of the table
    for s in range(n + m - 1):
        i0, i1 = max(0, s - m + 1), min(n - 1, s)
        cur, prev, prev2 = diag[s % 3], diag[(s - 1) % 3], diag[(s - 2) % 3]
        lo, hi = m - 1 - s + i0, m - s + i1
        dx = a[i0:i1 + 1, 0] - rx[:, lo:hi]
        dy = a[i0:i1 + 1, 1] - ry[:, lo:hi]
        d = dx * dx + dy * dy
        out = cur[:, i0 + 1:i1 + 2]
        if s == 0:
            out[:] = d
        else:
            best = np.minimum(prev[:, i0:i1 + 1], prev[:, i0 + 1:i1 + 2])
            np.minimum(best, prev2[:, i0:i1 + 1], out=best)
            np.maximum(d, best, out=out)
        if i1 == n - 1:
            last[:, s - n + 1] = cur[:, n]
    return np.sqrt(last[np.arange(k), lens - 1])


def _assign(x: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center (ties toward the lowest index) and squared
    distance to it, one center at a time: never the (m, k, D) broadcast."""
    d2 = np.column_stack([((x - c) ** 2).sum(axis=1) for c in centers])
    assignment = d2.argmin(axis=1)
    return assignment, d2[np.arange(len(x)), assignment]


def kmeans(ts: TrajectorySet, k: int, r: int = DEFAULT_RESAMPLE,
           seed: int = 0) -> ClusterResult:
    """Lloyd iterations on arc-length-resampled, flattened trajectories.

    Initial centers are K distinct member trajectories picked by a seeded
    shuffle. Assignment ties break toward the lowest center index; stopping
    is max per-center displacement < KMEANS_TOL or KMEANS_MAX_ITER
    iterations. A cluster that loses all members is reseeded with the point
    farthest from its own center. The K centers are returned as one (K, R, 2) array.
    """
    m = len(ts)
    if k <= 0 or k > m:
        raise ContractError(f"k must be in [1, {m}], got {k}")
    x = resample_all(ts, r).reshape(m, -1)
    centers = x[Pcg64(seed).permutation(m)[:k]]
    trace: List[float] = []
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        assignment, costs = _assign(x, centers)
        trace.append(float(costs.sum()))
        # empty-cluster repair: reseed with the worst-fit point, but never
        # steal the last member of another cluster
        sizes = np.bincount(assignment, minlength=k)
        for j in range(k):
            if sizes[j] == 0:
                eligible = sizes[assignment] > 1
                worst = int(np.where(eligible, costs, -1.0).argmax())
                sizes[assignment[worst]] -= 1
                sizes[j] += 1
                centers[j] = x[worst]
                assignment[worst] = j
                costs[worst] = 0.0
        new_centers = np.stack([x[assignment == j].mean(axis=0) for j in range(k)])
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break

    assignment, costs = _assign(x, centers)
    trace.append(float(costs.sum()))
    return ClusterResult(centers.reshape(k, r, 2), assignment, iterations, trace)


def fps(ts: TrajectorySet, count: int, seed: int = 0) -> SampleResult:
    """Greedy farthest-point sampling under the discrete Frechet distance.

    The first pick is Pcg64(seed).integers(m), the index that
    numpy.random.default_rng(seed).integers(m) draws. Each later step picks
    the unselected trajectory whose minimum Frechet distance to the selected
    subset is largest (ties toward the lowest index). Each pick costs one
    batched frechet_dp call over the trajectories it may still move.
    """
    m = len(ts)
    if count <= 0 or count > m:
        raise ContractError(f"count must be in [1, {m}], got {count}")
    start = Pcg64(seed).integers(m)

    heads, tails = ts.points[ts.offsets[:-1]], ts.points[ts.offsets[1:] - 1]
    selected = [start]
    min_dists: List[float] = []
    min_d = np.full(m, np.inf)
    min_d[start] = -np.inf
    pick = start
    for _ in range(count - 1):
        # every coupling pairs the two heads and the two tails, so a
        # trajectory whose endpoint distance (computed as frechet_dp does)
        # already reaches its running minimum cannot lower it: skip its DP
        dh, dt = heads[pick] - heads, tails[pick] - tails
        bound = np.sqrt(np.maximum(dh[:, 0] * dh[:, 0] + dh[:, 1] * dh[:, 1],
                                   dt[:, 0] * dt[:, 0] + dt[:, 1] * dt[:, 1]))
        todo = np.flatnonzero(bound < min_d)
        if len(todo):
            dists = frechet_dp(ts[pick].points, ts.take(todo))
            min_d[todo] = np.minimum(min_d[todo], dists)
        pick = int(min_d.argmax())
        min_dists.append(float(min_d[pick]))
        selected.append(pick)
        min_d[pick] = -np.inf
    return SampleResult(selected, min_dists)
