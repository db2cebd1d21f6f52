"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive: exhaustive enumeration, O(n^2) loops,
dense sampling. None of it shares code with the library implementations.
"""
import itertools
import math
from dataclasses import replace

import numpy as np

from trajprior.core import MAX_SAMPLES, ContractError, Trajectory
from trajprior.ingest import IngestConfig
from trajprior.metrics import DEFAULT_SAMPLE_STEP
from trajprior.selection import DEFAULT_RESAMPLE


def frechet_by_enumeration(a, b):
    """Min over all monotone couplings of the max pointwise distance.

    Enumerates every monotone path from (0,0) to (na-1,nb-1) with steps
    (1,0), (0,1), (1,1). Exponential; only for tiny inputs.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    na, nb = len(a), len(b)
    best = [math.inf]

    def walk(i, j, cur_max):
        dx = a[i][0] - b[j][0]
        dy = a[i][1] - b[j][1]
        d = math.sqrt(dx * dx + dy * dy)
        cur_max = max(cur_max, d)
        if cur_max >= best[0]:
            return
        if i == na - 1 and j == nb - 1:
            best[0] = cur_max
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < na and nj < nb:
                walk(ni, nj, cur_max)

    walk(0, 0, 0.0)
    return best[0]


def frechet_dp(a, b):
    """Discrete Frechet distance by the O(n*m) coupling-table DP, one row at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    prev = np.empty(nb)
    cur = np.empty(nb)
    prev[0] = d[0, 0]
    for j in range(1, nb):
        prev[j] = max(d[0, j], prev[j - 1])
    for i in range(1, na):
        cur[0] = max(d[i, 0], prev[0])
        for j in range(1, nb):
            cur[j] = max(d[i, j], min(prev[j], prev[j - 1], cur[j - 1]))
        prev, cur = cur, prev
    return float(prev[nb - 1])


def chamfer_mean_bruteforce(p, q):
    """O(n*m) double loop version of the symmetric Chamfer mean."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    fwd = sum(min(math.dist(pi, qj) for qj in q) for pi in p) / len(p)
    bwd = sum(min(math.dist(qj, pi) for pi in p) for qj in q) / len(q)
    return 0.5 * (fwd + bwd)


def chamfer_mean_dense(p, q):
    """The N x M difference-tensor form of the symmetric Chamfer mean.

    Same per-pair arithmetic and the same means as an exact nearest-neighbour
    search, so a correct search matches it bit for bit.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    diff = p[:, None, :] - q[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean()))


def polyline_mask_by_cell_loop(polylines, spec, width_m):
    """Cells whose center lies within width_m/2 of some polyline segment.

    Tests every (cell, segment) pair in Python: the center is projected onto
    the segment with the parameter clamped to [0, 1], and a zero-length
    segment is its start point.
    """
    radius = width_m / 2.0
    segments = [(pts[i], pts[i + 1]) for pts in polylines
                for i in range(len(pts) - 1)]
    mask = np.zeros((spec.height, spec.width), bool)
    for row in range(spec.height):
        cy = spec.y_min + (row + 0.5) * spec.cell_dy
        for col in range(spec.width):
            cx = spec.x_min + (col + 0.5) * spec.cell_dx
            for (ax, ay), (bx, by) in segments:
                dx, dy = bx - ax, by - ay
                seg2 = dx * dx + dy * dy
                t = 0.0
                if seg2 != 0.0:
                    t = min(max(((cx - ax) * dx + (cy - ay) * dy) / seg2, 0.0), 1.0)
                ex = cx - (ax + t * dx)
                ey = cy - (ay + t * dy)
                if ex * ex + ey * ey <= radius * radius:
                    mask[row, col] = True
                    break
    return mask


def best_two_partition(x):
    """Globally optimal 2-means partition of row vectors x by exhaustion.

    Returns (labels, inertia) with labels normalized so labels[0] == 0.
    """
    m = len(x)
    best_inertia = math.inf
    best_labels = None
    for bits in range(1, 2 ** (m - 1)):  # fix point 0 in cluster 0
        labels = np.array([(bits >> i) & 1 for i in range(m)])
        inertia = 0.0
        for c in (0, 1):
            members = x[labels == c]
            if len(members) == 0:
                inertia = math.inf
                break
            center = members.mean(axis=0)
            inertia += float(((members - center) ** 2).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


def fps_by_full_matrix(dist_matrix, count, start):
    """FPS recomputing every min-distance from the full matrix each step."""
    m = len(dist_matrix)
    selected = [start]
    for _ in range(count - 1):
        best_i, best_d = None, -math.inf
        for i in range(m):
            if i in selected:
                continue
            d = min(dist_matrix[i][s] for s in selected)
            if d > best_d:
                best_i, best_d = i, d
        selected.append(best_i)
    return selected


def cells_by_dense_sampling(x0, y0, x1, y1, spec, samples=20001):
    """Cells containing at least one of many sample points of the segment."""
    ts = np.linspace(0.0, 1.0, samples)
    xs = x0 + ts * (x1 - x0)
    ys = y0 + ts * (y1 - y0)
    cells = set()
    for x, y in zip(xs, ys):
        if spec.x_min <= x < spec.x_max and spec.y_min <= y < spec.y_max:
            row = int(math.floor((y - spec.y_min) / spec.cell_dy))
            col = int(math.floor((x - spec.x_min) / spec.cell_dx))
            cells.add((min(row, spec.height - 1), min(col, spec.width - 1)))
    return cells


def traverse_cells(x0, y0, x1, y1, spec):
    """Cells of one segment, by splitting it at every grid-line crossing.

    Each piece's midpoint, plus the two endpoints, is mapped to its cell.
    Returns an (K, 2) int64 array of (row, col) in traversal order,
    deduplicated.
    """
    u0 = (x0 - spec.x_min) / spec.cell_dx
    v0 = (y0 - spec.y_min) / spec.cell_dy
    u1 = (x1 - spec.x_min) / spec.cell_dx
    v1 = (y1 - spec.y_min) / spec.cell_dy
    ts = [0.0, 1.0]
    for p0, p1 in ((u0, u1), (v0, v1)):
        lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
        k = math.floor(lo) + 1
        span = p1 - p0
        while k < hi:
            ts.append((k - p0) / span)
            k += 1
    ts.sort()
    samples = [ts[0]] + [0.5 * (s + t) for s, t in zip(ts, ts[1:]) if t > s] + [ts[-1]]
    seen = {}
    for t in samples:
        row = math.floor(v0 + t * (v1 - v0))
        col = math.floor(u0 + t * (u1 - u0))
        if 0 <= row < spec.height and 0 <= col < spec.width:
            seen[(row, col)] = None
    return np.array(list(seen), dtype=np.int64).reshape(-1, 2)


def rasterize_by_segment_loop(trajectories, spec):
    """(count, density, direction) of a trajectory heatmap, one segment at a time.

    Per trajectory: the cells of every non-degenerate segment from
    traverse_cells, each adding the segment's unit vector (math.hypot norm).
    Trajectories are merged sorted by (id, coordinates); a cell's direction
    is the folded angle of its summed vectors.
    """
    h, w = spec.height, spec.width
    count = np.zeros((h, w), dtype=np.int64)
    sum_x = np.zeros((h, w))
    sum_y = np.zeros((h, w))
    for t in sorted(trajectories, key=lambda t: (t.id, t.points.tobytes())):
        vec = {}
        pts = t.points
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            if x0 == x1 and y0 == y1:
                continue
            norm = math.hypot(x1 - x0, y1 - y0)
            for row, col in traverse_cells(x0, y0, x1, y1, spec):
                acc = vec.setdefault((row, col), [0.0, 0.0])
                acc[0] += (x1 - x0) / norm
                acc[1] += (y1 - y0) / norm
        for (row, col), (vx, vy) in vec.items():
            count[row, col] += 1
            sum_x[row, col] += vx
            sum_y[row, col] += vy
    n_max = max(int(count.max()), 1)
    direction = np.zeros((h, w))
    for row, col in zip(*np.nonzero(count)):
        angle = math.remainder(math.atan2(sum_y[row, col], sum_x[row, col]), math.pi)
        direction[row, col] = angle + math.pi if angle <= -math.pi / 2 else angle
    return count, count / float(n_max), direction


def conv3x3_sliding_window(x, w, b):
    """Naive per-output-pixel 3x3 correlation with zero padding."""
    h, wd, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((h, wd, cout))
    for r in range(h):
        for c in range(wd):
            for o in range(cout):
                acc = b[o]
                for i in range(3):
                    for j in range(3):
                        rr, cc = r + i - 1, c + j - 1
                        if 0 <= rr < h and 0 <= cc < wd:
                            acc += float(x[rr, cc] @ w[o, :, i, j])
                out[r, c, o] = acc
    return out


def conv3x3_taps(x, w, b):
    """3x3 zero-padded correlation as nine einsum taps on (..., H, W, C)
    arrays, stacked over leading axes of x, w and b."""
    h, wd = x.shape[-3:-1]
    xp = np.pad(x, ((0, 0),) * (x.ndim - 3) + ((1, 1), (1, 1), (0, 0)))
    out = np.zeros(np.broadcast_shapes(x.shape[:-3], w.shape[:-4])
                   + (h, wd, w.shape[-4]))
    for i in range(3):
        for j in range(3):
            out += np.einsum("...hwc,...oc->...hwo",
                             xp[..., i:i + h, j:j + wd, :], w[..., i, j])
    return out + b[..., None, None, :]


def conv3x3_grad_taps(x, w, d_out):
    """Adjoint of conv3x3_taps for one (H, W, C) instance: (d_x, d_w, d_b)."""
    h, wd, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    d_xp = np.zeros_like(xp)
    d_w = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            d_xp[i:i + h, j:j + wd, :] += np.einsum("hwo,oc->hwc", d_out, w[:, :, i, j])
            d_w[:, :, i, j] = np.einsum("hwo,hwc->oc", d_out, xp[i:i + h, j:j + wd, :])
    d_b = d_out.sum(axis=(0, 1))
    return d_xp[1:1 + h, 1:1 + wd, :], d_w, d_b


def gather_by_fancy_index(data, rows, cols):
    """data[..., rows, cols, :] by fancy indexing of the flattened grids: each
    leading index reads its own grid."""
    h, w, c = data.shape[-3:]
    batch = np.broadcast_shapes(data.shape[:-3], rows.shape[:-2])
    flat = np.broadcast_to(data, batch + (h, w, c)).reshape(-1, c)
    base = np.arange(flat.shape[0] // (h * w)).reshape(batch + (1, 1)) * (h * w)
    return flat[base + rows * w + cols]


def fd_grad_loop(f, x, step):
    """Central differences, one coordinate and two scalar calls f(x) at a time.

    Perturbs x in place and restores each coordinate after use.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = f(x)
        flat[i] = old - step
        fm = f(x)
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def sign_test_p_value(wins, n):
    """One-sided sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n


def smooth_by_point_loop(t: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Centered moving average; endpoints use shrunken symmetric windows.

    The window radius is clipped to the available neighbors on each side,
    so the point count never changes and window=1 is the identity.
    """
    if cfg.smooth_window == 1:
        return t
    radius = cfg.smooth_window // 2
    pts = t.points
    n = len(pts)
    out = np.empty_like(pts)
    for i in range(n):
        r = min(radius, i, n - 1 - i)
        out[i] = pts[i - r:i + r + 1].mean(axis=0)
    return replace(t, points=out)


def resample(t: Trajectory, r: int = DEFAULT_RESAMPLE) -> np.ndarray:
    """R points at arc-length fractions k/(R-1) by linear interpolation.

    Returns an (R, 2) array; a zero-length polyline gives R copies of its
    first point.
    """
    if r < 2:
        raise ContractError(f"resample count must be >= 2, got {r}")
    pts = t.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0:
        return np.repeat(pts[:1], r, axis=0)
    targets = np.linspace(0.0, total, r)
    x = np.interp(targets, s, pts[:, 0])
    y = np.interp(targets, s, pts[:, 1])
    out = np.column_stack([x, y])
    # np.interp is exact at the ends, but pin them anyway
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def sample_polyline_points(polylines, step: float = DEFAULT_SAMPLE_STEP) -> np.ndarray:
    """Points along each polyline at a fixed arc-length step (endpoints included)."""
    if not step > 0:
        raise ContractError(f"step must be > 0, got {step}")
    chunks = []
    count = 0.0  # counted in float so an oversized request cannot overflow
    for poly in polylines:
        pts = poly.points
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        total = s[-1]
        n = 1.0 if total == 0.0 else max(2.0, np.floor(total / step) + 1.0)
        count += n
        if count > MAX_SAMPLES:
            raise ContractError(f"sampling at step {step} needs more than "
                                f"MAX_SAMPLES={MAX_SAMPLES} points")
        if total == 0.0:
            chunks.append(pts[:1])
            continue
        targets = np.linspace(0.0, total, int(n))
        x = np.interp(targets, s, pts[:, 0])
        y = np.interp(targets, s, pts[:, 1])
        chunks.append(np.column_stack([x, y]))
    if not chunks:
        raise ContractError("no polylines to sample")
    return np.concatenate(chunks, axis=0)
