"""Alignment module: offset prediction, bilinear warp, confidence fusion,
and the analytic adjoint of each.

Each stage is one function on float64 arrays laid out (..., H, W, C) that
broadcasts over leading axes: `predict_offsets(bev, prior, w1, b1, w2, b2)`,
`warp(data, off)`, `compute_logits(bev, prior, weight, bias)` and
`confidence_fuse(bev, prior, la, lb)`. Its adjoint `<stage>_grad(*args,
upstream)` takes the same arguments plus the gradient w.r.t. the output, for
one (H, W, C) instance, and returns one gradient per argument, in order. The
stages do not validate: `fuse_pipeline(bev, prior, params)` is the one
checked boundary. `params` is a plain dict of the six parameter arrays keyed
by stage argument, `w1, b1, w2, b2, weight, bias`; `_param_shapes` is the one
place their shapes are written, and `fuse_pipeline` checks them once.

One layout makes every read off the grid a zero: `_padded` copies the
channels of its (..., H, W, C_k) arrays into zeros with two rows and columns
before the grid and three after, so flattened to (..., (H+5)(W+5), C) rows,
cell (r, c) is row (r+2)(W+5)+c+2 and a 3x3 tap or a clipped bilinear
position reads the grid or a zero. `predict_offsets` is two 3x3
convolutions; [bev, prior] go straight into one padded buffer, and conv1's
tanh into conv2's. `_conv3x3` works in bands of output rows, at most `_BAND`
entries in each of two reused buffers. For a band from flat row q, tap (i, j)
is the contiguous slice of rows from q + (i+1)(W+5)+j+1, so the band is nine
BLAS matmuls of those slices with the tap's weights, laid out by `_taps` as
contiguous (..., 3, 3, C, O) matrices, summed in tap order: each output is
the same sum in any band. The five columns of each output row that cross
the row wrap are dropped. `_conv3x3_grad` takes d_w from whole-grid slices
against the upstream gradient in the same layout, and d_x from `_conv3x3`
with w turned 180 degrees and its channel axes swapped. No 3x3 patch tensor
is built: a 9C-wide copy of every stacked input would multiply the memory of
the finite-difference check. `warp`, in the same bands, and `warp_grad` get
each position's top-left neighbour as a row `at` from `_bilinear`; neighbour
(dr, dc) is row at + dr(W+5) + dc, read by one `take` of whole channel rows.

`finite_difference_check` checks every stage argument on one fixed instance:
a 5x6 grid, 3 channels, 4 hidden channels and step 1e-6, drawn uniform in
[-1, 1) from `core.Pcg64(seed)` (parameters scaled by 0.1), so the check does
not import numpy.random. Row `<stage>.d_<argument>` compares the adjoint's
i-th output, projected on _DIRECTIONS seeded unit directions v, with central
differences of <stage output, upstream> along each v: vᵀJu for random v, as
in torch.autograd.gradcheck's fast mode, which a wrong output passes with
probability zero. One stage call evaluates all 2·_DIRECTIONS = 16 points, so
the CLI's forward pass and the check run the same code; `fuse --check-grads`
checks the one instance of its `--seed`.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Dict, Tuple

import numpy as np

from .core import MAX_SAMPLES, ContractError, FeatureMap, Pcg64


def _finite(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} must be finite")
    return arr


def _param_shapes(channels: int, hidden: int) -> Dict[str, Tuple[int, ...]]:
    """Shape of each parameter array for C = `channels`, keyed by its stage
    argument, in draw order: the offset net's two 3x3 convolutions (2C ->
    hidden -> 2 channels) and the logits' 1x1 convolution (2C -> 2)."""
    c2 = 2 * channels
    return {"w1": (hidden, c2, 3, 3), "b1": (hidden,), "w2": (2, hidden, 3, 3),
            "b2": (2,), "weight": (2, c2), "bias": (2,)}


def random_params(seed: int, channels: int, hidden: int = 8) -> Dict[str, np.ndarray]:
    """Seeded random parameters for tests and synthetic pipelines."""
    if channels < 1 or hidden < 1:
        raise ContractError(f"channels and hidden must be >= 1, got "
                            f"channels={channels} hidden={hidden}")
    shapes = _param_shapes(channels, hidden)
    size = math.prod(shapes["w1"])  # w1 is the largest array
    if size > MAX_SAMPLES:
        raise ContractError(f"w1 needs {size} values, more than MAX_SAMPLES="
                            f"{MAX_SAMPLES}, got channels={channels} hidden={hidden}")
    rng = np.random.default_rng(seed)
    return {name: rng.normal(0, 0.1, shape) for name, shape in shapes.items()}


def _check_same_grid(a: FeatureMap, b: FeatureMap) -> None:
    if a.spec != b.spec or a.channels != b.channels:
        raise ContractError(
            f"feature maps differ: {a.spec.shape}x{a.channels} vs "
            f"{b.spec.shape}x{b.channels}")


def _concat(*xs: np.ndarray, out=None) -> np.ndarray:
    """Channel concatenation of (..., H, W, C_k) arrays over their broadcast leading axes."""
    batch = np.broadcast_shapes(*(x.shape[:-3] for x in xs))
    return np.concatenate([np.broadcast_to(x, batch + x.shape[-3:]) for x in xs], -1, out=out)


def _padded(*xs: np.ndarray) -> np.ndarray:
    """`_concat(*xs)` (..., H, W, C) in zeros with two rows and columns before
    it and three after: (..., H+5, W+5, C), cell (r, c) at [..., r+2, c+2, :]."""
    h, w = xs[0].shape[-3:-1]
    xp = np.zeros(np.broadcast_shapes(*(x.shape[:-3] for x in xs))
                  + (h + 5, w + 5, sum(x.shape[-1] for x in xs)))
    _concat(*xs, out=xp[..., 2:2 + h, 2:2 + w, :])
    return xp


def _taps(w: np.ndarray) -> np.ndarray:
    """w (..., O, C, 3, 3) as contiguous (..., 3, 3, C, O) BLAS operands."""
    return np.ascontiguousarray(np.moveaxis(w, (-4, -3), (-1, -2)))


_BAND = 3 << 12  # most output entries per band: 96 KiB buffers, under the mmap threshold


def _conv3x3(xp: np.ndarray, w: np.ndarray, b: np.ndarray, out=None, act=None) -> np.ndarray:
    """act(3x3 convolution of the `_padded` grid xp (..., H+5, W+5, C) with w
    (..., O, C, 3, 3), plus b) written to out (..., H, W, O), new if None."""
    h, row, o = xp.shape[-3] - 5, xp.shape[-2], w.shape[-4]
    taps, batch = _taps(w), np.broadcast_shapes(xp.shape[:-3], w.shape[:-4])
    if out is None:
        out = np.empty(np.broadcast_shapes(batch, b.shape[:-1]) + (h, row - 5, o))
    flat = xp.reshape(xp.shape[:-3] + (-1, xp.shape[-1]))
    rows = max(1, min(h, _BAND // (math.prod(batch) * row * o)))  # grid rows per band
    acc, term = np.empty(batch + (rows * row, o)), np.empty(batch + (rows * row, o))
    for r in range(0, h, rows):
        n = min(rows, h - r) * row
        a, t = acc[..., :n, :], term[..., :n, :]
        a.fill(0.0)
        for i in range(3):
            for j in range(3):
                s = (r + i + 1) * row + j + 1
                np.matmul(flat[..., s:s + n, :], taps[..., i, j, :, :], out=t)
                a += t
        # output columns W to W+4 of each row read across the row wrap: drop them
        dst = out[..., r:r + rows, :, :]
        np.add(a.reshape(batch + (-1, row, o))[..., :-5, :], b[..., None, None, :], out=dst)
        if act is not None:
            act(dst, out=dst)
    return out


def _conv3x3_grad(xp: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    """Adjoint of `_conv3x3` for one `_padded` instance xp: (d_x, d_w, d_b)."""
    row, c = xp.shape[-2:]
    n = d_out.shape[0] * row
    dp = _padded(d_out)
    # d_out from its cell (0, 0) on: the wrap columns read zeros, out of d_w
    d = dp.reshape(-1, d_out.shape[-1])[2 * row + 2:2 * row + 2 + n]
    d_w = np.empty_like(w)
    for i in range(3):
        for j in range(3):
            s = (i + 1) * row + j + 1
            d_w[:, :, i, j] = d.T @ xp.reshape(-1, c)[s:s + n]
    d_x = _conv3x3(dp, np.swapaxes(w[:, :, ::-1, ::-1], 0, 1), np.zeros(c))
    return d_x, d_w, d_out.sum(axis=(0, 1))


def _hidden(bev, prior, w1, b1):
    """(xp, ap): [bev, prior] `_padded`, and conv1's tanh `_padded` as conv2 reads it."""
    xp = _padded(bev, prior)
    ap = np.zeros(np.broadcast_shapes(xp.shape[:-3], w1.shape[:-4], b1.shape[:-1])
                  + xp.shape[-3:-1] + (w1.shape[-4],))
    _conv3x3(xp, w1, b1, ap[..., 2:-3, 2:-3, :], np.tanh)
    return xp, ap


def predict_offsets(bev: np.ndarray, prior: np.ndarray, w1: np.ndarray,
                    b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """(..., H, W, 2) offsets from the channels [bev, prior] (..., H, W, 2C)."""
    return _conv3x3(_hidden(bev, prior, w1, b1)[1], w2, b2)


def predict_offsets_grad(bev, prior, w1, b1, w2, b2, upstream):
    """Adjoint of predict_offsets: (d_bev, d_prior, d_w1, d_b1, d_w2, d_b2)."""
    xp, ap = _hidden(bev, prior, w1, b1)
    a1 = ap[2:-3, 2:-3]
    d_a1, d_w2, d_b2 = _conv3x3_grad(ap, w2, upstream)
    d_x, d_w1, d_b1 = _conv3x3_grad(xp, w1, d_a1 * (1.0 - a1 * a1))
    return (*np.split(d_x, [bev.shape[-1]], axis=-1), d_w1, d_b1, d_w2, d_b2)


def _bilinear(off: np.ndarray, batch: tuple, h: int, w: int, r: int = 0):
    """(at, tr, tc) of sampling an (H, W) grid at (i + off_row, j + off_col) for
    the cells of off (..., K, W, 2), rows i from r: each top-left neighbour as a
    row of the grid `_padded` over `batch` and flattened, and its fractions."""
    # Positions past one cell beyond the border read only zeros either way;
    # clipping them keeps the int64 cast in range for any finite offset.
    rows = np.clip(np.arange(r, r + off.shape[-3])[:, None] + off[..., 0], -2, h + 1)
    cols = np.clip(np.arange(w)[None, :] + off[..., 1], -2, w + 1)
    r0, c0 = np.floor(rows), np.floor(cols)
    base = np.arange(math.prod(batch)).reshape(batch + (1, 1)) * ((h + 5) * (w + 5))
    at = base + (r0.astype(np.int64) + 2) * (w + 5) + c0.astype(np.int64) + 2
    return at, rows - r0, cols - c0


def warp(data: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Bilinear resample of data (..., H, W, C) at (h + off_row, w + off_col)
    per cell; out-of-bounds neighbors contribute zero."""
    h, w, c = data.shape[-3:]
    batch = np.broadcast_shapes(data.shape[:-3], off.shape[:-3])
    flat = _padded(np.broadcast_to(data, batch + (h, w, c))).reshape(-1, c)
    out = np.zeros(batch + (h, w, c))
    rows = max(1, _BAND // (math.prod(batch) * w * c))
    for r in range(0, h, rows):
        at, tr, tc = _bilinear(off[..., r:r + rows, :, :], batch, h, w, r)
        band = out[..., r:r + rows, :, :]
        for dr in (0, 1):
            wr = tr if dr else 1.0 - tr
            for dc in (0, 1):
                wc = tc if dc else 1.0 - tc
                band += (wr * wc)[..., None] * flat.take(at + dr * (w + 5) + dc, axis=0)
    return out


def warp_grad(data, off, upstream):
    """Adjoint of warp: (d_data, d_off). Exact away from integer offset
    crossings (where bilinear weights kink)."""
    h, w, c = data.shape
    flat = _padded(data).reshape(-1, c)
    at, tr, tc = _bilinear(off, (), h, w)
    d_flat = np.zeros_like(flat)
    d_off = np.zeros_like(off)
    for dr in (0, 1):
        wr, d_wr = (tr, 1.0) if dr else (1.0 - tr, -1.0)
        for dc in (0, 1):
            wc, d_wc = (tc, 1.0) if dc else (1.0 - tc, -1.0)
            near = at + dr * (w + 5) + dc
            np.add.at(d_flat, near, (wr * wc)[:, :, None] * upstream)
            proj = (upstream * flat.take(near, axis=0)).sum(axis=2)
            d_off[:, :, 0] += (d_wr * wc) * proj
            d_off[:, :, 1] += (wr * d_wc) * proj
    return d_flat.reshape(h + 5, w + 5, -1)[2:2 + h, 2:2 + w], d_off


def compute_logits(bev: np.ndarray, prior: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
    """(..., H, W, 2) logits (la, lb) of the channels [bev, prior] (..., H, W, 2C)."""
    return (np.einsum("...hwc,...kc->...hwk", _concat(bev, prior), weight)
            + bias[..., None, None, :])


def compute_logits_grad(bev, prior, weight, bias, upstream):
    """Adjoint of compute_logits: (d_bev, d_prior, d_weight, d_bias)."""
    d_x = np.einsum("hwk,kc->hwc", upstream, weight)
    d_w = np.einsum("hwk,hwc->kc", upstream, _concat(bev, prior))
    return (*np.split(d_x, [bev.shape[-1]], axis=-1), d_w, upstream.sum(axis=(0, 1)))


def confidence_weights(la: np.ndarray, lb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell two-way softmax (alpha, beta) in the shifted, overflow-free form."""
    m = np.maximum(la, lb)
    ea = np.exp(la - m)
    eb = np.exp(lb - m)
    denom = ea + eb
    return ea / denom, eb / denom


def confidence_fuse(bev: np.ndarray, prior: np.ndarray, la: np.ndarray,
                    lb: np.ndarray) -> np.ndarray:
    """Per-cell convex combination alpha*bev + beta*prior, broadcast over channels."""
    alpha, beta = confidence_weights(la, lb)
    return alpha[..., None] * bev + beta[..., None] * prior


def confidence_fuse_grad(bev, prior, la, lb, upstream):
    """Adjoint of confidence_fuse: (d_bev, d_prior, d_la, d_lb)."""
    alpha, _ = confidence_weights(la, lb)
    d_bev = alpha[:, :, None] * upstream
    d_prior = (1.0 - alpha)[:, :, None] * upstream
    d_la = (upstream * (bev - prior)).sum(axis=2) * (alpha * (1.0 - alpha))
    return d_bev, d_prior, d_la, -d_la


def fuse_pipeline(bev: FeatureMap, prior: FeatureMap, params: Dict[str, np.ndarray]
                  ) -> Tuple[FeatureMap, Dict[str, float]]:
    """predict_offsets -> warp -> compute_logits -> confidence_fuse, behind the
    module's one input check: one grid of C >= 1 channels for both maps, the
    six `params` arrays finite and shaped as `_param_shapes(C, hidden)`, and
    finite offsets and logits; a violation raises `ContractError`."""
    _check_same_grid(bev, prior)
    c = bev.channels
    names = _param_shapes(c, 0).keys()
    if params.keys() != names:
        raise ContractError(f"params need the arrays {', '.join(names)}, "
                            f"got {', '.join(map(str, params))}")
    p = {name: _finite(name, params[name]) for name in names}
    shapes = {name: a.shape for name, a in p.items()}
    hidden = shapes["w1"][0] if len(shapes["w1"]) == 4 else 0
    if min(c, hidden) < 1 or shapes != _param_shapes(c, hidden):
        raise ContractError(
            f"params do not fit maps of C={c} channels (need C >= 1 and w1 of shape "
            f"(hidden >= 1, 2C, 3, 3)): "
            + ", ".join(f"{n} {s}" for n, s in shapes.items()))
    # huge finite parameters may overflow; `_finite` reports that as the error
    with np.errstate(over="ignore", invalid="ignore"):
        off = predict_offsets(bev.data, prior.data, p["w1"], p["b1"], p["w2"], p["b2"])
    off = _finite("offsets", off)
    aligned = warp(prior.data, off)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = compute_logits(bev.data, aligned, p["weight"], p["bias"])
    logits = _finite("logits", logits)
    la, lb = logits[..., 0], logits[..., 1]
    fused = FeatureMap(bev.spec, confidence_fuse(bev.data, aligned, la, lb))
    # finite offsets near the float limit can still overflow their sum
    with np.errstate(over="ignore"):
        abs_mean = _finite("mean absolute offset", np.abs(off).mean())
    stats = {
        "offset_abs_mean": float(abs_mean),
        "offset_abs_max": float(np.abs(off).max()),
        "mean_alpha": float(confidence_weights(la, lb)[0].mean()),
    }
    return fused, stats


_DIRECTIONS = 8  # directions per checked argument; its stack holds twice as many rows


def _directional_fd(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                    rng: Pcg64, step: float) -> Tuple[np.ndarray, np.ndarray]:
    """(v, central differences at x along each row of v) for _DIRECTIONS unit
    rows v_k[i] ∝ cos(theta_k·i + phi_k), theta_k and phi_k drawn uniform in
    [0, 2pi): two draws per direction, not one per value. One call of f, which
    maps a (B, *x.shape) stack to B losses, gets rows x + step·v_k then
    x - step·v_k."""
    theta, phi = 2.0 * math.pi * rng.random(2 * _DIRECTIONS).reshape(2, -1, 1)
    v = np.cos(theta * np.arange(x.size) + phi)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    loss = f((x.ravel() + step * np.concatenate([v, -v])).reshape((-1,) + x.shape))
    return v, (loss[:_DIRECTIONS] - loss[_DIRECTIONS:]) / (2.0 * step)


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference over the larger max magnitude, at most 2 for finite
    arrays. A NaN or an overflow reads as the largest float, which no gate
    passes and a JSON report can hold."""
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.abs(analytic - numeric).max(initial=0.0) / scale)
    return err if math.isfinite(err) else sys.float_info.max


def _grad_check_instance(seed: int) -> Dict[str, object]:
    """Seeded inputs, parameters and upstream gradients of one check: uniform
    in [-1, 1), parameters scaled by 0.1, drawn in a fixed order. `rng` is
    the generator after those draws; the check draws its directions from it."""
    rng = Pcg64(seed)

    def uniform(*shape: int, scale: float = 1.0) -> np.ndarray:
        return scale * (2.0 * rng.random(math.prod(shape)).reshape(shape) - 1.0)

    (h, w), channels, hidden = (5, 6), 3, 4
    bev = uniform(h, w, channels)
    prior = uniform(h, w, channels)
    # offsets in [-2, 3) whose fractional part stays >= 0.05 from any integer
    whole = np.floor(5.0 * rng.random(2 * h * w)) - 2.0
    off = (whole + 0.05 + 0.9 * rng.random(2 * h * w)).reshape(h, w, 2)
    params = {name: uniform(*shape, scale=0.1)
              for name, shape in _param_shapes(channels, hidden).items()}
    return {"bev": bev, "prior": prior, "off": off, "params": params,
            "la": uniform(h, w), "lb": uniform(h, w),
            "up_fm": uniform(h, w, channels),
            "up_off": uniform(h, w, 2),
            "up_l": uniform(h, w), "rng": rng}


def _stage_loss(stage, args: list, i: int, upstream: np.ndarray):
    """Batched loss <stage(args with argument i replaced by the stack), upstream>."""
    def loss(stack: np.ndarray) -> np.ndarray:
        out = stage(*args[:i], stack, *args[i + 1:])
        return (out * upstream).reshape(len(out), -1).sum(axis=1)
    return loss


def _grad_check_table(inst: Dict[str, object]) -> list:
    """(name, analytic gradient, batched loss f, input x) for every argument of
    every stage. Each loss is <stage output, upstream>, so its gradient is the
    adjoint applied to the upstream array. The upstream of the two logits is
    (up_l, -up_l)."""
    b, p, w = inst["bev"], inst["prior"], inst["params"]
    stages = [  # (row prefix, stage, adjoint, named arguments, upstream)
        ("warp", warp, warp_grad, {"prior": p, "off": inst["off"]}, inst["up_fm"]),
        ("fuse", confidence_fuse, confidence_fuse_grad,
         {"bev": b, "prior": p, "la": inst["la"], "lb": inst["lb"]}, inst["up_fm"]),
        ("logits", compute_logits, compute_logits_grad,
         {"bev": b, "prior": p, "weight": w["weight"], "bias": w["bias"]},
         np.stack([inst["up_l"], -inst["up_l"]], axis=-1)),
        ("offsets", predict_offsets, predict_offsets_grad,
         {"bev": b, "prior": p, "w1": w["w1"], "b1": w["b1"], "w2": w["w2"], "b2": w["b2"]},
         inst["up_off"]),
    ]
    rows = []
    for prefix, stage, adjoint, named, up in stages:
        args = list(named.values())
        for i, (arg, grad) in enumerate(zip(named, adjoint(*args, up))):
            rows.append((f"{prefix}.d_{arg}", grad, _stage_loss(stage, args, i, up),
                         args[i]))
    return rows


def finite_difference_check(seed: int) -> Dict[str, float]:
    """Relative error of each analytic adjoint output against central
    differences of step 1e-6, both projected on the row's seeded directions,
    keyed by name (e.g. ``"fuse.d_lb"``)."""
    inst = _grad_check_instance(seed)
    errs = {}
    for name, analytic, f, x in _grad_check_table(inst):
        v, numeric = _directional_fd(f, x, inst["rng"], 1e-6)
        errs[name] = _rel_err(v @ analytic.ravel(), numeric)
    return errs
