"""Alignment-module kernels: offset warp, confidence fusion, and their gradients.

Everything here is float64 and pure numpy. The public functions take and
return grid-checked dataclasses (`FeatureMap`, `OffsetField`, ...); after
validating, each calls an array kernel (`_warp`, `_softmax2`, `_fuse`,
`_logits`, `_offsets`) that broadcasts over any leading axes, so the CLI's
forward pass and the gradient check run the same code.

Each forward kernel has an exact analytic adjoint. `finite_difference_check`
compares all 16 adjoint outputs with central differences on a seeded random
instance. For each checked input x of n values it stacks the 2n points
x ± step·eᵢ on a leading axis, at most `_FD_CHUNK_VALUES` values per stack,
and evaluates a whole stack with one kernel call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .core import ContractError, FeatureMap, GridSpec


@dataclass(frozen=True)
class OffsetField:
    """Per-cell sampling offsets in cell units: component 0 = row, 1 = col."""

    spec: GridSpec
    offsets: np.ndarray  # (H, W, 2) float64

    def __post_init__(self):
        arr = np.asarray(self.offsets, dtype=np.float64)
        if arr.shape != self.spec.shape + (2,):
            raise ContractError(f"offsets shape {arr.shape} != {self.spec.shape + (2,)}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("offsets must be finite")
        object.__setattr__(self, "offsets", arr)


@dataclass(frozen=True)
class ConfidenceLogits:
    spec: GridSpec
    lambda_a: np.ndarray  # (H, W)
    lambda_b: np.ndarray  # (H, W)

    def __post_init__(self):
        for name in ("lambda_a", "lambda_b"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != self.spec.shape:
                raise ContractError(f"{name} shape {arr.shape} != {self.spec.shape}")
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FusionParams:
    """1x1-convolution parameters mapping 2C concatenated channels to 2 logits."""

    weight: np.ndarray  # (2, 2C)
    bias: np.ndarray    # (2,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != 2 or b.shape != (2,):
            raise ContractError(f"bad fusion params: weight {w.shape}, bias {b.shape}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class OffsetParams:
    """Two 3x3 conv layers (tanh between) mapping 2C channels to 2 offsets."""

    w1: np.ndarray  # (hidden, 2C, 3, 3)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (2, hidden, 3, 3)
    b2: np.ndarray  # (2,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if self.w1.shape[2:] != (3, 3) or self.w2.shape[2:] != (3, 3):
            raise ContractError("offset conv kernels must be 3x3")
        if self.w2.shape[0] != 2 or self.w2.shape[1] != self.w1.shape[0]:
            raise ContractError("offset conv layer shapes are inconsistent")


def random_params(seed: int, channels: int, hidden: int = 8,
                  scale: float = 0.1) -> Tuple[OffsetParams, FusionParams]:
    """Seeded random parameters for tests and synthetic pipelines."""
    rng = np.random.default_rng(seed)
    c2 = 2 * channels
    op = OffsetParams(
        rng.normal(0, scale, (hidden, c2, 3, 3)),
        rng.normal(0, scale, hidden),
        rng.normal(0, scale, (2, hidden, 3, 3)),
        rng.normal(0, scale, 2),
    )
    fp = FusionParams(rng.normal(0, scale, (2, c2)), rng.normal(0, scale, 2))
    return op, fp


def _check_same_grid(a: FeatureMap, b: FeatureMap) -> None:
    if a.spec != b.spec or a.channels != b.channels:
        raise ContractError(
            f"feature maps differ: {a.spec.shape}x{a.channels} vs "
            f"{b.spec.shape}x{b.channels}")


def add_prior(bev: FeatureMap, prior: FeatureMap) -> FeatureMap:
    """Elementwise sum of two feature maps on the same grid."""
    _check_same_grid(bev, prior)
    return FeatureMap(bev.spec, bev.data + prior.data)


# ---------------------------------------------------------------------------
# array kernels: (..., H, W, C) arrays, leading axes broadcast


def _concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Channel concatenation of two (..., H, W, C) arrays."""
    batch = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    return np.concatenate([np.broadcast_to(a, batch + a.shape[-3:]),
                           np.broadcast_to(b, batch + b.shape[-3:])], axis=-1)


def _gather(data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """data[..., rows, cols, :]: each leading index reads its own grid."""
    h, w, c = data.shape[-3:]
    batch = np.broadcast_shapes(data.shape[:-3], rows.shape[:-2])
    flat = np.broadcast_to(data, batch + (h, w, c)).reshape(-1, c)
    base = np.arange(flat.shape[0] // (h * w)).reshape(batch + (1, 1)) * (h * w)
    return flat[base + rows * w + cols]


def _warp_terms(off: np.ndarray, h: int, w: int):
    """Yield (weight, d_weight_d_row, d_weight_d_col, rows, cols, valid)
    for the four bilinear neighbors of each sample position."""
    rows = np.arange(h)[:, None] + off[..., 0]
    cols = np.arange(w)[None, :] + off[..., 1]
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    tr = rows - r0
    tc = cols - c0
    for dr in (0, 1):
        for dc in (0, 1):
            rr = r0 + dr
            cc = c0 + dc
            wr = tr if dr else 1.0 - tr
            wc = tc if dc else 1.0 - tc
            d_wr = 1.0 if dr else -1.0
            d_wc = 1.0 if dc else -1.0
            valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            rrc = np.clip(rr, 0, h - 1)
            ccc = np.clip(cc, 0, w - 1)
            yield wr * wc, d_wr * wc, wr * d_wc, rrc, ccc, valid


def _warp(data: np.ndarray, off: np.ndarray) -> np.ndarray:
    h, w = data.shape[-3:-1]
    out = np.zeros(np.broadcast_shapes(data.shape[:-3], off.shape[:-3])
                   + data.shape[-3:])
    for wgt, _, _, rr, cc, valid in _warp_terms(off, h, w):
        out += (wgt * valid)[..., None] * _gather(data, rr, cc)
    return out


def _softmax2(la: np.ndarray, lb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two-way softmax in the shifted, overflow-free form."""
    m = np.maximum(la, lb)
    ea = np.exp(la - m)
    eb = np.exp(lb - m)
    denom = ea + eb
    return ea / denom, eb / denom


def _fuse(bev: np.ndarray, prior: np.ndarray, alpha: np.ndarray,
          beta: np.ndarray) -> np.ndarray:
    return alpha[..., None] * bev + beta[..., None] * prior


def _logits(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(..., H, W, 2) logits of the concatenated channels x (..., H, W, 2C)."""
    return np.einsum("...hwc,...kc->...hwk", x, weight) + bias[..., None, None, :]


def _conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    h, wd = x.shape[-3:-1]
    xp = np.pad(x, ((0, 0),) * (x.ndim - 3) + ((1, 1), (1, 1), (0, 0)))
    out = np.zeros(np.broadcast_shapes(x.shape[:-3], w.shape[:-4])
                   + (h, wd, w.shape[-4]))
    for i in range(3):
        for j in range(3):
            out += np.einsum("...hwc,...oc->...hwo",
                             xp[..., i:i + h, j:j + wd, :], w[..., i, j])
    return out + b[..., None, None, :]


def _offsets(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
             b2: np.ndarray) -> np.ndarray:
    return _conv3x3(np.tanh(_conv3x3(x, w1, b1)), w2, b2)


# ---------------------------------------------------------------------------
# bilinear warp


def warp(prior: FeatureMap, off: OffsetField) -> FeatureMap:
    """Bilinear resample of `prior` at (h + off_row, w + off_col) per cell.

    Out-of-bounds neighbors contribute zero (zero-padding border).
    """
    if prior.spec != off.spec:
        raise ContractError("feature/offset grid specs differ")
    return FeatureMap(prior.spec, _warp(prior.data, off.offsets))


def warp_grad(prior: FeatureMap, off: OffsetField,
              upstream: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Adjoint of `warp`: gradients w.r.t. prior values and offsets.

    Exact away from integer offset crossings (where bilinear weights kink).
    """
    data = prior.data
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != data.shape:
        raise ContractError(f"upstream shape {up.shape} != {data.shape}")
    d_prior = np.zeros_like(data)
    d_off = np.zeros_like(off.offsets)
    h, w = data.shape[:2]
    for wgt, dw_r, dw_c, rr, cc, valid in _warp_terms(off.offsets, h, w):
        vals = data[rr, cc, :] * valid[:, :, None]
        np.add.at(d_prior, (rr, cc), (wgt * valid)[:, :, None] * up)
        proj = (up * vals).sum(axis=2)
        d_off[:, :, 0] += dw_r * proj
        d_off[:, :, 1] += dw_c * proj
    return d_prior, d_off


# ---------------------------------------------------------------------------
# confidence fusion


def confidence_weights(logits: ConfidenceLogits) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell two-way softmax in the shifted, overflow-free form."""
    return _softmax2(logits.lambda_a, logits.lambda_b)


def confidence_fuse(bev: FeatureMap, prior_aligned: FeatureMap,
                    logits: ConfidenceLogits) -> FeatureMap:
    """Per-cell convex combination alpha*bev + beta*prior, broadcast over channels."""
    _check_same_grid(bev, prior_aligned)
    if logits.spec != bev.spec:
        raise ContractError("logit grid spec differs from features")
    alpha, beta = confidence_weights(logits)
    return FeatureMap(bev.spec, _fuse(bev.data, prior_aligned.data, alpha, beta))


def confidence_fuse_grad(bev: FeatureMap, prior_aligned: FeatureMap,
                         logits: ConfidenceLogits, upstream: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint of confidence_fuse: (d_bev, d_prior, d_lambda_a, d_lambda_b)."""
    alpha, _ = confidence_weights(logits)
    up = np.asarray(upstream, dtype=np.float64)
    d_bev = alpha[:, :, None] * up
    d_prior = (1.0 - alpha)[:, :, None] * up
    s = (up * (bev.data - prior_aligned.data)).sum(axis=2)
    d_alpha_d_la = alpha * (1.0 - alpha)
    d_la = s * d_alpha_d_la
    return d_bev, d_prior, d_la, -d_la


def compute_logits(bev: FeatureMap, prior_aligned: FeatureMap,
                   params: FusionParams) -> ConfidenceLogits:
    """Per-cell affine map of the concatenated channel vector to two logits."""
    _check_same_grid(bev, prior_aligned)
    x = _concat(bev.data, prior_aligned.data)
    if params.weight.shape[1] != x.shape[2]:
        raise ContractError(
            f"fusion weight expects {params.weight.shape[1]} channels, got {x.shape[2]}")
    logits = _logits(x, params.weight, params.bias)
    return ConfidenceLogits(bev.spec, logits[:, :, 0], logits[:, :, 1])


def compute_logits_grad(bev: FeatureMap, prior_aligned: FeatureMap,
                        params: FusionParams, up_la: np.ndarray, up_lb: np.ndarray):
    """Adjoint of compute_logits: (d_bev, d_prior, d_weight, d_bias)."""
    x = _concat(bev.data, prior_aligned.data)
    up = np.stack([np.asarray(up_la, dtype=np.float64),
                   np.asarray(up_lb, dtype=np.float64)], axis=2)
    d_x = np.einsum("hwk,kc->hwc", up, params.weight)
    c = bev.channels
    d_w = np.einsum("hwk,hwc->kc", up, x)
    d_b = up.sum(axis=(0, 1))
    return d_x[:, :, :c], d_x[:, :, c:], d_w, d_b


# ---------------------------------------------------------------------------
# offset prediction (two 3x3 convs with tanh between)


def _conv3x3_grad(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
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


def predict_offsets(bev: FeatureMap, prior: FeatureMap,
                    params: OffsetParams) -> OffsetField:
    """Forward pass of the fixed two-layer offset predictor."""
    _check_same_grid(bev, prior)
    x = _concat(bev.data, prior.data)
    if params.w1.shape[1] != x.shape[2]:
        raise ContractError(
            f"offset conv expects {params.w1.shape[1]} channels, got {x.shape[2]}")
    return OffsetField(bev.spec, _offsets(x, params.w1, params.b1,
                                          params.w2, params.b2))


def predict_offsets_grad(bev: FeatureMap, prior: FeatureMap,
                         params: OffsetParams, upstream: np.ndarray):
    """Adjoint of predict_offsets: (d_bev, d_prior, OffsetParams gradients)."""
    x = _concat(bev.data, prior.data)
    h1 = _conv3x3(x, params.w1, params.b1)
    a1 = np.tanh(h1)
    up = np.asarray(upstream, dtype=np.float64)
    d_a1, d_w2, d_b2 = _conv3x3_grad(a1, params.w2, up)
    d_h1 = d_a1 * (1.0 - a1 * a1)
    d_x, d_w1, d_b1 = _conv3x3_grad(x, params.w1, d_h1)
    c = bev.channels
    return d_x[:, :, :c], d_x[:, :, c:], OffsetParams(d_w1, d_b1, d_w2, d_b2)


# ---------------------------------------------------------------------------
# the full alignment pipeline


def fuse_pipeline(bev: FeatureMap, prior: FeatureMap,
                  offset_params: OffsetParams, fusion_params: FusionParams
                  ) -> Tuple[FeatureMap, Dict[str, float]]:
    """predict_offsets -> warp -> compute_logits -> confidence fusion."""
    off = predict_offsets(bev, prior, offset_params)
    aligned = warp(prior, off)
    logits = compute_logits(bev, aligned, fusion_params)
    alpha, beta = confidence_weights(logits)
    fused = FeatureMap(bev.spec, _fuse(bev.data, aligned.data, alpha, beta))
    stats = {
        "offset_abs_mean": float(np.abs(off.offsets).mean()),
        "offset_abs_max": float(np.abs(off.offsets).max()),
        "mean_alpha": float(alpha.mean()),
    }
    return fused, stats


# ---------------------------------------------------------------------------
# finite-difference verification

# float64 values per stack of perturbed inputs that `_fd_grad` passes to one
# forward call; it bounds the check's memory on large instances.
_FD_CHUNK_VALUES = 2 ** 17


def _fd_grad(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             step: float) -> np.ndarray:
    """Central differences of f at x, coordinate by coordinate.

    `f` maps a stack of shape (B, *x.shape) to B losses. Each call gets a
    chunk of k coordinates: rows 0..k-1 hold x + step·eᵢ, rows k..2k-1 hold
    x - step·eᵢ.
    """
    flat = x.ravel()
    g = np.empty(flat.size)
    per_chunk = max(1, _FD_CHUNK_VALUES // max(1, 2 * flat.size))
    for lo in range(0, flat.size, per_chunk):
        idx = np.arange(lo, min(lo + per_chunk, flat.size))
        k = len(idx)
        stack = np.tile(flat, (2 * k, 1))
        stack[np.arange(k), idx] = flat[idx] + step
        stack[np.arange(k, 2 * k), idx] = flat[idx] - step
        loss = f(stack.reshape((2 * k,) + x.shape))
        g[idx] = (loss[:k] - loss[k:]) / (2.0 * step)
    return g.reshape(x.shape)


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference over the larger max magnitude; inf if either has a
    NaN, so that no comparison can pass it."""
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1e-12)
    err = float(np.abs(analytic - numeric).max(initial=0.0) / scale)
    return np.inf if np.isnan(err) else err


def _safe_offsets(rng: np.random.Generator, shape: Tuple[int, int],
                  reach: int = 2) -> np.ndarray:
    """Random offsets whose fractional part stays >= 0.05 from any integer."""
    whole = rng.integers(-reach, reach + 1, size=shape + (2,)).astype(np.float64)
    frac = 0.05 + 0.9 * rng.random(size=shape + (2,))
    return whole + frac


def _grad_check_instance(seed: int, height: int, width: int, channels: int,
                         hidden: int) -> Dict[str, object]:
    """Seeded inputs, parameters and upstream gradients of one check."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(0.0, float(width), 0.0, float(height), 1.0, 1.0)
    shape = (height, width)
    bev = FeatureMap(spec, rng.normal(0, 1, shape + (channels,)))
    prior = FeatureMap(spec, rng.normal(0, 1, shape + (channels,)))
    off = OffsetField(spec, _safe_offsets(rng, shape))
    op, fp = random_params(seed + 1, channels, hidden)
    logits = ConfidenceLogits(spec, rng.normal(0, 1, shape),
                              rng.normal(0, 1, shape))
    return {"bev": bev, "prior": prior, "off": off, "op": op, "fp": fp,
            "logits": logits,
            "up_fm": rng.normal(0, 1, shape + (channels,)),
            "up_off": rng.normal(0, 1, shape + (2,)),
            "up_l": rng.normal(0, 1, shape)}


def _grad_check_table(inst: Dict[str, object]) -> list:
    """(name, analytic gradient, batched loss f, input x) for all 16 adjoint
    outputs. Each loss is <forward output, upstream>, so its gradient is the
    adjoint applied to the upstream array."""
    bev, prior, off = inst["bev"], inst["prior"], inst["off"]
    op, fp, logits = inst["op"], inst["fp"], inst["logits"]
    up_fm, up_off, up_l = inst["up_fm"], inst["up_off"], inst["up_l"]
    d_prior, d_off = warp_grad(prior, off, up_fm)
    d_bev, d_pr, d_la, d_lb = confidence_fuse_grad(bev, prior, logits, up_fm)
    d_bev2, d_pr2, d_w, d_b = compute_logits_grad(bev, prior, fp, up_l, -up_l)
    d_bev3, d_pr3, d_op = predict_offsets_grad(bev, prior, op, up_off)

    b, p, la, lb = bev.data, prior.data, logits.lambda_a, logits.lambda_b
    alpha, beta = _softmax2(la, lb)
    x = _concat(b, p)

    def dot(out, up):
        return (out * up).reshape(len(out), -1).sum(axis=1)

    def fuse_loss(bev_s, prior_s, weights):
        return dot(_fuse(bev_s, prior_s, *weights), up_fm)

    def logit_loss(x_s, weight=fp.weight, bias=fp.bias):
        lg = _logits(x_s, weight, bias)
        return dot(lg[..., 0], up_l) - dot(lg[..., 1], up_l)

    def off_loss(x_s, w1=op.w1, b1=op.b1, w2=op.w2, b2=op.b2):
        return dot(_offsets(x_s, w1, b1, w2, b2), up_off)

    return [
        ("warp.d_prior", d_prior, lambda s: dot(_warp(s, off.offsets), up_fm), p),
        ("warp.d_off", d_off, lambda s: dot(_warp(p, s), up_fm), off.offsets),
        ("fuse.d_bev", d_bev, lambda s: fuse_loss(s, p, (alpha, beta)), b),
        ("fuse.d_prior", d_pr, lambda s: fuse_loss(b, s, (alpha, beta)), p),
        ("fuse.d_la", d_la, lambda s: fuse_loss(b, p, _softmax2(s, lb)), la),
        ("fuse.d_lb", d_lb, lambda s: fuse_loss(b, p, _softmax2(la, s)), lb),
        ("logits.d_bev", d_bev2, lambda s: logit_loss(_concat(s, p)), b),
        ("logits.d_prior", d_pr2, lambda s: logit_loss(_concat(b, s)), p),
        ("logits.d_weight", d_w, lambda s: logit_loss(x, weight=s), fp.weight),
        ("logits.d_bias", d_b, lambda s: logit_loss(x, bias=s), fp.bias),
        ("offsets.d_bev", d_bev3, lambda s: off_loss(_concat(s, p)), b),
        ("offsets.d_prior", d_pr3, lambda s: off_loss(_concat(b, s)), p),
        ("offsets.d_w1", d_op.w1, lambda s: off_loss(x, w1=s), op.w1),
        ("offsets.d_b1", d_op.b1, lambda s: off_loss(x, b1=s), op.b1),
        ("offsets.d_w2", d_op.w2, lambda s: off_loss(x, w2=s), op.w2),
        ("offsets.d_b2", d_op.b2, lambda s: off_loss(x, b2=s), op.b2),
    ]


def finite_difference_check(seed: int, height: int = 5, width: int = 6,
                            channels: int = 3, hidden: int = 4,
                            step: float = 1e-6) -> Dict[str, float]:
    """Relative error of each analytic adjoint output against central
    differences, keyed by name (e.g. ``"fuse.d_lb"``)."""
    inst = _grad_check_instance(seed, height, width, channels, hidden)
    return {name: _rel_err(analytic, _fd_grad(f, x, step))
            for name, analytic, f, x in _grad_check_table(inst)}
