"""Alignment-module kernels: offset warp, confidence fusion, and their gradients.

Everything here is float64 and pure numpy. Each forward kernel has an exact
analytic adjoint; `finite_difference_check` verifies all of them against
central differences on seeded random instances.
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
# bilinear warp


def _warp_terms(data: np.ndarray, off: np.ndarray):
    """Yield (weight, value, d_weight_d_row, d_weight_d_col, rows, cols, valid)
    for the four bilinear neighbors of each sample position."""
    h, w = data.shape[:2]
    rows = np.arange(h)[:, None] + off[:, :, 0]
    cols = np.arange(w)[None, :] + off[:, :, 1]
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


def warp(prior: FeatureMap, off: OffsetField) -> FeatureMap:
    """Bilinear resample of `prior` at (h + off_row, w + off_col) per cell.

    Out-of-bounds neighbors contribute zero (zero-padding border).
    """
    if prior.spec != off.spec:
        raise ContractError("feature/offset grid specs differ")
    data = prior.data
    out = np.zeros_like(data)
    for wgt, _, _, rr, cc, valid in _warp_terms(data, off.offsets):
        out += (wgt * valid)[:, :, None] * data[rr, cc, :]
    return FeatureMap(prior.spec, out)


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
    for wgt, dw_r, dw_c, rr, cc, valid in _warp_terms(data, off.offsets):
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
    la, lb = logits.lambda_a, logits.lambda_b
    m = np.maximum(la, lb)
    ea = np.exp(la - m)
    eb = np.exp(lb - m)
    denom = ea + eb
    return ea / denom, eb / denom


def confidence_fuse(bev: FeatureMap, prior_aligned: FeatureMap,
                    logits: ConfidenceLogits) -> FeatureMap:
    """Per-cell convex combination alpha*bev + beta*prior, broadcast over channels."""
    _check_same_grid(bev, prior_aligned)
    if logits.spec != bev.spec:
        raise ContractError("logit grid spec differs from features")
    alpha, beta = confidence_weights(logits)
    out = alpha[:, :, None] * bev.data + beta[:, :, None] * prior_aligned.data
    return FeatureMap(bev.spec, out)


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
    x = np.concatenate([bev.data, prior_aligned.data], axis=2)
    if params.weight.shape[1] != x.shape[2]:
        raise ContractError(
            f"fusion weight expects {params.weight.shape[1]} channels, got {x.shape[2]}")
    logits = np.einsum("hwc,kc->hwk", x, params.weight) + params.bias
    return ConfidenceLogits(bev.spec, logits[:, :, 0], logits[:, :, 1])


def compute_logits_grad(bev: FeatureMap, prior_aligned: FeatureMap,
                        params: FusionParams, up_la: np.ndarray, up_lb: np.ndarray):
    """Adjoint of compute_logits: (d_bev, d_prior, d_weight, d_bias)."""
    x = np.concatenate([bev.data, prior_aligned.data], axis=2)
    up = np.stack([np.asarray(up_la, dtype=np.float64),
                   np.asarray(up_lb, dtype=np.float64)], axis=2)
    d_x = np.einsum("hwk,kc->hwc", up, params.weight)
    c = bev.channels
    d_w = np.einsum("hwk,hwc->kc", up, x)
    d_b = up.sum(axis=(0, 1))
    return d_x[:, :, :c], d_x[:, :, c:], d_w, d_b


# ---------------------------------------------------------------------------
# offset prediction (two 3x3 convs with tanh between)


def _conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    h, wd, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, wd, w.shape[0]))
    for i in range(3):
        for j in range(3):
            out += np.einsum("hwc,oc->hwo", xp[i:i + h, j:j + wd, :], w[:, :, i, j])
    return out + b


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
    x = np.concatenate([bev.data, prior.data], axis=2)
    if params.w1.shape[1] != x.shape[2]:
        raise ContractError(
            f"offset conv expects {params.w1.shape[1]} channels, got {x.shape[2]}")
    a1 = np.tanh(_conv3x3(x, params.w1, params.b1))
    out = _conv3x3(a1, params.w2, params.b2)
    return OffsetField(bev.spec, out)


def predict_offsets_grad(bev: FeatureMap, prior: FeatureMap,
                         params: OffsetParams, upstream: np.ndarray):
    """Adjoint of predict_offsets: (d_bev, d_prior, OffsetParams gradients)."""
    x = np.concatenate([bev.data, prior.data], axis=2)
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
    """predict_offsets -> warp -> compute_logits -> confidence_fuse."""
    off = predict_offsets(bev, prior, offset_params)
    aligned = warp(prior, off)
    logits = compute_logits(bev, aligned, fusion_params)
    fused = confidence_fuse(bev, aligned, logits)
    alpha, _ = confidence_weights(logits)
    stats = {
        "offset_abs_mean": float(np.abs(off.offsets).mean()),
        "offset_abs_max": float(np.abs(off.offsets).max()),
        "mean_alpha": float(alpha.mean()),
    }
    return fused, stats


# ---------------------------------------------------------------------------
# finite-difference verification


def _fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
             step: float) -> np.ndarray:
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


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _safe_offsets(rng: np.random.Generator, shape: Tuple[int, int],
                  reach: int = 2) -> np.ndarray:
    """Random offsets whose fractional part stays >= 0.05 from any integer."""
    whole = rng.integers(-reach, reach + 1, size=shape + (2,)).astype(np.float64)
    frac = 0.05 + 0.9 * rng.random(size=shape + (2,))
    return whole + frac


def finite_difference_check(seed: int, height: int = 5, width: int = 6,
                            channels: int = 3, hidden: int = 4,
                            step: float = 1e-6) -> float:
    """Max relative error of all analytic adjoints vs central differences."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(0.0, float(width), 0.0, float(height), 1.0, 1.0)
    shape = (height, width)
    bev = FeatureMap(spec, rng.normal(0, 1, shape + (channels,)))
    prior = FeatureMap(spec, rng.normal(0, 1, shape + (channels,)))
    off = OffsetField(spec, _safe_offsets(rng, shape))
    op, fp = random_params(seed + 1, channels, hidden)
    logits = ConfidenceLogits(spec, rng.normal(0, 1, shape),
                              rng.normal(0, 1, shape))
    up_fm = rng.normal(0, 1, shape + (channels,))
    up_off = rng.normal(0, 1, shape + (2,))
    up_l = rng.normal(0, 1, shape)
    errs = []

    # warp
    d_prior, d_off = warp_grad(prior, off, up_fm)
    errs.append(_rel_err(d_prior, _fd_grad(
        lambda x: float((warp(FeatureMap(spec, x), off).data * up_fm).sum()),
        prior.data.copy(), step)))
    errs.append(_rel_err(d_off, _fd_grad(
        lambda x: float((warp(prior, OffsetField(spec, x)).data * up_fm).sum()),
        off.offsets.copy(), step)))

    # confidence_fuse
    d_bev, d_pr, d_la, d_lb = confidence_fuse_grad(bev, prior, logits, up_fm)
    errs.append(_rel_err(d_bev, _fd_grad(
        lambda x: float((confidence_fuse(FeatureMap(spec, x), prior, logits).data
                         * up_fm).sum()), bev.data.copy(), step)))
    errs.append(_rel_err(d_la, _fd_grad(
        lambda x: float((confidence_fuse(
            bev, prior, ConfidenceLogits(spec, x, logits.lambda_b)).data
            * up_fm).sum()), logits.lambda_a.copy(), step)))

    # compute_logits
    d_bev2, d_pr2, d_w, d_b = compute_logits_grad(bev, prior, fp, up_l, -up_l)

    def logit_loss(bev_data=None, weight=None):
        b = FeatureMap(spec, bev_data) if bev_data is not None else bev
        p = FusionParams(weight, fp.bias) if weight is not None else fp
        lg = compute_logits(b, prior, p)
        return float((lg.lambda_a * up_l).sum() - (lg.lambda_b * up_l).sum())

    errs.append(_rel_err(d_bev2, _fd_grad(
        lambda x: logit_loss(bev_data=x), bev.data.copy(), step)))
    errs.append(_rel_err(d_w, _fd_grad(
        lambda x: logit_loss(weight=x), fp.weight.copy(), step)))

    # predict_offsets
    d_bev3, d_pr3, d_op = predict_offsets_grad(bev, prior, op, up_off)

    def off_loss(bev_data=None, w1=None):
        b = FeatureMap(spec, bev_data) if bev_data is not None else bev
        p = OffsetParams(w1 if w1 is not None else op.w1, op.b1, op.w2, op.b2)
        return float((predict_offsets(b, prior, p).offsets * up_off).sum())

    errs.append(_rel_err(d_bev3, _fd_grad(
        lambda x: off_loss(bev_data=x), bev.data.copy(), step)))
    errs.append(_rel_err(d_op.w1, _fd_grad(
        lambda x: off_loss(w1=x), op.w1.copy(), step)))

    return max(errs)
