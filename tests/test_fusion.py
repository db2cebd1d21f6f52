import inspect
import json
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from trajprior import cli, fusion, tensorio
from trajprior.core import ContractError, FeatureMap, GridSpec, Pcg64
from trajprior.fusion import (compute_logits, compute_logits_grad, confidence_fuse,
                              confidence_fuse_grad, confidence_weights,
                              finite_difference_check, fuse_pipeline,
                              predict_offsets, predict_offsets_grad,
                              random_params, warp, warp_grad)

from oracles import (conv3x3_grad_taps, conv3x3_sliding_window, conv3x3_taps,
                     fd_grad_by_coordinate, gather_by_fancy_index, warp_clip_and_mask,
                     warp_grad_clip_and_mask)

SHAPE = (6, 7)


def small_spec(h=6, w=7):
    return GridSpec(0.0, float(w), 0.0, float(h), 1.0, 1.0)


def random_fm(rng, spec, c=3):
    return FeatureMap(spec, rng.normal(0, 1, spec.shape + (c,)))


def feats(rng, shape=SHAPE, c=3):
    return rng.normal(0, 1, shape + (c,))


def concat(a, b):
    return np.concatenate([a, b], axis=-1)


def zero_params(channels, hidden=4):
    return {name: np.zeros(shape)
            for name, shape in fusion._param_shapes(channels, hidden).items()}


class TestWarp:
    def test_zero_offsets_identity_bit_exact(self):
        rng = np.random.default_rng(3)
        prior = feats(rng)
        assert np.array_equal(warp(prior, np.zeros(SHAPE + (2,))), prior)

    def test_integer_shift(self):
        rng = np.random.default_rng(4)
        prior = feats(rng)
        off = np.stack([np.ones(SHAPE), np.zeros(SHAPE)], axis=2)
        out = warp(prior, off)
        # interior: output(h, w) = prior(h+1, w); last row samples outside -> 0
        assert np.array_equal(out[:-1], prior[1:])
        assert np.all(out[-1] == 0.0)

    @pytest.mark.parametrize("offset", [1e100, -1e19])
    def test_offsets_beyond_int64_sample_nothing(self, offset):
        data, off = np.ones((4, 5, 2)), np.full((4, 5, 2), offset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = warp(data, off)
            d_data, d_off = warp_grad(data, off, np.ones_like(data))
        assert np.all(out == 0.0)
        assert not d_data.any() and not d_off.any()

    def test_affine_reproduction(self):
        h, w = 8, 9
        field = (2.0 * np.arange(h)[:, None] - 0.7 * np.arange(w)[None, :] + 1.5)
        off = np.stack([np.full((h, w), 0.5), np.full((h, w), 0.25)], axis=2)
        out = warp(field[:, :, None], off)[:, :, 0]
        want = (2.0 * (np.arange(h)[:, None] + 0.5)
                - 0.7 * (np.arange(w)[None, :] + 0.25) + 1.5)
        # interior only: border samples touch zero padding
        assert np.allclose(out[:-1, :-1], want[:-1, :-1], atol=1e-12)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(5)
        prior = feats(rng, c=1)
        out = warp(prior, rng.uniform(-2, 2, SHAPE + (2,)))
        lo = min(prior.min(), 0.0)
        hi = max(prior.max(), 0.0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestWarpGrad:
    def test_zero_upstream(self):
        rng = np.random.default_rng(6)
        prior = feats(rng)
        off = rng.uniform(-1, 1, SHAPE + (2,))
        d_prior, d_off = warp_grad(prior, off, np.zeros_like(prior))
        assert not d_prior.any() and not d_off.any()

    def test_identity_warp_adjoint(self):
        rng = np.random.default_rng(7)
        prior = feats(rng)
        up = rng.normal(0, 1, prior.shape)
        d_prior, _ = warp_grad(prior, np.zeros(SHAPE + (2,)), up)
        assert np.allclose(d_prior, up)


# (data batch, offset batch): stacked data, stacked offsets, broadcast
# leading axes
WARP_BATCHES = [((3,), ()), ((), (3,)), ((2, 1), (1, 3))]


def bits(a):
    """a's float64 bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def warp_offsets(rng, shape, kind):
    """Offsets uniform in [-3, 3) ("near"), also beyond the grid on every side
    ("clipped"), or in whole or half cells ("integer", "half")."""
    if kind == "integer":
        return rng.integers(-4, 5, shape).astype(np.float64)
    if kind == "half":
        return rng.integers(-8, 9, shape) / 2.0
    off = rng.uniform(-3, 3, shape)
    if kind == "clipped":
        off[..., ::2, :, 0] = 1e100
        off[..., 1::3, 1] = -1e100
    return off


class TestGather:
    """`warp` and `warp_grad` read every neighbour from one zero-padded grid.
    They must equal, bit for bit and signed zeros included, the forms that
    clipped each neighbour onto the grid, read it by fancy index and masked
    it out (`oracles.warp_clip_and_mask`)."""

    @pytest.mark.parametrize("batches", WARP_BATCHES, ids=["data", "off", "both"])
    def test_gather_matches_fancy_index(self, batches):
        """At whole-cell offsets the warp is a gather: the shifted cell, or
        +0.0 off the grid."""
        rng = np.random.default_rng(31)
        data = rng.normal(0, 1, batches[0] + SHAPE + (3,))
        shift = rng.integers(-3, 4, batches[1] + SHAPE + (2,))
        rows = np.arange(SHAPE[0])[:, None] + shift[..., 0]
        cols = np.arange(SHAPE[1]) + shift[..., 1]
        inside = (rows >= 0) & (rows < SHAPE[0]) & (cols >= 0) & (cols < SHAPE[1])
        cells = gather_by_fancy_index(data, np.clip(rows, 0, SHAPE[0] - 1),
                                      np.clip(cols, 0, SHAPE[1] - 1))
        want = np.where(inside[..., None], cells, 0.0)
        assert np.array_equal(bits(warp(data, shift.astype(np.float64))), bits(want))

    @pytest.mark.parametrize("kind", ["near", "clipped", "integer", "half"])
    @pytest.mark.parametrize("batches", WARP_BATCHES, ids=["data", "off", "both"])
    def test_warp_matches_fancy_index(self, batches, kind):
        rng = np.random.default_rng(32)
        data = rng.normal(0, 1, batches[0] + SHAPE + (3,))
        data[..., 1::3, ::2, 0] = -0.0  # a sum of signed zeros keeps its sign
        off = warp_offsets(rng, batches[1] + SHAPE + (2,), kind)
        assert np.array_equal(bits(warp(data, off)), bits(warp_clip_and_mask(data, off)))
        # the adjoint takes one instance: the first of each stack
        one = (data[(0,) * len(batches[0])], off[(0,) * len(batches[1])],
               rng.normal(0, 1, SHAPE + (3,)))
        for got, want in zip(warp_grad(*one), warp_grad_clip_and_mask(*one)):
            assert np.array_equal(bits(got), bits(want))


class TestConfidenceWeights:
    def test_equal_logits_half(self):
        alpha, beta = confidence_weights(np.full(SHAPE, 3.7), np.full(SHAPE, 3.7))
        assert np.all(alpha == 0.5) and np.all(beta == 0.5)

    def test_extreme_logits_no_overflow(self):
        alpha, beta = confidence_weights(np.full(SHAPE, 1000.0), np.zeros(SHAPE))
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
        assert np.all(alpha == pytest.approx(1.0))

    def test_scalar_value(self):
        alpha, _ = confidence_weights(np.array([[1.0]]), np.array([[0.0]]))
        assert alpha[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(8)
        la = rng.uniform(-50, 50, SHAPE)
        lb = rng.uniform(-50, 50, SHAPE)
        a1, b1 = confidence_weights(la, lb)
        assert np.all(np.abs(a1 + b1 - 1.0) <= np.spacing(1.0))
        a2, _ = confidence_weights(la + 17.5, lb + 17.5)
        assert np.allclose(a1, a2, atol=1e-12)


class TestConfidenceFuse:
    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(9)
        bev = feats(rng)
        out = confidence_fuse(bev, bev, rng.normal(0, 5, SHAPE),
                              rng.normal(0, 5, SHAPE))
        assert np.allclose(out, bev, atol=1e-14)

    def test_alpha_one_limit(self):
        rng = np.random.default_rng(10)
        bev, prior = feats(rng), feats(rng)
        out = confidence_fuse(bev, prior, np.full(SHAPE, 500.0), np.zeros(SHAPE))
        assert np.allclose(out, bev)

    def test_midpoint(self):
        out = confidence_fuse(np.full((1, 1, 1), 0.2), np.full((1, 1, 1), 0.6),
                              np.zeros((1, 1)), np.zeros((1, 1)))
        assert out[0, 0, 0] == pytest.approx(0.4)

    def test_cellwise_between_inputs(self):
        rng = np.random.default_rng(11)
        bev, prior = feats(rng), feats(rng)
        out = confidence_fuse(bev, prior, rng.normal(0, 3, SHAPE),
                              rng.normal(0, 3, SHAPE))
        lo = np.minimum(bev, prior)
        hi = np.maximum(bev, prior)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestComputeLogits:
    def test_zero_params(self):
        rng = np.random.default_rng(12)
        logits = compute_logits(feats(rng), feats(rng), np.zeros((2, 6)), np.zeros(2))
        assert logits.shape == SHAPE + (2,) and not logits.any()
        alpha, _ = confidence_weights(logits[..., 0], logits[..., 1])
        assert np.all(alpha == 0.5)

    def test_selector_weights(self):
        rng = np.random.default_rng(13)
        bev, prior = feats(rng), feats(rng)
        w = np.zeros((2, 6))
        w[0, 1] = 1.0  # lambda_a = bev channel 1
        w[1, 5] = 1.0  # lambda_b = prior channel 2
        logits = compute_logits(bev, prior, w, np.zeros(2))
        assert np.array_equal(logits[..., 0], bev[:, :, 1])
        assert np.array_equal(logits[..., 1], prior[:, :, 2])

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(14)
        bev, prior = feats(rng, (4, 5), 2), feats(rng, (4, 5), 2)
        x = concat(bev, prior)
        weight, bias = rng.normal(0, 1, (2, 4)), rng.normal(0, 1, 2)
        logits = compute_logits(bev, prior, weight, bias)
        for r in range(4):
            for c in range(5):
                for k in range(2):
                    assert logits[r, c, k] == pytest.approx(
                        float(weight[k] @ x[r, c] + bias[k]))


class TestPredictOffsets:
    def test_zero_params_zero_offsets(self):
        rng = np.random.default_rng(16)
        bev, prior = feats(rng), feats(rng)
        p = zero_params(3)
        off = predict_offsets(bev, prior, p["w1"], p["b1"], p["w2"], p["b2"])
        assert off.shape == SHAPE + (2,) and not off.any()
        assert np.array_equal(warp(prior, off), prior)

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(17)
        bev, prior = feats(rng, (8, 8), 2), feats(rng, (8, 8), 2)
        p = random_params(0, 2, hidden=3)
        params = (p["w1"], p["b1"], p["w2"], p["b2"])
        out = predict_offsets(bev, prior, *params)
        shift = lambda d: np.roll(d, 1, axis=0) * (np.arange(8) > 0)[:, None, None]
        out_s = predict_offsets(shift(bev), shift(prior), *params)
        # rows whose 5x5 receptive field avoids both borders in both images
        assert np.allclose(out_s[3:6], out[2:5], atol=1e-12)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(18)
        bev, prior = feats(rng, (4, 5), 2), feats(rng, (4, 5), 2)
        x = concat(bev, prior)
        p = random_params(7, 2, hidden=3)
        got = predict_offsets(bev, prior, p["w1"], p["b1"], p["w2"], p["b2"])
        h1 = np.tanh(conv3x3_sliding_window(x, p["w1"], p["b1"]))
        want = conv3x3_sliding_window(h1, p["w2"], p["b2"])
        assert np.allclose(got, want, atol=1e-12)


def rel_diff(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# (H, W, C, O): single rows and columns, one channel, odd sizes
CONV_SHAPES = [(1, 1, 1, 1), (1, 5, 2, 3), (4, 1, 3, 2), (5, 7, 1, 4),
               (3, 4, 6, 8), (7, 3, 4, 2)]


def conv_operands(rng, h, w, c, o, x_batch=(), w_batch=(), b_batch=()):
    return (rng.normal(0, 1, x_batch + (h, w, c)),
            rng.normal(0, 1, w_batch + (o, c, 3, 3)),
            rng.normal(0, 1, b_batch + (o,)))


class TestConv3x3:
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_forward_matches_taps_oracle(self, shape):
        x, w, b = conv_operands(np.random.default_rng(26), *shape)
        got = fusion._conv3x3(x, w, b)
        assert got.shape == shape[:2] + (shape[3],)
        assert rel_diff(got, conv3x3_taps(x, w, b)) < 1e-12

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_adjoint_matches_taps_oracle(self, shape):
        rng = np.random.default_rng(27)
        x, w, _ = conv_operands(rng, *shape)
        d_out = rng.normal(0, 1, shape[:2] + (shape[3],))
        got = fusion._conv3x3_grad(x, w, d_out)
        want = conv3x3_grad_taps(x, w, d_out)
        for g, wnt in zip(got, want):
            assert g.shape == wnt.shape and rel_diff(g, wnt) < 1e-12

    @pytest.mark.parametrize("batches", [((3,), (), ()), ((), (3,), ()),
                                         ((), (), (3,)), ((2, 3), (3,), (1, 3))],
                             ids=["x", "w", "b", "all"])
    def test_stacked_matches_taps_oracle(self, batches):
        x, w, b = conv_operands(np.random.default_rng(28), 4, 5, 2, 3, *batches)
        got = fusion._conv3x3(x, w, b)
        want = conv3x3_taps(x, w, b)
        assert got.shape == want.shape and rel_diff(got, want) < 1e-12

    def test_stacked_equals_per_row_calls(self):
        # the batched finite-difference check relies on this bit for bit
        x, w, b = conv_operands(np.random.default_rng(29), 5, 6, 8, 4,
                                x_batch=(7,), w_batch=(7,))
        by_x = fusion._conv3x3(x, w[0], b)
        by_w = fusion._conv3x3(x[0], w, b)
        for k in range(7):
            assert np.array_equal(by_x[k], fusion._conv3x3(x[k], w[0], b))
            assert np.array_equal(by_w[k], fusion._conv3x3(x[0], w[k], b))


def malformed_params():
    """(params, error pattern) for two C = 2 maps: each of the six arrays
    non-finite, or of a wrong shape, or missing; hidden = 0; w1 for 2C + 1
    input channels; and offset and logit layers built for different channel
    counts."""
    ok = random_params(0, 2, hidden=4)
    cases = []
    for name, arr in ok.items():
        for bad in ("nan", "inf", "-inf"):
            value = arr.copy()
            value.flat[-1] = float(bad)
            cases.append(pytest.param({**ok, name: value}, f"^{name} must be finite$",
                                      id=f"{bad}-{name}"))
        for kind, shape in (("longer", arr.shape[:-1] + (arr.shape[-1] + 1,)),
                            ("extra-axis", arr.shape + (1,))):
            cases.append(pytest.param({**ok, name: np.zeros(shape)},
                                      re.escape(f"{name} {shape}"), id=f"{kind}-{name}"))
        cases.append(pytest.param({k: v for k, v in ok.items() if k != name},
                                  "params need the arrays w1, b1, w2, b2, weight, bias",
                                  id=f"missing-{name}"))
    offsets_5 = {**random_params(0, 5), "weight": ok["weight"], "bias": ok["bias"]}
    logits_3 = {**ok, "weight": random_params(0, 3)["weight"]}
    for case, params in (("hidden-0", zero_params(2, hidden=0)),
                         ("odd-channels-w1", {**ok, "w1": np.zeros((4, 5, 3, 3))}),
                         ("offsets-for-C5", offsets_5), ("logits-for-C3", logits_3)):
        shapes = ", ".join(f"{n} {a.shape}" for n, a in params.items())
        cases.append(pytest.param(params, "C=2 channels.*" + re.escape(shapes) + "$",
                                  id=case))
    return cases


class TestParams:
    @pytest.mark.parametrize("params,message", malformed_params())
    def test_fuse_pipeline_rejects_malformed_params(self, params, message):
        rng = np.random.default_rng(15)
        spec = small_spec()
        with pytest.raises(ContractError, match=message):
            fuse_pipeline(random_fm(rng, spec, 2), random_fm(rng, spec, 2), params)

    @pytest.mark.parametrize("channels,hidden", [(0, 8), (2, 0)])
    def test_empty_dimension_rejected(self, channels, hidden):
        with pytest.raises(ContractError):
            random_params(0, channels, hidden)


class TestGradients:
    def test_finite_difference_check_small(self):
        for seed in range(5):
            assert max(finite_difference_check(seed).values()) < 1e-5

    def test_bilinear_weight_sum_interior(self):
        rng = np.random.default_rng(20)
        out = warp(np.ones(SHAPE + (1,)), rng.uniform(0.05, 0.95, SHAPE + (2,)))
        # in-bounds samples: the four weights sum to 1 exactly
        assert np.allclose(out[:-1, :-1, 0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rel_err_is_largest_float(self, bad):
        # a gate cannot pass it, and the CLI's strict JSON sidecar can hold it
        analytic = np.array([1.0, bad])
        assert fusion._rel_err(analytic, np.ones(2)) == sys.float_info.max
        assert fusion._rel_err(np.ones(2), analytic) == sys.float_info.max

    def test_every_adjoint_output_reported(self):
        assert sorted(finite_difference_check(0)) == sorted(ADJOINT_OUTPUTS)

    def test_wrong_adjoint_is_named(self, monkeypatch):
        monkeypatch.setattr(fusion, "confidence_fuse_grad", wrong_d_lb)
        errs = finite_difference_check(0)
        assert errs["fuse.d_lb"] > 1e-4
        assert max(errs, key=errs.get) == "fuse.d_lb"


ADJOINT_OUTPUTS = [
    "warp.d_prior", "warp.d_off",
    "fuse.d_bev", "fuse.d_prior", "fuse.d_la", "fuse.d_lb",
    "logits.d_bev", "logits.d_prior", "logits.d_weight", "logits.d_bias",
    "offsets.d_bev", "offsets.d_prior", "offsets.d_w1", "offsets.d_b1",
    "offsets.d_w2", "offsets.d_b2",
]


def test_adjoint_returns_one_gradient_per_stage_argument():
    """Each adjoint takes its stage's arguments plus `upstream` and returns one
    gradient of each argument's shape, so the check's rows cover them all."""
    inst = fusion._grad_check_instance(0)
    arrays = {"bev": inst["bev"], "prior": inst["prior"], "data": inst["prior"],
              "off": inst["off"], "la": inst["la"], "lb": inst["lb"], **inst["params"]}
    for stage, adjoint in [(warp, warp_grad), (confidence_fuse, confidence_fuse_grad),
                           (compute_logits, compute_logits_grad),
                           (predict_offsets, predict_offsets_grad)]:
        names = list(inspect.signature(stage).parameters)
        assert list(inspect.signature(adjoint).parameters) == names + ["upstream"]
        args = [arrays[name] for name in names]
        upstream = np.ones_like(stage(*args))
        grads = adjoint(*args, upstream)
        assert [g.shape for g in grads] == [a.shape for a in args], stage.__name__
    assert [row[0] for row in fusion._grad_check_table(inst)] == ADJOINT_OUTPUTS


def wrong_d_lb(bev, prior, la, lb, upstream):
    """confidence_fuse_grad with the sign of d_lambda_b flipped."""
    d_bev, d_prior, d_la, _ = confidence_fuse_grad(bev, prior, la, lb, upstream)
    return d_bev, d_prior, d_la, d_la


def nan_d_lb(bev, prior, la, lb, upstream):
    d_bev, d_prior, d_la, _ = confidence_fuse_grad(bev, prior, la, lb, upstream)
    return d_bev, d_prior, d_la, np.full_like(d_la, np.nan)


def conv_grad_without_last_tap(x, w, d_out, _right=fusion._conv3x3_grad):
    """_conv3x3_grad leaving d_w's tap (2, 2) at zero."""
    d_x, d_w, d_b = _right(x, w, d_out)
    d_w[:, :, 2, 2] = 0.0
    return d_x, d_w, d_b


def offsets_grad_without_tanh_prime(bev, prior, w1, b1, w2, b2, upstream):
    x = fusion._concat(bev, prior)
    a1 = np.tanh(fusion._conv3x3(x, w1, b1))
    d_a1, d_w2, d_b2 = fusion._conv3x3_grad(a1, w2, upstream)
    d_x, d_w1, d_b1 = fusion._conv3x3_grad(x, w1, d_a1)
    return (*np.split(d_x, [bev.shape[-1]], axis=-1), d_w1, d_b1, d_w2, d_b2)


def warp_grad_row_col_swapped(data, off, upstream):
    d_data, d_off = warp_grad(data, off, upstream)
    return d_data, d_off[..., ::-1]


# structural bug -> (module attribute, wrong function, the rows it breaks)
WRONG_ADJOINTS = {
    "d_lb-sign": ("confidence_fuse_grad", wrong_d_lb, {"fuse.d_lb"}),
    "d_lb-nan": ("confidence_fuse_grad", nan_d_lb, {"fuse.d_lb"}),
    "conv-tap-2-2": ("_conv3x3_grad", conv_grad_without_last_tap,
                     {"offsets.d_w1", "offsets.d_w2"}),
    "no-tanh-prime": ("predict_offsets_grad", offsets_grad_without_tanh_prime,
                      {"offsets.d_bev", "offsets.d_prior", "offsets.d_w1",
                       "offsets.d_b1"}),
    "d_off-swapped": ("warp_grad", warp_grad_row_col_swapped, {"warp.d_off"}),
}


@pytest.mark.parametrize("attr,wrong,rows", WRONG_ADJOINTS.values(),
                         ids=WRONG_ADJOINTS.keys())
def test_wrong_adjoint_fails_exactly_its_rows(attr, wrong, rows, monkeypatch,
                                              tmp_path, capsys):
    """Directional checking still catches structural bugs: each pushes the
    rows it breaks, and only those, above the test gate on every seed, and
    the CLI exits 3 naming one of them."""
    monkeypatch.setattr(fusion, attr, wrong)
    for seed in range(5):
        errs = finite_difference_check(seed)
        assert {name for name, err in errs.items() if err > 1e-5} == rows, seed
    spec = small_spec()
    tensorio.save_feature_map(tmp_path / "map.tp",
                              random_fm(np.random.default_rng(31), spec, 2))
    tensorio.save_params(tmp_path / "params.tp", random_params(0, 2))
    assert cli.main(["fuse", "--bev", str(tmp_path / "map.tp"),
                     "--prior", str(tmp_path / "map.tp"),
                     "--params", str(tmp_path / "params.tp"),
                     "--out", str(tmp_path / "fused.tp"), "--check-grads"]) == 3
    worst = re.search(r"gradient check failed: (\S+)", capsys.readouterr().err)[1]
    assert worst in rows
    sidecar = json.loads((tmp_path / "fused.tp.json").read_text())
    assert min(sidecar["grad_check_rel_err"][row] for row in rows) > 1e-4


def scalar_losses(inst):
    """Eight of the check's losses, one point at a time through the public
    stage functions."""
    bev, prior, off, la, lb = (inst[k] for k in ("bev", "prior", "off", "la", "lb"))
    p = inst["params"]
    up_fm, up_off, up_l = inst["up_fm"], inst["up_off"], inst["up_l"]

    def total(out, up):
        return float((out * up).sum())

    def logit_loss(bev_s=bev, weight=p["weight"]):
        return total(compute_logits(bev_s, prior, weight, p["bias"]),
                     np.stack([up_l, -up_l], axis=-1))

    def off_loss(bev_s=bev, w1=p["w1"]):
        return total(predict_offsets(bev_s, prior, w1, p["b1"], p["w2"], p["b2"]), up_off)

    return {
        "warp.d_prior": lambda x: total(warp(x, off), up_fm),
        "warp.d_off": lambda x: total(warp(prior, x), up_fm),
        "fuse.d_bev": lambda x: total(confidence_fuse(x, prior, la, lb), up_fm),
        "fuse.d_la": lambda x: total(confidence_fuse(bev, prior, x, lb), up_fm),
        "logits.d_bev": lambda x: logit_loss(bev_s=x),
        "logits.d_weight": lambda x: logit_loss(weight=x),
        "offsets.d_bev": lambda x: off_loss(bev_s=x),
        "offsets.d_w1": lambda x: off_loss(w1=x),
    }


class TestBatchedFiniteDifferences:
    def test_stacked_losses_bit_identical_to_per_direction_calls(self):
        step = 1e-6
        for seed in range(20):
            inst = fusion._grad_check_instance(seed)
            rows = {name: (f, x) for name, _, f, x in fusion._grad_check_table(inst)}
            for name, loss in scalar_losses(inst).items():
                f, x = rows[name]
                v, stacked = fusion._directional_fd(f, x, Pcg64(seed), step)
                want = [(loss((x.ravel() + step * vk).reshape(x.shape))
                         - loss((x.ravel() + step * -vk).reshape(x.shape))) / (2.0 * step)
                        for vk in v]
                assert np.array_equal(stacked, want), (seed, name)
                assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_coordinate_oracle_passes_the_same_gate(self):
        # the coordinate-wise check the directional one replaced, as a reference
        for seed in range(5):
            inst = fusion._grad_check_instance(seed)
            for name, analytic, f, x in fusion._grad_check_table(inst):
                assert fusion._rel_err(analytic, fd_grad_by_coordinate(f, x, 1e-6)) \
                    < 1e-5, (seed, name)

    def test_peak_memory_bounded(self):
        # every stack is 2 * _DIRECTIONS = 16 rows; the largest, w1's, holds
        # 16x216 values (27 KiB), and the whole check peaks at about 0.2 MiB
        tracemalloc.start()
        try:
            errs = finite_difference_check(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(errs.values()) < 1e-5
        assert peak < 2 ** 19


STAGES = ("predict_offsets", "warp", "compute_logits", "confidence_fuse")


def wrap_stages(monkeypatch):
    """Wrap the four stages on the module; returns the list of (stage, output
    shape) that each call appends to."""
    calls = []
    for name in STAGES:
        def recording(*args, _name=name, _stage=getattr(fusion, name)):
            out = _stage(*args)
            calls.append((_name, out.shape))
            return out
        monkeypatch.setattr(fusion, name, recording)
    return calls


def test_stages_reached_through_module_attributes(monkeypatch):
    """fuse_pipeline and the gradient check look every stage up on the module
    at call time, so a wrapper installed there (a tracer) sees every call."""
    calls = wrap_stages(monkeypatch)
    rng = np.random.default_rng(23)
    spec = small_spec()
    fuse_pipeline(random_fm(rng, spec, 2), random_fm(rng, spec, 2),
                  random_params(0, 2))
    assert sorted(name for name, _ in calls) == sorted(STAGES)
    calls.clear()
    finite_difference_check(0)
    # one stacked call per checked output at this size
    assert {name: sum(1 for n, _ in calls if n == name) for name in STAGES} == \
        {"predict_offsets": 6, "warp": 2, "compute_logits": 4, "confidence_fuse": 4}


def test_check_stacks_two_rows_per_direction(monkeypatch):
    """The check's cost does not grow with an argument's size: every stage
    call it makes evaluates one stack of 2 * _DIRECTIONS points."""
    calls = wrap_stages(monkeypatch)
    finite_difference_check(0)
    assert len(calls) == 16
    assert {(len(shape), shape[0]) for _, shape in calls} == {(4, 2 * fusion._DIRECTIONS)}


class TestPipeline:
    def test_zero_params_midpoint(self):
        rng = np.random.default_rng(22)
        spec = small_spec()
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        fused, stats = fuse_pipeline(bev, prior, zero_params(2))
        assert np.allclose(fused.data, 0.5 * (bev.data + prior.data))
        assert stats["mean_alpha"] == pytest.approx(0.5)

    def test_matches_stage_composition(self):
        rng = np.random.default_rng(24)
        spec = small_spec()
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        p = random_params(3, 2)
        fused, stats = fuse_pipeline(bev, prior, p)
        off = predict_offsets(bev.data, prior.data, p["w1"], p["b1"], p["w2"], p["b2"])
        aligned = warp(prior.data, off)
        lg = compute_logits(bev.data, aligned, p["weight"], p["bias"])
        assert np.array_equal(fused.data, confidence_fuse(bev.data, aligned,
                                                          lg[..., 0], lg[..., 1]))
        assert stats["offset_abs_max"] == np.abs(off).max()

    def test_peak_memory_at_cli_shape(self):
        # the CLI's default grid, C=2 and hidden 8; an im2col rewrite that
        # builds 3x3 patch tensors peaks above this
        rng = np.random.default_rng(30)
        spec = GridSpec()
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        params = random_params(0, 2, 8)
        tracemalloc.start()
        try:
            fuse_pipeline(bev, prior, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        # a different grid, then the same grid with different channels
        for prior_spec, prior_c in ((small_spec(6, 8), 2), (small_spec(), 3)):
            with pytest.raises(ContractError, match="feature maps differ"):
                fuse_pipeline(random_fm(rng, small_spec(), 2),
                              random_fm(rng, prior_spec, prior_c),
                              random_params(0, 2))

    def test_nonfinite_offsets_rejected(self):
        spec = small_spec()
        ones = FeatureMap(spec, np.ones(spec.shape + (1,)))
        logits = random_params(0, 1)
        huge = {**zero_params(1), "b1": np.ones(4), "w2": np.full((2, 4, 3, 3), 1e308),
                "weight": logits["weight"], "bias": logits["bias"]}
        with pytest.raises(ContractError, match="offsets must be finite"):
            fuse_pipeline(ones, ones, huge)

    def test_nonfinite_logits_rejected(self):
        spec = small_spec()
        ones = FeatureMap(spec, np.ones(spec.shape + (1,)))
        huge = {**zero_params(1), "weight": np.full((2, 2), 1e308)}
        with pytest.raises(ContractError, match="logits must be finite"):
            fuse_pipeline(ones, ones, huge)
