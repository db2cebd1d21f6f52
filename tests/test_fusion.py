import tracemalloc

import numpy as np
import pytest

from trajprior import fusion
from trajprior.core import ContractError, FeatureMap, GridSpec
from trajprior.fusion import (ConfidenceLogits, FusionParams, OffsetField,
                              OffsetParams, add_prior, compute_logits,
                              compute_logits_grad, confidence_fuse,
                              confidence_fuse_grad, confidence_weights,
                              finite_difference_check, fuse_pipeline,
                              predict_offsets, predict_offsets_grad,
                              random_params, warp, warp_grad)

from oracles import conv3x3_sliding_window, fd_grad_loop


def small_spec(h=6, w=7):
    return GridSpec(0.0, float(w), 0.0, float(h), 1.0, 1.0)


def random_fm(rng, spec, c=3):
    return FeatureMap(spec, rng.normal(0, 1, spec.shape + (c,)))


class TestAddPrior:
    def test_zero_prior_identity(self):
        rng = np.random.default_rng(0)
        spec = small_spec()
        bev = random_fm(rng, spec)
        zero = FeatureMap(spec, np.zeros(spec.shape + (3,)))
        assert np.array_equal(add_prior(bev, zero).data, bev.data)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        spec = small_spec()
        a, b = random_fm(rng, spec), random_fm(rng, spec)
        assert np.array_equal(add_prior(a, b).data, add_prior(b, a).data)

    def test_single_cell_value(self):
        spec = GridSpec(0, 1, 0, 1, 1, 1)
        a = FeatureMap(spec, np.full((1, 1, 1), 0.25))
        b = FeatureMap(spec, np.full((1, 1, 1), 0.5))
        assert add_prior(a, b).data[0, 0, 0] == 0.75

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ContractError):
            add_prior(random_fm(rng, small_spec(), 2),
                      random_fm(rng, small_spec(), 3))


class TestWarp:
    def test_zero_offsets_identity_bit_exact(self):
        rng = np.random.default_rng(3)
        spec = small_spec()
        prior = random_fm(rng, spec)
        off = OffsetField(spec, np.zeros(spec.shape + (2,)))
        assert np.array_equal(warp(prior, off).data, prior.data)

    def test_integer_shift(self):
        rng = np.random.default_rng(4)
        spec = small_spec()
        prior = random_fm(rng, spec)
        off = OffsetField(spec, np.stack(
            [np.ones(spec.shape), np.zeros(spec.shape)], axis=2))
        out = warp(prior, off).data
        # interior: output(h, w) = prior(h+1, w); last row samples outside -> 0
        assert np.array_equal(out[:-1], prior.data[1:])
        assert np.all(out[-1] == 0.0)

    def test_affine_reproduction(self):
        spec = small_spec(8, 9)
        h, w = spec.shape
        field = (2.0 * np.arange(h)[:, None] - 0.7 * np.arange(w)[None, :] + 1.5)
        prior = FeatureMap(spec, field[:, :, None])
        off = OffsetField(spec, np.stack(
            [np.full(spec.shape, 0.5), np.full(spec.shape, 0.25)], axis=2))
        out = warp(prior, off).data[:, :, 0]
        want = (2.0 * (np.arange(h)[:, None] + 0.5)
                - 0.7 * (np.arange(w)[None, :] + 0.25) + 1.5)
        # interior only: border samples touch zero padding
        assert np.allclose(out[:-1, :-1], want[:-1, :-1], atol=1e-12)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(5)
        spec = small_spec()
        prior = random_fm(rng, spec, 1)
        off = OffsetField(spec, rng.uniform(-2, 2, spec.shape + (2,)))
        out = warp(prior, off).data
        lo = min(prior.data.min(), 0.0)
        hi = max(prior.data.max(), 0.0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestWarpGrad:
    def test_zero_upstream(self):
        rng = np.random.default_rng(6)
        spec = small_spec()
        prior = random_fm(rng, spec)
        off = OffsetField(spec, rng.uniform(-1, 1, spec.shape + (2,)))
        d_prior, d_off = warp_grad(prior, off, np.zeros_like(prior.data))
        assert not d_prior.any() and not d_off.any()

    def test_identity_warp_adjoint(self):
        rng = np.random.default_rng(7)
        spec = small_spec()
        prior = random_fm(rng, spec)
        off = OffsetField(spec, np.zeros(spec.shape + (2,)))
        up = rng.normal(0, 1, prior.data.shape)
        d_prior, _ = warp_grad(prior, off, up)
        assert np.allclose(d_prior, up)


class TestConfidenceWeights:
    def test_equal_logits_half(self):
        spec = small_spec()
        logits = ConfidenceLogits(spec, np.full(spec.shape, 3.7),
                                  np.full(spec.shape, 3.7))
        alpha, beta = confidence_weights(logits)
        assert np.all(alpha == 0.5) and np.all(beta == 0.5)

    def test_extreme_logits_no_overflow(self):
        spec = small_spec()
        logits = ConfidenceLogits(spec, np.full(spec.shape, 1000.0),
                                  np.zeros(spec.shape))
        alpha, beta = confidence_weights(logits)
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
        assert np.all(alpha == pytest.approx(1.0))

    def test_scalar_value(self):
        spec = GridSpec(0, 1, 0, 1, 1, 1)
        logits = ConfidenceLogits(spec, np.array([[1.0]]), np.array([[0.0]]))
        alpha, _ = confidence_weights(logits)
        assert alpha[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(8)
        spec = small_spec()
        la = rng.uniform(-50, 50, spec.shape)
        lb = rng.uniform(-50, 50, spec.shape)
        a1, b1 = confidence_weights(ConfidenceLogits(spec, la, lb))
        assert np.all(np.abs(a1 + b1 - 1.0) <= np.spacing(1.0))
        a2, _ = confidence_weights(ConfidenceLogits(spec, la + 17.5, lb + 17.5))
        assert np.allclose(a1, a2, atol=1e-12)


class TestConfidenceFuse:
    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(9)
        spec = small_spec()
        bev = random_fm(rng, spec)
        logits = ConfidenceLogits(spec, rng.normal(0, 5, spec.shape),
                                  rng.normal(0, 5, spec.shape))
        out = confidence_fuse(bev, bev, logits)
        assert np.allclose(out.data, bev.data, atol=1e-14)

    def test_alpha_one_limit(self):
        rng = np.random.default_rng(10)
        spec = small_spec()
        bev, prior = random_fm(rng, spec), random_fm(rng, spec)
        logits = ConfidenceLogits(spec, np.full(spec.shape, 500.0),
                                  np.zeros(spec.shape))
        out = confidence_fuse(bev, prior, logits)
        assert np.allclose(out.data, bev.data)

    def test_midpoint(self):
        spec = GridSpec(0, 1, 0, 1, 1, 1)
        bev = FeatureMap(spec, np.full((1, 1, 1), 0.2))
        prior = FeatureMap(spec, np.full((1, 1, 1), 0.6))
        logits = ConfidenceLogits(spec, np.zeros((1, 1)), np.zeros((1, 1)))
        assert confidence_fuse(bev, prior, logits).data[0, 0, 0] == \
            pytest.approx(0.4)

    def test_cellwise_between_inputs(self):
        rng = np.random.default_rng(11)
        spec = small_spec()
        bev, prior = random_fm(rng, spec), random_fm(rng, spec)
        logits = ConfidenceLogits(spec, rng.normal(0, 3, spec.shape),
                                  rng.normal(0, 3, spec.shape))
        out = confidence_fuse(bev, prior, logits).data
        lo = np.minimum(bev.data, prior.data)
        hi = np.maximum(bev.data, prior.data)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestComputeLogits:
    def test_zero_params(self):
        rng = np.random.default_rng(12)
        spec = small_spec()
        bev, prior = random_fm(rng, spec), random_fm(rng, spec)
        params = FusionParams(np.zeros((2, 6)), np.zeros(2))
        logits = compute_logits(bev, prior, params)
        assert not logits.lambda_a.any() and not logits.lambda_b.any()
        alpha, _ = confidence_weights(logits)
        assert np.all(alpha == 0.5)

    def test_selector_weights(self):
        rng = np.random.default_rng(13)
        spec = small_spec()
        bev, prior = random_fm(rng, spec), random_fm(rng, spec)
        w = np.zeros((2, 6))
        w[0, 1] = 1.0  # lambda_a = bev channel 1
        w[1, 5] = 1.0  # lambda_b = prior channel 2
        logits = compute_logits(bev, prior, FusionParams(w, np.zeros(2)))
        assert np.array_equal(logits.lambda_a, bev.data[:, :, 1])
        assert np.array_equal(logits.lambda_b, prior.data[:, :, 2])

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(14)
        spec = small_spec(4, 5)
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        params = FusionParams(rng.normal(0, 1, (2, 4)), rng.normal(0, 1, 2))
        logits = compute_logits(bev, prior, params)
        for r in range(4):
            for c in range(5):
                x = np.concatenate([bev.data[r, c], prior.data[r, c]])
                assert logits.lambda_a[r, c] == pytest.approx(
                    float(params.weight[0] @ x + params.bias[0]))
                assert logits.lambda_b[r, c] == pytest.approx(
                    float(params.weight[1] @ x + params.bias[1]))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        spec = small_spec()
        with pytest.raises(ContractError):
            compute_logits(random_fm(rng, spec, 2), random_fm(rng, spec, 2),
                           FusionParams(np.zeros((2, 6)), np.zeros(2)))


class TestPredictOffsets:
    def test_zero_params_zero_offsets(self):
        rng = np.random.default_rng(16)
        spec = small_spec()
        bev, prior = random_fm(rng, spec), random_fm(rng, spec)
        params = OffsetParams(np.zeros((4, 6, 3, 3)), np.zeros(4),
                              np.zeros((2, 4, 3, 3)), np.zeros(2))
        off = predict_offsets(bev, prior, params)
        assert not off.offsets.any()
        assert np.array_equal(warp(prior, off).data, prior.data)

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(17)
        spec = small_spec(8, 8)
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        op, _ = random_params(0, 2, hidden=3)
        out = predict_offsets(bev, prior, op).offsets
        shift = lambda d: FeatureMap(spec, np.roll(d, 1, axis=0) *
                                     (np.arange(8) > 0)[:, None, None])
        out_s = predict_offsets(shift(bev.data), shift(prior.data), op).offsets
        # rows whose 5x5 receptive field avoids both borders in both images
        assert np.allclose(out_s[3:6], out[2:5], atol=1e-12)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(18)
        spec = small_spec(4, 5)
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        op, _ = random_params(7, 2, hidden=3)
        got = predict_offsets(bev, prior, op).offsets
        x = np.concatenate([bev.data, prior.data], axis=2)
        h1 = np.tanh(conv3x3_sliding_window(x, op.w1, op.b1))
        want = conv3x3_sliding_window(h1, op.w2, op.b2)
        assert np.allclose(got, want, atol=1e-12)

    def test_param_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        spec = small_spec()
        op, _ = random_params(0, 5)
        with pytest.raises(ContractError):
            predict_offsets(random_fm(rng, spec, 2), random_fm(rng, spec, 2), op)


class TestGradients:
    def test_finite_difference_check_small(self):
        for seed in range(5):
            assert max(finite_difference_check(seed).values()) < 1e-5

    def test_bilinear_weight_sum_interior(self):
        rng = np.random.default_rng(20)
        spec = small_spec()
        ones = FeatureMap(spec, np.ones(spec.shape + (1,)))
        off = OffsetField(spec, rng.uniform(0.05, 0.95, spec.shape + (2,)))
        out = warp(ones, off).data[:, :, 0]
        # in-bounds samples: the four weights sum to 1 exactly
        assert np.allclose(out[:-1, :-1], 1.0, atol=1e-12)

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


def wrong_d_lb(bev, prior_aligned, logits, upstream):
    """confidence_fuse_grad with the sign of d_lambda_b flipped."""
    d_bev, d_prior, d_la, _ = confidence_fuse_grad(bev, prior_aligned, logits,
                                                   upstream)
    return d_bev, d_prior, d_la, d_la


def scalar_losses(inst):
    """The eight losses the per-coordinate check evaluated, one input at a
    time through the public functions."""
    bev, prior, off = inst["bev"], inst["prior"], inst["off"]
    op, fp, logits = inst["op"], inst["fp"], inst["logits"]
    up_fm, up_off, up_l = inst["up_fm"], inst["up_off"], inst["up_l"]
    spec = bev.spec

    def logit_loss(bev_data=None, weight=None):
        b = FeatureMap(spec, bev_data) if bev_data is not None else bev
        p = FusionParams(weight, fp.bias) if weight is not None else fp
        lg = compute_logits(b, prior, p)
        return float((lg.lambda_a * up_l).sum() - (lg.lambda_b * up_l).sum())

    def off_loss(bev_data=None, w1=None):
        b = FeatureMap(spec, bev_data) if bev_data is not None else bev
        p = OffsetParams(w1 if w1 is not None else op.w1, op.b1, op.w2, op.b2)
        return float((predict_offsets(b, prior, p).offsets * up_off).sum())

    return {
        "warp.d_prior": lambda x: float(
            (warp(FeatureMap(spec, x), off).data * up_fm).sum()),
        "warp.d_off": lambda x: float(
            (warp(prior, OffsetField(spec, x)).data * up_fm).sum()),
        "fuse.d_bev": lambda x: float(
            (confidence_fuse(FeatureMap(spec, x), prior, logits).data * up_fm).sum()),
        "fuse.d_la": lambda x: float((confidence_fuse(
            bev, prior, ConfidenceLogits(spec, x, logits.lambda_b)).data * up_fm).sum()),
        "logits.d_bev": lambda x: logit_loss(bev_data=x),
        "logits.d_weight": lambda x: logit_loss(weight=x),
        "offsets.d_bev": lambda x: off_loss(bev_data=x),
        "offsets.d_w1": lambda x: off_loss(w1=x),
    }


class TestBatchedFiniteDifferences:
    def test_bit_identical_to_per_coordinate_loop(self):
        for seed in range(20):
            inst = fusion._grad_check_instance(seed, 5, 6, 3, 4)
            losses = scalar_losses(inst)
            rows = {name: (f, x) for name, _, f, x in fusion._grad_check_table(inst)}
            for name, loss in losses.items():
                f, x = rows[name]
                batched = fusion._fd_grad(f, x, 1e-6)
                assert np.array_equal(batched, fd_grad_loop(loss, x.copy(), 1e-6)), \
                    (seed, name)

    @pytest.mark.parametrize("budget", [1, 200])
    def test_chunking_does_not_change_result(self, monkeypatch, budget):
        want = finite_difference_check(3)
        monkeypatch.setattr(fusion, "_FD_CHUNK_VALUES", budget)
        assert finite_difference_check(3) == want

    def test_peak_memory_bounded_by_chunks(self):
        # unchunked, this instance stacks 2048 copies of each 16x16x4 input
        # and peaks at about 150 MB
        tracemalloc.start()
        try:
            errs = finite_difference_check(0, height=16, width=16, channels=4,
                                           hidden=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(errs.values()) < 1e-5
        assert peak < 24 * 2 ** 20


class TestPipeline:
    def test_zero_params_midpoint(self):
        rng = np.random.default_rng(22)
        spec = small_spec()
        bev, prior = random_fm(rng, spec, 2), random_fm(rng, spec, 2)
        op = OffsetParams(np.zeros((4, 4, 3, 3)), np.zeros(4),
                          np.zeros((2, 4, 3, 3)), np.zeros(2))
        fp = FusionParams(np.zeros((2, 4)), np.zeros(2))
        fused, stats = fuse_pipeline(bev, prior, op, fp)
        assert np.allclose(fused.data, 0.5 * (bev.data + prior.data))
        assert stats["mean_alpha"] == pytest.approx(0.5)
