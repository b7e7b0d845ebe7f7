import math
import tracemalloc

import numpy as np
import pytest

from ts3ra.domain import ServiceType
from ts3ra.serialization import load_slicenet, save_slicenet
from ts3ra.slicenet import (
    ATTN_KERNEL,
    DEFAULT_D_MODEL,
    DEFAULT_N_FEATURES,
    ENC_KERNELS,
    LOGITS_CHUNK_ROWS,
    AdamOptimizer,
    AttentionParams,
    ConvModuleParams,
    ConvStepParams,
    DivergedModelError,
    SliceFeatureVector,
    SliceNetModel,
    TrainingDivergedError,
    _bands,
    _depthwise_bwd,
    attention_module,
    attention_weights,
    conv_module,
    conv_step,
    encode_mix_decode,
    accuracy,
    make_separable_dataset,
    select_slice,
    softmax,
    train,
)


def make_step(rng, kernel=3, c_in=4, c_out=4):
    return ConvStepParams(
        dw=rng.normal(size=(kernel, c_in)) * 0.3,
        pw=rng.normal(size=(c_in, c_out)) * 0.3,
        pb=np.zeros(c_out),
        ln_gain=np.ones(c_out),
        ln_bias=np.zeros(c_out),
    )


def zero_step(kernel=3, c=4):
    return ConvStepParams(
        dw=np.zeros((kernel, c)),
        pw=np.zeros((c, c)),
        pb=np.zeros(c),
        ln_gain=np.ones(c),
        ln_bias=np.zeros(c),
    )


class TestConvStep:
    def test_all_negative_input_yields_bias(self):
        rng = np.random.default_rng(0)
        params = make_step(rng)
        params.ln_bias[:] = [1.0, 2.0, 3.0, 4.0]
        out = conv_step(params, -np.abs(rng.normal(size=(6, 4))) - 0.1)
        assert np.allclose(out, np.tile(params.ln_bias, (6, 1)))

    @pytest.mark.parametrize("kernel", [3, 15])
    def test_same_length_padding(self, kernel):
        rng = np.random.default_rng(1)
        params = make_step(rng, kernel=kernel)
        x = rng.normal(size=(7, 4))
        assert conv_step(params, x).shape == (7, 4)

    def test_layernorm_statistics(self):
        rng = np.random.default_rng(2)
        params = make_step(rng, c_in=16, c_out=16)
        out = conv_step(params, rng.normal(size=(9, 16)))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            conv_step(make_step(rng, c_in=4), rng.normal(size=(5, 7)))


def tap_loop_fwd(a, dw):
    """Reference: the depthwise convolution as a loop over taps."""
    b, length, c = a.shape
    k = dw.shape[0]
    pad = (k - 1) // 2
    a_pad = np.zeros((b, length + 2 * pad, c))
    a_pad[:, pad : pad + length, :] = a
    out = np.zeros((b, length, c))
    for tap in range(k):
        out += dw[tap] * a_pad[:, tap : tap + length, :]
    return out, a_pad


def tap_loop_bwd(dout, a_pad, dw):
    """Reference: the gradients of ``tap_loop_fwd``, tap by tap."""
    b, length, c = dout.shape
    k = dw.shape[0]
    pad = (k - 1) // 2
    d_dw = np.zeros_like(dw)
    d_apad = np.zeros_like(a_pad)
    for tap in range(k):
        seg = slice(tap, tap + length)
        d_dw[tap] = np.einsum("blc,blc->c", dout, a_pad[:, seg, :])
        d_apad[:, seg, :] += dw[tap] * dout
    return d_apad[:, pad : pad + length, :], d_dw


class TestDepthwiseBitIdentity:
    """The kernels take (channels, length, batch) arrays and sum through
    BLAS in its own order, so they match the tap loop to rounding: within
    1e-12 of the sum of the magnitudes of each entry's terms, which the tap
    loop gives when fed absolute values."""

    @pytest.mark.parametrize("kernel", sorted(set(ENC_KERNELS) | {ATTN_KERNEL}))
    @pytest.mark.parametrize("channels", [DEFAULT_D_MODEL, 2 * DEFAULT_D_MODEL])
    @pytest.mark.parametrize("batch", [1, 2, 31, 32, 64])
    def test_equal_to_tap_loop(self, kernel, channels, batch):
        rng = np.random.default_rng([kernel, channels, batch])
        shape = (batch, DEFAULT_N_FEATURES, channels)
        for _ in range(10):
            a = np.maximum(rng.normal(size=shape), 0.0)  # exact zeros, as after ReLU
            dw = rng.uniform(-1, 1, size=(kernel, channels)) / math.sqrt(kernel)
            dout = rng.normal(size=shape)
            (band,) = _bands([dw], DEFAULT_N_FEATURES)
            out = band @ a.T
            ref_out, a_pad = tap_loop_fwd(a, dw)
            assert np.all(np.abs(out.T - ref_out) <= 1e-12 * tap_loop_fwd(a, abs(dw))[0])
            da, d_dw = _depthwise_bwd(dout.T, a.T, band, kernel)
            ref_da, ref_d_dw = tap_loop_bwd(dout, a_pad, dw)
            mag_da, mag_d_dw = tap_loop_bwd(abs(dout), a_pad, abs(dw))
            assert np.all(np.abs(da.T - ref_da) <= 1e-12 * mag_da)
            assert np.all(np.abs(d_dw - ref_d_dw) <= 1e-12 * mag_d_dw)


class TestBands:
    @pytest.mark.parametrize("d_model", [8, 16])
    def test_stacked_bands_equal_each_kernels_own(self, d_model):
        # A forward pass takes the bands of all ten steps in one take.
        model = SliceNetModel(d_model=d_model, rng=np.random.default_rng(d_model))
        steps = model.encoder.steps + model.decoder.steps
        kernels = [step.dw for step in steps + [model.attention.proj1, model.attention.proj2]]
        bands = _bands(kernels, DEFAULT_N_FEATURES)
        assert len(bands) == 10
        for band, dw in zip(bands, kernels):
            assert np.array_equal(band, _bands([dw], DEFAULT_N_FEATURES)[0])

    def test_band_of_one_kernel(self):
        dw = np.arange(1.0, 7.0).reshape(3, 2)  # taps x channels
        (band,) = _bands([dw], 4)
        for c in range(2):
            for l in range(4):
                for m in range(4):
                    tap = m - l + 1
                    assert band[c, l, m] == (dw[tap, c] if 0 <= tap < 3 else 0.0)


class TestConvModule:
    def test_inference_is_deterministic(self):
        rng = np.random.default_rng(4)
        module = ConvModuleParams([make_step(rng, k) for k in (3, 3, 15, 15)])
        x = rng.normal(size=(7, 4))
        assert np.array_equal(conv_module(module, x), conv_module(module, x))

    def test_zero_weights_residual_passthrough(self):
        module = ConvModuleParams([zero_step(k) for k in (3, 3, 15, 15)])
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 4))
        assert np.allclose(conv_module(module, x), x)

    def test_training_dropout_fraction(self):
        rng = np.random.default_rng(6)
        module = ConvModuleParams([make_step(rng, k) for k in (3, 3, 15, 15)])
        x = rng.normal(size=(500, 4)) + 3.0
        drop_rng = np.random.default_rng(7)
        out = conv_module(module, x, mode="training", rng=drop_rng)
        zero_fraction = np.mean(out == 0.0)
        assert abs(zero_fraction - 0.5) <= 0.02

    def test_no_dropout_at_inference(self):
        rng = np.random.default_rng(8)
        module = ConvModuleParams([make_step(rng, k) for k in (3, 3, 15, 15)])
        x = rng.normal(size=(200, 4)) + 3.0
        out = conv_module(module, x, mode="inference")
        assert np.mean(out == 0.0) == 0.0

    def test_training_requires_rng(self):
        module = ConvModuleParams([zero_step(k) for k in (3, 3, 15, 15)])
        with pytest.raises(ValueError):
            conv_module(module, np.zeros((4, 4)), mode="training")


class TestAttention:
    def make_params(self, rng, c=4):
        return AttentionParams(
            proj1=make_step(rng, kernel=5, c_in=c, c_out=c),
            proj2=make_step(rng, kernel=5, c_in=c, c_out=c),
        )

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        params = self.make_params(rng)
        weights = attention_weights(params, rng.normal(size=(6, 4)), rng.normal(size=(5, 4)))
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_source_position(self):
        rng = np.random.default_rng(10)
        params = self.make_params(rng)
        source = rng.normal(size=(1, 4))
        out = attention_module(params, source, rng.normal(size=(5, 4)))
        assert np.allclose(out, np.tile(source, (5, 1)))

    def test_source_permutation_permutes_weights(self):
        rng = np.random.default_rng(11)
        params = self.make_params(rng)
        source = rng.normal(size=(4, 4))
        target = rng.normal(size=(3, 4))
        perm = np.array([2, 0, 3, 1])
        base = attention_weights(params, source, target)
        permuted = attention_weights(params, source[perm], target)
        assert np.allclose(permuted, base[:, perm], atol=1e-12)


class TestModelForward:
    def test_end_to_end_logit_row(self):
        model = SliceNetModel(n_features=5, d_model=4, rng=np.random.default_rng(12))
        logits = encode_mix_decode(model, [0.1, 0.9, 0.0, 0.5, 0.3])
        assert logits.shape == (3,)
        assert np.all(np.isfinite(logits))

    def test_empty_history_equals_zero_history(self):
        model = SliceNetModel(n_features=5, d_model=4, rng=np.random.default_rng(13))
        features = [0.2, 0.8, 0.1, 0.4, 0.6]
        none_out = encode_mix_decode(model, features)
        zero_out = encode_mix_decode(model, features, np.zeros((5, 4)))
        assert np.allclose(none_out, zero_out)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(50, 3)) * 10
        assert np.allclose(softmax(z).sum(axis=-1), 1.0, atol=1e-9)

    def test_select_slice_indicator_always_valid(self):
        for seed in range(6):
            model = SliceNetModel(rng=np.random.default_rng(seed))
            fv = SliceFeatureVector(ServiceType.MMTC, 0.5, 0.5, 0.5, 0.5)
            decision = select_slice(model, fv)
            assert decision.indicator in {(0, 0, 1), (0, 1, 0), (1, 1, 1)}
            assert 0.0 <= decision.confidence <= 1.0

    def test_inference_deterministic(self):
        model = SliceNetModel(rng=np.random.default_rng(15))
        fv = SliceFeatureVector(ServiceType.EMBB, 0.9, 0.2, 0.7, 0.1)
        assert select_slice(model, fv) == select_slice(model, fv)

    def test_argmax_invariant_to_logit_shift(self):
        model = SliceNetModel(rng=np.random.default_rng(16))
        fv = SliceFeatureVector(ServiceType.URLLC, 0.5, 0.5, 0.5, 0.5)
        before = select_slice(model, fv)
        model.head_b += 7.3  # shifts every logit equally
        after = select_slice(model, fv)
        assert before.indicator == after.indicator

    def test_nonfinite_logits_rejected(self):
        model = SliceNetModel(rng=np.random.default_rng(17))
        model.head_w[...] = np.inf
        fv = SliceFeatureVector(ServiceType.EMBB, 0.5, 0.5, 0.5, 0.5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergedModelError):
                select_slice(model, fv)

    def test_feature_vector_validation(self):
        with pytest.raises(ValueError):
            SliceFeatureVector(ServiceType.EMBB, 1.5, 0.0, 0.0, 0.0)
        fv = SliceFeatureVector(ServiceType.URLLC, 1.0, 0.0, 0.5, 0.25)
        arr = fv.to_array()
        assert arr.shape == (7,)
        assert arr[:3].sum() == 1.0


class TestChunkedLogits:
    @pytest.mark.parametrize(
        "extra", [0, 1, 2, LOGITS_CHUNK_ROWS - 1, LOGITS_CHUNK_ROWS, LOGITS_CHUNK_ROWS + 1]
    )
    def test_equal_to_one_full_pass(self, extra):
        # extra = 1 would leave a one-row last chunk; logits folds it into
        # the chunk before, so the result is still bit-equal.
        model = SliceNetModel(rng=np.random.default_rng(21))
        feats, _ = make_separable_dataset(
            2 * LOGITS_CHUNK_ROWS + extra, np.random.default_rng(22)
        )
        full, _ = model._forward(feats, None, training=False, rng=None)
        assert np.array_equal(model.logits(feats), full)

    def test_accuracy_memory_does_not_grow_with_rows(self):
        model = SliceNetModel(rng=np.random.default_rng(25))

        def peak_bytes(n: int) -> int:
            feats, labels = make_separable_dataset(n, np.random.default_rng(n))
            tracemalloc.start()
            try:
                accuracy(model, feats, labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # An unchunked pass keeps every row's backward cache: about 8x more
        # at 5000 rows than at 600.
        assert peak_bytes(5000) < 1.5 * peak_bytes(600)


class TestFlatParameters:
    def test_tensors_share_one_buffer(self):
        model = SliceNetModel(rng=np.random.default_rng(30))
        params = model.parameters()
        assert sum(p.size for p in params.values()) == model.flat.size
        for p in params.values():
            assert p.base is model.flat

    def test_adam_equals_per_tensor_update(self):
        model = SliceNetModel(rng=np.random.default_rng(31))
        feats, labels = make_separable_dataset(32, np.random.default_rng(32))
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        ref = {k: p.copy() for k, p in model.parameters().items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        opt = AdamOptimizer(model.flat, lr, beta1, beta2, eps)
        for t in range(1, 4):
            _, flat_grad = model.loss_and_flat_grad(feats, labels)
            grads = model.tensor_views(flat_grad)
            b1c = 1.0 - beta1**t
            b2c = 1.0 - beta2**t
            for k, p in ref.items():  # the per-tensor update, tensor by tensor
                g = grads[k]
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                p -= lr * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + eps)
            opt.step(model.flat, flat_grad)
            for k, p in model.parameters().items():
                assert np.array_equal(p, ref[k]), (t, k)

    @pytest.mark.parametrize("d_model", [8, 16])
    def test_names_order_and_shapes(self, d_model):
        # The model.bin layout: every tensor, in this order, in these shapes.
        c, c2 = d_model, 2 * d_model

        def step(prefix, kernel, c_in, c_out):
            return [
                (prefix + "dw", (kernel, c_in)),
                (prefix + "pw", (c_in, c_out)),
                (prefix + "pb", (c_out,)),
                (prefix + "ln_gain", (c_out,)),
                (prefix + "ln_bias", (c_out,)),
            ]

        expected = [("lift_w", (7, c)), ("lift_b", (7, c))]
        for i, kernel in enumerate((3, 3, 15, 15), start=1):
            expected += step(f"enc{i}_", kernel, c, c)
        for i, kernel in enumerate((3, 3, 15, 15), start=1):
            expected += step(f"dec{i}_", kernel, c2, c2)
        expected += step("attn1_", 5, c2, c2) + step("attn2_", 5, c2, c)
        expected += [("head_w", (3 * c, 3)), ("head_b", (3,))]
        model = SliceNetModel(d_model=d_model, rng=np.random.default_rng(35))
        assert [(k, p.shape) for k, p in model.parameters().items()] == expected

    def test_save_load_round_trip_after_set_parameter(self, tmp_path):
        model = SliceNetModel(rng=np.random.default_rng(33))
        rng = np.random.default_rng(34)
        for name in ("lift_w", "enc3_dw", "attn2_pw", "head_b"):
            model.set_parameter(name, rng.normal(size=model.parameters()[name].shape))
        path = tmp_path / "model.bin"
        save_slicenet(model, path)
        loaded = load_slicenet(path)
        for name, p in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name], p)
        assert np.array_equal(loaded.flat, model.flat)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(7)
        model = SliceNetModel(n_features=4, d_model=8, rng=rng)
        feats = rng.uniform(0, 1, size=(2, 4))
        labels = np.array([0, 2])
        _, grads = model.loss_and_grads(feats, labels)

        def loss_only():
            value, _ = model.loss_and_grads(feats, labels)
            return value

        h = 1e-5
        worst = 0.0
        for name, p in model.parameters().items():
            flat = p.ravel()
            g = grads[name].ravel()
            step = max(1, flat.size // 8)  # deterministic coordinate sample
            for i in range(0, flat.size, step):
                original = flat[i]
                flat[i] = original + h
                lp = loss_only()
                flat[i] = original - h
                lm = loss_only()
                flat[i] = original
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(g[i]), 1e-8)
                worst = max(worst, abs(numeric - g[i]) / denom)
        assert worst < 1e-4

    def test_single_step_descends(self):
        rng = np.random.default_rng(18)
        model = SliceNetModel(n_features=4, d_model=4, rng=rng)
        feats = rng.uniform(0, 1, size=(1, 4))
        labels = np.array([1])
        loss0, grads = model.loss_and_grads(feats, labels)
        for name, p in model.parameters().items():
            p -= 1e-3 * grads[name]
        loss1, _ = model.loss_and_grads(feats, labels)
        assert loss1 < loss0


class TestTraining:
    def test_separable_dataset_reaches_accuracy(self):
        rng = np.random.default_rng(42)
        feats, labels = make_separable_dataset(300, rng)
        model = SliceNetModel(rng=np.random.default_rng(1))
        curve = train(
            model, feats, labels, epochs=4, learning_rate=0.01,
            rng=np.random.default_rng(2),
        )
        assert curve.accuracies[-1] >= 0.95
        assert len(curve.epochs) == 4

    def test_trained_model_maps_urllc_features(self):
        rng = np.random.default_rng(42)
        feats, labels = make_separable_dataset(400, rng)
        model = SliceNetModel(rng=np.random.default_rng(3))
        train(model, feats, labels, epochs=4, learning_rate=0.01, rng=np.random.default_rng(4))
        fv = SliceFeatureVector(ServiceType.URLLC, 0.8, 0.3, 0.6, 0.2)
        assert select_slice(model, fv).indicator == (0, 1, 0)

    def test_learning_rate_range_enforced(self):
        model = SliceNetModel(rng=np.random.default_rng(5))
        feats, labels = make_separable_dataset(10, np.random.default_rng(6))
        for bad in (0.0005, 0.2):
            with pytest.raises(ValueError):
                train(model, feats, labels, 1, bad, np.random.default_rng(0))

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        model = SliceNetModel(rng=np.random.default_rng(5))
        feats, labels = make_separable_dataset(10, np.random.default_rng(6))
        with pytest.raises(ValueError, match="epochs"):
            train(model, feats, labels, epochs, 0.01, np.random.default_rng(0))

    def test_empty_dataset_rejected(self):
        model = SliceNetModel(rng=np.random.default_rng(7))
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 7)), np.zeros(0), 1, 0.01, np.random.default_rng(0))

    def test_divergence_aborts_with_diagnostics(self):
        model = SliceNetModel(rng=np.random.default_rng(8))
        model.head_w[...] = np.nan
        feats, labels = make_separable_dataset(16, np.random.default_rng(9))
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(model, feats, labels, 1, 0.01, np.random.default_rng(0))

    def test_rng_consumption_pinned(self):
        # The permutations and the (batch, length, channels) dropout masks
        # are drawn in a fixed order and shape: the generator's next draw
        # pins how much was drawn, and the losses pin the masks' layout.
        feats, labels = make_separable_dataset(40, np.random.default_rng(41))
        model = SliceNetModel(rng=np.random.default_rng(40))
        rng = np.random.default_rng(42)
        curve = train(model, feats, labels, 2, 0.01, rng, batch_size=16)
        assert rng.random() == 0.7778749517567218
        losses = [1.1869404334372895, 1.0822310916159545]
        assert np.allclose(curve.losses, losses, rtol=1e-9, atol=0)
        assert curve.accuracies == [0.35, 0.45]

    def test_loss_curve_rows(self):
        rng = np.random.default_rng(10)
        feats, labels = make_separable_dataset(60, rng)
        model = SliceNetModel(rng=np.random.default_rng(11))
        curve = train(model, feats, labels, 2, 0.01, np.random.default_rng(12))
        rows = curve.rows()
        assert rows[0] == "epoch,loss,accuracy"
        assert len(rows) == 3
