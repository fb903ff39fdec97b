import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import conv_reference
from finite_difference import gradient_check
from physgrd import grf_model
from physgrd.errors import CheckpointError, NoValidFramesError, ValidationError
from physgrd.grf_model import (
    KERNEL,
    MAX_WIDTH,
    Adam,
    Prediction,
    TemporalConvNet,
    TrainConfig,
    _elu_grad,
    composite_loss,
    elu,
    load_checkpoint,
    load_prediction_csv,
    save_checkpoint,
    train,
    write_prediction_csv,
    write_train_log,
)
from physgrd.motion_data import ForcePlateRecord
from physgrd.synthetic import make_dataset

TOY = dict(conv_channels=(6, 5, 6, 5), fc_widths=(8, 6))


def toy_batch(seed=0, B=2, T=16, D=5, masked=True):
    r = np.random.default_rng(seed)
    feats = r.normal(size=(B, T, D))
    plate = r.normal(size=(B, T, 2, 3))
    valid = r.random((B, T)) > 0.3 if masked else np.ones((B, T), dtype=bool)
    plate[~valid] = np.nan
    phys = r.normal(size=(B, T, 3))
    return feats, plate, valid, phys


def plate_of(force):
    force = np.asarray(force, dtype=float)
    return ForcePlateRecord(
        per_foot_force=force,
        per_foot_cop=np.zeros((len(force), 2, 2)),
        contact_flags=np.ones((len(force), 2), dtype=bool),
    )


class TestElu:
    def test_zero(self):
        assert elu(0.0) == 0.0

    def test_positive_identity(self):
        assert elu(1.0) == 1.0
        assert elu(3.7) == 3.7

    def test_negative_hand_value(self):
        assert elu(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-12)

    def test_array_form(self):
        out = elu(np.array([-2.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [math.expm1(-2.0), 0.0, 2.0], rtol=1e-12)

    def test_in_place_forms_match_where_forms_bit_for_bit(self):
        # elu is max(x, expm1(min(x, 0))) and its gradient exp(min(x, 0));
        # both must give the np.where forms' bits, also into a strided out
        r = np.random.default_rng(0)
        x = np.concatenate([r.normal(size=20000) * s for s in (1e-300, 1e-9, 0.1, 1, 30, 800)] + [
            np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, -1e-308, -745.2, -2.0**-54])])
        x = np.resize(x, (3, 37, len(x) // 37 // 3 + 1))
        ref = conv_reference.elu(x)
        padded = np.empty(x.shape[:2] + (x.shape[2] + 6,))
        for out in (elu(x), elu(x, out=padded[:, :, 3:-3])):
            assert np.ascontiguousarray(out).tobytes() == ref.tobytes()
        assert _elu_grad(x.copy()).tobytes() == conv_reference._elu_grad(x).tobytes()

    @pytest.mark.parametrize("out, got", [
        (np.empty(4), r"float64 \(4,\)"), (np.empty((3, 1)), r"float64 \(3, 1\)"),
        (np.empty(3, dtype=int), r"int64 \(3,\)"), ([0.0, 0.0, 0.0], r"list \(3,\)"),
    ], ids=["short", "column", "int", "list"])
    def test_out_of_another_shape_or_type_is_named(self, out, got):
        # each raised numpy's ValueError or a TypeError
        with pytest.raises(ValidationError,
                           match=rf"^out must be a float64 array of x's shape \(3,\), got {got}$"):
            elu(np.array([-1.0, 0.0, 1.0]), out=out)


class TestForward:
    def test_zero_parameters_give_zero_prediction(self):
        net = TemporalConvNet(4, **TOY, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        pred = net.forward(np.random.default_rng(0).normal(size=(10, 4)))
        np.testing.assert_array_equal(pred.forces, 0.0)

    def test_single_frame_keeps_length(self):
        net = TemporalConvNet(4, **TOY, seed=0)
        pred = net.forward(np.ones((1, 4)))
        assert pred.forces.shape == (1, 2, 3)

    def test_output_shape(self):
        net = TemporalConvNet(9, **TOY, seed=1)
        pred = net.forward(np.random.default_rng(1).normal(size=(33, 9)))
        assert pred.forces.shape == (33, 2, 3)

    def test_width_mismatch_rejected(self):
        net = TemporalConvNet(4, **TOY, seed=0)
        with pytest.raises(ValidationError):
            net.forward(np.ones((5, 7)))

    @pytest.mark.parametrize("shape", [(0, 4), (1, 0, 4), (0, 5, 4)])
    def test_empty_input_rejected_before_any_buffer(self, shape):
        net = TemporalConvNet(4, **TOY, seed=0)
        with pytest.raises(ValidationError, match="a window and a frame"):
            if len(shape) == 2:
                net.forward(np.zeros(shape))
            else:
                net.loss_and_grads(*toy_batch(0, *shape), 1.0, 1.0)
        assert not net._ws

    def test_non_finite_features_named_at_entry(self):
        net = TemporalConvNet(9, **TOY, seed=0)
        x = np.zeros((10, 9))
        x[3, 2] = np.nan
        with pytest.raises(ValidationError,
                           match=r"^non-finite value in features at frame 3, column 2$"):
            net.forward(x)
        features, *rest = toy_batch(0, 3, 10, 9)
        features[2, 5, 1] = np.inf
        with pytest.raises(ValidationError,
                           match=r"^non-finite value in features\[2\] at frame 5, column 1$"):
            net.loss_and_grads(features, *rest, 1.0, 1.0)
        assert not net._ws

    def test_translation_equivariance_in_the_interior(self):
        net = TemporalConvNet(3, **TOY, seed=2)
        r = np.random.default_rng(3)
        T, s = 64, 5
        x = r.normal(size=(T, 3))
        shifted = np.zeros_like(x)
        shifted[s:] = x[:-s]
        out = net.forward(x).forces
        out_shifted = net.forward(shifted).forces
        margin = 4 * 3 + s  # four convs of half-width 3, plus the shift
        np.testing.assert_allclose(
            out_shifted[margin:T - margin],
            out[margin - s:T - margin - s],
            atol=1e-12,
        )


class TestCompositeLoss:
    def test_zero_when_both_residuals_vanish(self):
        pred = np.zeros((1, 2, 3))
        pred[0, :, 2] = 0.5
        plate = plate_of(pred.copy())
        phys = np.array([[0.0, 0.0, 1.0]])
        cfg = TrainConfig(lambda1=1.0, lambda2=1.0)
        assert composite_loss(pred, plate, phys, cfg) == 0.0

    def test_physics_residual_hand_value(self):
        pred = np.zeros((1, 2, 3))
        pred[0, :, 2] = 0.5
        plate = plate_of(pred.copy())
        phys = np.array([[0.0, 0.0, 1.2]])
        cfg = TrainConfig(lambda1=1.0, lambda2=1.0)
        # second term: (1.0 - 1.2)^2 = 0.04
        assert composite_loss(pred, plate, phys, cfg) == pytest.approx(0.04, rel=1e-12)

    def test_linear_in_lambda2(self):
        r = np.random.default_rng(5)
        pred = r.normal(size=(7, 2, 3))
        plate = plate_of(r.normal(size=(7, 2, 3)))
        phys = r.normal(size=(7, 3))
        lo = composite_loss(pred, plate, phys, TrainConfig(lambda1=0.5, lambda2=0.25))
        hi = composite_loss(pred, plate, phys, TrainConfig(lambda1=0.5, lambda2=0.5))
        base = composite_loss(pred, plate, phys, TrainConfig(lambda1=0.5, lambda2=1e-9))
        assert hi > lo  # strictly increasing while the residual is nonzero
        assert hi - lo == pytest.approx(lo - base, rel=1e-6)

    def test_nonnegative(self):
        r = np.random.default_rng(6)
        pred = r.normal(size=(5, 2, 3))
        plate = plate_of(r.normal(size=(5, 2, 3)))
        phys = r.normal(size=(5, 3))
        assert composite_loss(pred, plate, phys, TrainConfig()) >= 0.0

    def test_masked_frames_skipped_with_renormalization(self):
        # frame 1 is masked; the plate term averages over the single valid frame
        force = np.zeros((2, 2, 3))
        force[1] = np.nan
        plate = plate_of(force)
        pred = np.zeros((2, 2, 3))
        pred[0, 0, 2] = 0.3
        pred[1, 1, 0] = 77.0  # masked frame, must not contribute
        phys = np.zeros((2, 3))
        cfg = TrainConfig(lambda1=1.0, lambda2=0.0)
        assert composite_loss(pred, plate, phys, cfg) == pytest.approx(0.09, rel=1e-12)

    def test_misaligned_lengths_rejected(self):
        plate = plate_of(np.zeros((3, 2, 3)))
        with pytest.raises(ValidationError):
            composite_loss(np.zeros((4, 2, 3)), plate, np.zeros((4, 3)), TrainConfig())

    def test_prediction_without_feet_rejected(self):
        plate = plate_of(np.zeros((4, 2, 3)))
        with pytest.raises(ValidationError, match=r"^pred must be \(4, 2, 3\), got \(4, 3\)$"):
            composite_loss(np.zeros((4, 3)), plate, np.zeros((4, 3)), TrainConfig())


class TestBackward:
    def test_zero_loss_batch_gives_zero_gradients(self):
        net = TemporalConvNet(4, **TOY, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        feats = np.random.default_rng(0).normal(size=(2, 12, 4))
        plate = np.zeros((2, 12, 2, 3))
        valid = np.ones((2, 12), dtype=bool)
        phys = np.zeros((2, 12, 3))
        loss, t1, t2, grads = net.loss_and_grads(feats, plate, valid, phys, 1.0, 1.0)
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_gradient_matches_finite_differences(self):
        net = TemporalConvNet(5, **TOY, seed=11)
        feats, plate, valid, phys = toy_batch(seed=11)
        errs = gradient_check(net, feats, plate, valid, phys, 1.0, 1.0)
        assert errs.max() <= 1e-4

    def test_gradient_matches_fd_at_default_loss_weights(self):
        net = TemporalConvNet(5, **TOY, seed=12)
        feats, plate, valid, phys = toy_batch(seed=12)
        errs = gradient_check(net, feats, plate, valid, phys, 0.002, 0.005)
        assert (errs <= 1e-4).mean() >= 0.999

    def test_duplicating_batch_element_keeps_mean_gradient(self):
        net = TemporalConvNet(5, **TOY, seed=3)
        feats, plate, valid, phys = toy_batch(seed=4, B=1)
        _, _, _, g1 = net.loss_and_grads(feats, plate, valid, phys, 1.0, 1.0)
        dup = lambda a: np.concatenate([a, a], axis=0)
        _, _, _, g2 = net.loss_and_grads(
            dup(feats), dup(plate), dup(valid), dup(phys), 1.0, 1.0
        )
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_masked_corruption_does_not_change_gradients(self):
        net = TemporalConvNet(5, **TOY, seed=5)
        feats, plate, valid, phys = toy_batch(seed=6)
        _, _, _, g1 = net.loss_and_grads(feats, plate, valid, phys, 1.0, 1.0)
        corrupted = plate.copy()
        corrupted[~valid] = 1e9
        _, _, _, g2 = net.loss_and_grads(feats, corrupted, valid, phys, 1.0, 1.0)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


class TestConvReference:
    """The column-matrix GEMMs give the einsum reference's bits exactly."""

    @pytest.mark.parametrize("B, T, D, channels", [
        (1, 1000, 9, 128),  # predict: one canonical-width clip
        (64, 240, 9, 128),  # train: one canonical-width batch
        (13, 240, 9, 128),  # train: a short last batch
        (7, 37, 5, 9),
        (3, 1, 5, 9),  # shorter than the kernel
        (2, 3, 5, 9),
        # input wider than the hidden layers: the backward refills a larger
        # view of the one padded buffer for layer 0 than the layers above use
        (5, 60, 200, 64),
        # the last conv layer's (B, T, C_out) gradient product at 240 KiB and
        # 260 KiB, either side of numpy's 256 KiB temporary-elision threshold
        (2, 120, 9, 128),
        (2, 130, 9, 128),
    ])
    def test_forward_and_backward_bit_identical(self, B, T, D, channels):
        net = TemporalConvNet(D, (channels,) * 4, (8, 6), seed=B + T)
        self.assert_matches_reference(net, B, T)

    # a toy budget splits the conv GEMMs of 40-channel layers; its 128 rows
    # of B*T values hold a 64-row weight-gradient span and its ragged rows
    @pytest.mark.parametrize("B, T", [(32, 100), (8, 437)])
    def test_spans_at_a_toy_budget_bit_identical(self, monkeypatch, B, T):
        monkeypatch.setattr(grf_model, "_SPAN_VALUES", 128 * B * T)
        # B*T and B*(T+K-1) are multiples of 8, so no GEMM stays whole
        spans = grf_model._column_spans(B * T, 40 * KERNEL, 128 * B * T)
        assert len(spans) > 2 and any(s % T for s, _ in spans)  # cuts inside windows
        assert len(grf_model._column_spans(B * (T + KERNEL - 1), 40 * KERNEL, 128 * B * T)) > 2
        net = TemporalConvNet(5, (40,) * 4, (8, 6), seed=B + T)
        self.assert_matches_reference(net, B, T)
        assert net._ws["cols"].size <= 128 * B * T

    def test_long_clip_split_along_frames_bit_identical(self, monkeypatch):
        T = 3000
        # forward() splits at the inference budget, a training step at the other
        monkeypatch.setattr(grf_model, "_SPAN_VALUES", 128 * T)
        monkeypatch.setattr(grf_model, "_INFERENCE_SPAN_VALUES", 128 * T)
        assert len(grf_model._column_spans(T, 40 * KERNEL, 128 * T)) > 2
        net = TemporalConvNet(5, (40,) * 4, (8, 6), seed=T)
        x = np.random.default_rng(T).normal(size=(1, T, 5))
        pred = net.forward(x[0])
        assert net._ws["cols"].size <= 128 * T
        assert np.array_equal(pred.forces.reshape(1, T, 6), conv_reference.forward(net, x)[0])
        self.assert_matches_reference(net, 1, T)

    def test_ragged_columns_stay_whole(self, monkeypatch):
        # a column count that is not a multiple of 8 is one span; split at
        # this budget, the last span's ragged columns change bits
        monkeypatch.setattr(grf_model, "_SPAN_VALUES", 2**18)
        assert grf_model._column_spans(1003, 128 * KERNEL, 2**18) == [(0, 1003)]
        net = TemporalConvNet(9, (128,) * 4, (8, 6), seed=1003)
        self.assert_matches_reference(net, 1, 1003)

    # T = 80,000 at canonical width would build a 573 MB column matrix in one
    # span, so that clip runs a 16-channel net, still cut into many spans
    @pytest.mark.parametrize("T, channels", [(1000, 128), (4096, 128), (80_000, 16)])
    def test_inference_spans_bit_identical_to_one_span(self, monkeypatch, T, channels):
        net = TemporalConvNet(9, (channels,) * 4, (64, 32), seed=T)
        x = np.random.default_rng(T).normal(size=(T, 9))
        budget = grf_model._INFERENCE_SPAN_VALUES
        assert len(grf_model._column_spans(T, channels * KERNEL, budget)) > 1
        pred = net.forward(x).forces
        monkeypatch.setattr(grf_model, "_INFERENCE_SPAN_VALUES", channels * KERNEL * T)
        assert np.array_equal(pred, net.forward(x).forces)

    @staticmethod
    def assert_matches_reference(net, B, T):
        r = np.random.default_rng(T)
        x = r.normal(size=(B, T, net.input_width))
        dout = r.normal(size=(B, T, 6))
        out_ref, cache_ref = conv_reference.forward(net, x)
        out, cache = net._forward(x, want_cache=True)
        assert np.array_equal(out, out_ref)
        grads_ref = conv_reference.backward(net, dout, cache_ref)
        grads = net._backward(dout, cache)
        assert len(grads) == len(grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert g.shape == g_ref.shape and np.array_equal(g, g_ref)


class TestWorkspace:
    """The net's grow-only conv workspace: reuse across shapes, no aliasing,
    and no more memory than the allocating version took."""

    ARCH = dict(conv_channels=(24, 40, 16, 32), fc_widths=(16, 8))

    def test_reuse_across_shapes_matches_fresh_net(self):
        net = TemporalConvNet(9, **self.ARCH, seed=4)
        calls = [(64, 240, 0), (13, 240, 1), (1, 1000, 2), (64, 240, 3)]
        for B, T, seed in calls:
            fresh = TemporalConvNet(9, **self.ARCH, seed=4)
            if B == 1:
                x = np.random.default_rng(seed).normal(size=(T, 9))
                assert np.array_equal(net.forward(x).forces, fresh.forward(x).forces)
                continue
            args = (*toy_batch(seed, B, T, 9), 0.002, 0.005)
            *terms, grads = net.loss_and_grads(*args)
            *fresh_terms, fresh_grads = fresh.loss_and_grads(*args)
            assert terms == fresh_terms
            for g, f in zip(grads, fresh_grads):
                assert np.array_equal(g, f)

    def test_results_do_not_alias_workspace(self):
        net = TemporalConvNet(9, **self.ARCH, seed=5)
        loss, _, _, grads = net.loss_and_grads(*toy_batch(0, 16, 60, 9), 0.002, 0.005)
        pred = net.forward(np.random.default_rng(1).normal(size=(80, 9)))
        outs = [*grads, pred.forces]
        kept = [out.copy() for out in outs]
        net.loss_and_grads(*toy_batch(2, 16, 60, 9), 0.002, 0.005)
        net.forward(np.random.default_rng(3).normal(size=(80, 9)))
        assert net._ws  # the workspace is in use
        for out, copy in zip(outs, kept):
            assert np.array_equal(out, copy)
            assert not any(np.shares_memory(out, buf) for buf in net._ws.values())
        assert loss == net.loss_and_grads(*toy_batch(0, 16, 60, 9), 0.002, 0.005)[0]

    def test_train_returns_net_without_workspace(self):
        ds = make_dataset(["hop"], n_subjects=2, seed=5, base_params={"duration": 1.2})
        cfg = TrainConfig(epochs=1, batch_size=8, window_len=120, **TOY)
        net, _ = train(ds, cfg, (["S1"], "S2"))
        assert not net._ws

    def test_canonical_step_peak_memory(self):
        # one canonical step traced at 92.7 MB and the second at 95.7 MB: the
        # column matrix built in spans, one padded buffer for each conv input
        # in turn and then the conv output, three pre-activation slots with
        # layer 0's recomputed, the hidden FC pre-activations in the idle
        # "cols", "grad" one span's padded output gradient, every ELU output
        # the backward needs recomputed, and each transient freed at its last
        # use; the bound is the second plus 10%. The second call counts what
        # the workspace retained from the first
        net = TemporalConvNet(9, seed=0)
        args = (*toy_batch(0, 64, 240, 9), 0.002, 0.005)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                tracemalloc.reset_peak()
                net.loss_and_grads(*args)
                assert tracemalloc.get_traced_memory()[1] - start <= 105.3e6
        finally:
            tracemalloc.stop()

    def test_canonical_step_workspace_bytes(self):
        # three 15.7 MB pre-activation slots, "pad" (16.1 MB), one column
        # span (16.5 MB), which also holds the hidden FC pre-activations
        # (11.8 MB), and "grad", one padded output-gradient span (2.6 MB):
        # 82.4 MB in all
        net = TemporalConvNet(9, seed=0)
        net.loss_and_grads(*toy_batch(0, 64, 240, 9), 0.002, 0.005)
        assert sum(buf.nbytes for buf in net._ws.values()) <= 85e6
        assert net._ws["cols"].size <= grf_model._SPAN_VALUES
        assert net._ws["grad"].nbytes <= 3e6

    def test_regrow_drops_old_storage_before_allocating(self):
        net = TemporalConvNet(9, **self.ARCH, seed=0)
        n = 2**20
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            net._buf("cols", n)
            tracemalloc.reset_peak()
            net._buf("cols", 2 * n)
            # the new 2n values alone; old and new together would be 3n
            assert tracemalloc.get_traced_memory()[1] - start <= 2 * n * 8 + 64 * 1024
        finally:
            tracemalloc.stop()

    def test_long_clip_column_buffer_within_inference_budget(self):
        # an inference span holds at most its budget, or one more
        # 64-column unit where the ragged columns join the last span
        net = TemporalConvNet(9, seed=0)
        net.forward(np.random.default_rng(0).normal(size=(80_000, 9)))
        rows = 128 * KERNEL
        assert net._ws["cols"].size <= grf_model._INFERENCE_SPAN_VALUES + grf_model._ALIGN * rows

    def test_column_buffer_stays_within_budget_at_batch_128(self):
        # "cols" holds one span within the budget, or more only where the
        # hidden FC pre-activations need it: 2.95M values here. The workspace
        # measured 153.0 MB
        net = TemporalConvNet(9, seed=0)
        B, T = 128, 240
        net.loss_and_grads(*toy_batch(0, B, T, 9), 0.002, 0.005)
        fc_values = B * T * sum(net.fc_widths)
        assert net._ws["cols"].size <= max(grf_model._SPAN_VALUES, fc_values)
        assert sum(buf.nbytes for buf in net._ws.values()) <= 155e6


class TestAdam:
    def test_moves_against_gradient(self):
        p = np.ones(3)
        opt = Adam([p], lr=0.1)
        opt.step([p], [np.ones(3)])
        assert (p < 1.0).all()

    def test_in_place_step_matches_textbook_expression(self):
        # one shape large enough (917 KB) for numpy to reuse temporaries
        rng = np.random.default_rng(0)
        shapes = [(128, 128, 7), (128,), (6, 32)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        opt = Adam(params, lr=1e-3)
        m, v = list(opt.m), list(opt.v)
        b1, b2, lr, eps = opt.beta1, opt.beta2, opt.lr, opt.eps
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            opt.step(params, grads)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for i, (p, g) in enumerate(zip(ref, grads)):
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g * g
                p -= lr * (ref_m[i] / c1) / (np.sqrt(ref_v[i] / c2) + eps)
            for got, want in zip(params + opt.m + opt.v, ref + ref_m + ref_v):
                assert np.array_equal(got, want)
        assert all(a is b for a, b in zip(opt.m + opt.v, m + v))


class TestTrain:
    def make_ds(self, seed=5):
        return make_dataset(
            ["hop"], n_subjects=2, seed=seed, base_params={"duration": 1.2}
        )

    def cfg(self, **kw):
        base = dict(
            epochs=3, batch_size=8, learning_rate=1e-3, seed=0,
            lambda1=1.0, lambda2=1.0, window_len=120, **TOY,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_two_runs_same_seed_identical(self):
        ds = self.make_ds()
        net1, log1 = train(ds, self.cfg(), (["S1"], "S2"))
        net2, log2 = train(ds, self.cfg(), (["S1"], "S2"))
        for a, b in zip(net1.parameters(), net2.parameters()):
            np.testing.assert_array_equal(a, b)
        assert log1 == log2

    def test_lambda2_zero_reduces_to_plate_objective(self):
        ds = self.make_ds()
        _, log = train(ds, self.cfg(lambda2=0.0), (["S1"], "S2"))
        assert all(row.term2 == 0.0 for row in log)
        assert all(row.train_loss == row.term1 for row in log)

    def test_empty_training_set_rejected(self):
        ds = self.make_ds()
        with pytest.raises(ValidationError):
            train(ds, self.cfg(), (["S9"], "S2"))

    @pytest.mark.parametrize("split, message", [
        ((["S1"], "S9"), r"subject 'S9' not in dataset \['S1', 'S2'\]"),
        ((["nope"], "S9"), r"subject 'nope' not in dataset \['S1', 'S2'\]"),
        # a string's characters were taken for subjects, and the others raised
        # TypeError or ValueError
        (("S1", "S2"), "training subjects must be a collection of ids, got the string 'S1'"),
        (5, r"split must be a \(training subjects, test subject\) pair, got 5"),
        ((["S1"], "S2", "S2"), r"split must be a .* pair, got \(\['S1'\], 'S2', 'S2'\)"),
        ((["S1"], ["S2"]), r"split must be a .* pair, got \(\['S1'\], \['S2'\]\)"),
        # trained on S2 and logged S2's metrics as held-out ones
        ((["S1", "S2"], "S2"), "test subject 'S2' is also a training subject"),
    ], ids=["test-subject", "train-subject", "string-train-subjects", "not-a-pair",
            "three-items", "listed-test-subject", "test-subject-trained-on"])
    def test_split_subject_outside_the_dataset_is_named(self, monkeypatch, split, message):
        # a held-out subject without clips once logged NaN test metrics without a word
        monkeypatch.setattr(grf_model, "physics_force_series", None)  # nothing is prepared
        with pytest.raises(ValidationError, match=f"^{message}$"):
            train(self.make_ds(), self.cfg(), split)

    def test_log_has_one_row_per_epoch(self, tmp_path):
        ds = self.make_ds()
        _, log = train(ds, self.cfg(epochs=4), (["S1"], "S2"))
        assert [row.epoch for row in log] == [1, 2, 3, 4]
        write_train_log(log, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,term1,term2,test_vgrf_l,test_vgrf_r,test_vrpe"
        assert len(lines) == 5

    def test_nonfinite_loss_names_epoch_and_batch(self):
        ds = self.make_ds()
        entries = list(ds.entries)
        feats = np.array(entries[0].clip.features)
        feats[5, 3] = 1e300  # finite, but the loss overflows
        entries[0] = dataclasses.replace(
            entries[0], clip=dataclasses.replace(entries[0].clip, features=feats)
        )
        with pytest.raises(ValidationError, match=r"epoch 1, batch 1\b"), \
                np.errstate(over="ignore", invalid="ignore"):
            train(dataclasses.replace(ds, entries=tuple(entries)), self.cfg(), (["S1"], "S2"))

    def test_nonfinite_held_out_prediction_names_epoch_and_clip(self):
        with pytest.raises(ValidationError, match=r"^non-finite held-out prediction at epoch 1, "
                                                  r"clip 'S2/hop' \(non-finite value in forces"):
            train(self.make_ds(), self.cfg(learning_rate=1e300), (["S1"], "S2"))

    def test_held_out_plate_without_valid_frame_rejected_before_training(self, monkeypatch):
        ds = self.make_ds()
        entries = list(ds.entries)
        plate = entries[1].plate
        entries[1] = dataclasses.replace(entries[1], plate=dataclasses.replace(
            plate, per_foot_force=np.full_like(plate.per_foot_force, np.nan),
            valid_mask=np.zeros_like(plate.valid_mask)))
        monkeypatch.setattr(grf_model, "TemporalConvNet", None)  # rejected before a net is built
        with pytest.raises(NoValidFramesError,
                           match="^held-out clip 'S2/hop' has no valid plate frames"):
            train(dataclasses.replace(ds, entries=tuple(entries)), self.cfg(), (["S1"], "S2"))

    def test_overfit_single_hop_clip(self):
        # capacity oracle: fit one clip's plate data in 500 steps. The clip
        # spans exactly one window so every epoch repeats the same batch,
        # making the loss trace comparable step to step. The physics term is
        # off because its pseudo ground truth disagrees with the plates by
        # construction, which would put a floor under the loss that says
        # nothing about model capacity.
        ds = make_dataset(["hop"], n_subjects=2, seed=5, base_params={"duration": 1.2})
        cfg = TrainConfig(
            epochs=500, batch_size=8, learning_rate=2e-3, seed=0,
            lambda1=1.0, lambda2=0.0, window_len=120,
            conv_channels=(16, 16, 16, 16), fc_widths=(16, 8),
        )
        _, log = train(ds, cfg, (["S1"], "S2"))
        losses = [row.train_loss for row in log]
        assert losses[-1] < 0.1 * losses[0]
        drops = sum(1 for i in range(51, len(losses)) if losses[i] <= losses[i - 1])
        assert drops / (len(losses) - 51) >= 0.9


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = TemporalConvNet(7, **TOY, seed=9)
        cfg = TrainConfig(**TOY)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, cfg, path)
        net2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for a, b in zip(net.parameters(), net2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_version_mismatch_rejected(self, tmp_path):
        net = TemporalConvNet(7, **TOY, seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, TrainConfig(**TOY), path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.pop("train_config"),
        lambda doc: doc["train_config"].pop("seed"),
        lambda doc: doc.pop("fc_layers"),
        lambda doc: doc["conv_layers"].pop(),
        lambda doc: doc["conv_layers"][0].update(weights="not*base64!"),
        lambda doc: doc["fc_layers"][1].update(bias=7),
        lambda doc: doc.update(conv_channels="six"),
        lambda doc: doc["train_config"].update(epochs=float("nan")),
        lambda doc: doc["train_config"].update(window_len=2.5),
        lambda doc: doc["train_config"].update(conv_channels=[7, 5, 6, 5]),
        lambda doc: doc["train_config"].update(fc_widths=[8, 7]),
        lambda doc: doc["conv_layers"].__setitem__(2, "weights"),
        lambda doc: doc["fc_layers"][2].pop("bias"),
    ], ids=["no-train-config", "no-seed", "no-fc", "three-conv", "bad-base64",
            "bias-not-text", "channels-not-list", "epochs-nan", "window-len-fraction",
            "config-conv-widths-differ", "config-fc-widths-differ", "layer-not-object",
            "no-bias"])
    def test_malformed_rejected(self, tmp_path, mutate):
        path = tmp_path / "ckpt.json"
        save_checkpoint(TemporalConvNet(7, **TOY, seed=9), TrainConfig(**TOY), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_json_list_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_save_and_load_memory_follow_file_size(self, tmp_path):
        # a 15.1 MB checkpoint: the save streams the document, holding it and
        # one layer's encoding (1.65x the file); the load holds the text and
        # the parsed document (2.0x) and builds the net from the blobs, each
        # dropped as it is decoded
        net = TemporalConvNet(9, (256,) * 4, (64, 32), seed=0)
        cfg = TrainConfig(conv_channels=(256,) * 4)
        path = tmp_path / "ckpt.json"
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: save_checkpoint(net, cfg, path), lambda: load_checkpoint(path)):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = call()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                del out
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 15e6
        assert peaks[0] <= 1.8 * size and peaks[1] <= 2.15 * size


class TestPredictionIO:
    def test_round_trip(self, tmp_path):
        forces = np.random.default_rng(0).normal(size=(9, 2, 3))
        pred = Prediction(forces=forces)
        path = tmp_path / "pred.csv"
        write_prediction_csv(pred, path, 100.0)
        back = load_prediction_csv(path)
        np.testing.assert_array_equal(back.forces, pred.forces)

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            Prediction(forces=bad)

    def test_empty_rejected(self):
        # a header-only prediction file is one load_prediction_csv refuses
        with pytest.raises(ValidationError, match="at least one frame"):
            Prediction(forces=np.zeros((0, 2, 3)))


class TestTrainConfig:
    def test_default_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.epochs == 11
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 3e-5
        assert cfg.seed == 42
        assert cfg.lambda1 == 0.002
        assert cfg.lambda2 == 0.005
        assert cfg.conv_channels == (128, 128, 128, 128)
        assert cfg.fc_widths == (64, 32)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        for name in ("epochs", "batch_size", "window_len"):
            for bad in (np.nan, np.inf, 2.5, 3.0, True, -1):
                with pytest.raises(ValidationError):
                    TrainConfig(**{name: bad})
        assert TrainConfig(epochs=np.int64(2)).epochs == 2
        with pytest.raises(ValidationError):
            TrainConfig(lambda1=-0.1)
        for bad in ({"learning_rate": np.nan}, {"learning_rate": np.inf},
                    {"lambda1": np.nan}, {"lambda2": np.nan}, {"lambda2": np.inf}):
            with pytest.raises(ValidationError):
                TrainConfig(**bad)
        with pytest.raises(ValidationError):
            TrainConfig(conv_channels=(8, 8))
        for bad in ({"seed": np.nan}, {"seed": 2.5}, {"seed": -1}, {"seed": True},
                    {"conv_channels": (6.5, 6, 6, 6)}, {"fc_widths": (8.9, 6)},
                    {"fc_widths": (8, True)}, {"conv_channels": ("6", 6, 6, 6)},
                    {"conv_channels": (np.nan, 6, 6, 6)}, {"fc_widths": (8, 0)},
                    {"conv_channels": (MAX_WIDTH + 1, 6, 6, 6)}, {"fc_widths": (8, 2**63)}):
            with pytest.raises(ValidationError):
                TrainConfig(**bad)
        cfg = TrainConfig(epochs=np.int64(2), seed=np.int64(1),
                          conv_channels=np.array([6, 6, 6, 6]), fc_widths=(np.int64(8), 6))
        json.dumps(dataclasses.asdict(cfg))  # numpy ints are stored as ints
        assert TrainConfig(conv_channels=(MAX_WIDTH,) * 4).conv_channels == (1024,) * 4

    def test_net_rejects_non_integer_widths_and_seeds(self):
        TemporalConvNet(7, **TOY, seed=np.int64(3))
        for args, kwargs in (((2.5,), {}), ((0,), {}), ((7,), {"seed": -1}),
                             ((7,), {"seed": 2.5}), ((7,), {"seed": np.nan}),
                             ((7, (6, 0, 6, 6)), {}), ((7, (6.5, 6, 6, 6)), {}),
                             ((7, (6, 6, 6, 6), (8, 2.5)), {}), ((MAX_WIDTH + 1,), {}),
                             ((7, (6, 6, 6, 2**63)), {})):
            with pytest.raises(ValidationError):
                TemporalConvNet(*args, **kwargs)

    @pytest.mark.parametrize("widths", [
        {"conv_channels": 5}, {"fc_widths": 8}, {"conv_channels": None},
        {"conv_channels": np.array(6)}, {"conv_channels": (6, 6, 6)}, {"fc_widths": (8, 6, 4)},
    ], ids=["conv-int", "fc-int", "conv-none", "conv-0d-array", "three-conv", "three-fc"])
    def test_widths_that_are_not_four_and_two_are_named(self, widths):
        # the first four raised TypeError, in the config and in the net
        message = "^architecture is fixed at four conv and three FC layers, got conv_channels "
        with pytest.raises(ValidationError, match=message):
            TrainConfig(**widths)
        with pytest.raises(ValidationError, match=message):
            TemporalConvNet(9, **{**TOY, **widths})
