import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import conv_reference
from finite_difference import gradient_check
from physgrd.errors import CheckpointError, ValidationError
from physgrd.grf_model import (
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
        assert _elu_grad(x.copy(), out=None).tobytes() == conv_reference._elu_grad(x).tobytes()


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
    ])
    def test_forward_and_backward_bit_identical(self, B, T, D, channels):
        net = TemporalConvNet(D, (channels,) * 4, (8, 6), seed=B + T)
        r = np.random.default_rng(T)
        x = r.normal(size=(B, T, D))
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
        # 315.9 MB is the traced peak of one canonical step when every conv
        # array was allocated afresh; the second call counts what the
        # workspace retained from the first
        net = TemporalConvNet(9, seed=0)
        args = (*toy_batch(0, 64, 240, 9), 0.002, 0.005)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                tracemalloc.reset_peak()
                net.loss_and_grads(*args)
                assert tracemalloc.get_traced_memory()[1] - start <= 315.9e6
        finally:
            tracemalloc.stop()


class TestAdam:
    def test_moves_against_gradient(self):
        p = np.ones(3)
        opt = Adam([p], lr=0.1)
        opt.step([p], [np.ones(3)])
        assert (p < 1.0).all()


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
    ], ids=["no-train-config", "no-seed", "no-fc", "three-conv", "bad-base64",
            "bias-not-text", "channels-not-list", "epochs-nan", "window-len-fraction",
            "config-conv-widths-differ", "config-fc-widths-differ"])
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
