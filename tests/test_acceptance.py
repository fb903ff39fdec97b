"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them on success).

Every tolerance is pinned here, not configurable: these are the exit
criteria for the package.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from finite_difference import gradient_check
from physgrd.calibration import DEFAULT_GAIN_CELLS, calibrate
from physgrd.cli import main as cli_main
from physgrd.dynamics import PDGains, SimResult, simulate
from physgrd.grf_model import (
    TemporalConvNet,
    TrainConfig,
    composite_loss,
    train,
)
from physgrd.metrics import vgrf_mse, vrpe
from physgrd.motion_data import ForcePlateRecord, MotionClip
from physgrd.synthetic import gen_synthetic, make_dataset


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_ballistic_oracle():
    t0 = time.perf_counter()
    results = {}
    for rate, bound in ((100.0, 9.81 * 0.01 * 1.0), (1000.0, 0.01)):
        clip, _ = gen_synthetic(
            "ballistic",
            {"x0": (0, 0, 2.0), "v0": (0, 0, 0.0), "duration": 1.0, "frame_rate": rate},
            seed=0,
        )
        sim = simulate(clip, PDGains(0.0, 0.0), mode="closed_loop")
        err = float(np.abs(sim.positions[:, 2] - clip.root_positions[:, 2]).max())
        results[rate] = (err, bound)
    elapsed = time.perf_counter() - t0
    ok = all(err <= bound for err, bound in results.values()) and elapsed < 1.0
    report(
        1, ok,
        f"max vertical error {results[100.0][0]:.4f} m <= {results[100.0][1]:.4f} at 100 Hz, "
        f"{results[1000.0][0]:.5f} m <= 0.01 at 1000 Hz, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_equilibrium_offset():
    T = 2500
    pos = np.tile([0.0, 0.0, 1.0], (T, 1))
    clip = MotionClip("S1", "static", 100.0, 70.0, pos, pos)
    sim = simulate(clip, PDGains(70.0, 3.0), mode="closed_loop")
    offset = float(clip.root_positions[-1, 2] - sim.positions[-1, 2])
    expected = 9.81 / 70.0
    offset_err = abs(offset - expected)
    force_err = float(np.abs(sim.total_force[-1] - np.array([0, 0, 9.81])).max())
    late = sim.positions[-100:, 2]
    settled = float(np.ptp(late)) < 1e-9
    ok = offset_err <= 1e-6 and force_err <= 1e-6 and settled
    report(
        2, ok,
        f"steady offset {offset:.9f} m vs 9.81/70 = {expected:.9f} (err {offset_err:.2e} <= 1e-6), "
        f"steady force err {force_err:.2e} <= 1e-6",
    )


def test_criterion_3_calibration_recovery():
    t0 = time.perf_counter()
    ds = make_dataset(
        ["spring_tracked"], n_subjects=5, clips_per_subject=1, seed=3,
        base_params={"kp": 50.0, "kd": 6.0, "duration": 2.0},
    )
    cells = list(DEFAULT_GAIN_CELLS) + [(50.0, 6.0)]
    rep = calibrate(ds.clips(), cells, mode="closed_loop")
    elapsed = time.perf_counter() - t0
    ok = (
        (rep.best.kp, rep.best.kd) == (50.0, 6.0)
        and rep.best_score < 1e-6
        and elapsed < 10.0
    )
    report(
        3, ok,
        f"selected ({rep.best.kp:g}, {rep.best.kd:g}) with vRPE {rep.best_score:.3e} < 1e-6, "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_4_damping_trend():
    ds = make_dataset(["hop"], n_subjects=3, clips_per_subject=1, seed=7,
                      base_params={"duration": 4.0})
    rep = calibrate(ds.clips(), [(70.0, 3.0), (70.0, 0.0), (10.0, 0.0)])
    s = {cell: rep.per_cell[cell][0] for cell in rep.cells}
    ok = s[(70.0, 3.0)] < s[(70.0, 0.0)] < s[(10.0, 0.0)]
    report(
        4, ok,
        f"mean vRPE ordering (70,3)={s[(70.0, 3.0)]:.2f} < (70,0)={s[(70.0, 0.0)]:.2f} "
        f"< (10,0)={s[(10.0, 0.0)]:.2f}",
    )


def test_criterion_5_gradient_check():
    t0 = time.perf_counter()
    pooled = []
    for seed in range(10):
        r = np.random.default_rng(seed)
        B, T, D = 2, 16, 5
        net = TemporalConvNet(D, conv_channels=(6, 5, 6, 5), fc_widths=(8, 6), seed=seed)
        feats = r.normal(size=(B, T, D))
        plate = r.normal(size=(B, T, 2, 3))
        valid = r.random((B, T)) > 0.3
        plate[~valid] = np.nan
        phys = r.normal(size=(B, T, 3))
        pooled.append(gradient_check(net, feats, plate, valid, phys, 1.0, 1.0, step=1e-6))
    errs = np.concatenate(pooled)
    frac = float((errs <= 1e-4).mean())
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.999 and elapsed < 60.0
    report(
        5, ok,
        f"{frac * 100:.3f}% of {errs.size} parameter entries within 1e-4 of central "
        f"finite differences over 10 seeds (max err {errs.max():.2e}), runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_6_physics_loss_benefit(tmp_path):
    ds = make_dataset(
        ["walk"], n_subjects=5, clips_per_subject=2, seed=11,
        base_params={"duration": 5.0, "missing_lead": 0.3},
    )
    split = (["S1", "S2", "S3", "S4"], "S5")
    wins = 0
    pairs = []
    for seed in range(5):
        scores = {}
        for lam2 in (0.0, 0.005):
            cfg = TrainConfig(
                epochs=40, batch_size=16, learning_rate=1e-3, seed=seed,
                lambda1=0.002, lambda2=lam2, window_len=150,
                conv_channels=(16, 16, 16, 16), fc_widths=(16, 8),
            )
            _, log = train(ds, cfg, split)
            scores[lam2] = log[-1].test_vrpe
        wins += scores[0.005] <= scores[0.0]
        pairs.append((scores[0.0], scores[0.005]))

    # the pipeline must also emit the two evaluation tables in their
    # fixed layouts when a dataset manifest is supplied
    data = tmp_path / "data"
    cli_main(["gen", "--kind", "walk", "--subjects", "2", "--duration", "1.5",
              "--out-dir", str(data)])
    cli_main(["train", "--manifest", str(data / "manifest.json"),
              "--test-subject", "S2", "--epochs", "1", "--batch-size", "8",
              "--learning-rate", "1e-3", "--window-len", "100",
              "--conv-channels", "6,6,6,6", "--fc-widths", "8,6",
              "--out-dir", str(tmp_path / "train")])
    cli_main(["predict", "--manifest", str(data / "manifest.json"),
              "--checkpoint", str(tmp_path / "train" / "checkpoint.json"),
              "--out-dir", str(tmp_path / "pred")])
    cli_main(["metrics", "--manifest", str(data / "manifest.json"),
              "--pred-dir", str(tmp_path / "pred"),
              "--out-dir", str(tmp_path / "metrics")])
    vgrf_header = (tmp_path / "metrics" / "table_vgrf.csv").read_text().splitlines()
    vrpe_header = (tmp_path / "metrics" / "table_vrpe.csv").read_text().splitlines()
    layout_ok = (
        vgrf_header[0] == "motion,left,right"
        and vgrf_header[-1].startswith("Average,")
        and vrpe_header[0] == "motion,mean,std"
        and vrpe_header[-1].startswith("Average,")
    )

    ok = wins >= 4 and layout_ok
    detail = ", ".join(f"{a:.0f}->{b:.0f}" for a, b in pairs)
    report(
        6, ok,
        f"lambda2=0.005 at or below lambda2=0 on {wins}/5 seeds (vRPE {detail}); "
        f"table layouts {'ok' if layout_ok else 'WRONG'}",
    )


def test_criterion_7_metric_unit_checks():
    T = 8
    pos = np.zeros((T, 3))
    clip = MotionClip("S1", "static", 100.0, 70.0, pos, np.zeros((T, 3)))
    off = pos.copy()
    off[:, 2] = 0.01  # offset exactly representable as a difference from zero
    sim = SimResult(
        positions=off,
        velocities=np.zeros_like(off),
        total_force=np.zeros((T - 1, 3)),
        dt=0.01,
    )
    v = vrpe(sim, clip)
    vrpe_ok = v == (0.01 * 0.01) * 1e3 and v == pytest.approx(0.1, rel=1e-12)

    force = np.zeros((T, 2, 3))
    plate = ForcePlateRecord(
        per_foot_force=force,
        per_foot_cop=np.zeros((T, 2, 2)),
        contact_flags=np.ones((T, 2), dtype=bool),
    )
    pred = force.copy()
    pred[:, 0, 2] = 0.1
    left, right = vgrf_mse(pred, plate)
    vgrf_ok = left == 0.1 * 0.1 and right == 0.0 and left == pytest.approx(0.01, rel=1e-12)

    ok = vrpe_ok and vgrf_ok
    report(
        7, ok,
        f"0.01 m offset -> vRPE {v!r} (x10^3 scale), 0.1 BW one-foot error -> "
        f"vGRF ({left!r}, {right!r})",
    )


def _run_pipeline(out: Path) -> None:
    data = out / "data"
    argsets = [
        ["gen", "--kind", "hop,walk", "--subjects", "2", "--duration", "1.5",
         "--seed", "42", "--out-dir", str(data)],
        ["calibrate", "--manifest", str(data / "manifest.json"), "--kp", "70",
         "--kd", "3", "--seed", "42", "--out-dir", str(out / "calib")],
        ["train", "--manifest", str(data / "manifest.json"), "--test-subject", "S2",
         "--gains", str(out / "calib" / "best_gains.json"),
         "--epochs", "2", "--batch-size", "8", "--learning-rate", "1e-3",
         "--window-len", "100", "--conv-channels", "6,6,6,6", "--fc-widths", "8,6",
         "--seed", "42", "--out-dir", str(out / "train")],
        ["predict", "--manifest", str(data / "manifest.json"),
         "--checkpoint", str(out / "train" / "checkpoint.json"),
         "--seed", "42", "--out-dir", str(out / "pred")],
        ["metrics", "--manifest", str(data / "manifest.json"),
         "--pred-dir", str(out / "pred"), "--seed", "42",
         "--out-dir", str(out / "metrics")],
    ]
    for argv in argsets:
        code = cli_main(argv)
        assert code == 0, f"pipeline step failed: {argv[0]}"


def test_criterion_8_pipeline_determinism(tmp_path):
    _run_pipeline(tmp_path / "run1")
    _run_pipeline(tmp_path / "run2")

    def tree(root: Path):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
    t1, t2 = tree(tmp_path / "run1"), tree(tmp_path / "run2")
    same_names = set(t1) == set(t2)
    diffs = [n for n in t1 if same_names and t1[n] != t2[n]]
    ok = same_names and not diffs
    report(
        8, ok,
        f"gen->calibrate->train->predict->metrics twice with seed 42: "
        f"{len(t1)} artifacts byte-identical"
        + ("" if ok else f" EXCEPT {diffs[:3]}"),
    )


def test_criterion_9_missing_data_mask_invariance():
    clip, plate = gen_synthetic(
        "walk", {"duration": 2.0, "missing_lead": 0.2, "missing_spans": ((0.5, 0.6),)},
        seed=9,
    )
    masked = ~plate.valid_mask
    assert masked.sum() >= 10
    net = TemporalConvNet(clip.feature_width, conv_channels=(6, 6, 6, 6),
                          fc_widths=(8, 6), seed=1)
    pred = net.forward(clip.features)
    phys_bw = plate.total_force()
    phys_bw = np.where(np.isfinite(phys_bw), phys_bw, 0.0)
    cfg = TrainConfig(lambda1=0.002, lambda2=0.005)

    base_vgrf = vgrf_mse(pred.forces, plate)
    base_loss = composite_loss(pred.forces, plate, phys_bw, cfg)

    rng = np.random.default_rng(0)
    masked_idx = np.flatnonzero(masked)
    ok = True
    for _ in range(100):
        frame = int(rng.choice(masked_idx))
        force = np.array(plate.per_foot_force)
        force[frame] = rng.normal(scale=100.0, size=(2, 3))
        corrupted = ForcePlateRecord(
            per_foot_force=force,
            per_foot_cop=plate.per_foot_cop,
            contact_flags=plate.contact_flags,
            valid_mask=plate.valid_mask,
        )
        if vgrf_mse(pred.forces, corrupted) != base_vgrf:
            ok = False
            break
        if composite_loss(pred.forces, corrupted, phys_bw, cfg) != base_loss:
            ok = False
            break
    report(
        9, ok,
        f"100 random corruptions of {masked.sum()} masked frames left vGRF MSE and "
        f"composite loss bit-identical",
    )
