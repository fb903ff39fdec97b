"""Command-line front end.

Subcommands: gen, calibrate, simulate, metrics, train, predict, plot.
Every command is deterministic given its inputs and --seed, so rerunning a
pipeline reproduces its artifacts byte for byte. Exit codes: 0 success,
2 usage error, 1 runtime error; failures print one machine-parseable line
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, grf_model, metrics, svgplot, synthetic
from .dynamics import (
    GravitySpec,
    PDGains,
    _frame_forces,
    simulate,
    to_bodyweight,
    write_sim_csv,
)
from .errors import PhysgrdError
from .motion_data import (
    Dataset,
    DatasetEntry,
    _write_table,
    entry_stems,
    load_clip_csv,
    load_force_plate,
    load_manifest,
    write_manifest,
)

class _Parser(argparse.ArgumentParser):
    """Argparse with single-line errors on stderr and exit code 2."""

    def error(self, message):
        print(f"physgrd: usage-error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _vec3(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(parts)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _cell(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected kp,kd, got {text!r}")
    return parts[0], parts[1]


def _gravity(args) -> GravitySpec:
    return GravitySpec(g_accel=np.array([0.0, 0.0, args.gravity_z]))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _gains_from(args) -> PDGains:
    """--gains file if given, else --kp/--kd (the shared gains options)."""
    if args.gains:
        return calibration.load_gains(args.gains)
    return PDGains(kp=args.kp, kd=args.kd)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args, parser) -> int:
    kinds = [k.strip() for k in args.kind.split(",")]
    for k in kinds:
        if k not in synthetic.KINDS:
            parser.error(f"unknown kind {k!r} (choose from {', '.join(synthetic.KINDS)})")
    # written "not > 0" so that NaN is rejected too
    if not (args.duration > 0):
        parser.error("--duration must be > 0")
    if not (args.frame_rate > 0):
        parser.error("--frame-rate must be > 0")
    if args.freq is not None and not (args.freq > 0):
        parser.error("--freq must be > 0")
    if args.subjects < 1 or args.clips < 1:
        parser.error("--subjects and --clips must be >= 1")

    # every generator flag's dest is the name of the parameter it sets
    base = {k: v for k, v in vars(args).items() if k in synthetic.PARAMS and v is not None}

    dataset = synthetic.make_dataset(
        kinds, args.subjects, args.clips, seed=args.seed, base_params=base
    )
    out = _out_dir(args)
    manifest = write_manifest(dataset, out)
    for stem in entry_stems(dataset):
        print(out / f"{stem}_clip.csv")
        print(out / f"{stem}_plate.csv")
    print(manifest)
    return 0


def cmd_calibrate(args, parser) -> int:
    if (args.kp is None) != (args.kd is None):
        parser.error("--kp and --kd must be given together")
    dataset = load_manifest(args.manifest)
    if len(dataset) == 0:
        raise PhysgrdError("empty dataset: manifest lists no clips")
    if args.kp is not None and args.kd is not None:
        cells = [(args.kp, args.kd)]
    elif args.kp_values and args.kd_values:
        cells = calibration.GainGrid(args.kp_values, args.kd_values).cells()
    else:
        cells = list(calibration.DEFAULT_GAIN_CELLS)
    for extra in args.extra_cell or []:
        if extra not in cells:
            cells.append(extra)

    report = calibration.calibrate(
        dataset.clips(), cells, _gravity(args), args.mode
    )
    out = _out_dir(args)
    calibration.write_report_csv(report, out / "calibration_report.csv")
    calibration.write_best_gains(report, out / "best_gains.json")
    print(f"best kp={report.best.kp:g} kd={report.best.kd:g} vrpe={report.best_score:.6g}")
    print(out / "calibration_report.csv")
    print(out / "best_gains.json")
    return 0


def cmd_simulate(args, parser) -> int:
    gains = _gains_from(args)
    gravity = _gravity(args)
    if args.manifest:
        dataset = load_manifest(args.manifest)
    elif args.clip:
        clip = load_clip_csv(args.clip, mass=args.mass)
        dataset = Dataset((DatasetEntry(clip=clip),))
    else:
        parser.error("simulate needs --manifest or --clip")
    out = _out_dir(args)
    rows = []
    for entry, stem in zip(dataset, entry_stems(dataset)):
        res = simulate(entry.clip, gains, gravity, args.mode)
        name = f"{stem}_sim.csv"
        write_sim_csv(res, out / name)
        rows.append((entry.clip.subject_id, entry.clip.motion_label, name,
                     metrics.vrpe(res, entry.clip)))
        print(out / name)
    _write_table(out / "simulate_summary.csv", ("subject", "motion", "file", "vrpe"), rows)
    print(out / "simulate_summary.csv")
    return 0


def cmd_train(args, parser) -> int:
    dataset = load_manifest(args.manifest)
    subjects = dataset.subjects()
    if not subjects:
        raise PhysgrdError("empty dataset: manifest lists no clips")
    test_subject = args.test_subject or subjects[-1]
    if test_subject not in subjects:
        raise PhysgrdError(f"test subject {test_subject!r} not in dataset {subjects}")
    train_subjects = [s for s in subjects if s != test_subject]
    if not train_subjects:
        raise PhysgrdError("need at least two subjects to hold one out")

    cfg = grf_model.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        window_len=args.window_len,
        conv_channels=args.conv_channels,
        fc_widths=args.fc_widths,
    )
    gains = _gains_from(args)
    net, log = grf_model.train(
        dataset, cfg, (train_subjects, test_subject), gains, _gravity(args), args.mode
    )
    out = _out_dir(args)
    grf_model.save_checkpoint(net, cfg, out / "checkpoint.json")
    grf_model.write_train_log(log, out / "train_log.csv")
    last = log[-1]
    print(
        f"epoch {last.epoch}: loss={last.train_loss:.6g} "
        f"test_vgrf=({last.test_vgrf_l:.6g},{last.test_vgrf_r:.6g}) "
        f"test_vrpe={last.test_vrpe:.6g}"
    )
    print(out / "checkpoint.json")
    print(out / "train_log.csv")
    return 0


def cmd_predict(args, parser) -> int:
    dataset = load_manifest(args.manifest)
    net, _ = grf_model.load_checkpoint(args.checkpoint)
    out = _out_dir(args)
    for entry, stem in zip(dataset, entry_stems(dataset)):
        if args.subject and entry.clip.subject_id != args.subject:
            continue
        pred = net.forward(entry.clip.features)
        name = f"{stem}_pred.csv"
        grf_model.write_prediction_csv(pred, out / name, entry.clip.frame_rate)
        print(out / name)
    return 0


def cmd_metrics(args, parser) -> int:
    dataset = load_manifest(args.manifest)
    pred_dir = Path(args.pred_dir)
    gravity = _gravity(args)
    out = _out_dir(args)

    rows = []
    per_vgrf: dict[tuple, tuple[float, float]] = {}
    per_vrpe: dict[tuple, float] = {}
    for entry, stem in zip(dataset, entry_stems(dataset)):
        if args.subject and entry.clip.subject_id != args.subject:
            continue
        pred_path = pred_dir / f"{stem}_pred.csv"
        if not pred_path.exists():
            raise PhysgrdError(f"missing prediction file {pred_path}")
        pred = grf_model.load_prediction_csv(pred_path)
        left, right, v = metrics.evaluate_prediction(
            entry.clip, entry.plate, pred.forces, gravity
        )
        key = (entry.clip.subject_id, entry.clip.motion_label, stem)
        if entry.plate is not None:
            per_vgrf[key] = (left, right)
        per_vrpe[key] = v
        rows.append((*key[:2], pred_path.name, left, right, v))
    if not rows:
        raise PhysgrdError("no predictions matched the manifest")
    header = ("subject", "motion", "file", "vgrf_l", "vgrf_r", "vrpe")
    _write_table(out / "metrics_summary.csv", header, rows)
    print(out / "metrics_summary.csv")
    if per_vgrf:
        metrics.write_metric_table(
            metrics.aggregate(per_vgrf, kind="vgrf"), out / "table_vgrf.csv"
        )
        print(out / "table_vgrf.csv")
    metrics.write_metric_table(
        metrics.aggregate(per_vrpe, kind="vrpe"), out / "table_vrpe.csv"
    )
    print(out / "table_vrpe.csv")
    return 0


def cmd_plot(args, parser) -> int:
    clip = load_clip_csv(args.clip, mass=args.mass)
    gravity = _gravity(args)
    gains = _gains_from(args)
    out = _out_dir(args)
    t = clip.times

    traj_series = [svgplot.LineSeries("mocap z", t, clip.root_positions[:, 2])]
    force_series = []

    if args.plate:
        plate = load_force_plate(args.plate)
        if len(plate) != len(clip):
            raise PhysgrdError(
                f"series length mismatch: plate has {len(plate)} rows, clip {len(clip)}"
            )
        total = plate.per_foot_force[:, 0, 2] + plate.per_foot_force[:, 1, 2]
        force_series.append(
            svgplot.LineSeries("plate vGRF", t, total, mask=plate.valid_mask)
        )
    sim = simulate(clip, gains, gravity, args.mode)
    traj_series.append(svgplot.LineSeries("simulated z", t, sim.positions[:, 2]))
    phys_bw = to_bodyweight(_frame_forces(sim))
    force_series.append(svgplot.LineSeries("physics vGRF", t, phys_bw[:, 2]))
    if args.pred:
        pred = grf_model.load_prediction_csv(args.pred)
        if len(pred) != len(clip):
            raise PhysgrdError(
                f"series length mismatch: prediction has {len(pred)} rows, clip {len(clip)}"
            )
        force_series.append(
            svgplot.LineSeries("predicted vGRF", t, pred.total()[:, 2])
        )

    svgplot.write_svg(traj_series, out / "trajectory.svg",
                      title="vertical root trajectory", ylabel="z [m]")
    svgplot.write_series_csv(traj_series, out / "trajectory.csv")
    svgplot.write_svg(force_series, out / "force.svg",
                      title="vertical reaction force", ylabel="force [BW]")
    svgplot.write_series_csv(force_series, out / "force.csv")
    for name in ("trajectory.svg", "trajectory.csv", "force.svg", "force.csv"):
        print(out / name)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="physgrd", description=__doc__.strip().splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="master random seed")
    common.add_argument("--out-dir", default=".", help="output directory")
    gravity = _Parser(add_help=False)  # every command but gen and predict
    gravity.add_argument("--gravity-z", type=float, default=9.81,
                         help="gravity magnitude along -z [m/s^2]")
    mode = _Parser(add_help=False)  # the commands that simulate
    mode.add_argument("--mode", choices=("closed_loop", "open_loop"),
                      default="closed_loop", help="simulation feedback mode")
    gains = _Parser(add_help=False)
    gains.add_argument("--kp", type=float, default=70.0,
                       help="PD gain kp for simulation and physics supervision")
    gains.add_argument("--kd", type=float, default=3.0, help="PD gain kd")
    gains.add_argument("--gains", default=None, help="best_gains.json from calibrate")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic data")
    p.add_argument("--kind", required=True,
                   help="hop | walk | ballistic | spring_tracked (comma list allowed)")
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--clips", type=int, default=1, help="clips per subject per kind")
    p.add_argument("--duration", type=float, default=4.0, help="seconds")
    p.add_argument("--frame-rate", type=float, default=100.0)
    p.add_argument("--mass", type=float, default=None, help="fix subject mass [kg]")
    p.add_argument("--freq", type=float, default=None, help="hop frequency [Hz]")
    p.add_argument("--amplitude", type=float, default=None, help="hop amplitude in [0,1]")
    p.add_argument("--contact-fraction", type=float, default=None)
    p.add_argument("--speed", type=float, default=None, help="walk speed [m/s]")
    p.add_argument("--step-freq", type=float, default=None, help="walk step rate [Hz]")
    p.add_argument("--bob-amplitude", type=float, default=None)
    p.add_argument("--kp", type=float, default=None, help="spring_tracked kp")
    p.add_argument("--kd", type=float, default=None, help="spring_tracked kd")
    p.add_argument("--x0", type=_vec3, default=None, help="ballistic start, e.g. 0,0,2")
    p.add_argument("--v0", type=_vec3, default=None, help="ballistic velocity")
    p.add_argument("--missing-lead", type=float, default=None,
                   help="fraction of leading plate frames marked missing")
    p.add_argument("--plate-noise", type=float, default=None, help="plate noise std [BW]")
    p.add_argument("--jitter", type=float, default=None,
                   help="per-subject parameter jitter fraction")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("calibrate", parents=[common, gravity, mode], help="grid-search PD gains")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kp", type=float, default=None, help="singleton cell kp")
    p.add_argument("--kd", type=float, default=None, help="singleton cell kd")
    p.add_argument("--kp-values", type=_float_list, default=None,
                   help="dense grid kp values, comma separated")
    p.add_argument("--kd-values", type=_float_list, default=None,
                   help="dense grid kd values, comma separated")
    p.add_argument("--extra-cell", type=_cell, action="append",
                   help="append a kp,kd cell to the search set")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", parents=[common, gravity, mode, gains],
                       help="PD-track clips and export")
    p.add_argument("--manifest")
    p.add_argument("--clip", help="single clip CSV instead of a manifest")
    p.add_argument("--mass", type=float, default=1.0, help="mass for bare --clip loads")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common, gravity, mode, gains], help="train the force predictor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test-subject", default=None,
                   help="held-out subject id (default: last by sort order)")
    p.add_argument("--epochs", type=int, default=11)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=3e-5)
    p.add_argument("--lambda1", type=float, default=0.002)
    p.add_argument("--lambda2", type=float, default=0.005)
    p.add_argument("--window-len", type=int, default=240)
    p.add_argument("--conv-channels", type=_int_list, default=(128, 128, 128, 128))
    p.add_argument("--fc-widths", type=_int_list, default=(64, 32))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="run a checkpoint over clips")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subject", default=None, help="restrict to one subject")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("metrics", parents=[common, gravity], help="score predictions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--subject", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plot", parents=[common, gravity, mode, gains], help="emit SVG overlays")
    p.add_argument("--clip", required=True)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--plate", default=None)
    p.add_argument("--pred", default=None)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except PhysgrdError as exc:
        print(f"physgrd: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"physgrd: error: OSError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
