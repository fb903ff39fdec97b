"""Command-line front end.

Subcommands: gen, calibrate, simulate, metrics, train, predict, plot.
Every command is deterministic given its inputs and --seed, so rerunning a
pipeline reproduces its artifacts byte for byte. Exit codes: 0 success,
2 usage error, 1 runtime error; failures print one machine-parseable line
to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import calibration, grf_model, metrics, svgplot, synthetic
from .dynamics import (
    GravitySpec,
    PDGains,
    _frame_forces,
    _simulations,
    simulate,
    to_bodyweight,
    write_sim_csv,
)
from .errors import PhysgrdError
from .motion_data import (
    Dataset,
    DatasetEntry,
    _aligned,
    _check_subjects,
    _load_clip,
    _load_plate,
    _write_table,
    entry_stems,
    load_clip_csv,
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
    """--gains file if given, calibrated in --mode, else --kp/--kd (the shared gains options)."""
    if args.gains:
        return calibration.load_gains(args.gains, args.mode)
    return PDGains(kp=args.kp, kd=args.kd)


def _of_subject(dataset: Dataset, subject: str | None) -> list[tuple[DatasetEntry, str]]:
    """(entry, stem) of each entry of --subject, or of every entry without
    one; a subject the dataset does not hold is an error."""
    _check_subjects(dataset, [subject] if subject else [])
    return [(entry, stem) for entry, stem in zip(dataset, entry_stems(dataset))
            if not subject or entry.clip.subject_id == subject]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args, parser) -> int:
    kinds = [k.strip() for k in args.kind.split(",")]
    for k in kinds:
        if k not in synthetic.KINDS:
            parser.error(f"unknown kind {k!r} (choose from {', '.join(synthetic.KINDS)})")
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
    if (args.kp_values is None) != (args.kd_values is None):
        parser.error("--kp-values and --kd-values must be given together")
    if args.kp is not None and args.kp_values is not None:
        parser.error("--kp/--kd and --kp-values/--kd-values cannot be combined")
    dataset = load_manifest(args.manifest)
    if len(dataset) == 0:
        raise PhysgrdError("empty dataset: manifest lists no clips")
    if args.kp is not None:
        cells = [(args.kp, args.kd)]
    elif args.kp_values is not None:
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
        clip = load_clip_csv(args.clip)
        dataset = Dataset((DatasetEntry(clip=clip),))
    else:
        parser.error("simulate needs --manifest or --clip")
    out = _out_dir(args)
    rows = []
    results = _simulations(dataset.clips(), gains, gravity, args.mode)
    for entry, stem, res in zip(dataset, entry_stems(dataset), results):
        name = f"{stem}_sim.csv"
        write_sim_csv(res, out / name, entry.clip.frame_rate)
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
    train_subjects = [s for s in subjects if s != test_subject]
    if not train_subjects:
        raise PhysgrdError("need at least two subjects to hold one out")

    cfg = grf_model.TrainConfig(**{f.name: getattr(args, f.name)
                                   for f in fields(grf_model.TrainConfig)})
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
    entries = _of_subject(load_manifest(args.manifest), args.subject)
    net, _ = grf_model.load_checkpoint(args.checkpoint)
    out = _out_dir(args)
    for entry, stem in entries:
        pred = net.forward(entry.clip.features)
        name = f"{stem}_pred.csv"
        grf_model.write_prediction_csv(pred, out / name, entry.clip.frame_rate)
        print(out / name)
    return 0


def cmd_metrics(args, parser) -> int:
    entries = _of_subject(load_manifest(args.manifest), args.subject)
    pred_dir = Path(args.pred_dir)
    gravity = _gravity(args)

    rows = []
    per_vgrf: dict[tuple, tuple[float, float]] = {}
    per_vrpe: dict[tuple, float] = {}
    for entry, stem in entries:
        pred_path = pred_dir / f"{stem}_pred.csv"
        if not pred_path.exists():
            raise PhysgrdError(f"missing prediction file {pred_path}")
        pred = _aligned(pred_path, "prediction", *grf_model._load_prediction(pred_path),
                        entry.clip.times)  # write_prediction_csv counts them from 0
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
    out = _out_dir(args)
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
    clip_t, clip = _load_clip(args.clip, "S1", "clip", 1.0, None)
    gravity = _gravity(args)
    gains = _gains_from(args)
    t = clip.times

    traj_series = [svgplot.LineSeries("mocap z", t, clip.root_positions[:, 2])]
    force_series = []

    if args.plate:
        plate = _aligned(Path(args.plate), "plate",
                         *_load_plate(args.plate, "bodyweight", None), clip_t)
        force_series.append(svgplot.LineSeries(
            "plate vGRF", t, plate.total_force()[:, 2], mask=plate.valid_mask
        ))
    pred = (_aligned(Path(args.pred), "prediction", *grf_model._load_prediction(args.pred), t)
            if args.pred else None)
    sim = simulate(clip, gains, gravity, args.mode)
    traj_series.append(svgplot.LineSeries("simulated z", t, sim.positions[:, 2]))
    phys_bw = to_bodyweight(_frame_forces(sim.total_force))
    force_series.append(svgplot.LineSeries("physics vGRF", t, phys_bw[:, 2]))
    if pred is not None:
        force_series.append(
            svgplot.LineSeries("predicted vGRF", t, pred.total_force()[:, 2])
        )

    out = _out_dir(args)
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
    # each default is read from the library value it stands for
    train_cfg = grf_model.TrainConfig()
    common.add_argument("--seed", type=int, default=train_cfg.seed, help="master random seed")
    common.add_argument("--out-dir", default=".", help="output directory")
    gravity = _Parser(add_help=False)  # every command but gen and predict
    gravity.add_argument("--gravity-z", type=float, default=float(GravitySpec().g_accel[2]),
                         help="gravity magnitude along -z [m/s^2]")
    mode = _Parser(add_help=False)  # the commands that simulate
    mode.add_argument("--mode", choices=("closed_loop", "open_loop"),
                      default="closed_loop", help="simulation feedback mode")
    gains = _Parser(add_help=False)
    gains.add_argument("--kp", type=float, default=grf_model.DEFAULT_GAINS.kp,
                       help="PD gain kp for simulation and physics supervision")
    gains.add_argument("--kd", type=float, default=grf_model.DEFAULT_GAINS.kd, help="PD gain kd")
    gains.add_argument("--gains", default=None, help="best_gains.json from calibrate")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic data")
    p.add_argument("--kind", required=True,
                   help=" | ".join(synthetic.KINDS) + " (comma list allowed)")
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--clips", type=int, default=1, help="clips per subject per kind")
    for name, spec in synthetic.PARAMS.items():  # one flag per generator parameter
        if spec.help is not None:
            kind = _vec3 if isinstance(spec.default, tuple) else type(spec.default)
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=None, help=spec.help)
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common, gravity, mode, gains], help="train the force predictor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test-subject", default=None,
                   help="held-out subject id (default: last by sort order)")
    for f in fields(train_cfg):  # one flag per TrainConfig field; --seed is common
        if f.name != "seed":
            kind = _int_list if isinstance(f.default, tuple) else type(f.default)
            p.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)
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
