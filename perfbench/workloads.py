"""The three benchmark workloads: their inputs, one pass each, and its outputs.

Every workload builds its inputs with synthetic.make_dataset from the seed
and then calls only physgrd's public functions, the way the CLI command it
stands for does. A pass returns one Op per checked output unit; run.py
times passes, compares output fingerprints and turns both into metrics.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from physgrd import calibration, grf_model, metrics, motion_data, synthetic

import kernels


@dataclass(frozen=True)
class Size:
    """Input sizes shared by the workloads."""

    subjects: int
    clips_per_kind: int
    duration_s: float
    kp_values: tuple[float, ...]
    kd_values: tuple[float, ...]
    epochs: int
    batch_size: int
    window_len: int
    conv_channels: tuple[int, ...]
    fc_widths: tuple[int, ...]


SIZES = {
    # 20 clips x 1000 frames at 100 Hz; a 54-cell grid; the canonical network
    "full": Size(
        subjects=5, clips_per_kind=2, duration_s=10.0,
        kp_values=tuple(float(k) for k in range(10, 100, 10)),
        kd_values=tuple(float(k) for k in range(0, 16, 3)),
        epochs=3, batch_size=64, window_len=240,
        conv_channels=(128, 128, 128, 128), fc_widths=(64, 32),
    ),
    # the same code paths at a size that runs in about a second
    "tiny": Size(
        subjects=2, clips_per_kind=1, duration_s=1.0,
        kp_values=(10.0, 50.0), kd_values=(0.0, 6.0),
        epochs=1, batch_size=8, window_len=40,
        conv_channels=(8, 8, 8, 8), fc_widths=(8, 8),
    ),
}

KINDS = ("hop", "walk")


@dataclass(frozen=True)
class Op:
    """One checked unit of work in a pass.

    latency_s is None for work that is not a latency sample; outputs are the
    file names (in the pass directory) whose fingerprints check the op.
    """

    latency_s: float | None
    outputs: tuple[str, ...]
    error: str | None = None


def _timed(fn) -> tuple[float, str | None]:
    """Run fn, returning its wall time and the error it raised, if any.

    A failing op is recorded, not fatal: the benchmark reports it in its
    failure count and goes on with the next op.
    """
    start = perf_counter()
    try:
        fn()
    except Exception as exc:  # any failure of the program under test
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, None


def fingerprints(out: Path) -> dict[str, str]:
    """sha256 of every file directly under a pass directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Workload:
    """Shared set-up: the seeded dataset every workload starts from."""

    name = ""
    frames_alias = ("", "")  # the workload-specific name and unit of frames_per_s
    min_latency_samples = 1

    def __init__(self, size: Size, seed: int, work: Path):
        self.size = size
        self.seed = seed
        self.work = work
        self.make_dataset_s = float("nan")

    def setup(self) -> None:
        """Build the inputs; run.py repeats this and reports the median."""
        start = perf_counter()
        self.dataset = synthetic.make_dataset(
            list(KINDS), self.size.subjects, self.size.clips_per_kind,
            seed=self.seed, base_params={"duration": self.size.duration_s},
        )
        self.make_dataset_s = perf_counter() - start

    def sizes(self) -> dict:
        return {
            "clips": len(self.dataset),
            "frames_per_clip": sorted({len(e.clip) for e in self.dataset}),
            "feature_width": self.dataset.clips()[0].feature_width,
            "subjects": self.dataset.subjects(),
        }

    def frames_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def computed(self) -> dict:
        return {}


class CalibGrid(Workload):
    """`physgrd calibrate` over a dense kp x kd grid in closed loop."""

    name = "calib_grid"
    frames_alias = ("calibrate_steps_per_s", "steps/s")
    outputs = ("calibration_report.csv", "best_gains.json")

    def setup(self) -> None:
        super().setup()
        self.clips = self.dataset.clips()
        self.grid = calibration.GainGrid(self.size.kp_values, self.size.kd_values)

    def frames_per_pass(self) -> int:
        return kernels.integrator_steps(self.clips, len(self.grid.cells()))

    def run_pass(self, out: Path) -> list[Op]:
        def op():
            report = calibration.calibrate(self.clips, self.grid, mode="closed_loop")
            calibration.write_report_csv(report, out / "calibration_report.csv")
            calibration.write_best_gains(report, out / "best_gains.json")

        latency, error = _timed(op)
        return [Op(latency, self.outputs, error)]

    def sizes(self) -> dict:
        return {**super().sizes(), "cells": len(self.grid.cells()), "mode": "closed_loop"}

    def computed(self) -> dict:
        return {"calibration.calibrate.integrator_steps": self.frames_per_pass()}


class TrainCanonical(Workload):
    """`physgrd train`: fit the predictor, then save the checkpoint and log."""

    name = "train_canonical"
    frames_alias = ("train_frames_per_s", "frames/s")
    outputs = ("checkpoint.json", "train_log.csv")

    def setup(self) -> None:
        super().setup()
        subjects = self.dataset.subjects()
        self.split = (subjects[:-1], subjects[-1])
        s = self.size
        self.cfg = grf_model.TrainConfig(
            epochs=s.epochs, batch_size=s.batch_size, window_len=s.window_len,
            conv_channels=s.conv_channels, fc_widths=s.fc_widths,
        )

    def _windows(self) -> list[int]:
        """Window length of every window one epoch samples (as train() does)."""
        out = []
        for e in self.dataset:
            if e.clip.subject_id in self.split[0] and e.plate is not None:
                T = len(e.clip)
                n_win = max(1, int(round(T / self.cfg.window_len)))
                out += [min(self.cfg.window_len, T)] * n_win
        return out

    def frames_per_pass(self) -> int:
        return self.cfg.epochs * sum(self._windows())

    def run_pass(self, out: Path) -> list[Op]:
        def op():
            net, log = grf_model.train(self.dataset, self.cfg, self.split)
            grf_model.save_checkpoint(net, self.cfg, out / "checkpoint.json")
            grf_model.write_train_log(log, out / "train_log.csv")

        latency, error = _timed(op)
        return [Op(latency, self.outputs, error)]

    def sizes(self) -> dict:
        return {
            **super().sizes(),
            "train_subjects": list(self.split[0]),
            "test_subject": self.split[1],
            "epochs": self.cfg.epochs,
            "batch_size": self.cfg.batch_size,
            "window_len": self.cfg.window_len,
            "windows_per_epoch": len(self._windows()),
            "conv_channels": list(self.cfg.conv_channels),
            "fc_widths": list(self.cfg.fc_widths),
        }

    def computed(self) -> dict:
        D = self.dataset.clips()[0].feature_width
        net = grf_model.TemporalConvNet(D, self.cfg.conv_channels, self.cfg.fc_widths)
        by_len: dict[int, int] = {}
        for wl in self._windows():
            by_len[wl] = by_len.get(wl, 0) + 1
        step_calls = self.cfg.epochs * sum(
            math.ceil(n / self.cfg.batch_size) for n in by_len.values()
        )
        flops, window_bytes = kernels.train_step_counts(
            net, self.cfg.batch_size, self.cfg.window_len
        )
        test = [e.clip for e in self.dataset if e.clip.subject_id == self.split[1]]
        fwd = [kernels.forward_counts(net, 1, len(c)) for c in test]
        return {
            "grf_model.loss_and_grads.calls": step_calls,
            "grf_model.loss_and_grads.flops_per_full_batch": flops,
            "grf_model.loss_and_grads.window_bytes_per_full_batch": window_bytes,
            "grf_model.forward.calls": self.cfg.epochs * len(test),
            "grf_model.forward.flops": self.cfg.epochs * sum(f for f, _ in fwd),
            "grf_model.forward.window_bytes": self.cfg.epochs * sum(b for _, b in fwd),
        }


class PredictEval(Workload):
    """`physgrd gen` -> `predict` -> `metrics` through files, clip by clip.

    The checkpoint is a freshly initialised canonical-width network: its
    forward pass costs what a trained one's does.
    """

    name = "predict_eval"
    frames_alias = ("predict_eval_frames_per_s", "frames/s")
    # p90 needs ten samples beyond it
    min_latency_samples = 100
    tables = ("table_vgrf.csv", "table_vrpe.csv")

    def setup(self) -> None:
        super().setup()
        s = self.size
        D = self.dataset.clips()[0].feature_width
        net = grf_model.TemporalConvNet(D, s.conv_channels, s.fc_widths, seed=self.seed)
        cfg = grf_model.TrainConfig(conv_channels=s.conv_channels, fc_widths=s.fc_widths)
        self.checkpoint = self.work / "input" / "checkpoint.json"
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        grf_model.save_checkpoint(net, cfg, self.checkpoint)

    def frames_per_pass(self) -> int:
        return sum(len(e.clip) for e in self.dataset)

    def run_pass(self, out: Path) -> list[Op]:
        loaded = {}

        def read_inputs():
            manifest = motion_data.write_manifest(self.dataset, out / "data")
            loaded["dataset"] = motion_data.load_manifest(manifest)
            loaded["net"], _ = grf_model.load_checkpoint(self.checkpoint)

        _, error = _timed(read_inputs)
        if error:
            return [Op(None, (), error)] * (len(self.dataset) + 1)
        dataset, net = loaded["dataset"], loaded["net"]

        per_vgrf: dict[tuple, tuple[float, float]] = {}
        per_vrpe: dict[tuple, float] = {}
        ops = []
        for entry, stem in zip(dataset, motion_data.entry_stems(dataset)):
            name = f"{stem}_pred.csv"

            def clip_op():
                pred = net.forward(entry.clip.features)
                grf_model.write_prediction_csv(pred, out / name, entry.clip.frame_rate)
                back = grf_model.load_prediction_csv(out / name)
                left, right, v = metrics.evaluate_prediction(
                    entry.clip, entry.plate, back.forces
                )
                key = (entry.clip.subject_id, entry.clip.motion_label, stem)
                if entry.plate is not None:
                    per_vgrf[key] = (left, right)
                per_vrpe[key] = v

            latency, error = _timed(clip_op)
            ops.append(Op(latency, (name,), error))

        def write_tables():
            if per_vgrf:
                metrics.write_metric_table(
                    metrics.aggregate(per_vgrf, kind="vgrf"), out / "table_vgrf.csv"
                )
            metrics.write_metric_table(
                metrics.aggregate(per_vrpe, kind="vrpe"), out / "table_vrpe.csv"
            )

        _, error = _timed(write_tables)
        ops.append(Op(None, self.tables, error))
        return ops

    def computed(self) -> dict:
        net, _ = grf_model.load_checkpoint(self.checkpoint)
        fwd = [kernels.forward_counts(net, 1, len(e.clip)) for e in self.dataset]
        return {
            "grf_model.forward.calls": len(fwd),
            "grf_model.forward.flops": sum(f for f, _ in fwd),
            "grf_model.forward.window_bytes": sum(b for _, b in fwd),
            "dynamics.rollout_forces.integrator_steps": kernels.integrator_steps(
                self.dataset.clips()
            ),
        }


WORKLOADS = {w.name: w for w in (CalibGrid, TrainCanonical, PredictEval)}
