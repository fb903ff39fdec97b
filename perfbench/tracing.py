"""Span tracing of physgrd's public functions, installed from outside.

Tracer.installed() replaces each traced function, in every module or class
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent, pass) in memory, and restores the originals on exit.
Nothing in physgrd changes and nothing is patched in untraced runs.

cli and svgplot are not traced: cli parses arguments around these same
calls, and svgplot is off the compute path of every workload.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from physgrd import calibration, dynamics, grf_model, metrics, motion_data

import kernels


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return Path(path).stat().st_size


def _dir_size(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _steps(args, kwargs, out):
    return {"steps": max(len(_arg(args, kwargs, 0, "clip")) - 1, 0)}


def _forward(args, kwargs, out):
    frames = len(_arg(args, kwargs, 1, "features"))
    flops, window_bytes = kernels.forward_counts(args[0], 1, frames)
    return {"frames": frames, "flops": flops, "window_bytes": window_bytes}


def _train_step(args, kwargs, out):
    batch, frames = _arg(args, kwargs, 1, "features").shape[:2]
    flops, window_bytes = kernels.train_step_counts(args[0], batch, frames)
    return {"frames": batch * frames, "flops": flops, "window_bytes": window_bytes}


def _cells(args, kwargs, out):
    return {"cells": len(out.cells), "cells_scored": len(out.cells) - len(out.diverged)}


def _inf(args, kwargs, out):
    return {"inf": int(not math.isfinite(out[2]))}


def _bytes_of(index, name):
    return lambda args, kwargs, out: {"bytes": _size(_arg(args, kwargs, index, name))}


# (span name, owners holding a reference, attribute, counter, the counter's keys)
TRACED = (
    ("calibration.calibrate", (calibration,), "calibrate", _cells, ("cells", "cells_scored")),
    ("calibration.write_report_csv", (calibration,), "write_report_csv", None, ()),
    ("calibration.write_best_gains", (calibration,), "write_best_gains", None, ()),
    ("dynamics.simulate", (dynamics, calibration), "simulate", _steps, ("steps",)),
    ("dynamics.physics_force_series", (dynamics, grf_model), "physics_force_series", None, ()),
    ("dynamics.rollout_forces", (dynamics, metrics), "rollout_forces", _steps, ("steps",)),
    ("metrics.vrpe", (metrics,), "vrpe", None, ()),
    ("metrics.vgrf_mse", (metrics,), "vgrf_mse", None, ()),
    ("metrics.evaluate_prediction", (metrics, grf_model), "evaluate_prediction", _inf, ("inf",)),
    ("metrics.aggregate", (metrics,), "aggregate", None, ()),
    ("metrics.write_metric_table", (metrics,), "write_metric_table", None, ()),
    ("grf_model.train", (grf_model,), "train", None, ()),
    ("grf_model.loss_and_grads", (grf_model.TemporalConvNet,), "loss_and_grads",
     _train_step, ("frames", "flops", "window_bytes")),
    ("grf_model.forward", (grf_model.TemporalConvNet,), "forward",
     _forward, ("frames", "flops", "window_bytes")),
    ("grf_model.adam_step", (grf_model.Adam,), "step", None, ()),
    ("grf_model.save_checkpoint", (grf_model,), "save_checkpoint", _bytes_of(2, "path"), ("bytes",)),
    ("grf_model.load_checkpoint", (grf_model,), "load_checkpoint", _bytes_of(0, "path"), ("bytes",)),
    ("grf_model.write_train_log", (grf_model,), "write_train_log", None, ()),
    ("grf_model.write_prediction_csv", (grf_model,), "write_prediction_csv",
     _bytes_of(1, "path"), ("bytes",)),
    ("grf_model.load_prediction_csv", (grf_model,), "load_prediction_csv",
     _bytes_of(0, "path"), ("bytes",)),
    ("motion_data.write_manifest", (motion_data,), "write_manifest",
     lambda args, kwargs, out: {"bytes": _dir_size(Path(out).parent)}, ("bytes",)),
    ("motion_data.load_manifest", (motion_data,), "load_manifest",
     lambda args, kwargs, out: {"bytes": _dir_size(Path(_arg(args, kwargs, 0, "path")).parent)},
     ("bytes",)),
)

UNITS = {"steps": "count", "frames": "count", "flops": "FLOP", "window_bytes": "B",
         "bytes": "B", "inf": "count", "cells": "count", "cells_scored": "count"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "counts", "error")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.pass_id = pass_id
        self.counts = {}
        self.error = None


class Tracer:
    """Spans of the traced passes, kept in memory until write()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.passes: list[tuple[int, float, float]] = []  # (id, start, end)
        self._open: list[int] = []
        self._pass_id: int | None = None

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id

    def end_pass(self, start: float, end: float) -> None:
        self.passes.append((self._pass_id, start, end))
        self._pass_id = None

    def _wrap(self, name, fn, counter):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), open_[-1] if open_ else None, self._pass_id)
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owners, attr, counter, _ in TRACED:
                wrapper = self._wrap(name, getattr(owners[0], attr), counter)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-pass means of every traced function's calls, time and counts.

        Self time is a span's duration minus the durations of its child
        spans; self_share divides it by the traced pass time. Functions a
        workload never calls report zero.
        """
        n = len(self.passes)
        pass_s = sum(end - start for _, start, end in self.passes) / n
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for span in self.spans:
            if span.parent is None:
                top_s += span.end - span.start
            else:
                child_s[span.parent] += span.end - span.start
        agg: dict[str, dict[str, float]] = {
            name: dict.fromkeys(("calls", "s", "self_s", "raised", *keys), 0)
            for name, _, _, _, keys in TRACED
        }
        for i, span in enumerate(self.spans):
            a = agg[span.name]
            duration = span.end - span.start
            a["calls"] += 1
            a["s"] += duration
            a["self_s"] += duration - child_s[i]
            a["raised"] += span.error is not None
            for key, value in span.counts.items():
                a[key] += value

        out: dict[str, tuple[float, str]] = {
            "trace.pass_s": (pass_s, "s"),
            "trace.passes": (n, "count"),
            "trace.spans_per_pass": (len(self.spans) / n, "count"),
            "trace.unattributed_s": (pass_s - top_s / n, "s"),
        }
        for name, _, _, _, keys in TRACED:
            a = agg[name]
            out[f"{name}.calls"] = (a["calls"] / n, "count")
            out[f"{name}.s"] = (a["s"] / n, "s")
            out[f"{name}.self_s"] = (a["self_s"] / n, "s")
            out[f"{name}.self_share"] = (a["self_s"] / n / pass_s, "ratio")
            for key in keys:
                out[f"{name}.{key}"] = (a[key] / n, UNITS[key])

        sim = agg["dynamics.simulate"]
        out["dynamics.simulate.diverged"] = (sim["raised"] / n, "count")
        if sim["s"]:
            out["dynamics.simulate.steps_per_s"] = (sim["steps"] / sim["s"], "steps/s")
        step = agg["grf_model.loss_and_grads"]
        if step["s"]:
            out["grf_model.loss_and_grads.gflops_per_s"] = (
                step["flops"] / step["s"] / 1e9, "GFLOP/s")
        cal = agg["calibration.calibrate"]
        out["calibration.cells"] = out.pop("calibration.calibrate.cells")
        del out["calibration.calibrate.cells_scored"]
        if cal["cells"]:
            out["calibration.cells_scored_ratio"] = (cal["cells_scored"] / cal["cells"], "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON; parent is an index into the span list."""
        doc = {
            "passes": [{"id": i, "start": s, "end": e} for i, s, e in self.passes],
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "pass": s.pass_id, "error": s.error, **s.counts}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
