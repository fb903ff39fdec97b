"""Evaluation metrics: per-foot vertical force MSE and vertical root
position error, plus aggregation tables and leave-one-subject-out splits.

Only the vertical (z) component enters both metrics. Frames masked as
invalid in a plate record are excluded from the force metric; the position
metric uses every frame since it needs only mocap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .dynamics import GravitySpec, SimResult, from_bodyweight, rollout_forces
from .errors import (
    LengthMismatchError,
    NoValidFramesError,
    SimulationDivergedError,
    ValidationError,
)
from .motion_data import ForcePlateRecord, MotionClip, _gravity, _ids, _instance, _numeric
from .motion_data import _write_table

VRPE_SCALE = 1e3  # reported position errors are m^2 scaled up by 10^3


def vgrf_mse(pred: np.ndarray, plate: ForcePlateRecord) -> tuple[float, float]:
    """Per-foot MSE of vertical force against plate data, body-weight units.

    pred is (T, 2, 3); only frames with valid_mask True are counted.
    """
    _instance("plate", plate, ForcePlateRecord)
    pred = _numeric("pred", pred, (None, 2, 3))
    if pred.shape != plate.per_foot_force.shape:
        raise LengthMismatchError(
            f"prediction {pred.shape} vs plate {plate.per_foot_force.shape}"
        )
    valid = plate.valid_mask
    if not valid.any():
        raise NoValidFramesError("no valid plate frames to score against")
    out = []
    for foot in range(2):
        d = pred[valid, foot, 2] - plate.per_foot_force[valid, foot, 2]
        with np.errstate(over="ignore"):  # a huge finite error scores inf
            out.append(float(np.mean(d * d)))
    return out[0], out[1]


def vrpe(sim: SimResult, clip: MotionClip) -> float:
    """Mean squared vertical position error of a simulation, scaled by 10^3."""
    _instance("sim", sim, SimResult)
    _instance("clip", clip, MotionClip)
    if len(sim) != len(clip):
        raise LengthMismatchError(f"simulation has {len(sim)} frames, clip {len(clip)}")
    z = sim.positions[:, 2]  # read-only: each range is copied for vrpe_leaves to square
    return float(vrpe_leaves(clip.root_positions[:, 2], lambda a, b: z[a:b].copy()))


# np.mean over a contiguous float64 axis is numpy's pairwise sum over T: a
# range longer than this splits in two, a shorter one is a leaf it adds alone
PAIRWISE_LEAF = 128


def pairwise_sum(n: int, leaf_sum: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """numpy's pairwise sum of n values, from the sums of its leaves.

    leaf_sum(start, stop) is called for each leaf of at most PAIRWISE_LEAF
    values, left to right, and the results are added in numpy's tree order,
    so at most one partial sum per tree level is alive at a time. The right
    half is summed by the same function over a shifted leaf_sum: a nested
    function that called itself would be a reference cycle, keeping the
    caller's arrays alive until the garbage collector runs.
    """
    if n <= PAIRWISE_LEAF:
        return leaf_sum(0, n)
    half = n // 2 - n // 2 % 8
    return pairwise_sum(half, leaf_sum) + pairwise_sum(
        n - half, lambda start, stop: leaf_sum(half + start, half + stop))


def vrpe_leaves(z_ref: np.ndarray, heights: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """vRPE of simulated heights against z_ref, (..., T), bit for bit np.mean's.

    heights(start, stop) returns the simulated heights (..., stop - start) of
    one pairwise leaf, as a writeable array that is squared in place and
    summed with np.sum, numpy's own leaf code, so no buffer of length T is
    needed. tests/test_metrics.py pins it to np.mean, so a numpy that sums
    otherwise fails there instead of moving report bytes.
    """
    def leaf_sum(start: int, stop: int) -> np.ndarray:
        d = heights(start, stop)
        d -= z_ref[..., start:stop]
        d *= d
        return np.sum(d, axis=-1)

    T = z_ref.shape[-1]
    with np.errstate(over="ignore"):  # a huge finite error scores inf
        return pairwise_sum(T, leaf_sum) / T * VRPE_SCALE


@dataclass(frozen=True)
class MetricTable:
    """Per-motion metric rows plus an average row.

    kind "vgrf" rows are (left, right); kind "vrpe" rows are (mean, std).
    The average row is the columnwise arithmetic mean of the motion rows.
    """

    kind: str
    rows: Mapping[str, tuple[float, float]]
    average: tuple[float, float]

    @property
    def columns(self) -> tuple[str, str]:
        return ("left", "right") if self.kind == "vgrf" else ("mean", "std")


def aggregate(per_clip: Mapping[tuple, object], kind: str = "vrpe") -> MetricTable:
    """Group per-clip values by motion label and average across subjects.

    Keys are tuples of a subject and a motion label, both strings, and
    anything after them, e.g. (subject, motion, trial). Every clip gets equal
    weight. For kind "vgrf" the values are (left, right) pairs averaged
    columnwise; for kind "vrpe" they are scalars reduced to (mean, std)
    across clips (population std). Input order does not affect the result.
    """
    if kind not in ("vgrf", "vrpe"):
        raise ValidationError(f"unknown metric kind {kind!r}")
    if not per_clip:
        raise ValidationError("cannot aggregate an empty metric map")

    groups: dict[str, list] = {}
    for key in per_clip:  # each group is sorted below, so key order cannot perturb it
        if not (isinstance(key, tuple) and len(key) >= 2
                and isinstance(key[0], str) and isinstance(key[1], str)):
            raise ValidationError(f"metric key {key!r} must be a (subject, motion, ...) tuple "
                                  "whose subject and motion are strings")
        value = _numeric(f"{kind} value of {key!r}", per_clip[key], (2,) if kind == "vgrf" else ())
        groups.setdefault(key[1], []).append(value.tolist())

    rows: dict[str, tuple[float, float]] = {}
    # an inf score gives its rows inf or NaN, as the tables report them
    with np.errstate(over="ignore", invalid="ignore"):
        for motion in sorted(groups):
            arr = np.array(sorted(groups[motion]))
            if kind == "vgrf":
                rows[motion] = (float(arr[:, 0].mean()), float(arr[:, 1].mean()))
            else:
                rows[motion] = (float(arr.mean()), float(arr.std()))

        body = np.array([rows[m] for m in sorted(rows)], dtype=float)
        average = (float(body[:, 0].mean()), float(body[:, 1].mean()))
    return MetricTable(kind=kind, rows=rows, average=average)


def write_metric_table(table: MetricTable, path: str | Path) -> None:
    _instance("table", table, MetricTable)
    rows = [(motion, *table.rows[motion]) for motion in sorted(table.rows)]
    _write_table(path, ("motion", *table.columns), rows + [("Average", *table.average)])


def loso_splits(subjects: Iterable[str]) -> list[tuple[tuple[str, ...], str]]:
    """One (train, test) split per subject, ordered by subject id."""
    ids = sorted(set(_ids("subject", subjects)))
    if len(ids) < 2:
        raise ValidationError(f"leave-one-out needs >= 2 subjects, got {len(ids)}")
    return [(tuple(s for s in ids if s != test), test) for test in ids]


def evaluate_prediction(
    clip: MotionClip,
    plate: ForcePlateRecord | None,
    pred_bw: np.ndarray,
    gravity: GravitySpec | None = None,
) -> tuple[float, float, float]:
    """Score a per-foot body-weight force prediction against one clip.

    Returns (vgrf_left, vgrf_right, vrpe). The position error comes from
    rolling the summed predicted force through the integrator from the
    clip's start state; force metrics are NaN when no plate is attached,
    and a rollout that diverges scores an infinite position error. pred_bw
    must be (T, 2, 3), with the clip's T.
    """
    _instance("clip", clip, MotionClip)  # vgrf_mse checks the plate
    gravity = _gravity(gravity)
    pred_bw = _numeric("prediction", pred_bw, (None, 2, 3))
    if len(pred_bw) != len(clip):
        raise LengthMismatchError(f"prediction has {len(pred_bw)} frames, clip {len(clip)}")
    if plate is not None:
        left, right = vgrf_mse(pred_bw, plate)
    else:
        left, right = float("nan"), float("nan")
    with np.errstate(over="ignore"):  # a huge finite force diverges the rollout
        total_norm = from_bodyweight(pred_bw.sum(axis=1))
    try:
        sim = rollout_forces(clip, total_norm, gravity)
    except SimulationDivergedError:
        return left, right, float("inf")
    return left, right, vrpe(sim, clip)
