"""Grid search over PD gains, scored by vertical root position error.

The default search set walks the proportional axis first (kd = 0) and then
the derivative axis at the best proportional gain, ten cells total. A dense
rectangular grid is available through GainGrid for broader sweeps.

Scores aggregate as: mean over a subject's clips, then mean +- std across
subjects. Cells whose simulation diverges on any clip score +inf and are
excluded from the argmin but recorded in the report.

All clips of equal length and frame rate form one bucket, simulated with
every cell of every clip in one batch: both modes make one Python step per
frame of a bucket. A bucket is scored while it is simulated, one leaf of
numpy's pairwise sum (at most 128 frames) at a time, so the memory it needs
is (clips, cells, 128) floats whatever the clip length, and its scores are
bit for bit those of np.mean over the whole clip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import metrics
from .dynamics import DIVERGENCE_LIMIT, GravitySpec, PDGains, SimMode, _pd_steps, _valid_gain
from .dynamics import simulate  # noqa: F401  perfbench/tracing.py wraps calibration.simulate
from .errors import PhysgrdError, ValidationError
from .motion_data import MotionClip, _write_table, finite_diff_velocity

# kp swept at kd=0, then kd swept at the best kp
DEFAULT_GAIN_CELLS: tuple[tuple[float, float], ...] = (
    (10.0, 0.0), (30.0, 0.0), (50.0, 0.0), (70.0, 0.0), (90.0, 0.0),
    (70.0, 3.0), (70.0, 6.0), (70.0, 9.0), (70.0, 12.0), (70.0, 15.0),
)


class AllCellsDivergedError(PhysgrdError):
    """Every grid cell diverged; no gains can be selected."""


@dataclass(frozen=True)
class GainGrid:
    """Rectangular gain grid: all (kp, kd) combinations, row-major."""

    kp_values: tuple[float, ...]
    kd_values: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("kp_values", self.kp_values), ("kd_values", self.kd_values)):
            vals = tuple(float(v) for v in vals)
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValidationError(f"{name} must be non-empty")
            if not all(map(_valid_gain, vals)):
                raise ValidationError(f"{name} must be finite and non-negative")
            if len(set(vals)) != len(vals):
                raise ValidationError(f"{name} contains duplicates")
            if list(vals) != sorted(vals):
                raise ValidationError(f"{name} must be ascending")

    def cells(self) -> list[tuple[float, float]]:
        return [(kp, kd) for kp in self.kp_values for kd in self.kd_values]


@dataclass(frozen=True)
class CalibrationReport:
    """Grid-search outcome.

    per_cell maps (kp, kd) to (mean, std) of vRPE across subjects;
    per_subject maps subject -> {(kp, kd): mean vRPE over that subject's
    clips}; diverged cells carry +inf means.
    """

    cells: tuple[tuple[float, float], ...]
    per_cell: Mapping[tuple[float, float], tuple[float, float]]
    per_subject: Mapping[str, Mapping[tuple[float, float], float]]
    best: PDGains
    best_score: float
    mode: str
    diverged: tuple[tuple[float, float], ...]


def _buckets(clips: Sequence[MotionClip]) -> list[list[int]]:
    """Clip indices that step together: one list per (length, dt), in first-seen order."""
    groups: dict[tuple[int, float], list[int]] = {}
    for j, clip in enumerate(clips):
        groups.setdefault((len(clip), clip.dt), []).append(j)
    return list(groups.values())


def _leaf_heights(
    bucket: Sequence[MotionClip], ref: np.ndarray, kp: np.ndarray, kd: np.ndarray,
    gravity: GravitySpec, mode: SimMode, peak: np.ndarray,
):
    """Yield simulated root heights, (clips, cells, stop - start), for each
    range of metrics.pairwise_leaves(T) in turn, in one reused buffer.

    ref holds the clips' root positions, (T, clips, 3). The state is
    (clips, cells, 3); every element sees the arithmetic of a single clip
    and cell simulated alone. Frame 0 is the start state; each later frame
    is one _pd_steps step, from the simulated state (closed loop) or the
    mocap state (open loop). peak keeps the elementwise max of |pos| over
    the steps.
    """
    T, dt = len(ref), bucket[0].dt
    buf = np.empty(peak.shape[:2] + (min(T, metrics.PAIRWISE_LEAF),))
    mocap_vel = None
    if mode == "open_loop":
        mocap_vel = np.stack([finite_diff_velocity(c) for c in bucket], axis=1)[:, :, None]
    steps = _pd_steps(ref[:, :, None], kp[:, None], kd[:, None], gravity, dt, mocap_vel)
    for start, stop in metrics.pairwise_leaves(T):
        heights = buf[..., :stop - start]
        first = max(start, 1)  # the first frame that is simulated
        if start == 0:
            heights[..., 0] = ref[0, :, None, 2]
        for k, (_, pos) in zip(range(first - start, stop - start), steps):
            heights[..., k] = pos[..., 2]
            np.maximum(peak, np.abs(pos), out=peak)
        yield heights


def _bucket_scores(
    bucket: Sequence[MotionClip], kp: np.ndarray, kd: np.ndarray, gravity: GravitySpec,
    mode: SimMode,
) -> tuple[np.ndarray, np.ndarray]:
    """vRPE and divergence, (cells, clips) each, of equal-length clips simulated together.

    The heights are scored as _leaf_heights simulates them (metrics.vrpe_leaves),
    so nothing of size clips x cells x T is allocated. Divergence is the
    running max of |pos| reduced at the end; a diverged pair scores NaN.
    """
    if mode not in ("closed_loop", "open_loop"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    ref = np.stack([c.root_positions for c in bucket], axis=1)  # (T, n, 3)
    z_ref = np.moveaxis(ref[:, :, None, 2], 0, -1)  # (n, 1, T)
    peak = np.zeros((len(bucket), len(kp), 3))
    leaves = _leaf_heights(bucket, ref, kp, kd, gravity, mode, peak)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = metrics.vrpe_leaves(z_ref, leaves)
    diverged = ~(peak.max(axis=2) <= DIVERGENCE_LIMIT)
    scores[diverged] = np.nan
    return scores.T, diverged.T


def calibrate(
    clips: Sequence[MotionClip],
    grid: GainGrid | Sequence[tuple[float, float]] | None = None,
    gravity: GravitySpec | None = None,
    mode: SimMode = "closed_loop",
) -> CalibrationReport:
    """Exhaustively score gain cells and pick the argmin.

    Each clip is simulated under every cell; only its per-cell vRPE is kept.
    A cell that diverges on any clip scores +inf. Ties break toward the
    smaller kp, then the smaller kd.
    """
    clips = list(clips)
    if not clips:
        raise ValidationError("calibration needs at least one clip")
    gravity = gravity or GravitySpec()
    if grid is None:
        cells = list(DEFAULT_GAIN_CELLS)
    elif isinstance(grid, GainGrid):
        cells = grid.cells()
    else:
        cells = [(float(kp), float(kd)) for kp, kd in grid]
        if not cells:
            raise ValidationError("cell list must be non-empty")

    for kp, kd in cells:
        PDGains(kp, kd)  # reject an invalid cell before anything is simulated
    kp, kd = np.array(cells, dtype=float).T
    scores = np.empty((len(cells), len(clips)))
    diverged = np.zeros((len(cells), len(clips)), dtype=bool)
    for idx in _buckets(clips):
        bucket = [clips[j] for j in idx]
        scores[:, idx], diverged[:, idx] = _bucket_scores(bucket, kp, kd, gravity, mode)
    diverged = diverged.any(axis=1)

    # mean over a subject's sorted clip scores, so clip order cannot perturb it
    subjects = sorted({c.subject_id for c in clips})
    by_subject = np.column_stack([
        np.sort(scores[:, [c.subject_id == s for c in clips]], axis=1).mean(axis=1)
        for s in subjects
    ])
    per_cell: dict[tuple[float, float], tuple[float, float]] = {}
    per_subject: dict[str, dict[tuple[float, float], float]] = {s: {} for s in subjects}
    for cell, vals, bad in zip(cells, by_subject, diverged):
        if bad:
            per_cell[cell] = (float("inf"), float("inf"))
            continue
        per_cell[cell] = (float(vals.mean()), float(vals.std()))
        for s, v in zip(subjects, vals):
            per_subject[s][cell] = float(v)

    if diverged.all():
        raise AllCellsDivergedError("every gain cell diverged during simulation")
    best_score, best_kp, best_kd = min((per_cell[c][0], *c) for c in cells)
    return CalibrationReport(
        cells=tuple(cells),
        per_cell=per_cell,
        per_subject=per_subject,
        best=PDGains(kp=best_kp, kd=best_kd),
        best_score=best_score,
        mode=mode,
        diverged=tuple(c for c, bad in zip(cells, diverged) if bad),
    )


def write_report_csv(report: CalibrationReport, path: str | Path) -> None:
    """Table-shaped CSV: one row per gain cell, per-subject columns + avg/std."""
    subjects = sorted(report.per_subject)
    rows = [
        [*cell, *(report.per_subject[s].get(cell, float("inf")) for s in subjects),
         *report.per_cell[cell]]
        for cell in report.cells
    ]
    _write_table(path, ["kp", "kd", *subjects, "avg", "std"], rows)


def write_best_gains(report: CalibrationReport, path: str | Path) -> None:
    doc = {
        "kp": report.best.kp,
        "kd": report.best.kd,
        "score": report.best_score,
        "mode": report.mode,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_gains(path: str | Path) -> PDGains:
    """Read kp and kd from a best_gains.json-style object."""
    try:
        doc = json.loads(Path(path).read_text())
        return PDGains(kp=float(doc["kp"]), kd=float(doc["kd"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: gains need numeric 'kp' and 'kd' ({exc!r})") from None
