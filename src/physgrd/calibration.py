"""Grid search over PD gains, scored by vertical root position error.

The default search set, DEFAULT_GAIN_CELLS, walks the proportional axis
first (kd = 0) and then the derivative axis at kp = 70, ten fixed cells: the
kd sweep's kp is not the best of the kp sweep. A dense rectangular grid is
available through GainGrid for broader sweeps.

Scores aggregate as: mean over a subject's clips, then mean +- std across
subjects. Cells whose simulation diverges on any clip score +inf and are
excluded from the argmin but recorded in the report.

All clips of equal length and frame rate form one bucket (dynamics._buckets),
stepped under every cell in one batch by the one PD rollout that `simulate`
uses too, dynamics._pd_steps: one Python step per frame of a bucket. The
state is (3, clips, cells), component axis first, so each step's operations
run over the cells in contiguous inner loops, in place. Every array a step
touches but the clips' targets, gains included, is a C-ordered array of the
state's shape, so nearly every operation runs as one inner loop over the
whole batch. A bucket is scored while it is simulated, by the one vRPE
that metrics.vrpe uses too, metrics.vrpe_leaves: it asks for the heights a
short range of frames at a time, so the memory a bucket needs does not grow
with the clip length, and its scores are bit for bit metrics.vrpe's.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, get_args

import numpy as np

from . import metrics
from .dynamics import DIVERGENCE_LIMIT, GravitySpec, PDGains, SimMode, _buckets, _pd_steps
from .dynamics import simulate  # noqa: F401  perfbench/tracing.py wraps calibration.simulate
from .errors import NON_NEGATIVE, PhysgrdError, UnitError, ValidationError, check_range
from .motion_data import MotionClip, _gravity, _instance, _numeric, _read_json
from .motion_data import _write_json, _write_table

# kp swept at kd = 0, then kd swept at kp = 70
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
            vals = tuple(check_range(name, val, NON_NEGATIVE, UnitError) for val in vals)
            if not vals:
                raise ValidationError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)
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


def _bucket_scores(
    bucket: Sequence[MotionClip], kp: np.ndarray, kd: np.ndarray, gravity: GravitySpec,
    mode: SimMode,
) -> tuple[np.ndarray, np.ndarray]:
    """vRPE and divergence, (cells, clips) each, of equal-length clips simulated together.

    metrics.vrpe_leaves asks for the heights, (clips, cells, stop - start),
    of one range of frames at a time, left to right, and heights steps the
    (3, clips, cells) state of _pd_steps through them, writing each step's
    heights into the range: frame 0 is the start, z_ref's first frame, and
    each later frame is one step. So nothing of size clips x cells x T is
    allocated, and nothing per frame but |pos|, into one buffer. Divergence
    is the running max of |pos| reduced over the components at the end; a
    diverged pair scores NaN.
    """
    z_ref = np.stack([c.root_positions[:, 2] for c in bucket])[:, None]  # (n, 1, T)
    peak = np.zeros((3, len(bucket), len(kp)))
    absolute = np.empty_like(peak)
    steps = _pd_steps(bucket, kp, kd, gravity, mode)

    def heights(start: int, stop: int) -> np.ndarray:
        out = np.empty(peak.shape[1:] + (stop - start,))
        if start == 0:
            out[..., 0] = z_ref[..., 0]
        for i, (_, pos) in zip(range(start == 0, stop - start), steps):  # range first: no step is lost
            out[..., i] = pos[2]
            np.maximum(peak, np.abs(pos, out=absolute), out=peak)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        scores = metrics.vrpe_leaves(z_ref, heights)
    diverged = ~(peak.max(axis=0) <= DIVERGENCE_LIMIT)
    scores[diverged] = np.nan
    return scores.T, diverged.T


def _cell(cell) -> tuple[float, float]:
    """A listed grid cell as a (kp, kd) pair of floats, each PDGains' rule."""
    try:
        pair = _numeric("gain cell", cell, (2,)).tolist()
    except ValidationError:  # named by the cell itself, as the caller listed it
        raise ValidationError(f"gain cell must be a (kp, kd) pair, got {cell!r}") from None
    return tuple(check_range(f"gain cell {cell!r}: {name}", x, NON_NEGATIVE, UnitError)
                 for name, x in zip(("kp", "kd"), pair))


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
    clips = [_instance("clip", clip, MotionClip) for clip in _instance("clips", clips, Iterable)]
    if not clips:
        raise ValidationError("calibration needs at least one clip")
    gravity = _gravity(gravity)
    if grid is None:
        cells = list(DEFAULT_GAIN_CELLS)
    elif isinstance(grid, GainGrid):
        cells = grid.cells()
    else:
        cells = [_cell(cell) for cell in _instance("grid", grid, Iterable)]
        if not cells:
            raise ValidationError("cell list must be non-empty")
        if len(set(cells)) != len(cells):  # each would be scored and reported twice
            repeated = next(cell for i, cell in enumerate(cells) if cell in cells[:i])
            raise ValidationError(f"cell list contains duplicates, such as {repeated!r}")

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
    _instance("report", report, CalibrationReport)
    subjects = sorted(report.per_subject)
    rows = [
        [*cell, *(report.per_subject[s].get(cell, float("inf")) for s in subjects),
         *report.per_cell[cell]]
        for cell in report.cells
    ]
    _write_table(path, ["kp", "kd", *subjects, "avg", "std"], rows)


def write_best_gains(report: CalibrationReport, path: str | Path) -> None:
    _instance("report", report, CalibrationReport)
    doc = {
        "kp": report.best.kp,
        "kd": report.best.kd,
        "score": report.best_score,
        "mode": report.mode,
    }
    _write_json(path, doc)


def load_gains(path: str | Path, mode: SimMode) -> PDGains:
    """Read kp and kd, JSON numbers, from a best_gains.json-style object, for
    a run in mode. A file that records a "mode", as write_best_gains does,
    must record this one: gains calibrated in one mode are not the gains of
    the other. A file with no "mode" is not checked for it.
    """
    doc = _read_json(Path(path), "gains")
    try:
        gains = PDGains(doc["kp"], doc["kd"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: gains need a 'kp' and a 'kd' ({exc!r})") from None
    except UnitError as exc:
        raise UnitError(f"{path}: {exc}") from None
    recorded = doc.get("mode", mode)  # doc is an object: it has kp and kd
    if recorded not in get_args(SimMode):
        raise ValidationError(f"{path}: gains 'mode' must be one of {get_args(SimMode)}, "
                              f"got {recorded!r}")
    if recorded != mode:
        raise ValidationError(f"{path}: gains were calibrated in {recorded} mode; "
                              f"this run is in {mode} mode")
    return gains
