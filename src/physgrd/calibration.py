"""Grid search over PD gains, scored by vertical root position error.

The default search set walks the proportional axis first (kd = 0) and then
the derivative axis at the best proportional gain, ten cells total. A dense
rectangular grid is available through GainGrid for broader sweeps.

Scores aggregate as: mean over a subject's clips, then mean +- std across
subjects. Cells whose simulation diverges on any clip score +inf and are
excluded from the argmin but recorded in the report.

Clips of equal length and frame rate are simulated together in buckets,
with every cell of every clip in one batch: closed loop makes one Python
step per frame of a bucket, and open loop integrates a bucket's forces in
one pass. A bucket keeps its simulated root heights, (clips, cells, T),
until it is scored; the clips per bucket are capped so that buffer stays
within _HEIGHTS_BUDGET floats (1 MiB), whatever the grid or cohort size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import metrics
from .dynamics import DIVERGENCE_LIMIT, GravitySpec, PDGains, SimMode, pd_force
from .dynamics import _closed_loop, _integrate, _valid_gain
from .dynamics import simulate  # noqa: F401  perfbench/tracing.py wraps calibration.simulate
from .errors import PhysgrdError, ValidationError
from .motion_data import MotionClip, _write_table, finite_diff_velocity

# kp swept at kd=0, then kd swept at the best kp
DEFAULT_GAIN_CELLS: tuple[tuple[float, float], ...] = (
    (10.0, 0.0), (30.0, 0.0), (50.0, 0.0), (70.0, 0.0), (90.0, 0.0),
    (70.0, 3.0), (70.0, 6.0), (70.0, 9.0), (70.0, 12.0), (70.0, 15.0),
)

# float64 heights one closed-loop bucket may hold, (clips, cells, T): 1 MiB
_HEIGHTS_BUDGET = 2**17


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


def _buckets(clips: Sequence[MotionClip], n_cells: int):
    """Yield lists of clip indices that can step together.

    Clips group by (length, dt) in order of first appearance; each group is
    split into runs of at most _HEIGHTS_BUDGET // (cells * T) clips (at
    least one).
    """
    groups: dict[tuple[int, float], list[int]] = {}
    for j, clip in enumerate(clips):
        groups.setdefault((len(clip), clip.dt), []).append(j)
    for (T, _), idx in groups.items():
        size = max(1, _HEIGHTS_BUDGET // (n_cells * T))
        for start in range(0, len(idx), size):
            yield idx[start:start + size]


def _bucket_scores(
    bucket: Sequence[MotionClip], kp: np.ndarray, kd: np.ndarray, gravity: GravitySpec,
    mode: SimMode,
) -> tuple[np.ndarray, np.ndarray]:
    """vRPE and divergence, (cells, clips) each, of equal-length clips simulated together.

    The state is (clips, cells, 3); every element sees the arithmetic of a
    single clip and cell simulated alone. Open loop integrates each cell's PD
    forces on the mocap states, (T-1, clips, cells, 3), at once. Divergence
    is an elementwise max of |pos| over the steps, reduced at the end.
    """
    ref = np.stack([c.root_positions for c in bucket], axis=1)  # (T, n, 3)
    z = np.empty((len(bucket), len(kp), len(ref)))  # simulated root heights
    z[:, :, 0] = ref[0, :, None, 2]
    peak = np.zeros(z.shape[:2] + (3,))
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "closed_loop":
            steps = _closed_loop(ref[:, :, None], kp[:, None], kd[:, None], gravity, bucket[0].dt)
            for t, (_, pos) in enumerate(steps, start=1):
                z[:, :, t] = pos[..., 2]
                np.maximum(peak, np.abs(pos), out=peak)
        elif mode == "open_loop":
            vel = np.stack([finite_diff_velocity(c) for c in bucket], axis=1)
            forces = np.stack([
                pd_force(ref[1:], ref[:-1], vel[:-1], PDGains(p, d)) for p, d in zip(kp, kd)
            ], axis=2)
            pos = _integrate(ref[0, :, None], forces, gravity, bucket[0].dt)[0][1:]
            z[:, :, 1:] = np.moveaxis(pos[..., 2], 0, -1)
            np.abs(pos).max(axis=0, initial=0.0, out=peak)
        else:
            raise ValueError(f"unknown simulation mode {mode!r}")
    diverged = ~(peak.max(axis=2) <= DIVERGENCE_LIMIT)
    z[diverged] = np.nan
    scores = [metrics.vrpe_heights(z[i], c.root_positions[:, 2]) for i, c in enumerate(bucket)]
    return np.column_stack(scores), diverged.T


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
    for idx in _buckets(clips, len(cells)):
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
