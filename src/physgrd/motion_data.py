"""Motion-capture data model and file I/O.

Clips hold a root trajectory (world frame, z-up, meters) plus per-frame
model-input feature vectors; force-plate records hold per-foot forces in
body-weight units with a validity mask for missing measurements.

File formats
------------
Clip CSV      header ``t,px,py,pz,f0..f{D-4}``; one row per frame; ``t`` in
              seconds, strictly increasing with uniform spacing (+-1e-6 s).
              By convention the feature vector starts with the root position,
              so a clip with no extra channels has feature width D = 3.
Plate CSV     header ``t,L_fx,L_fy,L_fz,L_copx,L_copy,L_contact,R_fx,...``;
              the literal ``NaN`` marks a missing measurement.
Manifest      JSON ``{"subjects": [{"id", "mass_kg", "clips": [...]}]}``;
              each clip entry carries ``motion_label``, ``clip_path``,
              ``plate_path`` and ``force_unit`` ("newton" or "bodyweight").
              Ids and labels name output files, so they must match
              ``[A-Za-z0-9._-]+``.

Every numeric CSV (clip, plate, prediction, simulation) goes through one row
codec, ``_write_rows``/``_read_rows``: cells are the shortest round-tripping
``repr`` of each float (``NaN`` for NaN), byte-identical to formatting cell
by cell with ``_fmt``, so every file reads back to the same bits. Cells are
read in bulk with ``np.loadtxt``, which gives the bits Python's ``float``
gives. Only a body the bulk parse rejects goes through the row scanner,
which takes what ``float`` takes and names the bad row or cell. Every text
table (reports, logs, run summaries, plot sidecars) goes through
``_write_table``, which writes floats the same way, so a missing value is
``NaN`` there too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import POSITIVE, LengthMismatchError, ParseError, UnitError, ValidationError
from .errors import check_range

STANDARD_GRAVITY = 9.81  # m/s^2, used for body-weight normalization

# Subject ids and motion labels become parts of file names (entry_stems).
_SAFE_NAME = re.compile(r"[A-Za-z0-9._-]+")

# Column layout of the plate CSV, per foot: fx fy fz copx copy contact.
_PLATE_FOOT_COLS = 6
_PLATE_FEET = ("L", "R")


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _write_rows(path: str | Path, header: Sequence[str], data: np.ndarray) -> None:
    """Write ``header`` and one comma-separated line per row of ``data``.

    ``data`` is a (T, n) float matrix; every cell is written as ``repr`` of
    its Python value, NaN as ``NaN``, which are the bytes ``_fmt`` gives. An
    object matrix may hold Python ints, written as integers (plate contact
    flags).
    """
    body = "".join([",".join(map(repr, row.tolist())) + "\n" for row in data])
    # float repr spells NaN "nan"; no other float or int repr holds those letters
    Path(path).write_text(",".join(header) + "\n" + body.replace("nan", "NaN"))


def _write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV: floats as ``_fmt`` does, other cells with ``str``."""
    lines = [header] + [[_fmt(c) if isinstance(c, float) else str(c) for c in row] for row in rows]
    Path(path).write_text("".join(",".join(line) + "\n" for line in lines))


def _read_lines(path: Path) -> list[str]:
    """The lines of a text file; bytes that do not decode raise ParseError."""
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from None


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row}: column '{col}' is not a number: {text!r}") from None


def _read_rows(path: Path, lines: Sequence[str], header: Sequence[str]) -> np.ndarray:
    """Parse the lines after the header into a (rows, len(header)) array.

    The body is parsed in one ``np.loadtxt`` call, which reads a cell
    through the same C routine as Python's ``float`` and so gives the same
    bits. A body it rejects (a bad cell or row, or a spelling only ``float``
    takes, such as ``1_0``) goes to the row scanner ``_scan_rows``.
    """
    body = lines[1:]
    # loadtxt warns on a body with no data; the scanner names that error
    if any(map(str.strip, body)):
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == len(header):
                return data
    return _scan_rows(path, lines, header)


def _scan_rows(path: Path, lines: Sequence[str], header: Sequence[str]) -> np.ndarray:
    """``_read_rows`` one row at a time, cells parsed with Python's ``float``.

    Blank lines are skipped, but error messages number rows by their line
    after the header.
    """
    n = len(header)
    out = np.empty((len(lines) - 1, n))
    k = 0
    for r, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n:
            raise ParseError(f"row {r}: expected {n} columns, got {len(cells)}")
        try:
            out[k] = list(map(float, cells))
        except ValueError:  # rescan the row to name the bad cell
            out[k] = [_parse_float(c, r, col) for col, c in zip(header, cells)]
        k += 1
    if k == 0:
        raise ParseError(f"{path}: no data rows")
    return out[:k]


def to_bodyweight(force: np.ndarray, mass: float = 1.0) -> np.ndarray:
    """Force in body weights, force / (mass * STANDARD_GRAVITY).

    The default mass of 1 takes a mass-normalized force (m/s^2). A body
    weight is always mass * 9.81 N, whatever gravity a simulation runs
    under, so plate data and physics supervision share one unit.
    """
    return np.asarray(force, dtype=float) / (mass * STANDARD_GRAVITY)


def from_bodyweight(force_bw: np.ndarray) -> np.ndarray:
    """Mass-normalized force (m/s^2) of a body-weight force; inverts to_bodyweight."""
    return np.asarray(force_bw, dtype=float) * STANDARD_GRAVITY


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GravitySpec:
    """Gravitational acceleration vector, magnitude by convention positive.

    The dynamics treat gravity as an acceleration that opposes the reaction
    force, so the default (0, 0, 9.81) pulls the root down in a z-up world.
    """

    g_accel: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, STANDARD_GRAVITY])
    )

    def __post_init__(self):
        g = _readonly(np.asarray(self.g_accel, dtype=float).reshape(3))
        object.__setattr__(self, "g_accel", g)
        bounds = (math.ulp(0.0), 20.0, "in (0, 20) m/s^2")
        check_range("gravity magnitude", self.magnitude, bounds, UnitError)

    @property
    def magnitude(self) -> float:
        return math.hypot(*self.g_accel)  # no overflow, so no warning, for huge components


@dataclass(frozen=True)
class MotionClip:
    """A root trajectory with aligned model-input features.

    root_positions : (T, 3) world positions in meters, z-up.
    features       : (T, D) model inputs; features[:, :3] is the root
                     position by file-format convention.
    """

    subject_id: str
    motion_label: str
    frame_rate: float
    mass: float
    root_positions: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        for name in ("subject_id", "motion_label"):  # they name output files
            value = getattr(self, name)
            if not (isinstance(value, str) and _SAFE_NAME.fullmatch(value)):
                raise ValidationError(f"{name} must match [A-Za-z0-9._-]+, got {value!r}")
        check_range("frame_rate", self.frame_rate, POSITIVE, UnitError)
        check_range("mass", self.mass, POSITIVE, UnitError)
        pos = np.asarray(self.root_positions, dtype=float)
        feat = np.asarray(self.features, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError(f"root_positions must be (T, 3), got {pos.shape}")
        if feat.ndim != 2:
            raise ValidationError(f"features must be (T, D), got {feat.shape}")
        if feat.shape[1] < 3:
            raise ValidationError(f"feature width must be >= 3, got {feat.shape[1]}")
        if len(pos) != len(feat):
            raise LengthMismatchError(
                f"{len(pos)} position frames vs {len(feat)} feature frames"
            )
        if len(pos) < 1:
            raise ValidationError("clip must have at least one frame")
        if not np.all(np.isfinite(pos)):
            t, c = np.argwhere(~np.isfinite(pos))[0]
            raise ValidationError(
                f"non-finite root position at frame {t}, component {'xyz'[c]}"
            )
        if not np.all(np.isfinite(feat)):
            t, c = np.argwhere(~np.isfinite(feat))[0]
            raise ValidationError(f"non-finite feature at frame {t}, column {c}")
        object.__setattr__(self, "root_positions", _readonly(pos))
        object.__setattr__(self, "features", _readonly(feat))

    def __len__(self) -> int:
        return len(self.root_positions)

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def feature_width(self) -> int:
        return int(self.features.shape[1])

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) / self.frame_rate


@dataclass(frozen=True)
class ForcePlateRecord:
    """Per-foot plate measurements aligned with a clip.

    per_foot_force : (T, 2, 3) in body weights (dimensionless).
    per_foot_cop   : (T, 2, 2) center of pressure, meters.
    contact_flags  : (T, 2) booleans.
    valid_mask     : (T,) booleans; False rows are excluded from every metric
                     and loss term. When omitted it is derived as "all force
                     components finite". An explicit mask may mark extra rows
                     invalid but can never mark a non-finite row valid.
    """

    per_foot_force: np.ndarray
    per_foot_cop: np.ndarray
    contact_flags: np.ndarray
    valid_mask: np.ndarray | None = None

    def __post_init__(self):
        force = np.asarray(self.per_foot_force, dtype=float)
        cop = np.asarray(self.per_foot_cop, dtype=float)
        contact = np.asarray(self.contact_flags, dtype=bool)
        if force.ndim != 3 or force.shape[1:] != (2, 3):
            raise ValidationError(f"per_foot_force must be (T, 2, 3), got {force.shape}")
        T = len(force)
        if cop.shape != (T, 2, 2):
            raise ValidationError(f"per_foot_cop must be ({T}, 2, 2), got {cop.shape}")
        if contact.shape != (T, 2):
            raise ValidationError(f"contact_flags must be ({T}, 2), got {contact.shape}")
        finite = np.all(np.isfinite(force), axis=(1, 2))
        if self.valid_mask is None:
            mask = finite
        else:
            mask = np.asarray(self.valid_mask, dtype=bool)
            if mask.shape != (T,):
                raise ValidationError(f"valid_mask must be ({T},), got {mask.shape}")
            if np.any(mask & ~finite):
                bad = int(np.argwhere(mask & ~finite)[0, 0])
                raise ValidationError(f"row {bad} has non-finite force but valid_mask=True")
        object.__setattr__(self, "per_foot_force", _readonly(force))
        object.__setattr__(self, "per_foot_cop", _readonly(cop))
        contact = contact.copy()
        contact.flags.writeable = False
        object.__setattr__(self, "contact_flags", contact)
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "valid_mask", mask)

    def __len__(self) -> int:
        return len(self.per_foot_force)

    def total_force(self) -> np.ndarray:
        """Summed two-foot force, (T, 3), body weights."""
        return self.per_foot_force.sum(axis=1)


@dataclass(frozen=True)
class DatasetEntry:
    clip: MotionClip
    plate: ForcePlateRecord | None = None

    def __post_init__(self):
        if self.plate is not None and len(self.plate) != len(self.clip):
            raise LengthMismatchError(
                f"plate has {len(self.plate)} rows but clip "
                f"'{self.clip.subject_id}/{self.clip.motion_label}' has {len(self.clip)}"
            )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of clip/plate pairs, keyed by subject."""

    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def subjects(self) -> list[str]:
        return sorted({e.clip.subject_id for e in self.entries})

    def clips(self) -> list[MotionClip]:
        return [e.clip for e in self.entries]


# ---------------------------------------------------------------------------
# Clip CSV
# ---------------------------------------------------------------------------

def load_clip_csv(
    path: str | Path,
    *,
    subject_id: str = "S1",
    motion_label: str = "clip",
    mass: float = 1.0,
    frame_rate: float | None = None,
) -> MotionClip:
    """Load a clip CSV.

    The file format carries no metadata, so subject, motion label and mass
    come from the caller (the dataset manifest supplies them). The frame rate
    is inferred from the time column; a single-row file needs it passed in.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:4] != ["t", "px", "py", "pz"]:
        raise ParseError(f"{path}: header must start with t,px,py,pz, got {header[:4]}")
    extra_cols = header[4:]
    for i, name in enumerate(extra_cols):
        if name != f"f{i}":
            raise ParseError(f"{path}: expected feature column f{i}, got {name!r}")

    data = _read_rows(path, lines, header)
    t = data[:, 0]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValidationError(f"row {int(bad[0]) + 1}: non-finite timestamp")
    pos = data[:, 1:4]
    bad = np.argwhere(~np.isfinite(data[:, 1:]))  # positions and f* features
    if len(bad):
        r, c = bad[0]
        raise ValidationError(
            f"row {int(r) + 1}: non-finite value in column {header[1 + int(c)]!r}"
        )

    if len(t) >= 2:
        diffs = np.diff(t)
        if np.any(diffs <= 0):
            raise UnitError(f"{path}: timestamps must be strictly increasing")
        dt = float(t[1] - t[0])
        drift = np.abs(t - (t[0] + dt * np.arange(len(t))))
        if float(drift.max()) > 1e-6:
            raise ValidationError(
                f"{path}: non-uniform frame spacing (max drift {drift.max():.3g} s)"
            )
        rate = 1.0 / dt
    elif frame_rate is None:
        raise UnitError(f"{path}: single-row clip needs an explicit frame_rate")
    if frame_rate is not None:
        rate = frame_rate  # explicit rate wins over the inferred one

    features = data[:, 1:]  # position columns double as leading features
    return MotionClip(
        subject_id=subject_id,
        motion_label=motion_label,
        frame_rate=rate,
        mass=mass,
        root_positions=pos,
        features=features,
    )


def write_clip_csv(clip: MotionClip, path: str | Path) -> None:
    """Write a clip in the format load_clip_csv reads, exactly round-tripping."""
    header = ["t", "px", "py", "pz"] + [f"f{i}" for i in range(clip.feature_width - 3)]
    _write_rows(path, header, np.column_stack([clip.times, clip.features]))


# ---------------------------------------------------------------------------
# Plate CSV
# ---------------------------------------------------------------------------

def _plate_header() -> list[str]:
    cols = ["t"]
    for foot in _PLATE_FEET:
        cols += [f"{foot}_fx", f"{foot}_fy", f"{foot}_fz",
                 f"{foot}_copx", f"{foot}_copy", f"{foot}_contact"]
    return cols


def load_force_plate(
    path: str | Path,
    *,
    force_unit: str = "bodyweight",
    mass: float | None = None,
) -> ForcePlateRecord:
    """Load a plate CSV; NaN force components mark missing rows.

    An infinite force or CoP cell raises ValidationError naming its row and
    column.

    force_unit="newton" converts to body weights at ingestion, which needs
    the subject mass.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    expected = _plate_header()
    if header != expected:
        raise ParseError(f"{path}: bad plate header {header[:4]}...")

    data = _read_rows(path, lines, expected)
    measured = [c for c in range(1, len(expected)) if c % _PLATE_FOOT_COLS]
    bad = np.argwhere(np.isinf(data[:, measured]))
    if len(bad):
        r, c = bad[0]
        raise ValidationError(
            f"row {int(r) + 1}: infinite value in column {expected[measured[int(c)]]!r}"
        )

    T = len(data)
    force = np.empty((T, 2, 3))
    cop = np.empty((T, 2, 2))
    contact = np.empty((T, 2), dtype=bool)
    for f in range(2):
        base = 1 + f * _PLATE_FOOT_COLS
        force[:, f, :] = data[:, base:base + 3]
        cop[:, f, :] = data[:, base + 3:base + 5]
        contact[:, f] = data[:, base + 5] != 0.0

    if force_unit == "newton":
        check_range("mass of a newton-valued plate file", mass, POSITIVE, UnitError)
        force = to_bodyweight(force, mass)
    elif force_unit != "bodyweight":
        raise UnitError(f"unknown force unit {force_unit!r}")

    return ForcePlateRecord(per_foot_force=force, per_foot_cop=cop, contact_flags=contact)


def write_force_plate(
    record: ForcePlateRecord,
    path: str | Path,
    frame_rate: float,
) -> None:
    cols = [np.arange(len(record)) / frame_rate]
    for f in range(2):
        cols += [record.per_foot_force[:, f], record.per_foot_cop[:, f], record.contact_flags[:, f]]
    data = np.column_stack(cols).astype(object)
    # contact flags are written as the integers 1 and 0
    data[:, _PLATE_FOOT_COLS::_PLATE_FOOT_COLS] = record.contact_flags.astype(int)
    _write_rows(path, _plate_header(), data)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_manifest(path: str | Path) -> Dataset:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bytes that do not decode
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("subjects"), list):
        raise ParseError(f"{path}: manifest must be an object with a 'subjects' list")

    entries: list[DatasetEntry] = []
    root = path.parent
    for n, subj in enumerate(doc["subjects"]):
        try:
            sid, mass, specs = subj["id"], float(subj["mass_kg"]), subj["clips"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"{path}: subject {n} needs an 'id', a numeric 'mass_kg' and a 'clips' "
                f"list ({type(exc).__name__}: {exc})"
            ) from None
        if not isinstance(sid, str):
            raise ParseError(f"{path}: 'id' of subject {n} must be a string, got {sid!r}")
        if not isinstance(specs, list):
            raise ParseError(f"{path}: 'clips' of subject {sid!r} must be a list")
        for spec in specs:
            try:
                clip_path, label = spec["clip_path"], spec["motion_label"]
            except (KeyError, TypeError) as exc:
                raise ParseError(
                    f"{path}: every clip of subject {sid!r} needs a 'clip_path' and a "
                    f"'motion_label' ({type(exc).__name__}: {exc})"
                ) from None
            plate_path = spec.get("plate_path")
            names = (label, clip_path) + ((plate_path,) if plate_path else ())
            if not all(isinstance(v, str) and "\0" not in v for v in names):
                raise ParseError(
                    f"{path}: 'motion_label', 'clip_path' and 'plate_path' of subject {sid!r} "
                    f"must be strings without NUL, got {names!r}"
                )
            clip = load_clip_csv(root / clip_path, subject_id=sid, motion_label=label, mass=mass)
            plate = None
            if plate_path:
                unit = spec.get("force_unit", "bodyweight")
                plate = load_force_plate(root / plate_path, force_unit=unit, mass=mass)
            entries.append(DatasetEntry(clip=clip, plate=plate))
    return Dataset(tuple(entries))


def entry_stems(dataset: Dataset) -> list[str]:
    """Deterministic file stem per dataset entry: subject_motion_NNN.

    Every artifact writer (clips, plates, simulations, predictions) uses
    these stems so pipeline stages can find each other's files.
    """
    stems = []
    counters: dict[tuple[str, str], int] = {}
    for entry in dataset:
        key = (entry.clip.subject_id, entry.clip.motion_label)
        idx = counters.get(key, 0)
        counters[key] = idx + 1
        stems.append(f"{key[0]}_{key[1]}_{idx:03d}")
    return stems


def write_manifest(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write every clip/plate file plus manifest.json under out_dir.

    Returns the manifest path. File names are derived deterministically from
    subject, motion label and position in the dataset.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects: dict[str, dict] = {}
    for entry, stem in zip(dataset, entry_stems(dataset)):
        clip = entry.clip
        clip_name = stem + "_clip.csv"
        write_clip_csv(clip, out_dir / clip_name)
        plate_name = None
        if entry.plate is not None:
            plate_name = stem + "_plate.csv"
            write_force_plate(entry.plate, out_dir / plate_name, clip.frame_rate)
        subj = subjects.setdefault(
            clip.subject_id, {"id": clip.subject_id, "mass_kg": clip.mass, "clips": []}
        )
        subj["clips"].append(
            {
                "motion_label": clip.motion_label,
                "clip_path": clip_name,
                "plate_path": plate_name,
                "force_unit": "bodyweight",
            }
        )
    manifest = {"subjects": [subjects[k] for k in sorted(subjects)]}
    out_path = out_dir / "manifest.json"
    out_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# Kinematics helpers
# ---------------------------------------------------------------------------

def finite_diff_velocity(clip: MotionClip) -> np.ndarray:
    """Backward-difference root velocity, (T, 3) m/s, with v[0] = 0.

    Causal on purpose: frame t uses only frames <= t, matching how the
    online simulation consumes velocities.
    """
    pos = clip.root_positions
    vel = np.zeros_like(pos)
    if len(pos) > 1:
        vel[1:] = (pos[1:] - pos[:-1]) * clip.frame_rate
    return vel
