"""Motion-capture data model and file I/O.

Clips hold a root trajectory (world frame, z-up, meters) plus per-frame
model-input feature vectors; force-plate records hold per-foot forces in
body-weight units with a validity mask for missing measurements.

File formats
------------
Clip CSV        header ``t,px,py,pz,f0..f{D-4}``; one row per frame; ``t`` in
                seconds, strictly increasing with uniform spacing (+-1e-6 s).
                By convention the feature vector starts with the root
                position, so a clip with no extra channels has feature width
                D = 3. Every cell is finite.
Plate CSV       header ``t,L_fx,L_fy,L_fz,L_copx,L_copy,L_contact,R_fx,...``;
                the literal ``NaN`` marks a missing measurement, no cell is
                infinite, and contact flags are 0 or 1.
Prediction CSV  header ``t,L_fx,L_fy,L_fz,R_fx,R_fy,R_fz`` (written and read
                by grf_model); every force cell is finite.
Manifest        JSON ``{"subjects": [{"id", "mass_kg", "clips": [...]}]}``;
                ``mass_kg`` is a JSON number and no two subjects share an
                ``id``; each clip entry carries ``motion_label``, ``clip_path``,
                ``plate_path`` and ``force_unit`` ("newton" or "bodyweight").
                Ids and labels name output files, so they must match
                ``[A-Za-z0-9._-]{1,100}``.

The three numeric CSVs are read by ``_read_table``, which rejects a file
whose header is not its format's (the one its writer writes), and checked by
``_check_cells``, which names the file, row and column of the first bad
cell. ``_aligned`` is the one place a plate or prediction is lined up with
its clip: one row per clip frame, at the clip's frame times (+-1e-6 s).

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

Every array argument goes through one rule, ``_numeric``: numbers or
booleans only, in the dtype asked for, its shape checked and, where asked,
its first non-finite element named by frame and column. Records own their
arrays: every array field of MotionClip, ForcePlateRecord, GravitySpec,
dynamics.SimResult, grf_model.Prediction and svgplot.LineSeries goes through
``_readonly``, the rule plus a read-only, C-ordered copy, so changing the
caller's arrays later changes no record. Checks across arguments or fields
(lengths, feature width, the valid-mask rule) stay where they are made.
Every record argument, and each record of a collection argument, goes
through ``_instance``: anything of another type is one ValidationError
naming the argument, raised before a writer opens its file.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import POSITIVE, LengthMismatchError, ParseError, UnitError, ValidationError
from .errors import check_range

STANDARD_GRAVITY = 9.81  # m/s^2, used for body-weight normalization

# Subject ids and motion labels become parts of file names (entry_stems); at
# 100 characters each, the longest stem plus "_plate.csv" stays well under the
# 255-byte file-name limit.
_SAFE_NAME = re.compile(r"[A-Za-z0-9._-]{1,100}")

# Frame times may drift this far (s) from a uniform grid, and plate times
# this far from the clip's.
_TIME_TOLERANCE = 1e-6

# Column layout of the plate CSV, per foot: fx fy fz copx copy contact.
_PLATE_FOOT_COLS = 6
_PLATE_FEET = ("L", "R")
_PLATE_HEADER = ("t",) + tuple(f"{foot}_{col}" for foot in _PLATE_FEET
                               for col in ("fx", "fy", "fz", "copx", "copy", "contact"))


def _check_name(name: str, value) -> None:
    """A subject id or motion label must be a string matching _SAFE_NAME."""
    if not (isinstance(value, str) and _SAFE_NAME.fullmatch(value)):
        raise ValidationError(f"{name} must match {_SAFE_NAME.pattern}, got {value!r}")


def _check_unit(name: str, value) -> None:
    """A plate file's force unit is "bodyweight" or "newton"."""
    if value not in ("bodyweight", "newton"):
        raise UnitError(f"{name} must be 'bodyweight' or 'newton', got {value!r}")


def _json_number(value) -> float:
    """A JSON number, an int or a float but not a bool, as a float; otherwise
    TypeError, or OverflowError for an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _clip_header(width: int) -> tuple[str, ...]:
    """Clip CSV header for feature width ``width`` (>= 3)."""
    return ("t", "px", "py", "pz") + tuple(f"f{i}" for i in range(width - 3))


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces path when the block ends.

    Every artifact is written through here. The text goes to a new temporary
    file in path's directory, which os.replace then moves onto path, so path
    holds its old bytes or all of the new ones, never part of them. On any
    exception, an interrupt too, the temporary file is removed and the
    exception goes on. There is no fsync: this guards against a failed
    write, not against a power loss. The path ends up with a new file's
    permissions, not the old file's.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fp = open(tmp, "x")  # outside the try: a file this did not make is not removed
    try:
        with fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path: str | Path, header: Sequence[str], data: np.ndarray) -> None:
    """Write ``header`` and one comma-separated line per row of ``data``.

    ``data`` is a (T, n) float matrix; every cell is written as ``repr`` of
    its Python value, NaN as ``NaN``, which are the bytes ``_fmt`` gives. An
    object matrix may hold Python ints, written as integers (plate contact
    flags).
    """
    body = "".join([",".join(map(repr, row.tolist())) + "\n" for row in data])
    # float repr spells NaN "nan"; no other float or int repr holds those letters
    with _replacing(path) as fp:
        fp.write(",".join(header) + "\n" + body.replace("nan", "NaN"))


def _write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV: floats as ``_fmt`` does, other cells with ``str``."""
    lines = [header] + [[_fmt(c) if isinstance(c, float) else str(c) for c in row] for row in rows]
    with _replacing(path) as fp:
        fp.write("".join(",".join(line) + "\n" for line in lines))


def _read_lines(path: Path) -> list[str]:
    """The lines of a text file; bytes that do not decode raise ParseError."""
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from None


def _write_json(path: str | Path, doc) -> None:
    """Write doc as the project's JSON artifacts are written: indented, keys
    sorted, one trailing newline. The mirror of _read_json.

    The text is streamed into the file as the encoder makes it, so no copy
    of the whole document is built; the bytes are those of
    json.dumps(doc, indent=2, sort_keys=True) + "\\n".
    """
    with _replacing(path) as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _read_json(path: Path, what: str, error: type = ParseError):
    """The JSON document in path. Bytes that do not decode, text that does not
    parse and nesting too deep for the parser are one error naming the path."""
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: {what} is not valid JSON ({exc})") from None


def _parse_float(path: Path, text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: row {row}: column '{col}' is not a number: {text!r}") from None


def _read_rows(path: Path, lines: Sequence[str], header: Sequence[str]) -> np.ndarray:
    """Parse the lines after the header into a (rows, len(header)) array.

    The body is parsed in one ``np.loadtxt`` call, which reads a cell
    through the same C routine as Python's ``float`` and so gives the same
    bits. Blank lines are skipped. A body it rejects (a bad cell or row, or
    a spelling only ``float`` takes, such as ``1_0``) goes to the row scanner
    ``_scan_rows``.
    """
    # loadtxt rejects a whitespace-only line and warns on a body with no
    # data, so blank lines are dropped here; the scanner names the no-data error
    body = list(filter(str.strip, lines[1:]))
    if body:
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == len(header):
                return data
    return _scan_rows(path, body, header)


def _scan_rows(path: Path, body: Sequence[str], header: Sequence[str]) -> np.ndarray:
    """``_read_rows`` of the non-blank ``body`` lines one row at a time, cells
    parsed with Python's ``float``. Errors start with the path and number
    rows by data row, as ``_check_cells`` does.
    """
    if not body:
        raise ParseError(f"{path}: no data rows")
    n = len(header)
    out = np.empty((len(body), n))
    for r, line in enumerate(body, start=1):
        cells = line.split(",")
        if len(cells) != n:
            raise ParseError(f"{path}: row {r}: expected {n} columns, got {len(cells)}")
        try:
            out[r - 1] = list(map(float, cells))
        except ValueError:  # rescan the row to name the bad cell
            out[r - 1] = [_parse_float(path, c, r, col) for col, c in zip(header, cells)]
    return out


def _read_table(path: Path, header_for: Callable[[int], Sequence[str]]) -> np.ndarray:
    """The (rows, columns) cells of a numeric CSV, read by ``_read_rows``. Its
    header, the n cells of its first line stripped of blanks, must be
    ``header_for(n)``; another header is a ParseError naming that one."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    expected = tuple(header_for(len(header)))
    if header != expected:
        raise ParseError(f"{path}: header must be {','.join(expected)!r}, got {lines[0]!r}")
    return _read_rows(path, lines, expected)


def _check_cells(
    path: Path, header: Sequence[str], data: np.ndarray, cols: slice,
    ok: Callable[[np.ndarray], np.ndarray] = np.isfinite,
    reason: str = "non-finite value in column {col!r}",
) -> None:
    """Raise ValidationError at the first cell of ``data[:, cols]``, in
    reading order, where ``ok`` is False: ``{path}: row {r}: {reason}``,
    with the column's name and the cell's value formatted into ``reason``
    as ``col`` and ``value``."""
    bad = ~ok(data[:, cols])
    if bad.any():
        r, c = np.argwhere(bad)[0]
        c = range(len(header))[cols][c]
        raise ValidationError(
            f"{path}: row {r + 1}: " + reason.format(col=header[c], value=float(data[r, c]))
        )


def to_bodyweight(force: np.ndarray, mass: float = 1.0) -> np.ndarray:
    """Force in body weights, force / (mass * STANDARD_GRAVITY).

    The default mass of 1 takes a mass-normalized force (m/s^2). A body
    weight is always mass * 9.81 N, whatever gravity a simulation runs
    under, so plate data and physics supervision share one unit. The mass
    must be finite and positive (UnitError).
    """
    check_range("mass", mass, POSITIVE, UnitError)
    return _numeric("force", force, None) / (mass * STANDARD_GRAVITY)


def from_bodyweight(force_bw: np.ndarray) -> np.ndarray:
    """Mass-normalized force (m/s^2) of a body-weight force; inverts to_bodyweight."""
    return _numeric("force_bw", force_bw, None) * STANDARD_GRAVITY


def _frame_times(n: int, frame_rate: float) -> np.ndarray:
    """The times of n frames at frame_rate, which must be finite and positive
    (UnitError): the t column of every per-frame CSV."""
    check_range("frame_rate", frame_rate, POSITIVE, UnitError)
    return np.arange(n) / frame_rate


def _check_finite(name: str, a: np.ndarray, nan_ok: bool = False) -> None:
    """Raise a ValidationError naming the first non-finite element of ``a``
    (with ``nan_ok``, its first infinite one) by its frame (the first axis)
    and its column (its index in the frame's flattened row)."""
    bad = np.isinf(a) if nan_ok else ~np.isfinite(a)
    if bad.any():
        t, c = divmod(int(bad.argmax()), math.prod(a.shape[1:]))
        kind = "infinite" if nan_ok else "non-finite"
        raise ValidationError(f"{kind} value in {name} at frame {t}, column {c}")


def _numeric(name: str, value, shape: tuple | None, dtype: type = float,
             finite: bool = False, nan_ok: bool = False) -> np.ndarray:
    """``value`` as a ``dtype`` array: an array of ``dtype`` itself, not a copy.

    The value must be numbers or booleans (a string is not cast to a number or
    truth value). A ``shape`` other than None must match, None being an axis of
    any length (named T before the first fixed axis, B before T, D after); with
    ``finite``, the array must pass _check_finite, and without, it is not scanned.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged nesting
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be a numeric array, got dtype {arr.dtype}")
    arr = arr.astype(dtype, copy=False)
    if shape is not None and (arr.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape))):
        fixed = next((i for i, n in enumerate(shape) if n is not None), 1)
        want = ", ".join("BTD"[(i >= fixed - 1) + (i >= fixed)] if n is None else str(n)
                         for i, n in enumerate(shape))
        raise ValidationError(f"{name} must be ({want}{',' * (len(shape) == 1)}), got {arr.shape}")
    if finite:
        _check_finite(name, arr, nan_ok)
    return arr


def _readonly(record, name: str, shape: tuple, **rule) -> np.ndarray:
    """Set array field ``name`` of the frozen ``record`` to a read-only,
    C-ordered copy of its value taken through ``_numeric(name, value, shape,
    **rule)``, and return the copy."""
    out = np.array(_numeric(name, getattr(record, name), shape, **rule), order="C")
    out.flags.writeable = False
    object.__setattr__(record, name, out)
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
        _readonly(self, "g_accel", (3,))
        bounds = (math.ulp(0.0), 20.0, "in (0, 20) m/s^2")
        check_range("gravity magnitude", self.magnitude, bounds, UnitError)

    @property
    def magnitude(self) -> float:
        return math.hypot(*self.g_accel)  # no overflow, so no warning, for huge components


def _instance(name: str, value, cls: type):
    """value itself if it is a cls; a ValidationError naming the type of anything else."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _gravity(gravity: GravitySpec | None) -> GravitySpec:
    """The standard GravitySpec for None, else gravity, which must be a GravitySpec."""
    return GravitySpec() if gravity is None else _instance("gravity", gravity, GravitySpec)


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
            _check_name(name, getattr(self, name))
        check_range("frame_rate", self.frame_rate, POSITIVE, UnitError)
        check_range("mass", self.mass, POSITIVE, UnitError)
        pos = _readonly(self, "root_positions", (None, 3), finite=True)
        feat = _readonly(self, "features", (None, None), finite=True)
        if feat.shape[1] < 3:
            raise ValidationError(f"feature width must be >= 3, got {feat.shape[1]}")
        if len(pos) != len(feat):
            raise LengthMismatchError(
                f"{len(pos)} position frames vs {len(feat)} feature frames"
            )
        if len(pos) < 1:
            raise ValidationError("clip must have at least one frame")

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
        return _frame_times(len(self), self.frame_rate)


@dataclass(frozen=True)
class ForcePlateRecord:
    """Per-foot plate measurements aligned with a clip.

    per_foot_force : (T, 2, 3) in body weights (dimensionless), T >= 1.
    per_foot_cop   : (T, 2, 2) center of pressure, meters.
                     NaN marks a missing force or CoP value; an infinite
                     one is rejected, as the plate file format rejects it.
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
        force = _readonly(self, "per_foot_force", (None, 2, 3), finite=True, nan_ok=True)
        T = len(force)
        if T < 1:
            raise ValidationError("plate must have at least one frame")
        _readonly(self, "per_foot_cop", (T, 2, 2), finite=True, nan_ok=True)
        _readonly(self, "contact_flags", (T, 2), dtype=bool)
        finite = np.all(np.isfinite(force), axis=(1, 2))
        if self.valid_mask is None:
            object.__setattr__(self, "valid_mask", finite)
        bad = np.flatnonzero(_readonly(self, "valid_mask", (T,), dtype=bool) & ~finite)
        if bad.size:
            raise ValidationError(f"row {bad[0]} has non-finite force but valid_mask=True")

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
        _instance("clip", self.clip, MotionClip)
        if self.plate is None:
            return
        if len(_instance("plate", self.plate, ForcePlateRecord)) != len(self.clip):
            raise LengthMismatchError(
                f"plate has {len(self.plate)} rows but clip "
                f"'{self.clip.subject_id}/{self.clip.motion_label}' has {len(self.clip)}"
            )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of clip/plate pairs, keyed by subject."""

    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        entries = tuple(_instance("entries", self.entries, Iterable))
        for entry in entries:
            _instance("entry", entry, DatasetEntry)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def subjects(self) -> list[str]:
        return sorted({e.clip.subject_id for e in self.entries})

    def clips(self) -> list[MotionClip]:
        return [e.clip for e in self.entries]


def _check_subjects(dataset: Dataset, subjects: Iterable[str]) -> None:
    """Raise a ValidationError naming the first of subjects that no clip of dataset has."""
    held = dataset.subjects()
    for subject in subjects:
        if subject not in held:
            raise ValidationError(f"subject {subject!r} not in dataset {held}")


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
    return _load_clip(path, subject_id, motion_label, mass, frame_rate)[1]


def _load_clip(
    path: str | Path, subject_id: str, motion_label: str, mass: float,
    frame_rate: float | None,
) -> tuple[np.ndarray, MotionClip]:
    """load_clip_csv, and the file's time column."""
    path = Path(path)
    # the header's width gives the feature width
    data = _read_table(path, lambda n: _clip_header(max(n - 1, 3)))
    _check_cells(path, _clip_header(data.shape[1] - 1), data, slice(None))
    t = data[:, 0]

    if len(t) >= 2:
        # times near the float range overflow here; the checks below reject them
        with np.errstate(over="ignore", invalid="ignore"):
            increasing = np.all(np.diff(t) > 0)
            dt = float(t[1] - t[0])
            drift = float(np.max(np.abs(t - (t[0] + dt * np.arange(len(t))))))
        if not increasing:
            raise UnitError(f"{path}: timestamps must be strictly increasing")
        if not drift <= _TIME_TOLERANCE:
            raise ValidationError(f"{path}: non-uniform frame spacing (max drift {drift:.3g} s)")
        rate = 1.0 / dt
    elif frame_rate is None:
        raise UnitError(f"{path}: single-row clip needs an explicit frame_rate")
    if frame_rate is not None:
        rate = frame_rate  # explicit rate wins over the inferred one
    check_range(f"{path}: frame rate", rate, POSITIVE, UnitError)  # 1 / a subnormal step is inf

    features = data[:, 1:]  # position columns double as leading features
    return t, MotionClip(
        subject_id=subject_id,
        motion_label=motion_label,
        frame_rate=rate,
        mass=mass,
        root_positions=data[:, 1:4],
        features=features,
    )


def write_clip_csv(clip: MotionClip, path: str | Path) -> None:
    """Write a clip in the format load_clip_csv reads, exactly round-tripping.

    The file stores the root positions only as the first three features, so
    a clip whose root_positions are not, bit for bit, features[:, :3] is a
    ValidationError, raised before the file is opened.
    """
    _instance("clip", clip, MotionClip)
    if clip.root_positions.tobytes() != clip.features[:, :3].tobytes():
        raise ValidationError(
            f"clip '{clip.subject_id}/{clip.motion_label}': root_positions differ from "
            f"features[:, :3], and the clip CSV stores only the features"
        )
    _write_rows(path, _clip_header(clip.feature_width),
                np.column_stack([clip.times, clip.features]))


# ---------------------------------------------------------------------------
# Plate CSV
# ---------------------------------------------------------------------------

def load_force_plate(
    path: str | Path,
    *,
    force_unit: str = "bodyweight",
    mass: float | None = None,
) -> ForcePlateRecord:
    """Load a plate CSV; NaN force components mark missing rows.

    An infinite force or CoP cell, or a contact flag other than 0 or 1,
    raises ValidationError naming the file, row and column.

    force_unit="newton" converts to body weights at ingestion, which needs
    the subject mass; a mass so small that a finite force converts to a
    non-finite one raises UnitError.
    """
    return _load_plate(path, force_unit, mass)[1]


def _load_plate(
    path: str | Path, force_unit: str, mass: float | None,
) -> tuple[np.ndarray, ForcePlateRecord]:
    """load_force_plate, and the file's time column."""
    path = Path(path)
    _check_unit("force_unit", force_unit)
    data = _read_table(path, lambda n: _PLATE_HEADER)
    # t is checked against the clip's frame times (_aligned); the flags come
    # first, so a measured column's check meets only flags of 0 and 1
    _check_cells(path, _PLATE_HEADER, data, slice(_PLATE_FOOT_COLS, None, _PLATE_FOOT_COLS),
                 lambda x: (x == 0.0) | (x == 1.0),
                 "contact flag in column {col!r} must be 0 or 1, got {value!r}")
    _check_cells(path, _PLATE_HEADER, data, slice(1, None), lambda x: ~np.isinf(x),
                 "infinite value in column {col!r}")
    feet = data[:, 1:].reshape(len(data), len(_PLATE_FEET), _PLATE_FOOT_COLS)
    force, cop, contact = feet[:, :, :3], feet[:, :, 3:5], feet[:, :, 5] != 0.0

    if force_unit == "newton":
        check_range("mass of a newton-valued plate file", mass, POSITIVE, UnitError)
        with np.errstate(over="ignore"):
            force_bw = to_bodyweight(force, mass)
        if np.any(np.isfinite(force) & ~np.isfinite(force_bw)):
            raise UnitError(
                f"{path}: mass of a newton-valued plate file is too small to convert its "
                f"forces to body weights, got {mass!r}"
            )
        force = force_bw

    record = ForcePlateRecord(per_foot_force=force, per_foot_cop=cop, contact_flags=contact)
    return data[:, 0], record


def write_force_plate(
    record: ForcePlateRecord,
    path: str | Path,
    frame_rate: float,
) -> None:
    cols = [_frame_times(len(_instance("record", record, ForcePlateRecord)), frame_rate)]
    for f in range(2):
        cols += [record.per_foot_force[:, f], record.per_foot_cop[:, f], record.contact_flags[:, f]]
    data = np.column_stack(cols).astype(object)
    # contact flags are written as the integers 1 and 0
    data[:, _PLATE_FOOT_COLS::_PLATE_FOOT_COLS] = record.contact_flags.astype(int)
    _write_rows(path, _PLATE_HEADER, data)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_manifest(path: str | Path) -> Dataset:
    """The clips and plates a manifest lists, with its subjects' masses.

    The manifest's own values are checked before the files they name are
    read, and their errors start with its path: mass_kg must be a JSON
    number, subject ids must be unique, paths must not be empty, and the
    rules of MotionClip and load_force_plate hold. Errors of a clip or
    plate file name that file.
    """
    path = Path(path)
    doc = _read_json(path, "manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("subjects"), list):
        raise ParseError(f"{path}: manifest must be an object with a 'subjects' list")

    entries: list[DatasetEntry] = []
    root = path.parent
    seen: set[str] = set()
    for n, subj in enumerate(doc["subjects"]):
        try:
            sid, mass, specs = subj["id"], _json_number(subj["mass_kg"]), subj["clips"]
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(
                f"{path}: subject {n} needs an 'id', a numeric 'mass_kg' and a 'clips' "
                f"list ({type(exc).__name__}: {exc})"
            ) from None
        if not isinstance(sid, str):
            raise ParseError(f"{path}: 'id' of subject {n} must be a string, got {sid!r}")
        if sid in seen:
            raise ParseError(f"{path}: subject id {sid!r} is repeated (subject {n})")
        seen.add(sid)
        if not isinstance(specs, list):
            raise ParseError(f"{path}: 'clips' of subject {sid!r} must be a list")
        _check_name(f"{path}: subject_id", sid)
        check_range(f"{path}: mass_kg of subject {sid!r}", mass, POSITIVE, UnitError)
        for spec in specs:
            try:
                clip_path, label = spec["clip_path"], spec["motion_label"]
            except (KeyError, TypeError) as exc:
                raise ParseError(
                    f"{path}: every clip of subject {sid!r} needs a 'clip_path' and a "
                    f"'motion_label' ({type(exc).__name__}: {exc})"
                ) from None
            plate_path, unit = spec.get("plate_path"), spec.get("force_unit", "bodyweight")
            names = (label, clip_path) + ((plate_path,) if plate_path is not None else ())
            if not all(isinstance(v, str) and "\0" not in v for v in names):
                raise ParseError(
                    f"{path}: 'motion_label', 'clip_path' and 'plate_path' of subject {sid!r} "
                    f"must be strings without NUL, got {names!r}"
                )
            if "" in (clip_path, plate_path):  # it would name the manifest's directory
                raise ParseError(f"{path}: 'clip_path' and 'plate_path' of subject {sid!r} must "
                                 "not be empty (null or no 'plate_path' means no plate)")
            _check_name(f"{path}: motion_label of subject {sid!r}", label)
            _check_unit(f"{path}: force_unit of subject {sid!r}", unit)
            clip_t, clip = _load_clip(root / clip_path, sid, label, mass, None)
            plate = None
            if plate_path is not None:
                plate = _aligned(root / plate_path, "plate",
                                 *_load_plate(root / plate_path, unit, mass), clip_t)
            entries.append(DatasetEntry(clip=clip, plate=plate))
    return Dataset(tuple(entries))


def _aligned(path: Path, kind: str, t: np.ndarray, record, clip_t: np.ndarray):
    """``record``, a plate or prediction read from ``path`` with time column
    ``t``, once it has one row per clip frame (else LengthMismatchError) at
    the clip's frame times ``clip_t`` (else ValidationError)."""
    if len(t) != len(clip_t):
        raise LengthMismatchError(
            f"{path}: {kind} has {len(t)} rows but its clip has {len(clip_t)} frames"
        )
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~(np.abs(t - clip_t) <= _TIME_TOLERANCE))
    if bad.size:
        r = int(bad[0])
        raise ValidationError(
            f"{path}: row {r + 1}: {kind} time {float(t[r])!r} is not the clip's "
            f"frame time {float(clip_t[r])!r} (+-{_TIME_TOLERANCE} s)"
        )
    return record


def entry_stems(dataset: Dataset) -> list[str]:
    """Deterministic file stem per dataset entry: subject_motion_NNN.

    Every artifact writer (clips, plates, simulations, predictions) uses
    these stems so pipeline stages can find each other's files.
    """
    _instance("dataset", dataset, Dataset)
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
    subject, motion label and position in the dataset. A subject whose clips
    differ in mass is a ValidationError, raised before anything is written.
    """
    _instance("dataset", dataset, Dataset)
    masses: dict[str, float] = {}
    for clip in dataset.clips():  # the manifest holds one mass per subject
        mass = masses.setdefault(clip.subject_id, clip.mass)
        if clip.mass != mass:
            raise ValidationError(f"subject {clip.subject_id!r} has clips of {mass!r} and "
                                  f"{clip.mass!r} kg, but a manifest holds one mass_kg")
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
    _write_json(out_path, manifest)
    return out_path


# ---------------------------------------------------------------------------
# Kinematics helpers
# ---------------------------------------------------------------------------

def _backward_diff(x: np.ndarray, rate: float) -> np.ndarray:
    """Causal rate of change of x along its first (frame) axis, sampled at
    rate: row t is (x[t] - x[t-1]) * rate, and row 0 is zero."""
    out = np.zeros_like(x)
    out[1:] = (x[1:] - x[:-1]) * rate
    return out


def finite_diff_velocity(clip: MotionClip) -> np.ndarray:
    """Backward-difference root velocity, (T, 3) m/s, with v[0] = 0.

    Causal on purpose: frame t uses only frames <= t, matching how the
    online simulation consumes velocities.
    """
    _instance("clip", clip, MotionClip)
    return _backward_diff(clip.root_positions, clip.frame_rate)
