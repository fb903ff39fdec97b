"""Reference writers and reader for the CSV formats, one cell at a time.

These are the per-cell loops the clip, plate, prediction and simulation
files were written and read with before the shared row codec in
``physgrd.motion_data``: every float is formatted on its own with ``fmt``
and every cell is parsed on its own with Python's ``float``. The codec must
write the same bytes and read the same bits. The text-table writers below
(calibration report, metric table, training log, plot sidecar) are the
hand-joined ones that ``motion_data._write_table`` replaced; it must write
their bytes too.
"""

import math
from pathlib import Path

import numpy as np

from physgrd.errors import ParseError


def fmt(value):
    """Shortest decimal string that round-trips the float exactly."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _write(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def write_clip_csv(clip, path):
    D = clip.feature_width
    lines = [",".join(["t", "px", "py", "pz"] + [f"f{i}" for i in range(D - 3)])]
    times = clip.times
    for i in range(len(clip)):
        lines.append(",".join([fmt(times[i])] + [fmt(v) for v in clip.features[i]]))
    _write(path, lines)


def write_force_plate(record, path, frame_rate):
    cols = ["t"]
    for foot in ("L", "R"):
        cols += [f"{foot}_fx", f"{foot}_fy", f"{foot}_fz",
                 f"{foot}_copx", f"{foot}_copy", f"{foot}_contact"]
    lines = [",".join(cols)]
    for i in range(len(record)):
        cells = [fmt(i / frame_rate)]
        for f in range(2):
            cells += [fmt(v) for v in record.per_foot_force[i, f]]
            cells += [fmt(v) for v in record.per_foot_cop[i, f]]
            cells.append("1" if record.contact_flags[i, f] else "0")
        lines.append(",".join(cells))
    _write(path, lines)


def write_prediction_csv(pred, path, frame_rate):
    lines = ["t,L_fx,L_fy,L_fz,R_fx,R_fy,R_fz"]
    for i in range(len(pred)):
        cells = [fmt(i / frame_rate)]
        cells += [fmt(v) for v in pred.forces[i, 0]]
        cells += [fmt(v) for v in pred.forces[i, 1]]
        lines.append(",".join(cells))
    _write(path, lines)


def write_sim_csv(result, path, frame_rate):
    force = result.total_force
    force = np.zeros((len(result), 3)) if len(force) == 0 else np.vstack([force, force[-1:]])
    lines = ["t,px,py,pz,vx,vy,vz,fx,fy,fz"]
    for i in range(len(result)):
        cells = [fmt(i / frame_rate)]
        cells += [fmt(v) for v in result.positions[i]]
        cells += [fmt(v) for v in result.velocities[i]]
        cells += [fmt(v) for v in force[i]]
        lines.append(",".join(cells))
    _write(path, lines)


def write_report_csv(report, path):
    subjects = sorted(report.per_subject)
    lines = ["kp,kd," + ",".join(subjects) + ",avg,std"]
    for cell in report.cells:
        mean, std = report.per_cell[cell]
        vals = [report.per_subject[s].get(cell, float("inf")) for s in subjects]
        cells_txt = [fmt(cell[0]), fmt(cell[1])]
        cells_txt += [fmt(v) for v in vals]
        cells_txt += [fmt(mean), fmt(std)]
        lines.append(",".join(cells_txt))
    _write(path, lines)


def write_metric_table(table, path):
    c1, c2 = table.columns
    lines = [f"motion,{c1},{c2}"]
    for motion in sorted(table.rows):
        a, b = table.rows[motion]
        lines.append(f"{motion},{fmt(a)},{fmt(b)}")
    lines.append(f"Average,{fmt(table.average[0])},{fmt(table.average[1])}")
    _write(path, lines)


def write_train_log(log, path):
    lines = ["epoch,train_loss,term1,term2,test_vgrf_l,test_vgrf_r,test_vrpe"]
    for row in log:
        lines.append(
            ",".join(
                [str(row.epoch)]
                + [fmt(v) for v in (row.train_loss, row.term1, row.term2,
                                    row.test_vgrf_l, row.test_vgrf_r, row.test_vrpe)]
            )
        )
    _write(path, lines)


def write_series_csv(series, path):
    lines = ["series,t,value"]
    for s in series:
        shown = s.visible()
        for i in range(len(s.t)):
            v = s.values[i] if shown[i] else float("nan")
            lines.append(f"{s.label},{fmt(s.t[i])},{fmt(v)}")
    _write(path, lines)


def read_rows(path):
    """The data rows of a numeric CSV as a float array, parsed cell by cell.

    Blank lines are skipped; errors start with the path and number rows by
    data row, blank lines not counted, as the loaders do.
    """
    lines = Path(path).read_text().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        r = len(rows) + 1
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {r}: expected {len(header)} columns, got {len(cells)}")
        row = []
        for col, text in zip(header, cells):
            try:
                row.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}: column '{col}' is not a number: {text!r}"
                ) from None
        rows.append(row)
    return np.array(rows, dtype=float)
