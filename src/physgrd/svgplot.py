"""Minimal static SVG line charts with CSV sidecars.

Hand-rolled on purpose: output bytes depend only on the input series, so
repeated runs of the plotting commands are byte-identical. Masked spans are
rendered as gaps by splitting the polyline, never as zeros.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import LengthMismatchError, ValidationError
from .motion_data import _instance, _readonly, _replacing, _write_table

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 840, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 44  # margins: left right top bottom

# what a label or title cannot hold: a CSV cell delimiter or quote, an XML
# markup character, or a line break or other control character (tab aside)
_UNWRITABLE = re.compile(r'[,"<>&\x00-\x08\x0a-\x1f\x85\u2028\u2029]')


def _check_text(name: str, value) -> None:
    """A label or title must be a string that the CSV and SVG files can hold as it is."""
    if not isinstance(value, str) or _UNWRITABLE.search(value):
        raise ValidationError(f"{name} must be a string without a comma, a double quote, <, >, "
                              f"& or a line break or other control character, got {value!r}")


@dataclass(frozen=True)
class LineSeries:
    """One plottable series of at least one point, at finite times;
    non-finite values and mask=False points break the line into gaps."""

    label: str
    t: np.ndarray
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        _check_text("series label", self.label)
        t = _readonly(self, "t", (None,), finite=True)
        v = _readonly(self, "values", (None,))
        if len(t) < 1:
            raise ValidationError(f"series {self.label!r} must have at least one point")
        if len(t) != len(v):
            raise LengthMismatchError(
                f"series {self.label!r}: {len(t)} times vs {len(v)} values"
            )
        if self.mask is not None:
            m = _readonly(self, "mask", (None,), dtype=bool)
            if len(m) != len(t):
                raise LengthMismatchError(
                    f"series {self.label!r}: mask length {len(m)} vs {len(t)} points"
                )

    def visible(self) -> np.ndarray:
        shown = np.isfinite(self.values)
        if self.mask is not None:
            shown &= self.mask
        return shown


def _ticks(lo: float, hi: float) -> np.ndarray:
    if not np.isfinite(lo) or not np.isfinite(hi):
        return np.array([0.0])
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, 5)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _series(series: Sequence[LineSeries]) -> list[LineSeries]:
    """The series as a list; anything but a collection of LineSeries is a ValidationError."""
    return [_instance("series", s, LineSeries) for s in _instance("series", series, Iterable)]


def write_series_csv(series: Sequence[LineSeries], path: str | Path) -> None:
    """Long-format sidecar: series,t,value with NaN for hidden points."""
    rows = [(s.label, t, v) for s in _series(series)
            for t, v in zip(s.t.tolist(), np.where(s.visible(), s.values, np.nan).tolist())]
    _write_table(path, ("series", "t", "value"), rows)


def write_svg(
    series: Sequence[LineSeries],
    path: str | Path,
    title: str,
    ylabel: str,
) -> None:
    """Render overlaid polylines with axes, ticks and a legend."""
    series = _series(series)
    if not series:
        raise ValidationError("nothing to plot")
    _check_text("title", title)
    _check_text("y label", ylabel)
    all_t = np.concatenate([s.t for s in series])
    vis_vals = np.concatenate(
        [s.values[s.visible()] for s in series if s.visible().any()] or [np.array([0.0])]
    )
    t_lo, t_hi = float(all_t.min()), float(all_t.max())
    v_lo, v_hi = float(vis_vals.min()), float(vis_vals.max())
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0
    pad = 0.05 * (v_hi - v_lo)
    v_lo -= pad
    v_hi += pad

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def sx(t):
        return _ML + (t - t_lo) / (t_hi - t_lo) * pw

    def sy(v):
        return _MT + (v_hi - v) / (v_hi - v_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for tv in _ticks(t_lo, t_hi):
        x = sx(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_num(tv)}</text>'
        )
    for vv in _ticks(v_lo, v_hi):
        y = sy(vv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_num(vv)}</text>'
        )
    parts += [
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">time [s]</text>',
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>',
    ]

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        shown = s.visible()
        # split into contiguous visible runs so masked spans become gaps
        run: list[str] = []
        for i in range(len(s.t)):
            if shown[i]:
                run.append(f"{sx(s.t[i]):.2f},{sy(s.values[i]):.2f}")
            elif run:
                parts.append(_polyline(run, color))
                run = []
        if run:
            parts.append(_polyline(run, color))
        ly = _MT + 16 + 16 * k
        parts.append(
            f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_ML + 40}" y="{ly}" font-family="sans-serif" font-size="12">{s.label}</text>'
        )
    parts.append("</svg>")
    with _replacing(path) as fp:
        fp.write("\n".join(parts) + "\n")


def _polyline(points: list[str], color: str) -> str:
    if len(points) == 1:
        x, y = points[0].split(",")
        return f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>'
    return (
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="{color}" stroke-width="1.5"/>'
    )
