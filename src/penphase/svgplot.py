"""Minimal deterministic SVG rendering (axes, polylines, run-length cell rows).

Exists so the region map and the derivative curves can be turned into images
with no plotting dependency; anything fancier is out of scope.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 18, 40
_CLASS_COLORS = {"C": "#6699cc", "U": "#f2f2f2", "B": "#333333"}
_CURVE_COLORS = ("#1f4e79", "#c0392b", "#1e8449", "#7d3c98")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def rect(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>'
        )

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, points, color, width=1.2):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
        )

    def render(self, stream: IO[str]) -> None:
        stream.write("\n".join(self.parts) + "\n</svg>\n")


def _ticks(lo: float, hi: float, n: int = 6):
    raw = np.linspace(lo, hi, n)
    return [float(f"{t:.6g}") for t in raw]


def _axes(cv: _Canvas, xlo, xhi, ylo, yhi, xlabel, ylabel):
    px0, px1 = _MARGIN_L, cv.width - _MARGIN_R
    py0, py1 = cv.height - _MARGIN_B, _MARGIN_T

    def to_px(x, y):
        fx = (x - xlo) / (xhi - xlo)
        fy = (y - ylo) / (yhi - ylo)
        return px0 + fx * (px1 - px0), py0 + fy * (py1 - py0)

    cv.line(px0, py0, px1, py0)
    cv.line(px0, py0, px0, py1)
    for t in _ticks(xlo, xhi):
        x, _ = to_px(t, ylo)
        cv.line(x, py0, x, py0 + 4)
        cv.text(x, py0 + 16, f"{t:g}")
    for t in _ticks(ylo, yhi):
        _, y = to_px(xlo, t)
        cv.line(px0 - 4, y, px0, y)
        cv.text(px0 - 8, y + 4, f"{t:g}", anchor="end")
    cv.text((px0 + px1) / 2, cv.height - 8, xlabel)
    cv.text(14, (py0 + py1) / 2, ylabel, anchor="middle")
    return to_px


def region_map_svg(region_map, stream: IO[str]) -> None:
    """Render the class grid as run-length colored rows with axes, 640x640 px."""
    cv = _Canvas(640, 640)
    alphas = region_map.alphas
    alpha0s = region_map.alpha0s
    to_px = _axes(
        cv, alphas[0], alphas[-1], alpha0s[0], alpha0s[-1], "alpha", "alpha0"
    )
    x_left, _ = to_px(alphas[0], alpha0s[0])
    x_right, _ = to_px(alphas[-1], alpha0s[0])
    cell_w = (x_right - x_left) / max(len(alphas) - 1, 1)
    _, y_bot = to_px(alphas[0], alpha0s[0])
    _, y_top = to_px(alphas[0], alpha0s[-1])
    cell_h = (y_bot - y_top) / max(len(alpha0s) - 1, 1)
    for i in range(len(alpha0s)):
        row = region_map.classes[i]
        _, y = to_px(alphas[0], alpha0s[i])
        starts = np.flatnonzero(row[1:] != row[:-1]) + 1
        for j, j_end in zip([0, *starts.tolist()], [*starts.tolist(), len(row)]):
            x, _ = to_px(alphas[j], alpha0s[i])
            cv.rect(
                x - cell_w / 2,
                y - cell_h / 2,
                cell_w * (j_end - j),
                cell_h,
                _CLASS_COLORS[str(row[j])],
            )
    cv.text(cv.width - _MARGIN_R - 4, _MARGIN_T - 4, "C confined / U unconfined / B boundary",
            anchor="end", size=10)
    cv.render(stream)


def curves_svg(table, stream: IO[str]) -> None:
    """Polyline plot of cos(theta) and the three derivative curves over k, 640x480 px."""
    cv = _Canvas(640, 480)
    series = [("cos_theta", np.asarray(table.cos_theta))]
    for m in range(3):
        series.append((f"dw{m + 1}", table.dw[:, m]))
    finite = np.concatenate([s[np.isfinite(s)] for _, s in series])
    ylo, yhi = float(np.min(finite)), float(np.max(finite))
    if math.isclose(ylo, yhi):
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    to_px = _axes(cv, float(table.k[0]), float(table.k[-1]), ylo - pad, yhi + pad, "k", "value")
    for idx, (name, ys) in enumerate(series):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        run = []
        for x, y in zip(table.k, ys):
            if np.isfinite(y):
                run.append(to_px(float(x), float(y)))
            else:
                if len(run) > 1:
                    cv.polyline(run, color)
                run = []
        if len(run) > 1:
            cv.polyline(run, color)
        cv.text(_MARGIN_L + 8 + 70 * idx, _MARGIN_T - 4, name, size=10, anchor="start")
        cv.line(_MARGIN_L + 70 * idx - 4, _MARGIN_T - 8, _MARGIN_L + 70 * idx + 4,
                _MARGIN_T - 8, color=color, width=2.0)
    cv.render(stream)

