"""Minimal self-contained SVG emitter for line series; one point is a circle.

No plotting dependency: the output is a deterministic text file, so plots
produced from the same data are byte identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 20, 28, 46
_COLORS = ("#1f6fb4", "#d1403a", "#3d9946", "#8455b0", "#c78f2d", "#4cb3b3")


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.size != self.y.size:
            raise ValueError("series x and y lengths differ")


def emit_plot(
    series: list[Series],
    path: str,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    ref_lines: tuple = (),
    log_x: bool = False,
) -> None:
    """Write a standalone SVG; refuses empty input before touching the path."""
    if not series or all(s.x.size == 0 for s in series):
        raise ValueError("empty series")
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    if log_x:
        if np.any(xs <= 0):
            raise ValueError("log axis needs positive x values")
        xs = np.log10(xs)
    ref = [float(r) for r in ref_lines]
    x_lo, x_hi = _pad(float(xs.min()), float(xs.max()))
    y_lo, y_hi = _pad(float(min(ys.min(), *ref)) if ref else float(ys.min()),
                      float(max(ys.max(), *ref)) if ref else float(ys.max()))

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def sy(v: float) -> float:
        return _HEIGHT - _MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>'
    )
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        px, py = sx(xv), sy(yv)
        label = f"1e{xv:.2g}" if log_x else f"{xv:.4g}"
        parts.append(
            f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.4g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.1f}" y="{_HEIGHT - 8}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{_esc(x_label)}</text>'
        )
    if y_label:
        cx, cy = 14, (_MARGIN_T + _HEIGHT - _MARGIN_B) / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11" transform="rotate(-90 {cx} {cy:.1f})">{_esc(y_label)}</text>'
        )
    for r in ref:
        py = sy(r)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{py:.2f}" '
            f'stroke="#888888" stroke-dasharray="6,4" class="reference"/>'
        )
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        x = np.log10(s.x) if log_x else s.x
        pts = [(sx(float(a)), sy(float(b))) for a, b in zip(x, s.y)]
        if len(pts) > 1:
            joined = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
            parts.append(f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            for a, b in pts:
                parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>')
        if s.label:
            ly = _MARGIN_T + 14 * (i + 1)
            parts.append(
                f'<line x1="{_WIDTH - _MARGIN_R - 110}" y1="{ly - 4}" '
                f'x2="{_WIDTH - _MARGIN_R - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_WIDTH - _MARGIN_R - 85}" y="{ly}" font-family="sans-serif" '
                f'font-size="10">{_esc(s.label)}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _pad(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("series contains non-finite values")
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
