"""Minimal static SVG line charts.

Display-only output: one polyline with axes, tick labels and a caption.
All coordinates are emitted with fixed precision so identical data produces
identical bytes.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 56


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def line_plot(xs, ys, *, title: str, x_label: str, y_label: str) -> str:
    """Render one curve as a standalone SVG 1.1 document string."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("line_plot needs two 1-d arrays of equal length >= 2")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("line_plot needs finite values")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if not 0.0 < x_hi - x_lo < np.inf:
        raise ValueError(f"line_plot needs a finite, nonzero x range, got [{x_lo!r}, {x_hi!r}]")
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not y_hi - y_lo < np.inf:
        raise ValueError(f"line_plot needs a finite y range, got [{float(ys.min())!r}, {float(ys.max())!r}]")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="22" font-family="sans-serif" font-size="15" text-anchor="middle">{title}</text>',
    ]
    axis_color = "#333333"
    for y in _ticks(y_lo, y_hi):
        yy = py(y)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{yy:.2f}" x2="{_WIDTH - _MARGIN_RIGHT}" y2="{yy:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{yy + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{y:.3g}</text>'
        )
    for x in _ticks(x_lo, x_hi):
        xx = px(x)
        out.append(
            f'<line x1="{xx:.2f}" y1="{_MARGIN_TOP}" x2="{xx:.2f}" y2="{_HEIGHT - _MARGIN_BOTTOM}" '
            'stroke="#eeeeee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{x:.3g}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{axis_color}" stroke-width="1"/>'
    )
    out.append(f'<polyline points="{points}" fill="none" stroke="#0b62a4" stroke-width="1.2"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.2f}" y="{_HEIGHT - 12}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{_HEIGHT / 2:.2f}" font-family="sans-serif" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {_HEIGHT / 2:.2f})">{y_label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
