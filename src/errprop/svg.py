"""Deterministic SVG scatter plots with two-axis error bars.

Fixed 800x600 viewport, 5% margins, linear axes.  This is a
verification artifact, not a charting product: no styling options, no
timestamps, element order fixed by input order so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .core import UncertainVector, errors_max, errors_min

__all__ = ["scatter_svg"]

WIDTH, HEIGHT = 800, 600
MARGIN_FRAC = 0.05
POINT_RADIUS = 3.0

# colorbrewer Dark2, cycled by group order of first appearance
PALETTE = [
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
]


class _Axis:
    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        if not np.isfinite(lo) or not np.isfinite(hi):
            lo, hi = 0.0, 1.0
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: float) -> float:
        f = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + f * (self.pix_hi - self.pix_lo)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    # XML character data; xml.sax.saxutils would import urllib and ssl
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(
    x: UncertainVector,
    y: UncertainVector,
    groups: list | None = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render points with horizontal and vertical error bars as SVG 1.1."""
    n = len(x)
    if len(y) != n:
        raise ValueError(f"x has {n} points, y has {len(y)}")
    if groups is not None and len(groups) != n:
        raise ValueError("groups length mismatch")

    mx, my = WIDTH * MARGIN_FRAC, HEIGHT * MARGIN_FRAC
    xmin, xmax = errors_min(x), errors_max(x)
    ymin, ymax = errors_min(y), errors_max(y)
    xaxis = _Axis(
        float(np.min(xmin)) if n else 0.0,
        float(np.max(xmax)) if n else 1.0,
        mx, WIDTH - mx,
    )
    # SVG y grows downward
    yaxis = _Axis(
        float(np.min(ymin)) if n else 0.0,
        float(np.max(ymax)) if n else 1.0,
        HEIGHT - my, my,
    )

    color_of = {}
    if groups is not None:
        for g in groups:
            if g not in color_of:
                color_of[g] = PALETTE[len(color_of) % len(PALETTE)]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="{_fmt(mx)}" y="{_fmt(my)}" width="{_fmt(WIDTH - 2 * mx)}" '
        f'height="{_fmt(HEIGHT - 2 * my)}" fill="none" stroke="#000000"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="14">{_escape(x_label)}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{_escape(y_label)}</text>',
    ]
    for i in range(n):
        color = color_of[groups[i]] if groups is not None else PALETTE[0]
        cx, cy = xaxis(float(x.values[i])), yaxis(float(y.values[i]))
        x0, x1 = xaxis(float(xmin[i])), xaxis(float(xmax[i]))
        y0, y1 = yaxis(float(ymin[i])), yaxis(float(ymax[i]))
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(cy)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(cy)}" stroke="{color}" class="xbar"/>'
        )
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(y0)}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(y1)}" stroke="{color}" class="ybar"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{POINT_RADIUS}" '
            f'fill="none" stroke="{color}" class="pt"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
