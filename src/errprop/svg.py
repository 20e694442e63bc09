"""Deterministic SVG scatter plots with two-axis error bars.

Fixed 800x600 viewport, 5% margins, linear axes.  This is a
verification artifact, not a charting product: no styling options, no
timestamps, element order fixed by input order so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import re

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
            if hi <= lo:  # from 2**53 on, floats are further apart than 0.5
                pad = abs(lo) * 2.0**-50
                lo, hi = lo - pad, hi + pad
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Pixel coordinates of v, by the same float operations, in the
        same order, as for one Python float."""
        f = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + f * (self.pix_hi - self.pix_lo)


def _finite_range(lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
    """The least and the greatest finite bar end, so that one NaN or
    infinite row moves no other point; (inf, -inf), which _Axis draws as
    [0, 1], when no end is finite."""
    ends = np.concatenate((lo, hi))
    ends = ends[np.isfinite(ends)]
    return float(np.min(ends, initial=np.inf)), float(np.max(ends, initial=-np.inf))


# characters XML 1.0 forbids: C0 controls other than tab, LF and CR, lone
# surrogates, U+FFFE and U+FFFF (compiled at first use, by re's cache)
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _escape(text: str) -> str:
    # XML character data; xml.sax.saxutils would import urllib and ssl
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub(_NOT_XML, "\ufffd", text)


# one point: its horizontal and vertical error bars, then its marker, each
# with its span of a row (x0, cy, x1, cy, color, cx, y0, cx, y1, color, cx,
# cy, color): its coordinates, then its color
_ELEMENTS = [
    ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" class="xbar"/>', slice(0, 5)),
    ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" class="ybar"/>', slice(5, 10)),
    (f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS}" fill="none" stroke="%s" class="pt"/>',
     slice(10, 13)),
]
_ROW = "\n".join(template for template, _ in _ELEMENTS)


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
    # past the float range a coordinate is inf, with no warning, as for
    # Python floats
    with np.errstate(all="ignore"):
        xmin, xmax = errors_min(x), errors_max(x)
        ymin, ymax = errors_min(y), errors_max(y)
        xaxis = _Axis(*_finite_range(xmin, xmax), mx, WIDTH - mx)
        # SVG y grows downward
        yaxis = _Axis(*_finite_range(ymin, ymax), HEIGHT - my, my)
        coords = [xaxis(x.values), yaxis(y.values), xaxis(xmin), xaxis(xmax), yaxis(ymin),
                  yaxis(ymax)]
    finite = np.isfinite(coords).all(axis=0).tolist()
    cx, cy, x0, x1, y0, y1 = (c.tolist() for c in coords)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="{mx:.2f}" y="{my:.2f}" width="{WIDTH - 2 * mx:.2f}" '
        f'height="{HEIGHT - 2 * my:.2f}" fill="none" stroke="#000000"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="14">{_escape(x_label)}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{_escape(y_label)}</text>',
    ]
    color_of = dict(zip(dict.fromkeys(groups or ()), itertools.cycle(PALETTE)))
    colors = [color_of[g] for g in groups] if groups is not None else [PALETTE[0]] * n
    rows = zip(x0, cy, x1, cy, colors, cx, y0, cx, y1, colors, cx, cy, colors)
    # SVG 1.1 has no number for nan or inf: of a row that is not all finite,
    # only the elements whose own coordinates are finite are drawn
    for row, whole in zip(rows, finite):
        if whole:
            parts.append(_ROW % row)
        else:
            parts += [template % row[span] for template, span in _ELEMENTS
                      if all(map(math.isfinite, row[span][:-1]))]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
