"""Deterministic standalone SVG scatter plots of point clouds.

Hand-rolled writer so identical inputs give identical bytes: clouds as small
circles (one fill color per cloud, formatted in bulk), eigenvalues as
squares, axes with tick labels.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams
from .io import format_rows

WIDTH = 640
HEIGHT = 640
MARGIN = 60
TICKS = 5

PALETTE = ("#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
EIGEN_COLOR = "#d62728"


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]


def svg_render(clouds, eigenvalues, window) -> str:
    """Render labeled clouds and eigenvalue markers into an SVG document.

    ``clouds`` is a sequence of (label, complex_points); ``window`` is
    (re_min, re_max, im_min, im_max).
    """
    re_min, re_max, im_min, im_max = (float(b) for b in window)
    if not (re_max > re_min and im_max > im_min):
        raise BadParams("plot window is degenerate")
    if not clouds and len(np.atleast_1d(eigenvalues)) == 0:
        raise BadParams("nothing to plot")

    def sx(re):
        return MARGIN + (re - re_min) / (re_max - re_min) * (WIDTH - 2 * MARGIN)

    def sy(im):
        return HEIGHT - MARGIN - (im - im_min) / (im_max - im_min) * (HEIGHT - 2 * MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
    ]

    for value in _ticks(re_min, re_max):
        x = _fmt(sx(value))
        parts.append(
            f'<line x1="{x}" y1="{HEIGHT - MARGIN}" x2="{x}" '
            f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x}" y="{HEIGHT - MARGIN + 20}" font-size="11" '
            f'text-anchor="middle">{_fmt(value)}</text>'
        )
    for value in _ticks(im_min, im_max):
        y = _fmt(sy(value))
        parts.append(
            f'<line x1="{MARGIN - 6}" y1="{y}" x2="{MARGIN}" y2="{y}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 9}" y="{y}" font-size="11" '
            f'text-anchor="end">{_fmt(value)}</text>'
        )

    for idx, (label, points) in enumerate(clouds):
        color = PALETTE[idx % len(PALETTE)]
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        z = z[(re_min <= z.real) & (z.real <= re_max) & (im_min <= z.imag) & (z.imag <= im_max)]
        circles = format_rows('\n<circle cx="%.6g" cy="%.6g" r="1.5"/>', sx(z.real), sy(z.imag))
        parts.append(f'<g fill="{color}" fill-opacity="0.6">')
        parts.append(f"<!-- cloud: {label} -->{circles}")
        parts.append("</g>")

    parts.append(f'<g fill="{EIGEN_COLOR}">')
    for z in np.atleast_1d(np.asarray(eigenvalues, dtype=complex)):
        if re_min <= z.real <= re_max and im_min <= z.imag <= im_max:
            parts.append(
                f'<rect x="{_fmt(sx(z.real) - 3)}" y="{_fmt(sy(z.imag) - 3)}" '
                f'width="6" height="6"/>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
