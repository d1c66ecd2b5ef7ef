"""Deterministic standalone SVG scatter plots of point clouds.

Hand-rolled writer so identical inputs give identical bytes: clouds as small
circles (one fill color per cloud), eigenvalues as squares, axes with tick
labels; every mark is filled in bulk by ``io.format_rows``.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams
from .io import format_rows
from .oracle import _window

WIDTH = 640
HEIGHT = 640
MARGIN = 60
TICKS = 5

PALETTE = ("#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
EIGEN_COLOR = "#d62728"


def svg_render(clouds, eigenvalues, window) -> str:
    """Render labeled clouds and eigenvalue markers into an SVG document.

    ``clouds`` is a sequence of (label, complex_points); ``window`` is
    (re_min, re_max, im_min, im_max).
    """
    re_min, re_max, im_min, im_max = _window(window, "plot window")
    if not clouds and len(np.atleast_1d(eigenvalues)) == 0:
        raise BadParams("nothing to plot")

    def sx(re):
        return MARGIN + (re - re_min) / (re_max - re_min) * (WIDTH - 2 * MARGIN)

    def sy(im):
        return HEIGHT - MARGIN - (im - im_min) / (im_max - im_min) * (HEIGHT - 2 * MARGIN)

    def marks(template, points, offset=0.0):  # one template per point in the window
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        z = z[(re_min <= z.real) & (z.real <= re_max) & (im_min <= z.imag) & (z.imag <= im_max)]
        xy = np.column_stack((sx(z.real) - offset, sy(z.imag) - offset))
        return format_rows([template] * len(z), xy)

    # Tick i of an axis is lo + (hi - lo) * (i / (TICKS - 1)), the division
    # first: (hi - lo) * i can overflow where the tick cannot.
    at = np.arange(TICKS) / (TICKS - 1)
    re_at, im_at = re_min + (re_max - re_min) * at, im_min + (im_max - im_min) * at
    x_tick = (f'\n<line x1="%.6g" y1="{HEIGHT - MARGIN}" x2="%.6g" y2="{HEIGHT - MARGIN + 6}" '
              f'stroke="black"/>\n<text x="%.6g" y="{HEIGHT - MARGIN + 20}" font-size="11" '
              'text-anchor="middle">%.6g</text>')
    y_tick = (f'\n<line x1="{MARGIN - 6}" y1="%.6g" x2="{MARGIN}" y2="%.6g" stroke="black"/>'
              f'\n<text x="{MARGIN - 9}" y="%.6g" font-size="11" text-anchor="end">%.6g</text>')
    x, y = sx(re_at), sy(im_at)
    ticks = (format_rows([x_tick] * TICKS, np.column_stack((x, x, x, re_at)))
             + format_rows([y_tick] * TICKS, np.column_stack((y, y, y, im_at))))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>{ticks}',
    ]

    for idx, (label, points) in enumerate(clouds):
        color = PALETTE[idx % len(PALETTE)]
        circles = marks('\n<circle cx="%.6g" cy="%.6g" r="1.5"/>', points)
        parts.append(f'<g fill="{color}" fill-opacity="0.6">')
        parts.append(f"<!-- cloud: {label} -->{circles}")
        parts.append("</g>")

    squares = marks('\n<rect x="%.6g" y="%.6g" width="6" height="6"/>', eigenvalues, 3.0)
    parts.append(f'<g fill="{EIGEN_COLOR}">{squares}')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
