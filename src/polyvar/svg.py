"""Minimal deterministic SVG emission for curve overlays.

The viewBox is the union bounding box of all layers padded by 10% of its
larger side; vertex markers are 1% of the box diagonal.  Values are fixed
presentational choices so repeated runs emit identical bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneracyError

WIDTH = 640  # of the picture in user units; its height follows the viewBox's aspect ratio

PALETTE = (
    "#000000",
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)


def _num(x) -> str:
    return format(float(x), ".10g")


class SvgLayer:
    def __init__(self, points, closed=True, color="#000000", markers=False, opacity=1.0):
        self.points = np.asarray(points, dtype=float)
        self.closed = closed
        self.color = color
        self.markers = markers
        self.opacity = opacity


def render(layers, comment=None) -> str:
    if not layers:
        raise ValueError("nothing to draw")
    xy = np.hstack([layer.points.T for layer in layers])  # (2, N): reduce along the long axis
    lo = xy.min(axis=1)
    hi = xy.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a box beyond the float range is refused below
        span = hi - lo
        pad = 0.1 * max(span[0], span[1])
        lo, hi = lo - pad, hi + pad
        w, h = hi - lo
        diag = float(np.hypot(w, h))
        height = WIDTH * h / w
        if not np.isfinite([w, h, diag, height, lo[1] + hi[1]]).all():
            raise DegeneracyError(f"the picture's box, {_num(w)} by {_num(h)}, is beyond the float range")
    stroke = 0.004 * diag
    marker_r = 0.01 * diag

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(WIDTH)}" height="{_num(height)}" '
        f'viewBox="{_num(lo[0])} {_num(lo[1])} {_num(w)} {_num(h)}">',
    ]
    if comment:
        lines.append(f"<!-- {comment} -->")
    # flip the y axis so the plane's orientation matches the picture
    lines.append(f'<g transform="matrix(1 0 0 -1 0 {_num(lo[1] + hi[1])})">')
    for layer in layers:
        points = layer.points.tolist()
        coords = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
        tag = "polygon" if layer.closed else "polyline"
        lines.append(
            f'<{tag} points="{coords}" fill="none" stroke="{layer.color}" '
            f'stroke-width="{_num(stroke)}" stroke-opacity="{_num(layer.opacity)}"/>'
        )
        if layer.markers:
            for x, y in points:
                lines.append(
                    f'<circle cx="{_num(x)}" cy="{_num(y)}" r="{_num(marker_r)}" '
                    f'fill="{layer.color}"/>'
                )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
