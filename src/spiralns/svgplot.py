"""Hand-rolled SVG rendering of the spiral and the behaviors visited on it.

No plotting library: the output must be byte-for-byte reproducible, and the
scene is just a polyline, a set of dots and a start marker.  Dot and vertex
counts are capped so that panels stay a manageable size.
"""

from __future__ import annotations

import math

import numpy as np

from .spiral import SpiralParams

__all__ = ["render_svg", "emit_svg"]

SIZE = 720
MARGIN = 30
MAX_DOTS = 20000
CURVE_STEP = 0.02  # curve parameter increment between polyline vertices
MAX_VERTICES = 20000  # of the polyline; from t_max ~ 400 on they spread out


# One dot of the behaviors; "%.2f" formats as f"{x:.2f}" does.
DOT = '<circle cx="%.2f" cy="%.2f" r="1.6" fill="#1f77b4" fill-opacity="0.55"/>'


def _projected(ts: np.ndarray, params: SpiralParams) -> tuple:
    """Canvas coordinates of the curve points at parameters ts, as one tuple
    x0, y0, x1, y1, ... for %-formatting."""
    if ts.size and not (0.0 <= ts.min() and ts.max() <= params.t_max):
        raise ValueError(f"curve parameters outside the curve domain [0, {params.t_max}]")
    extent = params.extent
    scale = (SIZE - 2 * MARGIN) / (2 * extent)
    r = params.a * ts
    xy = np.empty((ts.size, 2))
    xy[:, 0] = MARGIN + (r * np.cos(ts) + extent) * scale
    xy[:, 1] = MARGIN + (extent - r * np.sin(ts)) * scale
    return tuple(xy.ravel().tolist())


def render_svg(ts, params: SpiralParams, init_t0: float, header_items=()) -> str:
    """SVG document: spiral polyline, one dot per behavior, start marker."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
    ]
    for key, value in header_items:
        text = f"{key} = {value}".replace("--", "- -")
        parts.append(f"<!-- {text} -->")
    parts.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')

    # Each run of points is formatted with one % over a repeated template.
    n_curve = min(int(math.floor(params.t_max / CURVE_STEP)) + 1, MAX_VERTICES)
    points = " ".join(["%.2f,%.2f"] * n_curve) % _projected(
        np.linspace(0.0, params.t_max, n_curve), params
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#bbbbbb" stroke-width="1"/>'
    )

    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size > MAX_DOTS:
        stride = int(math.ceil(ts.size / MAX_DOTS))
        ts = ts[::stride]
    if ts.size:
        parts.append("\n".join([DOT] * ts.size) % _projected(ts, params))

    parts.append(
        '<circle cx="%.2f" cy="%.2f" r="5" fill="#d62728" stroke="black" stroke-width="1"/>'
        % _projected(np.array([init_t0]), params)
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(ts, params: SpiralParams, init_t0: float, path: str, header_items=()):
    document = render_svg(ts, params, init_t0, header_items)
    with open(path, "w", newline="\n") as fh:
        fh.write(document)
