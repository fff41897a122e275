"""Minimal SVG rendering of traced curves in the z-plane.

Deterministic output (fixed palette keyed by curve id, origin-centered
square viewBox at 1.1 * r_max, no text) so files can serve as golden
artifacts.  One ``<path>`` element per component curve.
"""

from __future__ import annotations

import bisect
import math
import operator

from .tracer import TraceResult

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)


def _f(v: float) -> str:
    return f"{v:.6g}"


def render_svg(result: TraceResult, r_max: float) -> str:
    s = 1.1 * r_max
    w = _f(2 * s)
    axis_stroke = _f(s / 300)
    curve_stroke = _f(s / 120)
    tick = s / 40

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(-s)} {_f(-s)} {w} {w}" '
        f'width="480" height="480">',
        f'<rect x="{_f(-s)}" y="{_f(-s)}" width="{w}" height="{w}" fill="#ffffff"/>',
        f'<line x1="{_f(-s)}" y1="0" x2="{_f(s)}" y2="0" stroke="#999999" '
        f'stroke-width="{axis_stroke}"/>',
        f'<line x1="0" y1="{_f(-s)}" x2="0" y2="{_f(s)}" stroke="#999999" '
        f'stroke-width="{axis_stroke}"/>',
    ]
    for frac in (-1.0, -0.5, 0.5, 1.0):
        t = frac * r_max
        parts.append(
            f'<line x1="{_f(t)}" y1="{_f(-tick)}" x2="{_f(t)}" y2="{_f(tick)}" '
            f'stroke="#999999" stroke-width="{axis_stroke}"/>'
        )
        parts.append(
            f'<line x1="{_f(-tick)}" y1="{_f(t)}" x2="{_f(tick)}" y2="{_f(t)}" '
            f'stroke="#999999" stroke-width="{axis_stroke}"/>'
        )

    # the samples are grouped by curve id, so each curve is one slice
    r, theta, curve = result.sample_r, result.sample_theta, result.sample_curve
    for cid in result.component_ids:
        a = bisect.bisect_left(curve, cid)
        b = bisect.bisect_right(curve, cid, a)
        rs, ts = r[a:b], theta[a:b]
        xy = [None] * (2 * (b - a))
        xy[0::2] = map(operator.mul, rs, map(math.cos, ts))
        xy[1::2] = map(operator.mul, map(operator.neg, rs), map(math.sin, ts))
        data = "M " + " L ".join(["%.6g %.6g"] * (b - a)) % tuple(xy)
        color = PALETTE[cid % len(PALETTE)]
        parts.append(
            f'<path d="{data}" fill="none" stroke="{color}" stroke-width="{curve_stroke}" '
            f'stroke-linecap="round"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(result: TraceResult, path: str, r_max: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(result, r_max))
