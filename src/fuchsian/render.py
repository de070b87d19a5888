"""Deterministic SVG figures: polygons in the disk, attractors in the
angle-angle square.

Output is plain XML text built from fixed-precision coordinates, so equal
inputs produce byte-identical documents.  Side i is drawn from V_i to
V_{i+1}, as an arc of the ``geodesic_circle`` of its ideal ends P_i and
Q_{i+1} or straight on a diameter; attractor rectangles are axis-aligned in
the torus chart, split at the 0/2pi seam.
"""

from __future__ import annotations

import colorsys
import functools
import math
from dataclasses import dataclass

from .extension import AttractorDomain
from .boundary import Partition
from .mobius import TAU, geodesic_circle
from .polygon import MarkedPolygon


_STROKE = 1.6                    # line width of sides, marks and frames


@dataclass(frozen=True)
class FigureSpec:
    size: int = 640

    def __post_init__(self) -> None:
        if self.size < 100:
            raise ValueError("canvas must be at least 100 px")


@functools.lru_cache(maxsize=None)
def block_color(index: int) -> str:
    """Fixed palette: golden-angle hue walk, distinguishable and stable;
    each color is formed once per process."""
    hue = (index * 137.50776405003785) % 360.0 / 360.0
    r, g, b = colorsys.hls_to_rgb(hue, 0.45, 0.85)
    return f"#{int(round(r*255)):02x}{int(round(g*255)):02x}{int(round(b*255)):02x}"


def _f(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


class _Svg:
    def __init__(self, width: float, height: float):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        ]

    def add(self, line: str) -> None:
        self.parts.append(line)

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def render_polygon(poly: MarkedPolygon, part: Partition,
                   spec: FigureSpec) -> str:
    """Unit disk, colored geodesic sides, vertex and cut-point marks."""
    size = spec.size
    cx = cy = size / 2.0
    R = 0.42 * size

    def to_px(z: complex) -> tuple[float, float]:
        return cx + R * z.real, cy - R * z.imag

    svg = _Svg(size, size)
    svg.add(f'<rect width="{_f(size)}" height="{_f(size)}" fill="white"/>')
    svg.add(f'<circle class="boundary" cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(R)}" '
            f'fill="none" stroke="#444444" stroke-width="{_f(_STROKE)}"/>')

    for blk in poly.blocks:
        z = complex(math.cos(blk.base_angle), math.sin(blk.base_angle))
        x, y = to_px(z)
        svg.add(f'<line class="sector-ray" x1="{_f(cx)}" y1="{_f(cy)}" '
                f'x2="{_f(x)}" y2="{_f(y)}" stroke="#dddddd" '
                f'stroke-width="{_f(0.5 * _STROKE)}"/>')

    n = poly.n_sides
    for i in range(n):
        color = block_color(poly.block_of_side(i).index)
        z1 = poly.vertices[i].point.z
        z2 = poly.vertices[(i + 1) % n].point.z
        x1, y1 = to_px(z1)
        x2, y2 = to_px(z2)
        circle = geodesic_circle(poly.aux[i].P, poly.aux[(i + 1) % n].Q)
        if circle is None:
            svg.add(f'<line class="side" x1="{_f(x1)}" y1="{_f(y1)}" '
                    f'x2="{_f(x2)}" y2="{_f(y2)}" stroke="{color}" '
                    f'stroke-width="{_f(_STROKE)}"/>')
            continue
        c, r = circle
        r_px = R * r
        # minor arc; the sweep flag follows the screen orientation, which
        # flips the sign of the plane cross product
        cross = ((z1.real - c.real) * (z2.imag - c.imag)
                 - (z1.imag - c.imag) * (z2.real - c.real))
        sweep = 1 if cross < 0 else 0
        svg.add(f'<path class="side" d="M {_f(x1)} {_f(y1)} '
                f'A {_f(r_px)} {_f(r_px)} 0 0 {sweep} {_f(x2)} {_f(y2)}" '
                f'fill="none" stroke="{color}" stroke-width="{_f(_STROKE)}"/>')

    for i, v in enumerate(poly.vertices):
        x, y = to_px(v.point.z)
        if v.is_ideal:
            zo = v.point.z
            xo, yo = to_px(1.04 * zo)
            svg.add(f'<line class="ideal-vertex" x1="{_f(x)}" y1="{_f(y)}" '
                    f'x2="{_f(xo)}" y2="{_f(yo)}" stroke="#222222" '
                    f'stroke-width="{_f(_STROKE)}"/>')
        else:
            svg.add(f'<circle class="elliptic-vertex" cx="{_f(x)}" cy="{_f(y)}" '
                    f'r="{_f(3.0)}" fill="#222222"/>')
            svg.add(f'<text class="order-label" x="{_f(x + 6)}" '
                    f'y="{_f(y - 6)}" font-size="12">{v.order}</text>')

    for k in poly.elliptic_indices():
        z = part.points[k].z
        xi, yi = to_px(0.96 * z)
        xo, yo = to_px(1.0 * z)
        svg.add(f'<line class="cut-point" x1="{_f(xi)}" y1="{_f(yi)}" '
                f'x2="{_f(xo)}" y2="{_f(yo)}" stroke="#cc2222" '
                f'stroke-width="{_f(_STROKE)}"/>')
    return svg.finish()


def render_attractor(dom: AttractorDomain, spec: FigureSpec) -> str:
    """Axis-aligned rectangles in the [0, 2pi)^2 chart, u horizontal."""
    size = spec.size
    margin = 0.08 * size
    side = size - 2 * margin
    sc = side / TAU

    def to_px(tu: float, tw: float) -> tuple[float, float]:
        return margin + tu * sc, margin + side - tw * sc

    svg = _Svg(size, size)
    svg.add(f'<rect width="{_f(size)}" height="{_f(size)}" fill="white"/>')
    svg.add(f'<rect class="frame" x="{_f(margin)}" y="{_f(margin)}" '
            f'width="{_f(side)}" height="{_f(side)}" fill="none" '
            f'stroke="#444444" stroke-width="{_f(_STROKE)}"/>')

    for c in (blk.base_angle for blk in dom.poly.blocks[1:]):
        x0, _ = to_px(c, 0.0)
        _, y0 = to_px(0.0, c)
        svg.add(f'<line class="grid" x1="{_f(x0)}" y1="{_f(margin)}" '
                f'x2="{_f(x0)}" y2="{_f(margin + side)}" stroke="#eeeeee" '
                f'stroke-width="1.0"/>')
        svg.add(f'<line class="grid" x1="{_f(margin)}" y1="{_f(y0)}" '
                f'x2="{_f(margin + side)}" y2="{_f(y0)}" stroke="#eeeeee" '
                f'stroke-width="1.0"/>')

    # each rectangle's seam-split intervals, without the padding
    u, w = ([[(lo, hi) for lo, hi in ints if hi > lo] for ints in x.tolist()]
            for x in dom.arrays.intervals())
    for block, gamma, u_ints, w_ints in zip(dom.arrays.block.tolist(),
                                            dom.arrays.gamma.tolist(), u, w):
        color = block_color(block)
        svg.add(f'<g class="omega-rect" data-block="{block}" '
                f'data-gamma="{gamma}">')
        for ulo, uhi in u_ints:
            for wlo, whi in w_ints:
                x, _ = to_px(ulo, 0.0)
                _, y = to_px(0.0, whi)
                svg.add(f'<rect x="{_f(x)}" y="{_f(y)}" '
                        f'width="{_f((uhi - ulo) * sc)}" '
                        f'height="{_f((whi - wlo) * sc)}" fill="{color}" '
                        f'fill-opacity="0.75" stroke="#333333" '
                        f'stroke-width="0.6"/>')
        svg.add('</g>')

    svg.add(f'<text class="axis-label" x="{_f(margin + 0.5 * side)}" '
            f'y="{_f(size - 0.25 * margin)}" font-size="13" '
            f'text-anchor="middle">u</text>')
    svg.add(f'<text class="axis-label" x="{_f(0.35 * margin)}" '
            f'y="{_f(margin + 0.5 * side)}" font-size="13" '
            f'text-anchor="middle">w</text>')
    return svg.finish()
