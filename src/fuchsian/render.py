"""Deterministic SVG figures: polygons in the disk, attractors in the
angle-angle square.

Output is plain XML text built from fixed-precision coordinates, so equal
inputs produce byte-identical documents.  Side i is drawn from V_i to
V_{i+1}, as an arc of the ``geodesic_circles`` of its ideal ends P_i and
Q_{i+1} or straight on a diameter; attractor rectangles are axis-aligned in
the torus chart, split at the 0/2pi seam.
"""

from __future__ import annotations

import colorsys
import functools
import math
from dataclasses import dataclass

import numpy as np

from .extension import AttractorDomain
from .boundary import Partition
from .mobius import TAU, geodesic_circles
from .polygon import MarkedPolygon


_STROKE = 1.6                    # line width of sides, marks and frames


@dataclass(frozen=True)
class FigureSpec:
    size: int = 640

    def __post_init__(self) -> None:
        # NaN fails every comparison, and infinity is not finite
        if not (self.size >= 100 and math.isfinite(self.size)):
            raise ValueError("canvas must be at least 100 px and finite")


@functools.lru_cache(maxsize=None)
def block_color(index: int) -> str:
    """Fixed palette: golden-angle hue walk, distinguishable and stable;
    each color is formed once per process."""
    hue = (index * 137.50776405003785) % 360.0 / 360.0
    r, g, b = colorsys.hls_to_rgb(hue, 0.45, 0.85)
    return f"#{int(round(r*255)):02x}{int(round(g*255)):02x}{int(round(b*255)):02x}"


def _document(size: float, lines: list[str]) -> str:
    """The SVG document of ``lines`` on a ``size`` square canvas.  Every
    number is written with exactly four decimals, so one replace over the
    document turns each "-0.0000" (a tiny negative) into "0.0000"."""
    return ("\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.4f" height="%.4f" '
        'viewBox="0 0 %.4f %.4f">' % (size, size, size, size),
        '<rect width="%.4f" height="%.4f" fill="white"/>' % (size, size),
        *lines, "</svg>"]) + "\n").replace("-0.0000", "0.0000")


def render_polygon(poly: MarkedPolygon, part: Partition,
                   spec: FigureSpec) -> str:
    """Unit disk, colored geodesic sides, vertex and cut-point marks."""
    size = spec.size
    cx = cy = size / 2.0
    R = 0.42 * size

    def to_px(x: np.ndarray, y: np.ndarray) -> tuple[list, list]:
        return (cx + R * x).tolist(), (cy - R * y).tolist()

    out = ['<circle class="boundary" cx="%.4f" cy="%.4f" r="%.4f" '
           'fill="none" stroke="#444444" stroke-width="%.4f"/>'
           % (cx, cy, R, _STROKE)]

    base = np.array([blk.base_angle for blk in poly.blocks])
    out += ['<line class="sector-ray" x1="%.4f" y1="%.4f" x2="%.4f" '
            'y2="%.4f" stroke="#dddddd" stroke-width="%.4f"/>'
            % (cx, cy, x, y, 0.5 * _STROKE)
            for x, y in zip(*to_px(np.cos(base), np.sin(base)))]

    # side i runs from V_i to V_{i+1}, on the circle of P_i and Q_{i+1}
    z1 = np.array([v.point.z for v in poly.vertices])
    z2 = np.roll(z1, -1)
    c, r, diameter = geodesic_circles(
        [x.P.z for x in poly.aux],
        [x.Q.z for x in poly.aux[1:] + poly.aux[:1]])
    # minor arc; the sweep flag follows the screen orientation, which
    # flips the sign of the plane cross product
    cross = ((z1.real - c.real) * (z2.imag - c.imag)
             - (z1.imag - c.imag) * (z2.real - c.real))
    xs, ys = to_px(z1.real, z1.imag)
    for x1, y1, x2, y2, r_px, sweep, straight, blk in zip(
            xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1], (R * r).tolist(),
            (cross < 0).tolist(), diameter.tolist(), poly.side_blocks):
        color = block_color(blk.index)
        out.append('<line class="side" x1="%.4f" y1="%.4f" x2="%.4f" '
                   'y2="%.4f" stroke="%s" stroke-width="%.4f"/>'
                   % (x1, y1, x2, y2, color, _STROKE) if straight else
                   '<path class="side" d="M %.4f %.4f A %.4f %.4f 0 0 %d '
                   '%.4f %.4f" fill="none" stroke="%s" stroke-width="%.4f"/>'
                   % (x1, y1, r_px, r_px, sweep, x2, y2, color, _STROKE))

    for v, x, y, xt, yt in zip(poly.vertices, xs, ys,
                               *to_px(1.04 * z1.real, 1.04 * z1.imag)):
        if v.is_ideal:
            out.append('<line class="ideal-vertex" x1="%.4f" y1="%.4f" '
                       'x2="%.4f" y2="%.4f" stroke="#222222" '
                       'stroke-width="%.4f"/>' % (x, y, xt, yt, _STROKE))
        else:
            out.append('<circle class="elliptic-vertex" cx="%.4f" cy="%.4f" '
                       'r="%.4f" fill="#222222"/>' % (x, y, 3.0))
            out.append('<text class="order-label" x="%.4f" y="%.4f" '
                       'font-size="12">%d</text>' % (x + 6, y - 6, v.order))

    cut = np.array([part.points[k].z for k in poly.elliptic_indices()],
                   dtype=complex)
    out += ['<line class="cut-point" x1="%.4f" y1="%.4f" x2="%.4f" '
            'y2="%.4f" stroke="#cc2222" stroke-width="%.4f"/>'
            % (x1, y1, x2, y2, _STROKE)
            for x1, y1, x2, y2 in zip(
                *to_px(0.96 * cut.real, 0.96 * cut.imag),
                *to_px(cut.real, cut.imag))]
    return _document(size, out)


def render_attractor(dom: AttractorDomain, spec: FigureSpec) -> str:
    """Axis-aligned rectangles in the [0, 2pi)^2 chart, u horizontal."""
    size = spec.size
    margin = 0.08 * size
    side = size - 2 * margin
    sc = side / TAU

    out = ['<rect class="frame" x="%.4f" y="%.4f" width="%.4f" height="%.4f" '
           'fill="none" stroke="#444444" stroke-width="%.4f"/>'
           % (margin, margin, side, side, _STROKE)]

    c = np.array([blk.base_angle for blk in dom.poly.blocks[1:]])
    for x0, y0 in zip((margin + c * sc).tolist(),
                      (margin + side - c * sc).tolist()):
        out.append('<line class="grid" x1="%.4f" y1="%.4f" x2="%.4f" '
                   'y2="%.4f" stroke="#eeeeee" stroke-width="1.0"/>'
                   % (x0, margin, x0, margin + side))
        out.append('<line class="grid" x1="%.4f" y1="%.4f" x2="%.4f" '
                   'y2="%.4f" stroke="#eeeeee" stroke-width="1.0"/>'
                   % (margin, y0, margin + side, y0))

    # each rectangle's pieces: its nonempty seam-split u-intervals by its
    # nonempty w-intervals, u outer
    u, w = dom.arrays.intervals()
    row, a, b = np.nonzero((u[:, :, None, 1] > u[:, :, None, 0])
                           & (w[:, None, :, 1] > w[:, None, :, 0]))
    ulo, uhi = u[row, a].T
    wlo, whi = w[row, b].T
    blocks = dom.arrays.block.tolist()
    pieces = ['<rect x="%.4f" y="%.4f" width="%.4f" height="%.4f" fill="%s" '
              'fill-opacity="0.75" stroke="#333333" stroke-width="0.6"/>'
              % (x, y, wd, ht, block_color(blocks[k]))
              for x, y, wd, ht, k in zip(
                  (margin + ulo * sc).tolist(),
                  (margin + side - whi * sc).tolist(),
                  ((uhi - ulo) * sc).tolist(), ((whi - wlo) * sc).tolist(),
                  row.tolist())]
    ends = np.cumsum(np.bincount(row, minlength=len(blocks))).tolist()
    for block, gamma, lo, hi in zip(blocks, dom.arrays.gamma.tolist(),
                                    [0] + ends, ends):
        out.append('<g class="omega-rect" data-block="%d" data-gamma="%d">'
                   % (block, gamma))
        out += pieces[lo:hi]
        out.append('</g>')

    out.append('<text class="axis-label" x="%.4f" y="%.4f" font-size="13" '
               'text-anchor="middle">u</text>'
               % (margin + 0.5 * side, size - 0.25 * margin))
    out.append('<text class="axis-label" x="%.4f" y="%.4f" font-size="13" '
               'text-anchor="middle">w</text>'
               % (0.35 * margin, margin + 0.5 * side))
    return _document(size, out)
