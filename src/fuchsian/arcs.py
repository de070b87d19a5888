"""Oriented circular arcs, products of arcs, and angular measure.

All arcs are stored counter-clockwise: an arc is a start angle plus a sweep
in (0, 2pi].  A rectangle list becomes an array of plain boxes in
[0, 2pi]^2, split at the seam.  Measures of unions, intersections and
symmetric differences sum the cells of the grid of the boxes' breakpoints,
exact up to endpoint rounding; no rasterization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mobius import TAU, BoundaryPoint, normalize_angle
from .tolerances import WRAP


def ccw_sweep(start: float, end: float, full_if_equal: bool = False) -> float:
    """Counter-clockwise sweep from start to end, resolving 0 vs 2pi."""
    s = (end - start) % TAU
    if s < WRAP:
        return TAU if full_if_equal else 0.0
    return s


@dataclass(frozen=True)
class DirectedArc:
    """Closed circular arc from ``start`` running counter-clockwise by
    ``sweep`` radians to ``end``."""

    start: BoundaryPoint
    end: BoundaryPoint
    sweep: float

    def __post_init__(self) -> None:
        if not WRAP < self.sweep <= TAU:
            raise ValueError(f"sweep {self.sweep} outside (0, 2pi]")

    @classmethod
    def ccw(cls, start: BoundaryPoint, end: BoundaryPoint,
            full_if_equal: bool = False) -> "DirectedArc":
        return cls(start, end, ccw_sweep(start.theta, end.theta, full_if_equal))

    @classmethod
    def from_angles(cls, start: float, sweep: float) -> "DirectedArc":
        s = normalize_angle(start)
        return cls(BoundaryPoint.from_angle(s),
                   BoundaryPoint.from_angle(s + sweep), sweep)

    @property
    def is_full_circle(self) -> bool:
        return self.sweep >= TAU - WRAP

    def midpoint_angle(self) -> float:
        return normalize_angle(self.start.theta + 0.5 * self.sweep)

    def intervals(self) -> list[tuple[float, float]]:
        """The arc as 1 or 2 plain intervals within [0, 2pi]."""
        lo = self.start.theta % TAU
        hi = lo + self.sweep
        if hi <= TAU + 1e-15:
            return [(lo, min(hi, TAU))]
        return [(lo, TAU), (0.0, hi - TAU)]

    def interior_angles(self, angles: list[float], tol: float = WRAP) -> list[float]:
        """Subset of ``angles`` strictly inside the arc, ordered along it."""
        out = []
        for t in angles:
            d = (t - self.start.theta) % TAU
            if tol < d < self.sweep - tol:
                out.append((d, t))
        return [t for _, t in sorted(out)]


@dataclass(frozen=True)
class Rect:
    """Product of a u-arc and a w-arc on the torus, tagged with the block it
    belongs to and the side index whose transformation acts on the w-arc."""

    u_arc: DirectedArc
    w_arc: DirectedArc
    block: int
    gamma_index: int

    @property
    def area(self) -> float:
        return self.u_arc.sweep * self.w_arc.sweep


# -- rectangle measure on a coverage grid --------------------------------------

# rows of the grid, or of rectangles in the pair loop, per slice: bounds each
# float64 temporary at _ROWS times the other dimension
_ROWS = 16


def _intervals(arcs: Sequence[DirectedArc]) -> np.ndarray:
    """(n, 2, 2) array of the arcs' ``intervals()``; a one-interval arc is
    padded with the empty interval (0, 0)."""
    out = np.zeros((len(arcs), 2, 2))
    for i, arc in enumerate(arcs):
        ints = arc.intervals()
        out[i, :len(ints)] = ints
    return out


def rect_boxes(rects: Sequence[Rect]) -> np.ndarray:
    """(n, 4) array of plain boxes ``(u_lo, u_hi, w_lo, w_hi)`` in
    [0, 2pi]^2 with the rectangles' union: each rectangle is the product of
    its arcs' seam-split intervals, so at most 4 boxes."""
    u = _intervals([r.u_arc for r in rects])
    w = _intervals([r.w_arc for r in rects])
    boxes = np.concatenate([np.repeat(u, 2, axis=1), np.tile(w, (1, 2, 1))],
                           axis=2).reshape(-1, 4)
    return boxes[(boxes[:, 1] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 2])]


def clip_boxes(boxes: np.ndarray, band: DirectedArc) -> np.ndarray:
    """The boxes intersected with ``band x S``; pieces at most 1e-13 wide
    in u are dropped."""
    pieces = []
    for lo, hi in band.intervals():
        cut = boxes.copy()
        cut[:, :2] = np.clip(boxes[:, :2], lo, hi)
        pieces.append(cut[cut[:, 1] - cut[:, 0] > 1e-13])
    return np.concatenate(pieces)


def _breakpoints(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` loads three more modules on its
    first call, which shows in the peak memory)."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _covered(boxes: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean grid: cell (i, j), the product [xs[i], xs[i+1]] x
    [ys[j], ys[j+1]], lies in some box.  Each box marks its corners +-1 in a
    difference array whose two cumulative sums count the boxes over a cell."""
    i = np.searchsorted(xs, boxes[:, :2]).T
    j = np.searchsorted(ys, boxes[:, 2:]).T
    # every partial sum lies in [-len(boxes), len(boxes)]
    dtype = np.min_scalar_type(-len(boxes) - 1)
    count = np.zeros((len(xs), len(ys)), dtype)
    np.add.at(count, (i.ravel(), j.ravel()), 1)
    np.subtract.at(count, (i.ravel(), j[::-1].ravel()), 1)
    np.cumsum(count, axis=0, dtype=dtype, out=count)
    np.cumsum(count, axis=1, dtype=dtype, out=count)
    return count[:-1, :-1] > 0


def box_measure(a: np.ndarray, b: np.ndarray, op) -> float:
    """Angular area of the grid cells where ``op(in a, in b)`` holds, for the
    box arrays ``a`` and ``b`` on the grid of both sets' breakpoints:
    ``np.logical_or`` gives the union, ``np.logical_and`` the intersection,
    ``np.logical_xor`` the symmetric difference."""
    boxes = np.concatenate([a, b])
    if not len(boxes):
        return 0.0
    xs = _breakpoints(boxes[:, :2])
    ys = _breakpoints(boxes[:, 2:])
    cells = _covered(a, xs, ys)
    op(cells, _covered(b, xs, ys), out=cells)
    dy = np.diff(ys)
    rows = np.empty(len(xs) - 1)
    for s in range(0, len(rows), _ROWS):
        rows[s:s + _ROWS] = (cells[s:s + _ROWS] * dy).sum(axis=1)
    return float((np.diff(xs) * rows).sum())


def _overlap_lengths(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(x), len(y)) overlap lengths of padded interval pairs, summed
    with x's intervals outer and y's inner."""
    total = np.zeros((len(x), len(y)))
    for a in range(2):
        for b in range(2):
            ov = np.minimum(x[:, None, a, 1], y[None, :, b, 1])
            ov -= np.maximum(x[:, None, a, 0], y[None, :, b, 0])
            total += np.maximum(ov, 0.0, out=ov)
    return total


def max_pairwise_overlap(rects: Sequence[Rect]) -> float:
    """Largest overlap area of two rectangles of the list.

    A pair's u- and w-overlap sum the overlaps of the arcs' seam-split
    intervals in the order of the pairwise loop (earlier rectangle's
    intervals outer; padding adds exact zeros), so the value is that loop's
    to the bit.  The sums are not symmetric in the bits, hence pairs i < j.
    """
    u = _intervals([r.u_arc for r in rects])
    w = _intervals([r.w_arc for r in rects])
    worst = 0.0
    for s in range(0, len(rects), _ROWS):
        # row i = s + r against column j = s + 1 + c: i < j is c >= r
        area = (_overlap_lengths(u[s:s + _ROWS], u[s + 1:])
                * _overlap_lengths(w[s:s + _ROWS], w[s + 1:]))
        worst = max(worst, float(np.triu(area).max(initial=0.0)))
    return worst
