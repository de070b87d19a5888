"""Oriented circular arcs, products of arcs, and angular measure.

All arcs are stored counter-clockwise: an arc is a start angle plus a sweep
in (0, 2pi].  A rectangle list becomes one ``RectArray``; ``seam_split``
turns its arcs into plain intervals in [0, 2pi], and ``rect_boxes`` their
products into plain boxes in [0, 2pi]^2.  Measures of unions, intersections and
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


@dataclass(frozen=True, eq=False)
class RectArray:
    """A rectangle list as arrays, one row per rectangle: ``theta`` holds
    the angles of the u-arc's start and end and of the w-arc's start and
    end, ``sweep`` the u- and w-sweeps, ``block`` and ``gamma`` the tags of
    ``Rect``."""

    theta: np.ndarray     # (n, 4)
    sweep: np.ndarray     # (n, 2)
    block: np.ndarray     # (n,)
    gamma: np.ndarray     # (n,)

    @classmethod
    def of(cls, rects: Sequence[Rect]) -> "RectArray":
        arcs = [(r.u_arc, r.w_arc) for r in rects]
        theta = np.array([(u.start.theta, u.end.theta, w.start.theta,
                           w.end.theta) for u, w in arcs]).reshape(-1, 4)
        sweep = np.array([(u.sweep, w.sweep) for u, w in arcs]).reshape(-1, 2)
        tags = np.array([(r.block, r.gamma_index) for r in rects],
                        dtype=np.int64).reshape(-1, 2)
        return cls(theta, sweep, tags[:, 0], tags[:, 1])

    def __len__(self) -> int:
        return len(self.sweep)

    def take(self, rows) -> "RectArray":
        return RectArray(self.theta[rows], self.sweep[rows], self.block[rows],
                         self.gamma[rows])

    @property
    def area(self) -> np.ndarray:
        return self.sweep[:, 0] * self.sweep[:, 1]

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``seam_split`` of the u-arcs and of the w-arcs."""
        return (seam_split(self.theta[:, 0], self.sweep[:, 0]),
                seam_split(self.theta[:, 2], self.sweep[:, 1]))


# -- rectangle measure on a coverage grid --------------------------------------

# rows of the grid, or of rectangles in the pair loop, per slice: bounds each
# float64 temporary at _ROWS times the other dimension
_ROWS = 32


def seam_split(start: np.ndarray, sweep: np.ndarray) -> np.ndarray:
    """(n, 2, 2) plain intervals within [0, 2pi] of the arcs (start, sweep):
    the arc from lo = start mod 2pi up to lo + sweep, cut at 2pi when it runs
    more than 1e-15 past it, the rest then from 0; an arc of one interval is
    padded with the empty interval (0, 0)."""
    lo = np.mod(start, TAU)
    hi = lo + sweep
    one = hi <= TAU + 1e-15
    out = np.zeros((len(lo), 2, 2))
    out[:, 0, 0] = lo
    out[:, 0, 1] = np.where(one, np.minimum(hi, TAU), TAU)
    out[:, 1, 1] = np.where(one, 0.0, hi - TAU)
    return out


def clip_intervals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, p q, 2) intersections of row i's p intervals in x with its q
    intervals in y; an empty one has hi <= lo."""
    lo = np.maximum(x[:, :, None, 0], y[:, None, :, 0])
    hi = np.minimum(x[:, :, None, 1], y[:, None, :, 1])
    return np.stack([lo, hi], axis=-1).reshape(len(x), -1, 2)


def _products(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, p q, 4) boxes ``(u_lo, u_hi, w_lo, w_hi)``: row i's products of
    its p u-intervals u[i] and q w-intervals w[i], the empty ones too."""
    p, q = u.shape[1], w.shape[1]
    return np.concatenate([np.repeat(u, q, axis=1), np.tile(w, (1, p, 1))],
                          axis=2)


def _nonempty(boxes: np.ndarray) -> np.ndarray:
    return (boxes[..., 1] > boxes[..., 0]) & (boxes[..., 3] > boxes[..., 2])


def rect_boxes(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m, 4) array of plain boxes ``(u_lo, u_hi, w_lo, w_hi)`` in
    [0, 2pi]^2 with the rectangles' union, from their u- and w-intervals
    ((n, p, 2) and (n, q, 2) arrays): rectangle i is the product of u[i] and
    w[i], so at most p q boxes; empty boxes are dropped."""
    boxes = _products(u, w)
    return boxes[_nonempty(boxes)]


def _breakpoints(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` loads three more modules on its
    first call, which shows in the peak memory)."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _covered(boxes: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean grid: cell (i, j), the product [xs[i], xs[i+1]] x
    [ys[j], ys[j+1]], lies in some box; every box edge must be a
    breakpoint."""
    return _count(np.searchsorted(xs, boxes[:, :2]).T,
                  np.searchsorted(ys, boxes[:, 2:]).T, len(xs), len(ys))


def _count(i: np.ndarray, j: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Boolean (nx - 1, ny - 1) grid of the cells inside some box, for boxes
    from breakpoint i[0] to i[1] in x and j[0] to j[1] in y.  Each box
    marks its corners +-1 in a difference array whose two cumulative sums
    count the boxes over a cell."""
    # every partial sum lies in [-boxes, boxes]
    dtype = np.min_scalar_type(-i.shape[1] - 1)
    count = np.zeros((nx, ny), dtype)
    np.add.at(count, (i.ravel(), j.ravel()), 1)
    np.subtract.at(count, (i.ravel(), j[::-1].ravel()), 1)
    np.cumsum(count, axis=0, dtype=dtype, out=count)
    np.cumsum(count, axis=1, dtype=dtype, out=count)
    return count[:-1, :-1] > 0


def _column_areas(cells: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """Area of the marked cells of each column [xs[i], xs[i+1]] of the
    grid, summed in slices of _ROWS columns."""
    dy = np.diff(ys)
    rows = np.empty(len(xs) - 1)
    for s in range(0, len(rows), _ROWS):
        rows[s:s + _ROWS] = (cells[s:s + _ROWS] * dy).sum(axis=1)
    return np.diff(xs) * rows


def box_measure(a: np.ndarray, b: np.ndarray, op) -> float:
    """Angular area of the grid cells where ``op(in a, in b)`` holds, for the
    box arrays ``a`` and ``b`` on the grid of both sets' breakpoints:
    ``np.logical_or`` gives the union, ``np.logical_and`` the intersection,
    ``np.logical_xor`` the symmetric difference, ``np.greater`` the part of
    a outside b."""
    boxes = np.concatenate([a, b])
    if not len(boxes):
        return 0.0
    xs = _breakpoints(boxes[:, :2])
    ys = _breakpoints(boxes[:, 2:])
    cells = _covered(a, xs, ys)
    op(cells, _covered(b, xs, ys), out=cells)
    return float(_column_areas(cells, xs, ys).sum())


def union_by_group(u: np.ndarray, w: np.ndarray, group: np.ndarray,
                   n: int) -> np.ndarray:
    """Union measure of the rectangles of each group 0 .. n - 1, for
    rectangles given as for ``rect_boxes`` and their groups, on one grid.

    Each group has its own u-breakpoints, the groups' runs laid side by side
    in group order, and the groups share the w-breakpoints.  A box starts
    and ends inside its group's run, so no count reaches from one run into
    the next: the cell between two runs is empty, whatever its width.
    """
    boxes = _products(u, w)
    keep = _nonempty(boxes)
    if not keep.any():
        return np.zeros(n)
    boxes = boxes[keep]
    group = np.broadcast_to(group[:, None], keep.shape)[keep]
    x, g = boxes[:, :2].ravel(), np.repeat(group, 2)
    order = np.lexsort((x, g))
    x, g = x[order], g[order]
    first = np.concatenate(([True], (x[1:] != x[:-1]) | (g[1:] != g[:-1])))
    i = np.empty(len(order), dtype=np.intp)
    i[order] = np.cumsum(first) - 1
    xs, ys = x[first], _breakpoints(boxes[:, 2:])
    cells = _count(i.reshape(-1, 2).T, np.searchsorted(ys, boxes[:, 2:]).T,
                   len(xs), len(ys))
    return np.bincount(g[first][:-1], weights=_column_areas(cells, xs, ys),
                       minlength=n)


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


def max_pairwise_overlap(u: np.ndarray, w: np.ndarray) -> float:
    """Largest overlap area of two rectangles with the seam-split u- and
    w-intervals u and w.

    A pair's u- and w-overlap sum the overlaps of the arcs' intervals in the
    order of the pairwise loop (earlier rectangle's intervals outer; padding
    adds exact zeros), so the value is that loop's to the bit.  The sums are
    not symmetric in the bits, hence pairs i < j.
    """
    worst = 0.0
    for s in range(0, len(u), _ROWS):
        # row i = s + r against column j = s + 1 + c: i < j is c >= r
        area = (_overlap_lengths(u[s:s + _ROWS], u[s + 1:])
                * _overlap_lengths(w[s:s + _ROWS], w[s + 1:]))
        worst = max(worst, float(np.triu(area).max(initial=0.0)))
    return worst
