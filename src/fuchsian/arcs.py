"""Oriented circular arcs, products of arcs, and angular measure.

All arcs are stored counter-clockwise: an arc is a start angle plus a sweep
in (0, 2pi].  Measures of rectangle unions are computed by a sweep over the
u-breakpoints, exact up to endpoint rounding; no rasterization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mobius import TAU, BoundaryPoint, normalize_angle


def ccw_sweep(start: float, end: float, full_if_equal: bool = False) -> float:
    """Counter-clockwise sweep from start to end, resolving 0 vs 2pi."""
    s = (end - start) % TAU
    if s < 1e-12:
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
        if not 1e-12 < self.sweep <= TAU:
            raise ValueError(f"sweep {self.sweep} outside (0, 2pi]")

    @classmethod
    def ccw(cls, start: BoundaryPoint, end: BoundaryPoint,
            full_if_equal: bool = False) -> "DirectedArc":
        return cls(start, end, ccw_sweep(start.theta, end.theta, full_if_equal))

    @classmethod
    def cw(cls, start: BoundaryPoint, end: BoundaryPoint,
           full_if_equal: bool = False) -> "DirectedArc":
        """Clockwise arc, stored as the equivalent CCW arc (endpoints swap)."""
        return cls.ccw(end, start, full_if_equal)

    @classmethod
    def from_angles(cls, start: float, sweep: float) -> "DirectedArc":
        s = normalize_angle(start)
        return cls(BoundaryPoint.from_angle(s),
                   BoundaryPoint.from_angle(s + sweep), sweep)

    @property
    def is_full_circle(self) -> bool:
        return self.sweep >= TAU - 1e-12

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        d = (theta - self.start.theta) % TAU
        return d <= self.sweep + tol or d >= TAU - tol

    def midpoint_angle(self) -> float:
        return normalize_angle(self.start.theta + 0.5 * self.sweep)

    def intervals(self) -> list[tuple[float, float]]:
        """The arc as 1 or 2 plain intervals within [0, 2pi]."""
        lo = self.start.theta % TAU
        hi = lo + self.sweep
        if hi <= TAU + 1e-15:
            return [(lo, min(hi, TAU))]
        return [(lo, TAU), (0.0, hi - TAU)]

    def interior_angles(self, angles: list[float], tol: float = 1e-12) -> list[float]:
        """Subset of ``angles`` strictly inside the arc, ordered along it."""
        out = []
        for t in angles:
            d = (t - self.start.theta) % TAU
            if tol < d < self.sweep - tol:
                out.append((d, t))
        return [t for _, t in sorted(out)]


def _interval_intersection_length(xs: list[tuple[float, float]],
                                  ys: list[tuple[float, float]]) -> float:
    total = 0.0
    for (a, b) in xs:
        for (c, d) in ys:
            total += max(0.0, min(b, d) - max(a, c))
    return total


def arc_overlap_length(a1: DirectedArc, a2: DirectedArc) -> float:
    return _interval_intersection_length(a1.intervals(), a2.intervals())


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

    def contains(self, theta_u: float, theta_w: float, tol: float = 0.0) -> bool:
        return self.u_arc.contains(theta_u, tol) and self.w_arc.contains(theta_w, tol)

    def overlap_area(self, other: "Rect") -> float:
        return (arc_overlap_length(self.u_arc, other.u_arc)
                * arc_overlap_length(self.w_arc, other.w_arc))


def max_pairwise_overlap(rects: list[Rect]) -> float:
    worst = 0.0
    for i, r in enumerate(rects):
        for s in rects[i + 1:]:
            worst = max(worst, r.overlap_area(s))
    return worst


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _sweep_slabs(rect_sets: list[list[Rect]]):
    """Yield (width, covers) per u-slab, where covers[i] is the merged
    w-interval list of set i over that slab."""
    cuts = {0.0, TAU}
    for rects in rect_sets:
        for r in rects:
            for lo, hi in r.u_arc.intervals():
                cuts.add(lo)
                cuts.add(hi)
    xs = sorted(cuts)
    split = [[(r, r.u_arc.intervals()) for r in rects] for rects in rect_sets]
    for lo, hi in zip(xs, xs[1:]):
        if hi - lo < 1e-15:
            continue
        mid = 0.5 * (lo + hi)
        covers = []
        for pairs in split:
            w_ints: list[tuple[float, float]] = []
            for r, u_ints in pairs:
                if any(a <= mid <= b for a, b in u_ints):
                    w_ints.extend(r.w_arc.intervals())
            covers.append(_merge(w_ints))
        yield hi - lo, covers


def region_measure(rects: list[Rect]) -> float:
    """Angular area of the union (overlaps counted once)."""
    return sum(width * sum(hi - lo for lo, hi in cov)
               for width, (cov,) in _sweep_slabs([rects]))


def symmetric_difference_measure(rects_a: list[Rect], rects_b: list[Rect]) -> float:
    total = 0.0
    for width, (ca, cb) in _sweep_slabs([rects_a, rects_b]):
        la = sum(hi - lo for lo, hi in ca)
        lb = sum(hi - lo for lo, hi in cb)
        lab = _interval_intersection_length(ca, cb)
        total += width * (la + lb - 2.0 * lab)
    return total


def region_intersection_measure(rects_a: list[Rect], rects_b: list[Rect]) -> float:
    total = 0.0
    for width, (ca, cb) in _sweep_slabs([rects_a, rects_b]):
        total += width * _interval_intersection_length(ca, cb)
    return total


def clip_to_u_band(rects: list[Rect], band: DirectedArc) -> list[Rect]:
    """Intersect every rectangle with ``band x S``; may split at the seam."""
    out = []
    for r in rects:
        for lo, hi in r.u_arc.intervals():
            for blo, bhi in band.intervals():
                a, b = max(lo, blo), min(hi, bhi)
                if b - a > 1e-13:
                    out.append(Rect(DirectedArc.from_angles(a, b - a),
                                    r.w_arc, r.block, r.gamma_index))
    return out
