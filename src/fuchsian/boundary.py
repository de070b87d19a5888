"""Circle partitions, the piecewise boundary map, cycles, and the finite
Markov property check with its cut-point walks.

The circle is cut at one point per vertex: the vertex itself when ideal, a
chosen point of the adjacent open arc when the vertex is interior.  Cell
``i`` is the half-open counter-clockwise arc [A_i, A_{i+1}) and the map acts
there by the gluing of side ``i``; a point sitting exactly on a cut uses the
cell that starts there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT, SAME_POINT, STRUCTURAL, WRAP, Check, Report
from .errors import CustomPointOutOfRange, NonFinite, NotElliptic
from .mobius import (TAU, BoundaryPoint, MoebiusPSU, angular_distance,
                     normalize_angle)
from .polygon import MarkedPolygon, rotation_powers

MODES = ("left", "right", "midpoint")


@dataclass(frozen=True)
class Partition:
    """Cut points A_0..A_{N-1}, one per vertex, ordered counter-clockwise.

    ``thetas`` holds the raw angles; ``lifted`` is their monotone lift with
    a closing entry at lifted[0] + 2pi, used for cell lookup (a cut that
    coincides with the base vertex lifts to 2pi instead of wrapping).
    ``cuts`` are the sorted distinct angles, the one table that the Markov
    walks stop at and ``extension.image_rects`` splits at.
    ``in_guarantee_range`` reports whether every elliptic cut lies in its
    closed [P, Q] arc, the hypothesis under which global attraction holds.
    """

    poly: MarkedPolygon
    points: tuple[BoundaryPoint, ...]
    mode: str
    thetas: tuple[float, ...] = field(init=False)
    lifted: tuple[float, ...] = field(init=False)
    cuts: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        thetas = tuple(p.theta for p in self.points)
        # monotone lift starting at A_0 = V_0 (angle 0): each cut sits
        # counter-clockwise at or after the previous one; a final cut that
        # coincides with V_0 lifts to 2 pi rather than wrapping to 0
        lifted = [thetas[0]]
        for t in thetas[1:]:
            cur = t
            while cur < lifted[-1] - SAME_POINT:
                cur += TAU
            lifted.append(max(cur, lifted[-1]))
        lifted.append(lifted[0] + TAU)
        if lifted[-2] > lifted[-1]:
            raise ValueError("partition points wind more than once")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "lifted", tuple(lifted))
        object.__setattr__(self, "cuts", tuple(sorted(set(thetas))))

    @property
    def n(self) -> int:
        return len(self.points)

    def cell_of(self, theta: float) -> int:
        """Index i with theta in [A_i, A_{i+1}), counter-clockwise.

        Coincident cut points produce empty cells, which the right-bisect
        convention skips automatically.
        """
        t = (theta - self.lifted[0]) % TAU + self.lifted[0]
        i = bisect.bisect_right(self.lifted, t, 0, len(self.points)) - 1
        return i if i > 0 else 0

    def cells_of(self, theta: np.ndarray) -> np.ndarray:
        """``cell_of`` of each entry, to the bit: one ``searchsorted`` on
        the same lift."""
        lifted = np.array(self.lifted)
        t = (theta - lifted[0]) % TAU + lifted[0]
        i = np.searchsorted(lifted[:self.n], t, side="right") - 1
        return np.maximum(i, 0)

    def cell_arc(self, i: int) -> tuple[float, float]:
        """(start, sweep) of cell i; zero sweep for collapsed cells."""
        return self.thetas[i], self.lifted[i + 1] - self.lifted[i]

    def in_guarantee_range(self) -> bool:
        for k in self.poly.elliptic_indices():
            aux = self.poly.aux[k]
            sweep = (aux.Q.theta - aux.P.theta) % TAU
            d = (self.points[k].theta - aux.P.theta) % TAU
            if not (d <= sweep + STRUCTURAL or d >= TAU - STRUCTURAL):
                return False
        return True


def make_partition(poly: MarkedPolygon, mode: str,
                   custom: dict[int, float] | list[float] | None = None) -> Partition:
    """Build the cut set for one of the named modes or custom angles.

    ``custom`` supplies one angle per elliptic vertex, either as a list in
    vertex order or a dict keyed by elliptic vertex index, with no other
    keys; each must lie strictly between the neighbouring ideal vertices.
    """
    points: list[BoundaryPoint] = []
    elliptic = poly.elliptic_indices()
    if mode == "custom":
        if custom is None:
            raise CustomPointOutOfRange(-1, "custom mode requires angles")
        if not isinstance(custom, dict):
            if len(custom) != len(elliptic):
                raise CustomPointOutOfRange(
                    -1, f"need {len(elliptic)} angles, got {len(custom)}")
            custom = dict(zip(elliptic, custom))
        missing = [k for k in elliptic if k not in custom]
        if missing:
            raise CustomPointOutOfRange(
                missing[0], f"no angle given for elliptic vertex {missing[0]}")
        stray = [k for k in custom if k not in elliptic]
        if stray:
            raise CustomPointOutOfRange(
                stray[0], f"{stray[0]!r} is not an elliptic vertex index")
    elif mode not in MODES:
        raise ValueError(f"unknown partition mode {mode!r}")

    n = poly.n_sides
    for i, v in enumerate(poly.vertices):
        if v.is_ideal:
            points.append(v.point)
            continue
        aux = poly.aux[i]
        if mode == "left":
            points.append(aux.P)
        elif mode == "right":
            points.append(aux.Q)
        elif mode == "midpoint":
            points.append(aux.M)
        else:
            theta = custom[i] % TAU
            lo = poly.vertices[(i - 1) % n].point.theta
            hi_sweep = (poly.vertices[(i + 1) % n].point.theta - lo) % TAU or TAU
            d = (theta - lo) % TAU
            if not WRAP < d < hi_sweep - WRAP:
                raise CustomPointOutOfRange(
                    i, f"angle {theta} outside open arc at vertex {i}")
            points.append(BoundaryPoint.from_angle(theta))
    return Partition(poly, tuple(points), mode)


def _nearest(theta: float, anchors: list[float]) -> float:
    """Distance from ``theta`` to the circularly nearest anchor.  ``anchors``
    is sorted in [0, 2pi) and not empty; bisection puts theta on the arc
    from anchor i - 1 to anchor i, and the nearer end is the nearest."""
    i = bisect.bisect_left(anchors, theta)
    d = abs(theta - anchors[i - 1]) % TAU
    e = abs(theta - anchors[i % len(anchors)]) % TAU
    return min(d, TAU - d, e, TAU - e)


def _nearest_many(theta: np.ndarray,
                  anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of the anchor nearest to each entry of ``theta``,
    the lower end of its arc winning a tie; the distance is ``_nearest``'s
    to the bit: ``searchsorted`` is the same left bisection, and the same
    float operations follow."""
    n = len(anchors)
    i = np.searchsorted(anchors, theta)
    d = np.abs(theta - anchors[i - 1]) % TAU
    e = np.abs(theta - anchors[i % n]) % TAU
    d, e = np.minimum(d, TAU - d), np.minimum(e, TAU - e)
    upper = e < d
    return np.where(upper, i % n, (i - 1) % n), np.where(upper, e, d)


def _step(gen: MoebiusPSU, t: float) -> float:
    """One step of the boundary map on a bare angle: the cell's gluing by
    ``MoebiusPSU.apply_angle``, normalized, with no ``BoundaryPoint`` made.
    Every walk and matching residual steps by it."""
    return normalize_angle(gen.apply_angle(t))


def _walk(poly: MarkedPolygon, part: Partition, t: float,
          max_steps: int) -> tuple[list[float], bool]:
    """The angles of a walk from the first image t, up to the first cut it
    lands on or the first revisit, and whether ``max_steps`` ran out
    first.  Each further step is ``_step``."""
    gens, cuts = poly.generators, part.cuts
    angles, seen = [], []
    for _ in range(max_steps):
        if (_nearest(t, cuts) < STRUCTURAL
                or seen and _nearest(t, seen) < SAME_POINT):
            return angles, False
        if not math.isfinite(t):
            raise NonFinite(f"non-finite orbit angle {t!r}")
        angles.append(t)
        bisect.insort(seen, t)
        t = _step(gens[part.cell_of(t)], t)
    return angles, True


@dataclass(frozen=True)
class CycleData:
    """Descent data of an elliptic cut point.

    ``J`` counts rotation steps staying inside the open vertex arc, the
    end of the cycle is the (J+1)-st clockwise rotation image, and ``I`` is
    the matching step count of the counter-rotation orbit: m - 2 - J
    generically, m - 3 - J when the descent lands exactly on the preceding
    vertex (``degenerate``), in which case both orbits run into the finite
    ideal-vertex orbit instead of meeting at the cycle end.
    """

    vertex: int
    order: int
    J: int
    I: int
    end_of_cycle: BoundaryPoint
    degenerate: bool
    lower_points: tuple[BoundaryPoint, ...]   # c(A), ..., c^{J+1}(A)
    upper_points: tuple[BoundaryPoint, ...]   # c^{-1}(A), ..., c^{-(I+1)}(A)
    matching_residual: float                  # the boundary map's own orbits


def cycle(poly: MarkedPolygon, part: Partition, k: int) -> CycleData:
    """Cycle data for the cut point at elliptic vertex ``k``."""
    v = poly.vertices[k % poly.n_sides]
    if v.is_ideal:
        raise NotElliptic(f"vertex {k} is ideal")
    m, n = v.order, poly.n_sides
    a = part.points[k % n]
    lo = poly.vertices[(k - 1) % n].point.theta
    sweep = (poly.vertices[(k + 1) % n].point.theta - lo) % TAU or TAU

    # J counts the c^j(a), j >= 1, inside the vertex arc and off both its
    # corners; the arc spans m - 1 of the m turns about V_k, and c^m(a) = a
    lower = rotation_powers(poly, k % n, a, range(1, m + 1))
    J = next(j for j, p in enumerate(lower)
             if not STRUCTURAL <= (p.theta - lo) % TAU <= sweep - STRUCTURAL)
    end = lower[J]
    degenerate = angular_distance(end.theta, lo) < STRUCTURAL
    I = m - 2 - J if not degenerate else max(m - 3 - J, 0)
    # powers are taken mod m, so c^{-i}(a) = c^{m-i}(a) is lower[m - 1 - i]
    upper = [lower[m - 1 - i] for i in range(1, I + 2)]
    return CycleData(k % n, m, J, I, end, degenerate,
                     tuple(lower[:J + 1]), tuple(upper),
                     _matching_residual(poly, part, k % n, J, I, degenerate))


def _matching_residual(poly: MarkedPolygon, part: Partition, k: int, J: int,
                       I: int, degenerate: bool) -> float:
    """Residual of the matching identity at the cut point of vertex ``k``,
    checked by honestly iterating the boundary map on both one-sided orbits:
    J + 1 lower and I + 1 upper steps meet, or, on a degenerate cycle with
    an upper orbit, land on the preceding and the following vertex.  Each
    step is ``_step``."""
    gens, n = poly.generators, poly.n_sides
    a = part.points[k].theta
    up, low = _step(gens[k], a), _step(gens[(k - 1) % n], a)
    for _ in range(I):
        up = _step(gens[part.cell_of(up)], up)
    for _ in range(J):
        low = _step(gens[part.cell_of(low)], low)
    if degenerate and poly.vertices[k].order - 3 - J >= 0:
        hi = poly.vertices[(k + 1) % n].point.theta
        lo = poly.vertices[(k - 1) % n].point.theta
        return max(angular_distance(up, hi), angular_distance(low, lo))
    return angular_distance(up, low)


def verify_matching(poly: MarkedPolygon, part: Partition, k: int,
                    data: CycleData) -> float:
    """The matching residual of ``data``, iterated afresh from the cut point:
    the value ``cycle`` stores as ``data.matching_residual``."""
    return _matching_residual(poly, part, data.vertex, data.J, data.I,
                              data.degenerate)


# -- Markov property ----------------------------------------------------------


@dataclass(frozen=True)
class MarkovReport(Report):
    """Checks ``orbits_finite`` (residual: orbits over the step budget) and
    ``endpoints`` (farthest endpoint image from the refinement)."""

    refinement: list[float]                  # sorted break angles
    transitions: list[list[int]]             # interval -> covered intervals
    orbit_sizes: dict[str, int]              # "k:side" -> points before a cut

    endpoint_residual = property(lambda self: self.checks["endpoints"].residual)
    all_orbits_finite = property(lambda self: self.checks["orbits_finite"].passed)
    budget_exceeded = property(lambda self: not self.all_orbits_finite)


def markov_check(poly: MarkedPolygon, part: Partition,
                 max_steps: int = 10_000) -> MarkovReport:
    """Check that the cut-point orbits are finite and that the refinement
    they generate maps interval-onto-intervals under the boundary map.
    Orbits stop at the first cut they land on (its own orbit goes on); the
    first to hit ``max_steps`` fails the report with an empty refinement.
    Each transition is one circular run of refinement intervals.  Raises
    ``ValueError`` for negative ``max_steps``.

    The first steps of all walks are taken in one pass, and a walk whose
    first image lands on a cut records no point without entering ``_walk``;
    the others walk on from that image, in the same (cut, side) order."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    gens, n = poly.generators, part.n
    # each cut's first cell on either side, interleaved upper, lower: the
    # nonempty cell that starts at the cut, and the one that ends there, by
    # left bisection of the cut lifted above A_0
    thetas, lifted = np.array(part.thetas), np.array(part.lifted)
    lower = lifted.searchsorted(np.where(thetas > lifted[0], thetas,
                                         thetas + TAU)) - 1
    firsts = np.column_stack([part.cells_of(thetas), lower]).ravel().tolist()
    images = [_step(gens[c], t)
              for c, t in zip(firsts, np.repeat(thetas, 2).tolist())]
    _, gap = _nearest_many(np.array(images), np.array(part.cuts))
    landed = gap < STRUCTURAL

    orbit_sizes: dict[str, int] = {}
    pts: list[float] = list(part.thetas)
    walks = [(k, side) for k in range(n) for side in ("upper", "lower")]
    for (k, side), t, hit in zip(walks, images, landed.tolist()):
        if hit and max_steps > 0:
            orbit_sizes[f"{k}:{side}"] = 0
            continue
        angles, budget = _walk(poly, part, t, max_steps)
        orbit_sizes[f"{k}:{side}"] = len(angles)
        if budget:
            return MarkovReport([], [], orbit_sizes, checks={
                "orbits_finite": Check(1, 1, f"orbit {k}:{side}"),
                "endpoints": Check(math.inf, DEFAULT.residual,
                                   "not measured")})
        pts.extend(angles)

    # dedupe circularly
    refined: list[float] = []
    for t in sorted(t % TAU for t in pts):
        if not refined or t - refined[-1] > SAME_POINT:
            refined.append(t)
    if refined and (TAU - refined[-1]) + refined[0] <= SAME_POINT:
        refined.pop()

    # interval-onto-intervals: endpoints must map to refinement points, each
    # interval by the gluing of its midpoint's cell; an interval in the cell
    # of the one before it shares that one's upper end image
    lo = np.array(refined)
    hi = np.roll(lo, -1)
    cell = part.cells_of((lo + 0.5 * ((hi - lo) % TAU)) % TAU)
    fresh = np.flatnonzero(np.diff(cell, prepend=-1)).tolist()
    cells = cell.tolist()
    images = ([gens[c].apply_angle(t) for c, t in zip(cells, hi.tolist())]
              + [gens[cells[i]].apply_angle(refined[i]) for i in fresh])
    near, dist = _nearest_many(np.array(images), lo)
    r = len(refined)
    ihi, ilo = near[:r], np.roll(near[:r], 1)
    ilo[fresh] = near[r:]
    # the farthest end image from the refinement; fmax skips a NaN
    worst = float(np.fmax.reduce(dist, initial=0.0))
    transitions = [list(range(a, b)) if a < b else
                   list(range(a, r)) + list(range(b)) if a > b else [a]
                   for a, b in zip(ilo.tolist(), ihi.tolist())]

    return MarkovReport(refined, transitions, orbit_sizes, checks={
        "orbits_finite": Check(0, 1),
        "endpoints": Check(worst, DEFAULT.residual)})
