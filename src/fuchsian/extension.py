"""Two-dimensional natural extension and its rectangular attractor.

States are pairs (u, w) of distinct boundary points; one step applies the
gluing of the cell containing w to both coordinates.  The attractor is a
finite union of closed arc-rectangles, one horizontal strip per building
block, each strip the diagonal-rotation image of a standard-position strip.
Membership on rectangle edges counts as inside; all tiling statements hold
up to angular measure zero.  The strip of an order >= 3 block is a fan cut
by the rotation orbits of the block's cut point; one helper computes those
orbits for both the attractor strip and the exceptional rectangles.
Simulations hash their start states and run one kernel built per call.

The record ``DEFAULT`` sets only the bounds of the checks: the rectangles,
the tiling test and the membership slack use the fixed constants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT, SAME_POINT, STRUCTURAL, WRAP, Check, Report
from .arcs import (DirectedArc, Rect, RectArray, _breakpoints, _column_areas,
                   _covered, _overlap_lengths, box_measure, ccw_sweep,
                   clip_intervals, max_pairwise_overlap, rect_boxes,
                   union_by_group)
from .boundary import CycleData, Partition, cycle
from .errors import NotElliptic, TilingViolation
from .mobius import TAU, BoundaryPoint, angular_distance
from .polygon import INFINITY, SQUARE, Block, MarkedPolygon, rotation_powers


@dataclass(frozen=True)
class StripInfo:
    count: int
    degenerate: bool
    cycle: CycleData | None = None


@dataclass(frozen=True)
class AttractorDomain:
    """Finite rectangle union on which the extension is bijective."""

    poly: MarkedPolygon
    part: Partition
    rects: tuple[Rect, ...]
    strips: tuple[tuple[Rect, ...], ...]   # per block
    info: tuple[StripInfo, ...]
    guarantee: bool                        # all elliptic cuts inside [P, Q]
    # ``rects`` as arrays, row for row
    arrays: RectArray = field(compare=False, repr=False)


# rectangles per uniform strip; order 2 is a single rectangle because its
# gluing is an involution, so the whole block arc maps by one transformation
# even though it spans two cells
_UNIFORM_COUNT = {SQUARE: 4, INFINITY: 2, 2: 1}


def _uniform_strip(blk: Block, count: int) -> list[Rect]:
    """``count`` equal w-arcs of width h = ``Block.sweep`` / count from the
    block's start corner, each under the u-arc of sweep 2pi - h from the
    w-arc's end; rectangle k is carried by side k of the block."""
    h = blk.sweep / count
    base = blk.base_angle
    return [Rect(DirectedArc.from_angles(base + (k + 1) * h, TAU - h),
                 DirectedArc.from_angles(base + k * h, h), blk.index,
                 blk.side_start + k)
            for k in range(count)]


def _fan(poly: MarkedPolygon, part: Partition, blk: Block):
    """Cycle data and rotation orbits of the cut point a of an order >= 3
    block with corners ``start`` and ``end``; c^j is ``rotation_powers``.

    ``low_w`` = c^j(a) for j = 0..J, then ``start``; ``up_w`` = c^{-i}(a) for
    i = 0..I, then ``end``: consecutive points bound the w-arcs of the lower
    and upper fan.  ``low_u`` = c^j(end), j = 0..J, and ``up_u`` =
    c^{-i}(start), i = 0..I, the matching corner orbits, bound their u-arcs.
    """
    k = blk.side_start + 1
    data = cycle(poly, part, k)
    a = part.points[k]
    start = poly.vertices[blk.side_start].point
    end = BoundaryPoint.from_angle(blk.base_angle + blk.sweep)
    low_u = rotation_powers(poly, k, end, range(data.J + 1))
    up_u = rotation_powers(poly, k, start, range(0, -data.I - 1, -1))
    low_w = [a, *data.lower_points[:data.J], start]
    up_w = [a, *data.upper_points[:data.I], end]
    return data, start, end, low_w, up_w, low_u, up_u


def _elliptic_strip(poly: MarkedPolygon, part: Partition,
                    blk: Block) -> tuple[list[Rect], CycleData]:
    """Lower/upper rectangle fan of an order >= 3 block.

    The w-arcs cut the block at the rotation orbit of the block's cut point;
    the u-arcs are bounded by the matching orbit of the block corners.  With
    a degenerate cycle (cut point on a corner orbit) the fan has one fewer
    rectangle and still tiles the block arc exactly.
    """
    data, start, end, low_w, up_w, low_u, up_u = _fan(poly, part, blk)
    rects = [Rect(DirectedArc.ccw(u, start, full_if_equal=True),
                  DirectedArc.ccw(w0, w1), blk.index, blk.side_start)
             for u, w0, w1 in zip(low_u, low_w[1:], low_w)]
    rects += [Rect(DirectedArc.ccw(end, u, full_if_equal=True),
                   DirectedArc.ccw(w0, w1), blk.index, blk.side_start + 1)
              for u, w0, w1 in zip(up_u, up_w, up_w[1:])]
    return rects, data


def build_attractor(poly: MarkedPolygon, part: Partition) -> AttractorDomain:
    """Assemble the rectangle union, one horizontal strip per block.

    A quadruple, cusp or order-2 block has a uniform strip: ``count`` = 4, 2
    or 1 equal w-arcs of width h = ``Block.sweep`` / count tiling the block's
    sector, each under the u-arc of sweep 2pi - h that starts where its w-arc
    ends.  An order m >= 3 block has the fan of ``_elliptic_strip``, I + J + 2
    rectangles (m generically, m - 1 when the block's cycle is degenerate).
    Raises ``TilingViolation`` when the strips' w-arcs do not tile the
    circle.
    """
    strips: list[tuple[Rect, ...]] = []
    info: list[StripInfo] = []
    for blk in poly.blocks:
        count = _UNIFORM_COUNT.get(blk.symbol)
        if count:
            rects, data = _uniform_strip(blk, count), None
        else:
            rects, data = _elliptic_strip(poly, part, blk)
        strips.append(tuple(rects))
        info.append(StripInfo(len(rects), bool(data and data.degenerate),
                              data))
    rects = tuple(r for strip in strips for r in strip)
    _check_tiling(rects)
    return AttractorDomain(poly, part, rects, tuple(strips), tuple(info),
                           part.in_guarantee_range(), RectArray.of(rects))


def _check_tiling(rects: tuple[Rect, ...]) -> None:
    """Raise unless the w-arcs, sorted by start, meet end to start around the
    circle and their sweeps sum to 2pi; the membership kernel relies on it."""
    arcs = sorted((r.w_arc.start.theta, r.w_arc.sweep) for r in rects)
    total = math.fsum(sweep for _, sweep in arcs)
    gap = max(abs((nxt - start - sweep + math.pi) % TAU - math.pi)
              for (start, sweep), (nxt, _) in zip(arcs, arcs[1:] + arcs[:1]))
    if abs(total - TAU) > SAME_POINT or gap > SAME_POINT:
        raise TilingViolation(f"w-sweeps sum to 2pi {total - TAU:+.3g}, "
                              f"largest junction gap {gap:.3g}")


# -- imaging and bijectivity ---------------------------------------------------

# rectangles per slice of the cut search: bounds its temporaries at
# _SPLIT_ROWS times the number of cuts
_SPLIT_ROWS = 4096


def _normalize(theta: np.ndarray) -> np.ndarray:
    """``normalize_angle`` of each angle."""
    t = np.mod(theta, TAU)
    t[t >= TAU - WRAP] = 0.0
    return t


def _split(ws: np.ndarray, we: np.ndarray, sweep: np.ndarray,
           cuts: np.ndarray, first: int = 0):
    """Row (counted from ``first``), start and end angle, and sweep of each
    piece of the w-arcs from ws to we, in row order and along each arc.

    An arc is cut at each cut more than 1e-11 inside it; an arc without
    inner cuts is one piece of its own sweep, and of the pieces of a cut arc
    those under 1e-13 are dropped.
    """
    d = (cuts - ws[:, None]) % TAU
    inner = (d > 1e-11) & (d < sweep[:, None] - 1e-11)
    count = inner.sum(axis=1)
    k = int(count.max(initial=0))
    # row i's bounds: its start, its inner cuts along the arc, its end
    bounds = np.empty((len(ws), k + 2))
    bounds[:, 0] = ws
    bounds[:, 1:k + 1] = cuts[np.argsort(np.where(inner, d, np.inf),
                                         axis=1)[:, :k]]
    bounds[np.arange(len(ws)), count + 1] = we
    piece = np.arange(k + 1) <= count[:, None]
    rows = np.nonzero(piece)[0]
    lo, hi = bounds[:, :-1][piece], bounds[:, 1:][piece]
    whole = count[rows] == 0
    out = np.where(whole, sweep[rows], (hi - lo) % TAU)
    keep = whole | (out >= 1e-13)
    return rows[keep] + first, lo[keep], hi[keep], out[keep]


def image_rects(poly: MarkedPolygon, part: Partition,
                rs: RectArray) -> RectArray:
    """Forward images of the rectangles, each split at the cut points inside
    its w-arc so that one gluing carries each piece; pieces come in row
    order and along each w-arc.

    A cut within 1e-11 of an end of the w-arc is not inside it, and pieces
    under 1e-13 are dropped.  Each piece takes the gluing of the cell
    (``Partition.cell_of``) of its midpoint and maps the stored endpoints of
    both arcs by it; a full arc stays full, from the image of its start.
    Raises ``ValueError`` for an arc of sweep at most ``WRAP``, as
    ``DirectedArc`` does.
    """
    cuts = np.array(sorted(set(part.thetas)))
    rows, lo, hi, sweep = (np.concatenate(x) for x in zip(*(
        _split(*rs.theta[s:s + _SPLIT_ROWS, 2:].T,
               rs.sweep[s:s + _SPLIT_ROWS, 1], cuts, s)
        for s in range(0, max(len(rs), 1), _SPLIT_ROWS))))
    # Partition.cell_of of each piece's midpoint
    lifted = np.array(part.lifted)
    mid = np.mod(_normalize(lo + 0.5 * sweep) - lifted[0], TAU) + lifted[0]
    cell = np.maximum(np.searchsorted(lifted[:part.n], mid, side="right") - 1,
                      0)
    ab = np.array([(g.a, g.b) for g in poly.generators])[cell]
    a, b = ab[:, :1], ab[:, 1:]
    # columns u-start, u-end, w-start, w-end
    z = np.exp(1j * np.column_stack([rs.theta[rows, :2], lo, hi]))
    img = _normalize(np.angle((a * z + b) / (np.conj(b) * z + np.conj(a))))
    start, end = img[:, 0::2], img[:, 1::2]
    full = np.column_stack([rs.sweep[rows, 0], sweep]) >= TAU - WRAP
    out = np.where(full, TAU, (end - start) % TAU)
    if not ((sweep > WRAP).all() and (out > WRAP).all()):
        raise ValueError("an imaged arc has sweep at most WRAP")
    end = np.where(full, _normalize(start + TAU), end)
    return RectArray(np.stack([start, end], axis=2).reshape(-1, 4), out,
                     rs.block[rows], cell)


@dataclass(frozen=True)
class BijectivityReport(Report):
    """Checks ``image_overlap``, ``symmetric_difference`` and
    ``strip_residuals`` (the largest per-block residual)."""

    signature: str
    mode: str
    guarantee: bool
    strip_residuals: list[float]

    image_overlap = property(lambda self: self.checks["image_overlap"].residual)
    symmetric_difference = property(
        lambda self: self.checks["symmetric_difference"].residual)


def verify_bijectivity(poly: MarkedPolygon, part: Partition,
                       dom: AttractorDomain) -> BijectivityReport:
    """Check that the extension permutes the rectangle union.

    Verifies (i) forward images are pairwise interior-disjoint, (ii) their
    union reproduces the domain up to measure zero, and (iii) each block's
    horizontal strip maps exactly onto the domain's vertical band over that
    block's sector: block b's residual is |images_b xor (domain and
    band_b)|.

    Every rectangle is imaged in one pass.  One grid holds the images, the
    domain and the band edges; the domain's coverage is marked on it once.
    The bands [base_angle, base_angle + ``Block.sweep``] run in block order
    from 0 to 2pi, none across the seam, so they tile the circle in u and
    one ``searchsorted`` finds the band of a grid column.  The images, each
    clipped to its own block's band, xor the domain give every block's
    in-band residual on one coverage, summed per band.  To that each block
    adds the union measure of its image parts outside its band, all blocks
    on one more grid; in a bijective case these are rounding slivers at the
    band edges.
    """
    images = image_rects(poly, part, dom.arrays)
    u, w = images.intervals()
    overlap = max_pairwise_overlap(u, w)

    # block b's band is the one interval [lo_b, hi_b]; its complement in
    # [0, 2pi] is [0, lo_b] and [hi_b, 2pi]
    lo = np.array([blk.base_angle for blk in poly.blocks])
    hi = np.minimum(lo + [blk.sweep for blk in poly.blocks], TAU)
    gaps = np.zeros((len(lo), 2, 2))
    gaps[:, 0, 1], gaps[:, 1, 0], gaps[:, 1, 1] = lo, hi, TAU
    inside = rect_boxes(clip_intervals(
        u, np.stack([lo, hi], axis=1)[images.block, None]), w)
    outside = clip_intervals(u, gaps[images.block])
    stray = (outside[:, :, 1] > outside[:, :, 0]).any(axis=1)
    strays = rect_boxes(outside[stray], w[stray])

    # one grid of every image, domain and band edge
    domain = rect_boxes(*dom.arrays.intervals())
    boxes = np.concatenate([inside, strays, domain])
    xs = _breakpoints(np.concatenate([boxes[:, :2].ravel(), lo, hi]))
    ys = _breakpoints(boxes[:, 2:])
    covered = _covered(domain, xs, ys)
    image = _covered(inside, xs, ys)
    columns = _column_areas(image ^ covered, xs, ys)
    # the image parts outside their bands, painted over the clipped images
    for i0, i1, j0, j1 in np.column_stack([
            np.searchsorted(xs, strays[:, :2]),
            np.searchsorted(ys, strays[:, 2:])]).tolist():
        image[i0:i1, j0:j1] = True
    sym = float(_column_areas(image ^ covered, xs, ys).sum())

    # the band of each column: the last band starting at or before its
    # midpoint
    col = np.searchsorted(lo, 0.5 * (xs[:-1] + xs[1:]), side="right") - 1
    strip = (np.bincount(col, weights=columns, minlength=len(lo))
             + union_by_group(outside[stray], w[stray], images.block[stray],
                              len(lo)))
    strip_res = strip.tolist()

    return BijectivityReport(
        str(poly.signature), part.mode, dom.guarantee, strip_res, checks={
            "image_overlap": Check(overlap, DEFAULT.overlap),
            "symmetric_difference": Check(sym, DEFAULT.residual),
            "strip_residuals": Check(max(strip_res, default=0.0),
                                     DEFAULT.residual)})


# -- escape set and exceptional rectangles ------------------------------------


def phi_set(poly: MarkedPolygon, part: Partition) -> list[Rect]:
    """Diagonal-neighbourhood rectangles that every orbit must leave.

    One rectangle per cell: the cell itself squared when both bounding
    vertices are ideal, widened to the side extension (Q forward, P
    backward) next to an interior vertex.
    """
    n = poly.n_sides
    out = []
    for i in range(n):
        lo, sweep = part.cell_arc(i)
        if sweep <= WRAP:
            continue
        w = DirectedArc.from_angles(lo, sweep)
        v_lo, v_hi = poly.vertices[i], poly.vertices[(i + 1) % n]
        if not v_hi.is_ideal:
            u = DirectedArc.ccw(v_lo.point, poly.aux[(i + 1) % n].Q)
        elif not v_lo.is_ideal:
            u = DirectedArc.ccw(poly.aux[i].P, v_hi.point)
        else:
            u = DirectedArc.ccw(v_lo.point, v_hi.point)
        out.append(Rect(u, w, poly.block_of_side(i).index, i))
    return out


def exceptional_set(poly: MarkedPolygon, part: Partition, k: int) -> list[Rect]:
    """Rectangles between the attractor and the escape set at an interior
    vertex of order >= 3 (empty for order 2).

    Each hat shares its w-arc with one rectangle of the attractor's fan
    (``_fan``); its u-arc runs between the side extension point and the
    corner orbit point that bounds that rectangle.
    """
    v = poly.vertices[k % poly.n_sides]
    if v.is_ideal:
        raise NotElliptic(f"vertex {k} is ideal")
    if v.order == 2:
        return []
    blk = poly.block_of_side(k % poly.n_sides)
    aux = poly.aux[k % poly.n_sides]
    _, start, end, low_w, up_w, low_u, up_u = _fan(poly, part, blk)
    out = []

    def hat(p1, p2, w1, w2, side, inside):
        # a hat exists only while the corner-orbit point stays between the
        # side extension and its block corner; it is empty when the orbit
        # point reaches, within WRAP either way (order 4, arc midpoint),
        # or passes (last fan step of an edge partition) the extension point
        if (not inside or angular_distance(p1.theta, p2.theta) < WRAP
                or angular_distance(w1.theta, w2.theta) < WRAP):
            return
        out.append(Rect(DirectedArc.ccw(p1, p2), DirectedArc.ccw(w1, w2),
                        blk.index, side))

    q_to_end = ccw_sweep(aux.Q.theta, end.theta, full_if_equal=True)
    start_to_p = ccw_sweep(start.theta, aux.P.theta, full_if_equal=True)
    for u, w0, w1 in zip(low_u, low_w[1:], low_w):
        ok = ccw_sweep(aux.Q.theta, u.theta) <= q_to_end + WRAP
        hat(aux.Q, u, w0, w1, blk.side_start, ok)
    for u, w0, w1 in zip(up_u, up_w, up_w[1:]):
        ok = ccw_sweep(start.theta, u.theta) <= start_to_p + WRAP
        hat(u, aux.P, w0, w1, blk.side_start + 1, ok)
    return out


# pieces per slice of the escape test: temporaries hold _PIECES x rectangles
_PIECES = 1024


@dataclass(frozen=True)
class ExceptionalReport(Report):
    """Checks ``containment`` (nesting of the lower rectangles) and
    ``escaped`` (measure still outside the attractor)."""

    steps_used: int


def verify_exceptional(poly: MarkedPolygon, part: Partition, k: int,
                       dom: AttractorDomain) -> ExceptionalReport:
    """Track the exceptional rectangles into the attractor.

    Checks the nesting of successive lower rectangles inside the forward
    images of the first one, and that every piece of both fans lands inside
    the attractor within the cycle length plus two steps; ``escaped`` is the
    measure of the union of the pieces left then, outside the attractor.
    """
    hats = RectArray.of(exceptional_set(poly, part, k))
    tol = DEFAULT.residual
    blk = poly.block_of_side(k % poly.n_sides)
    data = dom.info[blk.index].cycle
    lower = hats.take(hats.gamma == blk.side_start)
    upper = hats.take(hats.gamma == blk.side_start + 1)
    dom_u, dom_w = dom.arrays.intervals()

    def escaping(region: RectArray) -> np.ndarray:
        """Area of each piece outside the attractor: its rectangles are
        interior-disjoint (their w-arcs tile the circle), so the area inside
        is the sum of the piece's u- times w-overlaps with each."""
        u, w = region.intervals()
        out = region.area
        for s in range(0, len(region), _PIECES):
            out[s:s + _PIECES] -= (
                _overlap_lengths(u[s:s + _PIECES], dom_u)
                * _overlap_lengths(w[s:s + _PIECES], dom_w)).sum(axis=1)
        return out

    worst = 0.0
    region = lower.take(slice(0, 1))
    for i in range(1, len(lower)):
        # the region's pieces can overlap, so it is measured as a union
        region = image_rects(poly, part, region)
        rect = lower.take(slice(i, i + 1))
        worst = max(worst, float(rect.area[0]) - box_measure(
            rect_boxes(*rect.intervals()), rect_boxes(*region.intervals()),
            np.logical_and))

    left = [np.empty((0, 4))]
    steps = 0
    # without hats (order 2) there is no first piece and no cycle data
    for region in [f.take(slice(0, 1)) for f in (lower, upper) if len(f)]:
        for step in range(max(data.J, data.I) + 3):
            remaining = region.take(escaping(region) > tol)
            if not len(remaining):
                break
            region = image_rects(poly, part, remaining)
            steps = max(steps, step + 1)
        else:
            left.append(rect_boxes(*region.take(
                escaping(region) > tol).intervals()))
    escaped = box_measure(np.concatenate(left), rect_boxes(dom_u, dom_w),
                          np.greater)
    return ExceptionalReport(steps, checks={"containment": Check(worst, tol),
                                            "escaped": Check(escaped, tol)})


# -- simulation ----------------------------------------------------------------


@dataclass(frozen=True)
class EntryTrace:
    sample: int
    u0: float
    w0: float
    K: int                # iterations to enter the attractor, -1 on budget
    escape_step: int      # first step outside the escape set, -1 on budget
    entered: bool
    entry_u: float = math.nan
    entry_w: float = math.nan


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the increment gamma and
# the finalizer mix, on uint64 arrays, whose arithmetic wraps
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> 31)


def _draws(seed: int, samples: int, buffer: float) -> np.ndarray:
    """Start angles (u, w) of samples 0 .. samples - 1, 2 x samples: angle c
    of sample i on retry r is 2pi 2^-53 (h >> 11), h the SplitMix64 output
    mix(key + (n + 1) gamma) at counter n = i 2^32 + 2r + c, redrawn with
    r + 1 within ``buffer`` of the diagonal.  The seed's 64-bit limbs, low
    first, fold into the key by key <- mix(key + gamma + limb) from 0."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = np.zeros(1, np.uint64)
    for s in range(0, max(seed.bit_length(), 1), 64):
        key = _mix64(key + _GAMMA + np.uint64(seed >> s & (1 << 64) - 1))
    out, todo, retry = np.empty((2, samples)), np.arange(samples), 0
    coord = np.arange(2, dtype=np.uint64)[:, None]
    while todo.size:
        n1 = (todo.astype(np.uint64) << 32) + np.uint64(2 * retry + 1) + coord
        out[:, todo] = ang = (_mix64(key + n1 * _GAMMA) >> 11) * (TAU / 2**53)
        d = np.abs(ang[0] - ang[1])
        todo, retry = todo[np.minimum(d, TAU - d) < buffer], retry + 1
    return out


class _Kernel:
    """The vectorized step-and-membership kernel of the planar extension.

    States are the columns of 2 x N arrays: ``z`` holds (u, w) as unit
    complex numbers, ``ang`` their angles in [0, 2pi].  ``breaks`` sorts {0},
    the lifted cut points and the w-starts of every rectangle list, each a
    ``RectArray``; ``locate`` finds by one ``searchsorted`` the interval
    [breaks[j - 1], breaks[j]) of w, on which the cell of w and each list's
    candidate (the last w-start at or before w, wrapping) are constant.
    Column j of the tables holds their values at its left end: ``coef`` the
    gluing's a, b, conj(b), conj(a), and per list the candidate's (u, w)
    starts and widened sweeps.  At w = 2pi the kernel takes the last cell
    and ``Partition.cell_of`` the cell of 0.

    Membership is closed with ``tol`` = ``STRUCTURAL`` on both coordinates.
    The w-arcs tile the circle with junctions within ``SAME_POINT``
    (``_check_tiling``; the escape set's are the cells).  So at w-offset d
    from its candidate c's start, a state passes the widened w-test of an
    earlier rectangle only if d <= tol + ``SAME_POINT``, of a later one only
    if d >= sweep(c) - tol - ``SAME_POINT``.  A state that fails c with
    d <= s or d >= sweep(c) - s, s = tol + ``SAME_POINT`` + ``WRAP`` (the
    offsets' rounding), is rechecked on the neighbours up to p places either
    way in w-start order, p the least count such that any p consecutive
    rectangles skip an arc gap over 2 * tol; no other rectangle can pass the
    widened w-test, so the verdicts are those of testing every rectangle.
    """

    def __init__(self, poly: MarkedPolygon, part: Partition,
                 *lists: RectArray):
        cuts, tol = np.array(part.lifted[:part.n]), STRUCTURAL
        # rows u-start, u-sweep, w-start, w-sweep in w-start order
        rows = []
        for rs in lists:
            rs = rs.take(np.argsort(rs.theta[:, 2], kind="stable"))
            rows.append(np.stack([rs.theta[:, 0], rs.sweep[:, 0],
                                  rs.theta[:, 2], rs.sweep[:, 1]]))
        self.breaks = np.array(sorted({0.0, *cuts, *(x for r in rows
                                                     for x in r[2])}))
        # left ends, indexed as locate counts; index 0 (w < 0) is never read
        left = np.concatenate([self.breaks[:1], self.breaks])
        self.cell = np.clip(np.searchsorted(cuts, left, side="right") - 1,
                            0, part.n - 1)
        a, b = np.array([(g.a, g.b) for g in poly.generators])[self.cell].T
        self.coef = np.stack([a, b, np.conj(b), np.conj(a)])
        self.lo, self.near = TAU - tol, tol + SAME_POINT + WRAP
        self.cand, self.rows, self.table, self.offsets = [], [], [], []
        for r in rows:
            ws, n = r[2], r.shape[1]
            # the arc gap skipped by p consecutive rectangles, either way
            lifted, ends = np.concatenate([ws, ws + TAU]), ws + r[3]
            p = 1
            while 2 * p + 1 < n and min((lifted[p:p + n] - ws).min(),
                                        (lifted[p + 1:p + 1 + n] - ends).min()
                                        ) <= 2 * tol:
                p += 1
            # (u, w) starts and widened sweeps, per rectangle and per j
            start, hi = r[0::2], r[1::2] + tol
            self.cand.append((np.searchsorted(ws, left, side="right") - 1) % n)
            self.rows.append((start, hi))
            self.table.append((start[:, self.cand[-1]], hi[:, self.cand[-1]]))
            self.offsets.append(sorted({k % n for k in range(-p, p + 1)} - {0}))

    def locate(self, pw: np.ndarray) -> np.ndarray:
        """Table index j of each w-angle in [0, 2pi]."""
        return np.searchsorted(self.breaks, pw, side="right")

    def start(self, ang: np.ndarray):
        """The states at angles ``ang`` and the intervals of their w."""
        z = np.exp(1j * ang)
        return z, self.locate(np.angle(z[1]) % TAU)

    def step(self, z: np.ndarray, j: np.ndarray):
        """Map the states z, whose w lie in intervals ``j``, by the gluing of
        the cell of w; return the new states, their angles and their j."""
        a, b, b_bar, a_bar = self.coef.take(j, axis=1)
        z = (a * z + b) / (b_bar * z + a_bar)
        # renormalize: modulus drift would otherwise amplify exponentially
        z /= np.abs(z)
        ang = np.arctan2(z.imag, z.real)
        ang += TAU * (ang < 0)
        return z, ang, self.locate(ang[1])

    def _test(self, table, idx, ang):
        """(mask, w-offsets, widened w-sweeps) of ``ang`` in columns idx;
        angles and starts lie in [0, 2pi], so one wrap gives the offsets."""
        start, hi = (t.take(idx, axis=1) for t in table)
        d = ang - start
        d += TAU * (d < 0)
        return ((d <= hi) | (d >= self.lo)).all(axis=0), d[1], hi[1]

    def inside(self, i: int, j, ang: np.ndarray) -> np.ndarray:
        """Mask of the states at angles ``ang``, w in intervals j, in list i."""
        ok, dw, w_hi = self._test(self.table[i], j, ang)
        if ok.all():
            return ok
        todo = np.flatnonzero(~ok & ((dw <= self.near)
                                     | (dw >= w_hi - STRUCTURAL - self.near)))
        cand, n = self.cand[i][j[todo]], len(self.rows[i][0][0])
        for k in self.offsets[i]:
            if todo.size == 0:
                break
            hit = self._test(self.rows[i], (cand + k) % n, ang[:, todo])[0]
            ok[todo[hit]] = True
            todo, cand = todo[~hit], cand[~hit]
        return ok


def simulate_entry(poly: MarkedPolygon, part: Partition, dom: AttractorDomain,
                   samples: int, seed: int, max_iters: int = 100_000,
                   buffer: float = 1e-6) -> list[EntryTrace]:
    """Iterate random plane points until they enter the attractor.

    Sampling is uniform in both angles outside a diagonal buffer, from the
    SplitMix64 hash of (seed, sample index, retry), so a sample depends on
    the non-negative integer seed and its index alone; these draws differ
    from those of the earlier per-sample numpy generators.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # a draw is kept when angular_distance >= buffer, with odds 1 - buffer/pi:
    # up to pi/2 at least half the draws are kept, near pi almost none
    if not 0 <= buffer <= math.pi / 2:
        raise ValueError(f"buffer must lie in [0, pi/2], got {buffer!r}")
    drawn = _draws(seed, samples, buffer)

    kern = _Kernel(poly, part, dom.arrays, RectArray.of(phi_set(poly, part)))
    K, esc = np.full((2, samples), -1, dtype=np.int64)
    entry = np.full((2, samples), np.nan)

    def record(n, live, j, ang):
        """Mark first entries and escapes at step n; mask the still live."""
        todo = np.flatnonzero(K[live] < 0)
        if todo.size:
            hit = todo[kern.inside(0, j[todo], ang[:, todo])]
            K[live[hit]] = n
            entry[:, live[hit]] = ang[:, hit]
        todo = np.flatnonzero(esc[live] < 0)
        if todo.size:
            esc[live[todo[~kern.inside(1, j[todo], ang[:, todo])]]] = n
        return (K[live] < 0) | (esc[live] < 0)

    live = np.flatnonzero(record(0, np.arange(samples), kern.locate(drawn[1]),
                                 drawn))
    # the live states only, compacted after every step
    z, j = kern.start(drawn[:, live])
    for n in range(1, max_iters + 1):
        if live.size == 0:
            break
        z, ang, j = kern.step(z, j)
        keep = record(n, live, j, ang)
        live, z, j = live[keep], z[:, keep], j[keep]

    return [EntryTrace(i, u0, w0, k, e, k >= 0, eu, ew)
            for i, (u0, w0, k, e, eu, ew) in enumerate(zip(
                *drawn.tolist(), K.tolist(), esc.tolist(), *entry.tolist()))]


def check_forward_invariance(poly: MarkedPolygon, part: Partition,
                             dom: AttractorDomain, traces: list[EntryTrace],
                             steps: int = 1000) -> int:
    """Iterate the entered states further; count membership violations.
    Raises ``ValueError`` for negative ``steps``."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ang = np.array([(t.entry_u, t.entry_w) for t in traces if t.entered]).T
    if not ang.size:
        return 0
    kern = _Kernel(poly, part, dom.arrays)
    z, j = kern.start(ang)
    exits = 0
    for _ in range(steps):
        z, ang, j = kern.step(z, j)
        exits += j.size - int(np.count_nonzero(kern.inside(0, j, ang)))
    return exits


def traces_to_csv(traces: list[EntryTrace], seed: int) -> str:
    lines = ["sample,seed,u0,w0,K,escape_step,entered"]
    for t in traces:
        lines.append(f"{t.sample},{seed},{t.u0!r},{t.w0!r},{t.K},"
                     f"{t.escape_step},{int(t.entered)}")
    return "\n".join(lines) + "\n"
