"""Scalar reference implementations that the library is checked against.

Each one is the plain, one-point-at-a-time form of something the library
computes another way: ``F_apply`` is one step of the planar extension that
the kernel ``extension._Kernel`` applies to arrays of states;
``domain_contains`` is the closed membership test on angles that the same
kernel answers on the Cayley coordinate x = -cot(theta / 2), where a
breakpoint interval of w lists exactly the rectangles whose w-arc holds it
and u is tested by the edges lo, hi of its arc and a no-wrap flag nw, (x >=
lo) ^ (x <= hi) ^ nw; ``two_lookup_step`` is the complex form of the
kernel's real step, z -> (a z + b) / (conj(b) z + conj(a)) renormalised,
after a binary search on the cut points at the state's own w
(``two_lookup_cell``, on angles or on x), and ``dense_candidates`` tests
the state's w against every rectangle on angles, ``cayley_candidates`` on
x, where the kernel reads both the cell and the candidate rectangles off
one breakpoint table; ``ReferenceKernel`` (through ``kernel_reference``) is
the earlier kernel whose table holds the w-arc ends widened by
``STRUCTURAL + WRAP``, which finds each interval's cell by
``two_lookup_cell``, forms its (p, q, r, s) from the a and b of its gluing
itself and tests every candidate on both coordinates;
``candidates_reference`` builds a list's candidates from a dense rectangles
x intervals mask, where the kernel reads each w-arc's intervals as one run
of its table, ``kernel_step`` is the step of the kernel's loops, under
their error state, and ``moebius_reference`` the step that finds the seam
by testing every quotient for NaN, where ``arcs._moebius`` finds it by
numpy's invalid flag; ``bisector_endpoint`` constructs the end of the angle
bisector at an elliptic vertex from the tangents of the sides' circles
(``tangent_at``), independently of the arc midpoint ``AuxPoints.M``, and
``boundary_product`` folds the block gluings (``block_glue_product``) into
one matrix, where ``validate_polygon`` walks the cusp cycle of V_0 one
gluing at a time and sums the logs of their derivatives;
``scalar_validation`` takes four of ``validate_polygon``'s checks one side,
one cap pair and one step at a time, by ``geodesic_circle``, a dense caps x
caps overlap array and ``apply_angle``, where the library makes one array
pass over the sides, only the cap pairs that meet and the vector boundary
action;
``f_apply`` is one step of the boundary map on a ``BoundaryPoint``, by
``MoebiusPSU.apply_boundary``; ``walk_reference`` walks an orbit one
``BoundaryPoint`` at a time through it, where ``markov_check`` steps on
bare angles by ``MoebiusPSU.apply_angle``, ``matching_walk`` iterates the
matching identity of a cycle the same way, where ``cycle`` stores the
walk on bare angles as ``matching_residual``;
``markov_reference`` rebuilds the Markov report from ``walk_reference``,
each transition the ``circular_run`` between the refinement points that
a scan of all of them finds nearest to the images of the interval's ends
(a full walk is kept per signature, cuts, start, side and budget, as two
tests repeat them); ``markov_full_walk`` refines the
partition by every cut-point orbit walked in full, where ``markov_check``
stops each orbit at the first cut it lands on; ``orthogonal_circle`` finds
the circle of a geodesic by a linear solve of its two incidence equations,
where ``mobius`` uses closed forms; ``scalar_draws`` is the counter-based
draw of ``extension._draws`` one angle at a time in Python integers;
``scalar_rect_image`` images one rectangle at a time by ``apply_angle``,
where ``extension.image_rects`` images a whole list on arrays by its vector
twin, ``split_reference`` cuts the w-arcs from a dense arcs x cuts mask,
where ``image_rects`` reads each arc's inner cuts as one run of the lifted
cuts, ``per_block_bijectivity`` measures each block's strip residual on
its own grid against the domain clipped to the block's band, and
``grid_bijectivity`` takes every residual from one coverage grid of the
boxes ``rect_boxes`` (``box_measure`` on it), where ``verify_bijectivity``
sums products of interval overlaps; ``max_pairwise_overlap`` is its pair
term's largest value.

``exceptional_set`` and ``verify_exceptional`` are no reference but the
one implementation of the exceptional rectangles between the attractor and
the escape set and of their entry check, kept here with the grid measure
``box_measure`` because only tests use them.  So are ``orbit``, the
one-sided orbit of a point walked in full until it revisits a point
(``walk_reference`` without the stop at a cut), and ``OrbitRecord``, the
record it returns; the library walks only up to the first cut, inside
``markov_check``.  ``growth_rate`` is the log growth rate of a signature's
group by the free-product formula, and ``markov_entropy`` the log spectral
radius of a Markov report's transitions, which equal each other under the
midpoint partition.
"""
import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from fuchsian import (AttractorDomain, BoundaryPoint, DirectedArc, DiskPoint,
                      MarkedPolygon, NotElliptic, Partition, Rect,
                      geodesic_circle)
from fuchsian.arcs import (RectArray, _breakpoints, _overlap_lengths, cayley,
                           ccw_sweep, clip_intervals, seam_split)
from fuchsian.boundary import MarkovReport
from fuchsian.extension import (BijectivityReport, _fan, _moebius,
                                image_rects)
from fuchsian.mobius import TAU, MoebiusPSU, angular_distance, normalize_angle
from fuchsian.polygon import SQUARE, Block
from fuchsian.tolerances import (DEFAULT, SAME_POINT, STRUCTURAL, WRAP,
                                 Check, Report)


def f_apply(poly: MarkedPolygon, part: Partition,
            x: BoundaryPoint) -> tuple[int, BoundaryPoint]:
    """One step of the boundary map: returns (cell index, image)."""
    i = part.cell_of(x.theta)
    return i, poly.generators[i].apply_boundary(x)


def F_apply(poly: MarkedPolygon, part: Partition, u: BoundaryPoint,
            w: BoundaryPoint) -> tuple[int, BoundaryPoint, BoundaryPoint]:
    """One step of the planar extension; the cell of w picks the gluing."""
    k = part.cell_of(w.theta)
    g = poly.generators[k]
    return k, g.apply_boundary(u), g.apply_boundary(w)


def two_lookup_cell(part: Partition, pw: np.ndarray,
                    coord=np.asarray) -> np.ndarray:
    """Cell of each w-angle in [0, 2pi], or of each w given by its
    increasing coordinate ``coord`` of the angle: the last lifted cut at or
    before it, clipped to the cells, so w = 2pi falls in the last cell."""
    cells = np.searchsorted(coord(np.array(part.lifted[:part.n])), pw,
                            side="right") - 1
    return np.clip(cells, 0, part.n - 1)


def two_lookup_step(poly: MarkedPolygon, part: Partition, z: np.ndarray,
                    pw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the states z (rows u, w of unit complex numbers) whose
    w-angles are ``pw``; returns the new states and their angles."""
    cells = two_lookup_cell(part, pw)
    a = np.array([g.a for g in poly.generators])[cells]
    b = np.array([g.b for g in poly.generators])[cells]
    z = (a * z + b) / (np.conj(b) * z + np.conj(a))
    z /= np.abs(z)
    return z, np.angle(z) % TAU


def dense_candidates(rects, pw: np.ndarray, tol: float) -> np.ndarray:
    """Mask, w-angles by rectangles, of the rectangles whose w-arc widened
    by ``tol`` either way holds each w-angle: the w half of the closed
    membership test, on every rectangle."""
    ws = np.array([r.w_arc.start.theta for r in rects])
    wsw = np.array([r.w_arc.sweep for r in rects])
    dw = (pw[:, None] - ws[None, :]) % TAU
    return (dw <= wsw[None, :] + tol) | (dw >= TAU - tol)


def cayley_candidates(rects, xw: np.ndarray, tol: float) -> np.ndarray:
    """Mask, w-coordinates by rectangles, of the rectangles whose w-arc
    widened by ``tol`` holds each Cayley coordinate xw: lo <= xw <= hi for
    lo = x(start - tol) and hi = x(end + tol) of the arc, xw >= lo or xw <=
    hi when the arc holds the seam (lo > hi), every xw when it covers the
    circle."""
    lo = np.array([r.w_arc.start.theta for r in rects]) - tol
    sweep = np.array([r.w_arc.sweep for r in rects]) + 2 * tol
    lo, hi = cayley(lo % TAU), cayley((lo + sweep) % TAU)
    at_lo, at_hi = xw[:, None] >= lo, xw[:, None] <= hi
    return np.where(sweep >= TAU, True,
                    np.where(lo <= hi, at_lo & at_hi, at_lo | at_hi))


# -- counter-based draws -------------------------------------------------------

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """SplitMix64's finalizer on one 64-bit integer (Steele, Lea and Flood,
    OOPSLA 2014)."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & M64
    return x ^ (x >> 31)


def scalar_draws(seed: int, samples: int,
                 buffer: float) -> list[tuple[float, float]]:
    """Start angles (u, w) of samples 0 .. samples - 1, one at a time.

    The key folds the seed's 64-bit limbs, low first, from 0 by
    key <- mix(key + gamma + limb).  Angle c of sample i on retry r is the
    top 53 bits of mix(key + (n + 1) gamma), n = i 2^32 + 2r + c, times
    2pi 2^-53; a pair within ``buffer`` of the diagonal is drawn again with
    r + 1.
    """
    key, rest = 0, seed
    while True:
        key = splitmix64((key + GAMMA + (rest & M64)) & M64)
        rest >>= 64
        if not rest:
            break
    out = []
    for i in range(samples):
        r = 0
        while True:
            tu, tw = ((splitmix64((key + ((i << 32) + 2 * r + c + 1) * GAMMA)
                                  & M64) >> 11) * 2.0 ** -53 * TAU
                      for c in (0, 1))
            if angular_distance(tu, tw) >= buffer:
                break
            r += 1
        out.append((tu, tw))
    return out


# -- box measure on a coverage grid -------------------------------------------

# rectangles per slice of a loop over overlap products or grid columns:
# bounds each float64 temporary at _ROWS times the other dimension
_ROWS = 32


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
        area = (_overlap_lengths(u[s:s + _ROWS, None], u[s + 1:])
                * _overlap_lengths(w[s:s + _ROWS, None], w[s + 1:]))
        worst = max(worst, float(np.triu(area).max(initial=0.0)))
    return worst


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


# -- scalar imaging and the per-block bijectivity check ------------------------


def arc_intervals(arc: DirectedArc) -> list[tuple[float, float]]:
    """The arc as 1 or 2 plain intervals within [0, 2pi]."""
    lo = arc.start.theta % TAU
    hi = lo + arc.sweep
    if hi <= TAU + 1e-15:
        return [(lo, min(hi, TAU))]
    return [(lo, TAU), (0.0, hi - TAU)]


def interior_angles(arc: DirectedArc, angles, tol: float) -> list[float]:
    """The angles more than ``tol`` inside the arc, ordered along it."""
    out = []
    for t in angles:
        d = (t - arc.start.theta) % TAU
        if tol < d < arc.sweep - tol:
            out.append((d, t))
    return [t for _, t in sorted(out)]


def _arc_image(g, arc: DirectedArc) -> DirectedArc:
    if arc.sweep >= TAU - WRAP:
        return DirectedArc.from_angles(g.apply_angle(arc.start.theta), TAU)
    return DirectedArc.ccw(g.apply_boundary(arc.start),
                           g.apply_boundary(arc.end))


def scalar_rect_image(poly: MarkedPolygon, part: Partition,
                      rect: Rect) -> list[Rect]:
    """Forward image of a closed rectangle, split at the cut points more
    than 1e-11 inside its w-arc so that each piece is carried by a single
    transformation; pieces under 1e-13 are dropped."""
    cuts = sorted(set(part.thetas))
    inner = interior_angles(rect.w_arc, cuts, 1e-11)
    bounds = [rect.w_arc.start.theta] + inner + [rect.w_arc.end.theta]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        sweep = (hi - lo) % TAU
        if not inner:
            sweep = rect.w_arc.sweep
        elif sweep < 1e-13:
            continue
        piece = DirectedArc.from_angles(lo, sweep)
        k = part.cell_of(normalize_angle(piece.start.theta + 0.5 * sweep))
        g = poly.generators[k]
        out.append(Rect(_arc_image(g, rect.u_arc), _arc_image(g, piece),
                        rect.block, k))
    return out


def split_reference(ws: np.ndarray, we: np.ndarray, sweep: np.ndarray,
                    cuts: np.ndarray, first: int = 0):
    """Row (counted from ``first``), start and end angle, and sweep of each
    piece of the w-arcs from ws to we, in row order and along each arc.

    An arc is cut at each cut more than 1e-11 inside it; an arc without
    inner cuts is one piece of its own sweep, and of the pieces of a cut arc
    those under 1e-13 are dropped.  The distance along the arc is rounded
    once, where ``_split`` rounds ws + 1e-11 and ws + sweep - 1e-11, so the
    two may differ on a cut within a few ulp of those margins.
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


def boxes_of(rects) -> np.ndarray:
    """(m, 4) plain boxes, the products of each rectangle's intervals."""
    return np.array([(ulo, uhi, wlo, whi) for r in rects
                     for ulo, uhi in arc_intervals(r.u_arc)
                     for wlo, whi in arc_intervals(r.w_arc)]).reshape(-1, 4)


def intervals_of(arcs) -> np.ndarray:
    """(n, 2, 2) padded ``arc_intervals`` of the arcs."""
    out = np.zeros((len(arcs), 2, 2))
    for i, arc in enumerate(arcs):
        ints = arc_intervals(arc)
        out[i, :len(ints)] = ints
    return out


def clip_to_band(boxes: np.ndarray, band: DirectedArc) -> np.ndarray:
    """The boxes intersected with ``band x S``; pieces at most 1e-13 wide
    in u are dropped."""
    pieces = []
    for lo, hi in arc_intervals(band):
        cut = boxes.copy()
        cut[:, :2] = np.clip(boxes[:, :2], lo, hi)
        pieces.append(cut[cut[:, 1] - cut[:, 0] > 1e-13])
    return np.concatenate(pieces)


def per_block_bijectivity(poly: MarkedPolygon, part: Partition,
                          dom: AttractorDomain):
    """(image_overlap, symmetric_difference, strip_residuals, passed) of
    the per-block check: scalar images, block b's residual the symmetric
    difference of its images and the domain clipped to its band, each on a
    grid of its own."""
    images = [[img for r in strip for img in scalar_rect_image(poly, part, r)]
              for strip in dom.strips]
    flat = [img for imgs in images for img in imgs]
    overlap = max_pairwise_overlap(intervals_of([r.u_arc for r in flat]),
                                   intervals_of([r.w_arc for r in flat]))
    domain = boxes_of(dom.rects)
    sym = box_measure(boxes_of(flat), domain, np.logical_xor)
    strips = [box_measure(boxes_of(imgs), clip_to_band(domain, DirectedArc.
                          from_angles(blk.base_angle, TAU / poly.ell)),
                          np.logical_xor)
              for blk, imgs in zip(poly.blocks, images)]
    passed = (overlap < DEFAULT.overlap and sym < DEFAULT.residual
              and max(strips) < DEFAULT.residual)
    return overlap, sym, strips, passed


@np.errstate(under="ignore")
def grid_bijectivity(poly: MarkedPolygon, part: Partition,
                     dom: AttractorDomain) -> BijectivityReport:
    """``verify_bijectivity`` on one coverage grid: the same checks, each
    union measured by the cells it covers.

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
    adds the area of its image parts outside its band (strays), summed box
    by box: the images are disjoint up to ``image_overlap``, and where they
    overlap the sum exceeds the union, so a residual can only grow.  In a
    bijective case the strays are rounding slivers at the band edges.
    Underflow, as in the area of a grid column under 1e-308 wide, is
    ignored whatever the caller's error state.
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
    strays = _products(clip_intervals(u, gaps[images.block]), w)
    keep = _nonempty(strays)
    strays = strays[keep]
    owner = np.broadcast_to(images.block[:, None], keep.shape)[keep]

    # one grid of every image, domain and band edge
    domain = rect_boxes(*dom.arrays.intervals())
    boxes = np.concatenate([inside, strays, domain])
    xs = _breakpoints(np.concatenate([boxes[:, :2].ravel(), lo, hi]))
    ys = _breakpoints(boxes[:, 2:])
    covered = _covered(domain, xs, ys)
    image = _covered(inside, xs, ys)
    columns = _column_areas(image ^ covered, xs, ys)
    # the image parts outside their bands, added to the clipped images
    image |= _covered(strays, xs, ys)
    sym = float(_column_areas(image ^ covered, xs, ys).sum())

    # the band of each column: the last band starting at or before its
    # midpoint
    col = np.searchsorted(lo, 0.5 * (xs[:-1] + xs[1:]), side="right") - 1
    area = (strays[:, 1] - strays[:, 0]) * (strays[:, 3] - strays[:, 2])
    strip = (np.bincount(col, weights=columns, minlength=len(lo))
             + np.bincount(owner, weights=area, minlength=len(lo)))
    strip_res = strip.tolist()

    return BijectivityReport(
        str(poly.signature), part.mode, dom.guarantee, strip_res, checks={
            "image_overlap": Check(overlap, DEFAULT.overlap),
            "symmetric_difference": Check(sym, DEFAULT.residual),
            "strip_residuals": Check(max(strip_res, default=0.0),
                                     DEFAULT.residual)})


# -- closed membership ---------------------------------------------------------


def arc_contains(arc: DirectedArc, theta: float, tol: float = 0.0) -> bool:
    d = (theta - arc.start.theta) % TAU
    return d <= arc.sweep + tol or d >= TAU - tol


def rect_contains(rect: Rect, theta_u: float, theta_w: float,
                  tol: float = 0.0) -> bool:
    return (arc_contains(rect.u_arc, theta_u, tol)
            and arc_contains(rect.w_arc, theta_w, tol))


def domain_contains(dom: AttractorDomain, theta_u: float,
                    theta_w: float) -> bool:
    return any(rect_contains(r, theta_u, theta_w, STRUCTURAL)
               for r in dom.rects)


# -- geodesic circles by linear solve -------------------------------------------


def orthogonal_circle(u: complex, z: complex) -> tuple[complex, float] | None:
    """Centre and radius of the circle orthogonal to the unit circle through
    the boundary point ``u`` and the point ``z`` of the closed disk, from the
    2x2 linear system Re(conj(c) u) = 1, Re(conj(c) z) = (1 + |z|^2) / 2 for
    its centre c.  None when the system is singular (the geodesic is a
    diameter)."""
    det = u.real * z.imag - u.imag * z.real
    if abs(det) < 1e-13:
        return None
    rhs = (1.0 + abs(z) ** 2) / 2.0
    c = complex((z.imag - rhs * u.imag) / det, (rhs * u.real - z.real) / det)
    return c, math.sqrt(abs(c) ** 2 - 1.0)


# -- angle bisector at an elliptic vertex ---------------------------------------


def geodesic_from_direction(p: DiskPoint, direction: complex) -> BoundaryPoint:
    """Ideal endpoint of the geodesic ray from ``p`` with unit tangent
    ``direction``."""
    z, d = p.z, direction / abs(direction)
    n = 1j * d
    dot = (z * n.conjugate()).real
    if abs(dot) < 1e-13:
        # radial ray: straight to the circle
        zd = (z * d.conjugate()).real
        t = -zd + math.sqrt(zd * zd + 1.0 - abs(z) ** 2)
        return BoundaryPoint.from_angle(cmath.phase(z + t * d))
    s = (1.0 - abs(z) ** 2) / (2.0 * dot)
    c = z + s * n
    # the circle about c of radius |s| meets the unit circle at
    # c (1 +- i |s|) / |c|^2; the ray runs to the one ahead of p
    e1, e2 = (BoundaryPoint.from_angle(cmath.phase(c * (1 + 1j * r)))
              for r in (abs(s), -abs(s)))
    return e1 if ((e1.z - z) * d.conjugate()).real > 0 else e2


def tangent_at(circle: tuple[complex, float] | None, at: complex,
               toward: BoundaryPoint) -> complex:
    """Unit tangent of a geodesic at an incident point, oriented toward the
    given ideal endpoint; ``circle`` is its ``geodesic_circle``, None for a
    diameter.

    The arc of an orthogonal circle inside the disk subtends less than pi,
    so the correct orientation is the one making an acute angle with the
    chord to the target endpoint.
    """
    if circle is None:
        d = toward.z - at
        return d / abs(d)
    t = 1j * (at - circle[0])
    t /= abs(t)
    chord = toward.z - at
    if (t * chord.conjugate()).real < 0:
        t = -t
    return t


def block_glue_product(poly: MarkedPolygon, blk: Block) -> MoebiusPSU:
    """The transformation carrying the block's start corner to its end
    corner: the commutator b^-1 a^-1 b a for a quadruple (a applied first),
    the wedge gluing otherwise."""
    s = blk.side_start
    if blk.symbol == SQUARE:
        a, b_inv, a_inv, b = (poly.generators[s + i] for i in range(4))
        return b_inv @ a_inv @ b @ a
    return poly.generators[s]


def boundary_product(poly: MarkedPolygon) -> MoebiusPSU:
    """Product of all block gluings, first block applied first; fixes V_0."""
    total = MoebiusPSU.identity()
    for blk in poly.blocks:
        total = block_glue_product(poly, blk) @ total
    return total


def cusp_cycle(poly: MarkedPolygon) -> list[int]:
    """The sides j of the cusp cycle of V_0, from j = 0 on by j ->
    pairing[j] + 1; longer than N when it does not come back."""
    n, cycle = poly.n_sides, [0]
    while len(cycle) <= n and (j := (poly.pairing[cycle[-1]] + 1) % n):
        cycle.append(j)
    return cycle


def isometric_residuals(poly: MarkedPolygon) -> list[tuple[float, str]]:
    """Per side, the residual of ``isometric_circles`` from its own
    ``geodesic_circle``, and its reason when it is inf: 0.0 for a diameter
    side glued by a proper rotation about 0, inf for a side that breaks
    either rule."""
    out, n = [], poly.n_sides
    for i, gen in enumerate(poly.generators):
        circle = geodesic_circle(poly.aux[i].P, poly.aux[(i + 1) % n].Q)
        if circle is None:
            out.append((0.0, "") if abs(gen.b) < 1e-12
                       and abs(gen.trace) < 2.0 - DEFAULT.spectral
                       else (math.inf, ": bad diameter pairing"))
        elif abs(gen.b) < 1e-14:
            out.append((math.inf, ": no isometric circle"))
        else:
            c, r = circle
            res = (abs(-gen.a.conjugate() / gen.b.conjugate() - c)
                   + abs(1.0 / abs(gen.b) - r))
            out.append((max(res, abs(abs(c) ** 2 - r ** 2 - 1.0)), ""))
    return out


def landing_residuals(poly: MarkedPolygon) -> list[tuple[int, float]]:
    """(side, residual) of every landing of ``equal_distribution`` by
    ``apply_angle``: the steps of the cusp cycle of V_0, then g_i(P_i) on
    Q_{p+1} and g_i(Q_{i+1}) on P_p side by side."""
    n = poly.n_sides
    landings = [(j, poly.vertices[j].point,
                 poly.vertices[(poly.pairing[j] + 1) % n].point)
                for j in cusp_cycle(poly)]
    for i, p in enumerate(poly.pairing):
        landings += [(i, poly.aux[i].P, poly.aux[(p + 1) % n].Q),
                     (i, poly.aux[(i + 1) % n].Q, poly.aux[p].P)]
    return [(i, angular_distance(poly.generators[i].apply_angle(x.theta),
                                 y.theta)) for i, x, y in landings]


def scalar_validation(poly: MarkedPolygon) -> dict[str, Check]:
    """Checks ``isometric_circles``, ``free_combination``,
    ``parabolic_product`` and ``equal_distribution`` of ``validate_polygon``
    one side, one cap pair and one step at a time: each side's
    ``geodesic_circle``, the dense caps x caps overlap array, and
    ``apply_angle`` for every landing."""
    checks = {}
    n = poly.n_sides

    # the last side with an inf residual, else the first largest
    worst, detail = 0.0, ""
    for i, (res, why) in enumerate(isometric_residuals(poly)):
        if res > worst or res == math.inf:
            worst, detail = res, f"side {i}{why}"
    checks["isometric_circles"] = Check(worst, DEFAULT.residual, detail)

    caps = [DirectedArc.ccw(poly.aux[i].P, poly.aux[(i + 1) % n].Q)
            for i in range(n)]
    arcs = seam_split(np.array([c.start.theta for c in caps]),
                      np.array([c.sweep for c in caps]))
    overlap = _overlap_lengths(arcs[:, None], arcs)
    rows = np.arange(n)
    overlap[rows, rows] = 0.0
    overlap[rows, poly.pairing] = 0.0
    i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
    worst = float(overlap[i, j])
    checks["free_combination"] = Check(worst, DEFAULT.residual,
                                       f"sides {i} vs {j}" if worst > 0
                                       else "")

    cycle = cusp_cycle(poly)
    log_derivative = math.inf if len(cycle) > n else abs(sum(
        math.log(poly.generators[j].derivative_modulus(
            poly.vertices[j].point.z)) for j in cycle))
    checks["parabolic_product"] = Check(log_derivative, DEFAULT.spectral,
                                        f"log derivative {log_derivative:.2e}")

    worst, detail = 0.0, ""
    for i, res in landing_residuals(poly):
        if res > worst:
            worst, detail = res, f"side {i}"
    checks["equal_distribution"] = Check(worst, DEFAULT.residual, detail)
    return checks


def bisector_endpoint(poly: MarkedPolygon, k: int) -> BoundaryPoint:
    """Ideal endpoint of the bisector of the angle P_k V_k Q_k.

    Independent of the arc-midpoint construction of M_k; used to cross-check
    it.  The two side rays at V_k point away from P_k and Q_k, so the
    bisector of P V Q is the geodesic from V_k whose tangent halves the
    angle between the tangents toward P_k and Q_k.
    """
    v = poly.vertices[k % poly.n_sides]
    if v.is_ideal:
        raise NotElliptic(f"vertex {k} is ideal")
    n = poly.n_sides
    x = poly.aux[k % n]
    # side k - 1 runs from P_{k-1} to Q_k, side k from P_k to Q_{k+1}
    t_q = tangent_at(geodesic_circle(poly.aux[(k - 1) % n].P, x.Q),
                     v.point.z, x.Q)
    t_p = tangent_at(geodesic_circle(x.P, poly.aux[(k + 1) % n].Q),
                     v.point.z, x.P)
    d = t_p + t_q
    if abs(d) < 1e-9:
        # opposite rays (order 2): both normals bisect; pick the one whose
        # endpoint lies on the arc [P, Q]
        for cand in (1j * t_p, -1j * t_p):
            e = geodesic_from_direction(v.point, cand)
            if (e.theta - x.P.theta) % TAU <= (x.Q.theta - x.P.theta) % TAU:
                return e
        raise ValueError("no bisector endpoint found on [P, Q]")
    return geodesic_from_direction(v.point, d / abs(d))


# -- orbit walks and the Markov refinement ------------------------------------


def _nearest(theta: float, anchors: list[float]) -> tuple[int, float]:
    """Index of the anchor circularly nearest to ``theta``, and its distance;
    (-1, inf) when there is none.

    ``anchors`` is sorted in [0, 2pi).  Bisection puts theta on the circular
    arc from anchor i - 1 to anchor i, and the nearer end of that arc is the
    nearest anchor; the lower end wins a tie.
    """
    if not anchors:
        return -1, math.inf
    n = len(anchors)
    i = bisect.bisect_left(anchors, theta)
    best, err = -1, math.inf
    for j in ((i - 1) % n, i % n):
        d = angular_distance(theta, anchors[j])
        if d < err:
            best, err = j, d
    return best, err


@dataclass(frozen=True)
class OrbitRecord:
    start: BoundaryPoint
    side: str                       # "upper" | "lower"
    points: tuple[BoundaryPoint, ...]
    periodic_from: int | None       # index into points of the revisited entry
    budget_exceeded: bool

    def distinct_count(self) -> int:
        return len(self.points)


# full walks by (signature, cut angles, start angle, side, budget): two
# tests walk the same 40;;1 orbits in full
_FULL_WALKS: dict[tuple, OrbitRecord] = {}


def orbit(poly: MarkedPolygon, part: Partition, x: BoundaryPoint,
          side: str = "upper", max_steps: int = 10_000) -> OrbitRecord:
    """Forward orbit of ``x``, with the first step resolved by ``side`` when
    ``x`` is a cut point, walked in full until it revisits a point:
    ``walk_reference`` without the stop at a cut."""
    return walk_reference(poly, part, x, side, max_steps, False)


def walk_reference(poly: MarkedPolygon, part: Partition, x: BoundaryPoint,
                   side: str, max_steps: int,
                   stop_at_cut: bool) -> OrbitRecord:
    """The orbit of ``x`` one ``BoundaryPoint`` at a time through
    ``f_apply``, snapped onto the cuts and onto the points seen before, up
    to the first revisit; ``stop_at_cut`` also stops before the first cut
    it hits, as the walks of ``markov_check`` do.  A full walk is computed
    once per key of ``_FULL_WALKS``; the record is frozen, so callers share
    it."""
    if stop_at_cut:
        return _walk(poly, part, x, side, max_steps, True)
    key = (str(poly.signature), part.thetas, x.theta, side, max_steps)
    if key not in _FULL_WALKS:
        _FULL_WALKS[key] = _walk(poly, part, x, side, max_steps, False)
    return _FULL_WALKS[key]


def _walk(poly: MarkedPolygon, part: Partition, x: BoundaryPoint, side: str,
          max_steps: int, stop_at_cut: bool) -> OrbitRecord:
    cuts = sorted(set(part.thetas))
    k = part.cell_of(x.theta)
    if side == "lower":
        # the last nonempty cell ending at x, if x is a cut
        d, i = min((angular_distance(part.lifted[i + 1], x.theta), -i)
                   for i in range(part.n)
                   if part.lifted[i] < part.lifted[i + 1])
        if d < STRUCTURAL:
            k = -i
    cur = poly.generators[k].apply_boundary(x)
    points: list[BoundaryPoint] = []
    index_of: dict[float, int] = {}
    seen_sorted: list[float] = []
    periodic_from, budget = None, False
    for _ in range(max_steps):
        t = cur.theta
        j, d = _nearest(t, cuts)
        if d < STRUCTURAL:
            if stop_at_cut:
                break
            t = cuts[j]
        j, d = _nearest(t, seen_sorted)
        if d < SAME_POINT:
            periodic_from = index_of[seen_sorted[j]]
            break
        cur = BoundaryPoint.from_angle(t)
        points.append(cur)
        index_of[t] = len(points) - 1
        bisect.insort(seen_sorted, t)
        _, cur = f_apply(poly, part, cur)
    else:
        budget = True
    return OrbitRecord(x, side, tuple(points), periodic_from, budget)


def matching_walk(poly: MarkedPolygon, part: Partition, k: int, J: int,
                  I: int, degenerate: bool) -> float:
    """``boundary._matching_residual`` one ``BoundaryPoint`` at a time
    through ``f_apply``: J + 1 lower and I + 1 upper steps from the cut point
    of vertex ``k``, their distance, or on a degenerate cycle with an upper
    orbit the distances to the preceding and the following vertex."""
    a = part.points[k]
    n = poly.n_sides
    up = poly.generators[k].apply_boundary(a)
    low = poly.generators[(k - 1) % n].apply_boundary(a)
    for _ in range(I):
        _, up = f_apply(poly, part, up)
    for _ in range(J):
        _, low = f_apply(poly, part, low)
    if degenerate and poly.vertices[k].order - 3 - J >= 0:
        hi = poly.vertices[(k + 1) % n].point.theta
        lo = poly.vertices[(k - 1) % n].point.theta
        return max(angular_distance(up.theta, hi),
                   angular_distance(low.theta, lo))
    return angular_distance(up.theta, low.theta)


def transition_ends(poly: MarkedPolygon, part: Partition,
                    refined: list[float]) -> list[tuple[int, float, int, float]]:
    """(ilo, elo, ihi, ehi) per interval of ``refined``: the refinement
    points nearest to the images of its two ends under its cell's gluing,
    by a scan of every point (the lowest index wins a tie), and their
    distances."""
    def nearest(theta):
        return min((angular_distance(theta, a), i)
                   for i, a in enumerate(refined))

    ends, r = [], len(refined)
    for i in range(r):
        lo, hi = refined[i], refined[(i + 1) % r]
        g = poly.generators[part.cell_of((lo + 0.5 * ((hi - lo) % TAU)) % TAU)]
        elo, ilo = nearest(g.apply_angle(lo))
        ehi, ihi = nearest(g.apply_angle(hi))
        ends.append((ilo, elo, ihi, ehi))
    return ends


def circular_run(ilo: int, ihi: int, r: int) -> list[int]:
    """The intervals from ``ilo`` up to, not including, ``ihi``, counted
    mod ``r``; ``[ilo]`` when the two are equal."""
    return [j % r for j in range(ilo, ilo + (ihi - ilo) % r)] or [ilo]


def markov_reference(poly: MarkedPolygon, part: Partition,
                     max_steps: int = 10_000, stop_at_cut: bool = True) -> dict:
    """``markov_check(poly, part, max_steps).to_dict()`` from
    ``walk_reference``, ``transition_ends`` and ``circular_run``.  With
    ``stop_at_cut=False`` every cut-point orbit is walked until it revisits
    a point, and ``orbit_sizes`` counts whole orbits."""
    pts, sizes = list(part.thetas), {}
    for k in range(part.n):
        for side in ("upper", "lower"):
            rec = walk_reference(poly, part, part.points[k], side, max_steps,
                                 stop_at_cut)
            sizes[f"{k}:{side}"] = rec.distinct_count()
            if rec.budget_exceeded:
                return MarkovReport([], [], sizes, checks={
                    "orbits_finite": Check(1, 1, f"orbit {k}:{side}"),
                    "endpoints": Check(math.inf, DEFAULT.residual,
                                       "not measured")}).to_dict()
            pts.extend(p.theta for p in rec.points)

    refined: list[float] = []
    for t in sorted(t % TAU for t in pts):
        if not refined or t - refined[-1] > SAME_POINT:
            refined.append(t)
    if refined and (TAU - refined[-1]) + refined[0] <= SAME_POINT:
        refined.pop()

    ends, r = transition_ends(poly, part, refined), len(refined)
    runs = [circular_run(ilo, ihi, r) for ilo, _, ihi, _ in ends]
    worst = max((max(elo, ehi) for _, elo, _, ehi in ends), default=0.0)
    return MarkovReport(refined, runs, sizes, checks={
        "orbits_finite": Check(0, 1),
        "endpoints": Check(worst, DEFAULT.residual)}).to_dict()


def markov_full_walk(poly: MarkedPolygon, part: Partition,
                     max_steps: int = 10_000) -> dict:
    """``markov_check(poly, part, max_steps).to_dict()`` without
    ``orbit_sizes``, with every cut-point orbit walked until it revisits a
    point (or hits ``max_steps``, which fails at once)."""
    out = markov_reference(poly, part, max_steps, stop_at_cut=False)
    del out["orbit_sizes"]
    return out


# -- group growth and Markov entropy ------------------------------------------


def growth_rate(sig) -> float:
    """Log growth rate of the group of ``sig`` in its side-pairing
    generators: the free product of 2g + t - 1 copies of Z and of Z/m for
    each order m.  Its growth series f has 1/f = sum 1/f_i - (k - 1) over
    the k factors, with f_Z = (1 + x)/(1 - x) and f_Z/m = 1 + 2x + ... +
    2x^((m-1)/2) for odd m, 1 + 2x + ... + 2x^(m/2-1) + x^(m/2) for even m.
    Returns -log x* for the smallest root x* in (0, 1), by bisection (the
    sum decreases from 1 at x = 0)."""
    def f_cyclic(m, x):
        return (1 + 2 * sum(x ** j for j in range(1, (m + 1) // 2))
                + (x ** (m // 2) if m % 2 == 0 else 0))

    free = 2 * sig.genus + sig.cusps - 1
    k = free + len(sig.orders)

    def excess(x):
        return (free * (1 - x) / (1 + x)
                + sum(1 / f_cyclic(m, x) for m in sig.orders) - (k - 1))

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return -math.log(lo)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)


def markov_entropy(report: MarkovReport) -> float:
    """Log spectral radius of the 0/1 matrix of ``report.transitions``,
    interval i to each interval its image covers."""
    r = len(report.transitions)
    a = np.zeros((r, r))
    for i, run in enumerate(report.transitions):
        a[i, run] = 1.0
    return math.log(max(abs(np.linalg.eigvals(a))))


# -- the breakpoint-window membership kernel ----------------------------------


class ReferenceKernel:
    """The membership half of the kernel whose breakpoint table holds each
    w-arc's ends widened by ``STRUCTURAL + WRAP``: every interval lists the
    rectangles whose widened arc holds it, and each candidate is tested on
    both coordinates."""

    def __init__(self, poly: MarkedPolygon, part: Partition,
                 *lists: RectArray):
        tol, r = STRUCTURAL, STRUCTURAL + WRAP
        # x(start - r), x(end + r) of each widened w-arc, -inf if it is full
        ends = [cayley(np.where(rs.sweep[:, 1] + 2 * r >= TAU, 0.0, np.mod(
            [rs.theta[:, 2] - r, rs.theta[:, 2] + rs.sweep[:, 1] + r], TAU)))
            for rs in lists]
        cuts = cayley(part.lifted[:part.n])
        self.breaks = _breakpoints(np.concatenate(
            [[-np.inf], cuts, *(e.ravel() for e in ends)]))
        # left ends, indexed as locate counts; index 0 (w < 0) is never read
        self.cell = two_lookup_cell(part, np.concatenate(
            [self.breaks[:1], self.breaks]), cayley)
        a = np.array([poly.generators[c].a for c in self.cell])
        b = np.array([poly.generators[c].b for c in self.cell])
        self.coef = np.stack([a.real + b.real, a.imag - b.imag,
                              -(a.imag + b.imag), a.real - b.real])
        nb = len(self.breaks)
        self.cand, self.table = [], []
        for rs, e in zip(lists, ends):
            # the arc from breaks[ia] to breaks[ib] holds the intervals ia + 1
            # to ib, wrapping from nb to 1, all if ia = ib; rows in order
            ia, ib = np.searchsorted(self.breaks, e)[:, :, None]
            holds = (np.arange(nb + 1) - ia - 1) % nb < (ib - ia - 1) % nb + 1
            holds[:, 0] = False
            row = np.argsort(~holds, axis=0, kind="stable")
            row = row[:np.count_nonzero(holds, axis=0).max()]
            cand = np.where(np.take_along_axis(holds, row, 0), row, -1)
            # rows lo of u, w and hi of u, w, (-inf, inf) for an arc widened
            # to the whole circle; column -1 pads with NaN
            lo, sweep = rs.theta[:, 0::2].T - tol, rs.sweep.T + 2 * tol
            edges = np.full((4, len(rs) + 1), np.nan)
            edges[:, :-1] = cayley(np.vstack([lo, lo + sweep]) % TAU)
            edges[:2, :-1][sweep >= TAU] = -np.inf
            edges[2:, :-1][sweep >= TAU] = np.inf
            self.cand.append(cand)
            self.table.append([(edges[:, c], edges[:2, c] <= edges[2:, c])
                               for c in cand])

    def locate(self, xw: np.ndarray) -> np.ndarray:
        """Table index j of each w-coordinate."""
        return np.searchsorted(self.breaks, xw, side="right")

    def _test(self, row, j, x):
        """Mask of the states x in the row's candidates of intervals j."""
        col, nw = (t.take(j, axis=1) for t in row)
        return ((x >= col[:2]) ^ (x <= col[2:]) ^ nw).all(axis=0)

    def inside(self, i: int, j, x: np.ndarray) -> np.ndarray:
        """Mask of the states x, w in intervals j, in list i: each state on
        its candidates in turn, until one holds it or none is left."""
        cand, table = self.cand[i], self.table[i]
        ok = self._test(table[0], j, x)
        if ok.all():
            return ok
        todo = np.flatnonzero(~ok)
        for k in range(1, len(table)):
            todo = todo[cand[k, j[todo]] >= 0]
            if todo.size == 0:
                break
            hit = self._test(table[k], j[todo], x[:, todo])
            ok[todo[hit]] = True
            todo = todo[~hit]
        return ok


def candidates_reference(breaks: np.ndarray, rs: RectArray) -> np.ndarray:
    """``cand`` of ``extension._Kernel`` for the list ``rs`` on the
    breakpoint table ``breaks``, from a rectangles x intervals mask of the
    w-arcs, widened by ``STRUCTURAL``, that hold each interval's left end,
    read down its columns by an ``argsort``."""
    tol = STRUCTURAL
    lo, sweep = rs.theta[:, 0::2].T - tol, rs.sweep.T + 2 * tol
    lo, hi = cayley(np.stack([lo, lo + sweep]) % TAU)
    lo[sweep >= TAU], hi[sweep >= TAU] = -np.inf, np.inf
    left = np.concatenate([breaks[:1], breaks])
    nw = lo <= hi
    # an interval is on a w-arc exactly when its left end is
    holds = ((left >= lo[1, :, None]) ^ (left <= hi[1, :, None])
             ^ nw[1, :, None])
    holds[:, 0] = False
    row = np.argsort(~holds, axis=0, kind="stable")
    row = row[:np.count_nonzero(holds, axis=0).max()]
    return np.where(np.take_along_axis(holds, row, 0), row, -1)


def moebius_reference(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(p x + q) / (r x + s) of the states x, for rows p, q, r, s of
    ``coef``, under the caller's ``np.errstate(all="ignore")``: a zero
    denominator gives the seam +-inf, and the seam, whose quotient is inf /
    inf, maps to p / r.  Numerator and denominator take one multiply-add."""
    a = coef[0:4:2] * x[:, None]
    a += coef[1:4:2]
    y = a[:, 0] / a[:, 1]
    seam = np.isnan(y)
    if seam.any():
        y[seam] = np.broadcast_to(coef[0] / coef[2], y.shape)[seam]
    return y


def kernel_step(kern, x: np.ndarray, j: np.ndarray):
    """One step of the loops of ``extension._Kernel``, under their error
    state: the states x, w in intervals j, mapped by w's cell, and their
    j."""
    with np.errstate(all="ignore", invalid="raise"):
        y = _moebius(x, kern.glue.take(j, axis=1))
    return y, kern.locate(y[1])


def kernel_reference(poly: MarkedPolygon, part: Partition, rs: RectArray,
                     x: np.ndarray) -> np.ndarray:
    """Membership verdicts of ``ReferenceKernel`` on the Cayley coordinates
    x (2 x N) of states, for the one rectangle list ``rs``."""
    kern = ReferenceKernel(poly, part, rs)
    return kern.inside(0, kern.locate(x[1]), x)


# -- exceptional rectangles ---------------------------------------------------


def exceptional_set(poly: MarkedPolygon, part: Partition,
                    k: int) -> list[Rect]:
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
                _overlap_lengths(u[s:s + _PIECES, None], dom_u)
                * _overlap_lengths(w[s:s + _PIECES, None], dom_w)).sum(axis=1)
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
