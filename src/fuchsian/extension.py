"""Two-dimensional natural extension and its rectangular attractor.

States are pairs (u, w) of distinct boundary points; one step applies the
gluing of the cell containing w to both coordinates.  The attractor is a
finite union of closed arc-rectangles, one horizontal strip per building
block, each strip the diagonal-rotation image of a standard-position strip.
Membership on rectangle edges counts as inside; all tiling statements hold
up to angular measure zero.  The strip of an order >= 3 block is a fan cut
by the rotation orbits of the block's cut point, which ``_fan`` computes;
what does not depend on the cuts (the other strips, the fans' corner
orbits, the gluing coefficients) is read from the polygon's tables.
Simulations hash their start states and run one kernel built per call.

The record ``DEFAULT`` sets only the bounds of the checks: the rectangles,
the tiling test and the membership slack use the fixed constants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tolerances import DEFAULT, SAME_POINT, STRUCTURAL, WRAP, Check, Report
from .arcs import (DirectedArc, Rect, RectArray, _breakpoints, _meeting,
                   _moebius, _overlap_lengths, _runs, _seam, cayley,
                   cayley_angle, clip_intervals, seam_split)
from .boundary import CycleData, Partition, cycle
from .errors import TilingViolation
from .mobius import TAU
from .polygon import Block, MarkedPolygon


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


def _fan(poly: MarkedPolygon, part: Partition, blk: Block):
    """Cycle data and rotation orbits of the cut point a of an order >= 3
    block with corners ``start`` and ``end``; c^j is ``rotation_powers``.

    ``low_w`` = c^j(a) for j = 0..J, then ``start``; ``up_w`` = c^{-i}(a) for
    i = 0..I, then ``end``: consecutive points bound the w-arcs of the lower
    and upper fan.  ``low_u`` = c^j(end), j = 0..J, and ``up_u`` =
    c^{-i}(start), i = 0..I, the matching corner orbits, bound their u-arcs:
    the first J + 1 and I + 1 of the polygon's ``corner_orbits``, whose
    zeroth powers are the corners themselves.
    """
    k = blk.side_start + 1
    data = cycle(poly, part, k)
    a = part.points[k]
    low_u, up_u = poly.corner_orbits[blk.index]
    start, end = up_u[0], low_u[0]
    low_w = [a, *data.lower_points[:data.J], start]
    up_w = [a, *data.upper_points[:data.I], end]
    return data, start, end, low_w, up_w, low_u[:data.J + 1], up_u[:data.I + 1]


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

    A quadruple, cusp or order-2 block has a uniform strip: count = 4, 2 or
    1 equal w-arcs of width h = ``Block.sweep`` / count tiling the block's
    sector, each under the u-arc of sweep 2pi - h that starts where its w-arc
    ends.  It does not depend on the cut points, so every partition reads
    the same ``Rect`` objects from the polygon's ``uniform_strips``.  An
    order m >= 3 block has the fan of ``_elliptic_strip``, I + J + 2
    rectangles (m generically, m - 1 when the block's cycle is degenerate).
    Raises ``TilingViolation`` when the strips' w-arcs do not tile the
    circle.
    """
    strips: list[tuple[Rect, ...]] = []
    info: list[StripInfo] = []
    for blk, rects in zip(poly.blocks, poly.uniform_strips):
        data = None
        if rects is None:
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
    circle and their sweeps sum to 2pi: a check of the construction, which
    the membership kernel does not rely on."""
    arcs = sorted((r.w_arc.start.theta, r.w_arc.sweep) for r in rects)
    total = math.fsum(sweep for _, sweep in arcs)
    gap = max(abs((nxt - start - sweep + math.pi) % TAU - math.pi)
              for (start, sweep), (nxt, _) in zip(arcs, arcs[1:] + arcs[:1]))
    if abs(total - TAU) > SAME_POINT or gap > SAME_POINT:
        raise TilingViolation(f"w-sweeps sum to 2pi {total - TAU:+.3g}, "
                              f"largest junction gap {gap:.3g}")


# -- imaging and bijectivity ---------------------------------------------------

def _normalize(theta: np.ndarray) -> np.ndarray:
    """``normalize_angle`` of each angle."""
    t = np.mod(theta, TAU)
    t[t >= TAU - WRAP] = 0.0
    return t


def _split(ws: np.ndarray, we: np.ndarray, sweep: np.ndarray,
           cuts: np.ndarray):
    """Row, start and end angle, and sweep of each piece of the w-arcs from
    ws to we, in row order and along each arc.

    An arc is cut at each of the sorted ``cuts`` whose lift in [cuts, cuts
    + 2pi] lies more than 1e-11 past ws and more than 1e-11 before ws +
    sweep, each sum rounded: a run of the lifted cuts.  An arc without inner
    cuts is one piece of its own sweep; pieces of a cut arc under 1e-13 are
    dropped.
    """
    lifted = np.concatenate([cuts, cuts + TAU])
    row, k = _runs(np.searchsorted(lifted, ws + 1e-11, side="right"),
                   np.searchsorted(lifted, ws + sweep - 1e-11))
    count = np.bincount(row, minlength=len(ws))
    rows = np.repeat(np.arange(len(ws)), count + 1)
    lo, hi = ws[rows], we[rows]
    # the piece ending at the i-th cut of all arcs is piece i + row
    at = np.arange(len(k)) + row
    hi[at] = lo[at + 1] = cuts[k % len(cuts)]
    whole = count[rows] == 0
    out = np.where(whole, sweep[rows], (hi - lo) % TAU)
    keep = whole | (out >= 1e-13)
    return rows[keep], lo[keep], hi[keep], out[keep]


def image_rects(poly: MarkedPolygon, part: Partition,
                rs: RectArray) -> RectArray:
    """Forward images of the rectangles, each split at the cut points inside
    its w-arc so that one gluing carries each piece; pieces come in row
    order and along each w-arc.

    A cut within 1e-11 of an end of the w-arc is not inside it, and pieces
    under 1e-13 are dropped.  Each piece takes the gluing of the cell
    (``Partition.cells_of``) of its midpoint and maps the stored endpoints of
    both arcs by it on their ``cayley`` coordinates, as ``apply_angle``
    does; a full arc stays full, from the image of its start.
    Raises ``ValueError`` for an arc of sweep at most ``WRAP``, as
    ``DirectedArc`` does.
    """
    cuts = np.array(part.cuts)
    rows, lo, hi, sweep = _split(*rs.theta[:, 2:].T, rs.sweep[:, 1], cuts)
    cell = part.cells_of(_normalize(lo + 0.5 * sweep))
    coef = poly.gluing_table.take(cell, axis=1)
    # rows u-start, u-end, w-start, w-end
    x = cayley(np.array([*rs.theta[rows, :2].T, lo, hi]))
    with np.errstate(all="ignore"):
        img = _normalize(cayley_angle(_seam(_moebius(x, coef), coef))).T
    start, end = img[:, 0::2], img[:, 1::2]
    full = np.column_stack([rs.sweep[rows, 0], sweep]) >= TAU - WRAP
    out = np.where(full, TAU, (end - start) % TAU)
    if not ((sweep > WRAP).all() and (out > WRAP).all()):
        raise ValueError("an imaged arc has sweep at most WRAP")
    img[:, 1::2] = np.where(full, _normalize(start + TAU), end)
    return RectArray(img, out, rs.block[rows], cell)


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


# an interval's start adds its weight to the cover's slope, its end takes it
_ENDS = np.array([[1.0, -1.0], [1.0, -1.0]])
# image x (image or gap) row pairs met in one slice of verify_bijectivity
_PAIRS = 1 << 21


def _cover(x: np.ndarray, weight: np.ndarray):
    """Breakpoints t and values G(t) of the cumulative cover G(t) = sum_k
    weight_k |[0, t] and x_k| of the padded rows x, linear between them: its
    slope past each breakpoint is the summed weight of the intervals that
    started and have not ended (ties add G nothing, in any order)."""
    t = x.ravel()
    order = np.argsort(t)
    slope = np.cumsum((weight[:, None, None] * _ENDS).ravel()[order])
    t = t[order]
    return t, np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(t))))


@np.errstate(under="ignore")
def verify_bijectivity(poly: MarkedPolygon, part: Partition,
                       dom: AttractorDomain) -> BijectivityReport:
    """Check that the extension permutes the rectangle union.

    Verifies (i) forward images are pairwise interior-disjoint, (ii) their
    union reproduces the domain up to measure zero, and (iii) each block's
    horizontal strip maps exactly onto the domain's vertical band over that
    block's sector: block b's residual is |images_b xor (domain and
    band_b)|.

    Every rectangle is imaged in one pass.  With domain rectangles R_r,
    images I_i, block b's band B_b = [base_angle, base_angle +
    ``Block.sweep``] x S (the polygon's ``block_bands``), and I_i^b image i
    with its u-intervals clipped to its own block's band, |A xor B| = |A| +
    |B| - 2 |A and B|, each union expanded by inclusion-exclusion to its
    pairwise terms, gives

        sym = sum_r |R_r| + sum_i |I_i| - 2 sum_i,r |I_i and R_r|
              + sum_i<j |I_i and I_j|,
        strip_b = sum_r |R_r and B_b|
                  + sum_i in b (|I_i| - 2 sum_r |I_i^b and R_r|)
                  + sum_i<j in b |I_i and I_j|,

    so an image's part outside its band counts to its block.  The strip's
    pair term is the unclipped pair product of ``sym``, read off at the
    pairs of one block: |I_i and I_j| >= |I_i^b and I_j^b|, equal when two
    images of one block meet only inside its band, so it can only raise a
    residual.  Each intersection is the product of a u- and a w-overlap
    (``_overlap_lengths``).

    Only pairs that meet in u are formed.  Row r = U_r x W_r has the u-gap
    G_r = S - U_r and the gap rectangle C_r = G_r x W_r.  U_r and G_r split
    the circle, so |U_i and U_r| = |U_i| - |U_i and G_r|, and for any row
    list, tiled or not,

        sum_r |I_i and R_r| = |U_i| sum_r |W_i and W_r|
                              - sum_r |I_i and C_r|.

    With the cover G(t) = sum_r |[0, t] and W_r|, which is piecewise linear
    with the domain's w-interval ends as breakpoints (``_cover``: one sort
    and two running sums), sum_r |[a, b] and W_r| = G(b) - G(a), read by
    ``np.interp`` at the ends of each interval [a, b] of W_i.  The gap sum
    and the image pairs i < j run over the pairs whose u-intervals overlap
    by a positive length (``_meeting``), and of those the pairs that meet
    in w too: images are narrow in u, and so are the gaps of the wide
    domain u-arcs.  The clipped sums are the same with I_i^b, and the band
    term sum_r |R_r and B_b| is the cover of the domain's u-intervals, each
    weighted by its row's w-sweep, across the band.  Each pair's overlaps
    are taken in the order of ``_overlap_lengths``, earlier image's
    intervals outer, so the largest pair product, ``image_overlap``, is the
    scalar pair loop's to the bit.

    The sums are exact when the domain rectangles are disjoint (their
    w-arcs tile the circle, which ``build_attractor`` checks) and no three
    images share area.  Then the exact measure is the sum less 2 (P - P_D),
    for P the summed pair overlaps and P_D <= P their parts in the domain:
    a pair overlap outside the domain only raises a residual.  Three images
    over one point overlap pairwise by at least that area, which
    ``image_overlap`` bounds.  A product of two overlap lengths can
    underflow, as at an arc end at a subnormal angle; underflow is ignored
    whatever the caller's error state.
    """
    rs = dom.arrays
    images = image_rects(poly, part, rs)
    n = len(images)
    u, w = images.intervals()
    du, dw = rs.intervals()
    # no band crosses the seam: each is its first interval
    bands = poly.block_bands
    uc = clip_intervals(u, bands[images.block, :1])
    gap = seam_split(rs.theta[:, 0] + rs.sweep[:, 0], TAU - rs.sweep[:, 0])

    # per image: |U_i| and |U_i^b| times sum_r |W_i and W_r|
    ends = np.interp(w, *_cover(dw, np.ones(len(dw))))
    both = np.array([u, uc])
    spans = (np.maximum(both[..., 1] - both[..., 0], 0.0).sum(axis=2)
             * (ends[..., 1] - ends[..., 0]).sum(axis=1))

    # image i against image k < n with i < k, or against the gap C_{k - n},
    # met in u and then in w by slices of at most _PAIRS row pairs
    other, wo = np.concatenate([u, gap]), np.concatenate([w, dw])
    rows, found = max(1, _PAIRS // len(other)), []
    for s in range(0, n, rows):
        i, k = _meeting(u[s:s + rows], other)
        i += s
        lw = _overlap_lengths(w[i], wo[k])
        keep = (lw > 0.0) & ((k >= n) | (i < k))
        found.append((i[keep], k[keep], lw[keep]))
    i, k, lw = map(np.concatenate, zip(*found))
    lu, lc = _overlap_lengths(both[:, i], other[k])
    pair = lu * lw
    later = k < n
    overlap = float(pair[later].max(initial=0.0))
    # a gap pair reads some image's block, and is masked off
    same = later & (images.block[i] == images.block[np.minimum(k, n - 1)])

    sym = float(rs.area.sum() + (images.area - 2.0 * spans[0]).sum()
                + np.where(later, pair, 2.0 * pair).sum())
    band = np.interp(bands[:, 0], *_cover(du, rs.sweep[:, 1]))
    strip = (band[:, 1] - band[:, 0]
             + np.bincount(np.concatenate([images.block, images.block[i]]),
                           np.concatenate([images.area - 2.0 * spans[1],
                                           np.where(later, same * pair,
                                                    2.0 * lc * lw)]),
                           minlength=len(bands)))
    strip_res = strip.tolist()

    return BijectivityReport(
        str(poly.signature), part.mode, dom.guarantee, strip_res, checks={
            "image_overlap": Check(overlap, DEFAULT.overlap),
            "symmetric_difference": Check(sym, DEFAULT.residual),
            "strip_residuals": Check(max(strip_res, default=0.0),
                                     DEFAULT.residual)})


# -- escape set ---------------------------------------------------------------


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


# -- simulation ----------------------------------------------------------------


class EntryTrace(NamedTuple):
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


def _on_arc(x: np.ndarray, lo, hi, nw) -> np.ndarray:
    """Mask of the coordinates x on the arcs with edges lo, hi and nw as
    0 or 1."""
    return ((x >= lo) ^ (x <= hi)) != nw


# state-steps that check_forward_invariance judges in one membership pass
_BLOCK = 4096


class _Kernel:
    """The vectorized step-and-membership kernel of the planar extension.

    A state is a column of a C-ordered 2 x N array of the ``cayley``
    coordinates x of (u, w), stepped as the flat [u; w]; a gluing acts by
    the real map x -> (p x + q) / (r x + s) of determinant 1 (see README),
    so no step renormalises.  Every arc of a rectangle list is closed and
    widened by ``STRUCTURAL``: its edges are lo = x(start - tol), hi = x(end
    + tol), (-inf, inf) for an arc widened to the whole circle, and nw = lo
    <= hi, false where it holds the seam; x is on it when (x >= lo) ^ (x <=
    hi) ^ nw.  ``breaks`` sorts the x of 0, of the lifted cuts, and of each
    w-arc's lo and the float after its hi, so each interval [breaks[j - 1],
    breaks[j]) of w (``locate``) lies wholly on or off every w-arc, and a
    w-arc holds one run of intervals, cyclic past the seam, found by two
    ``searchsorted``; column j of a list's ``cand`` holds exactly the rows
    whose run holds j, ascending (-1 pads): a state is inside when its u is
    on one of them.  Column j of ``glue`` holds the (p, q, r, s) of its
    cell, and per list, ``edges[k]`` holds the lo, hi and nw of the u-arc
    of the k-th candidate of each column (NaN, NaN, 0 on the pads, which
    hold no u); ``inside`` judges any batch of state-steps.  These are the
    verdicts of every rectangle, tiled or not.  At w = 2pi the kernel takes
    the last cell, ``cell_of`` cell 0.
    """

    def __init__(self, poly: MarkedPolygon, part: Partition,
                 *lists: RectArray):
        tol = STRUCTURAL
        # per list, arc edges lo and hi, each with rows u and w
        arcs = []
        for rs in lists:
            lo, sweep = rs.theta[:, 0::2].T - tol, rs.sweep.T + 2 * tol
            lo, hi = cayley(np.array([lo, lo + sweep]) % TAU)
            lo[sweep >= TAU], hi[sweep >= TAU] = -np.inf, np.inf
            arcs.append((lo, hi))
        cuts = cayley(part.lifted[:part.n])
        self.breaks = _breakpoints(np.concatenate([[-np.inf], cuts, *(
            e for lo, hi in arcs
            for e in (lo[1], np.nextafter(hi[1], np.inf)))]))
        # left ends, indexed as locate counts; index 0 (w < 0) is never read
        left = np.concatenate([self.breaks[:1], self.breaks])
        # the last lifted cut at or before each left end
        self.cell = np.maximum(cuts.searchsorted(left, side="right") - 1, 0)
        # C-ordered, as each step's take needs; [:, cell] is Fortran-ordered
        self.glue = poly.gluing_table.take(self.cell, axis=1)
        n = len(left)
        self.cand, self.edges = [], []
        for lo, hi in arcs:
            nw = lo <= hi
            # an interval is on a w-arc exactly when its left end is, so a
            # w-arc holds a run of intervals, lifted by n - 1 past the seam
            row, j = _runs(np.maximum(np.searchsorted(left, lo[1]), 1),
                           np.searchsorted(left, hi[1], side="right")
                           + np.where(nw[1], 0, n - 1))
            j = (j - 1) % (n - 1) + 1
            # by interval, rows ascending; each entry's rank in its column
            order = np.argsort(j, kind="stable")
            row, j = row[order], j[order]
            depth = np.bincount(j, minlength=n)
            cand = np.full((depth.max(), n), -1)
            cand[np.arange(len(j)) - (np.cumsum(depth) - depth)[j], j] = row
            # u-edges lo, hi, nw of each candidate; column -1 pads
            u = np.concatenate(([lo[0], hi[0], nw[0]],
                                [[np.nan], [np.nan], [0]]), axis=1)
            self.cand.append(cand)
            self.edges.append(np.ascontiguousarray(
                u[:, cand].transpose(1, 0, 2)))

    def locate(self, xw: np.ndarray) -> np.ndarray:
        """Table index j of each w-coordinate."""
        return self.breaks.searchsorted(xw, side="right")

    def start(self, ang: np.ndarray):
        """C-ordered states at angles ``ang`` (2 x N) and their j."""
        x = cayley(np.ascontiguousarray(ang))
        return x, self.locate(x[1])

    def inside(self, i: int, j, u: np.ndarray) -> np.ndarray:
        """Mask of the states with u-coordinates u and w in intervals j, in
        list i: u on the candidates of j in turn, until one holds it or none
        is left."""
        cand, edges = self.cand[i], self.edges[i]
        ok = _on_arc(u, *edges[0].take(j, axis=1))
        # count_nonzero costs a third of ok.all()
        if np.count_nonzero(ok) == ok.size:
            return ok
        todo = np.flatnonzero(~ok)
        for k in range(1, len(edges)):
            todo = todo[cand[k, j[todo]] >= 0]
            if todo.size == 0:
                break
            hit = _on_arc(u[todo], *edges[k].take(j[todo], axis=1))
            ok[todo[hit]] = True
            todo = todo[~hit]
        return ok


def simulate_entry(poly: MarkedPolygon, part: Partition, dom: AttractorDomain,
                   samples: int, seed: int, max_iters: int = 100_000,
                   buffer: float = 1e-6) -> list[EntryTrace]:
    """Iterate random plane points until they enter the attractor.

    Sampling is uniform in both angles outside a diagonal buffer, from the
    SplitMix64 hash of (seed, sample index, retry), so a sample depends on
    the non-negative integer seed and its index alone.  A sample that starts
    inside records its drawn angles as its entry.  A sample stays live until
    it has entered the attractor and left the escape set; each step maps
    their flat [u; w] by the gluing rows ``_Kernel.glue`` gathered at the
    doubled intervals of w, one ``_Kernel.inside`` call per list judges
    entry and escape, and the live states and their two wait masks are
    compacted only after a step on which one stopped waiting.
    The loop sets its own error state (``_moebius``), so the caller's
    changes nothing.  Raises ``ValueError`` for negative ``max_iters``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    # a draw is kept when angular_distance >= buffer, with odds 1 - buffer/pi:
    # up to pi/2 at least half the draws are kept, near pi almost none
    if not 0 <= buffer <= math.pi / 2:
        raise ValueError(f"buffer must lie in [0, pi/2], got {buffer!r}")
    drawn = _draws(seed, samples, buffer)

    kern = _Kernel(poly, part, dom.arrays, RectArray.of(phi_set(poly, part)))
    K, esc = np.full((2, samples), -1, dtype=np.int64)
    entry = np.full((2, samples), np.nan)
    # the live states, each still waiting to enter, to escape or both;
    # compacted after the steps on which one stopped waiting
    live, glue = np.arange(samples), kern.glue
    wait_in, wait_out = np.ones((2, samples), bool)
    with np.errstate(all="ignore", invalid="raise"):
        x, j = kern.start(drawn)
        x = x.ravel()
        for n in range(max_iters + 1):
            if n:
                x = _moebius(x, glue.take(np.concatenate((j, j)), axis=1))
                j = kern.locate(x[live.size:])
            u = x[:live.size]
            hit = kern.inside(0, j, u) & wait_in
            out = wait_out > kern.inside(1, j, u)
            if not (np.count_nonzero(hit) or np.count_nonzero(out)):
                continue
            K[live[hit]], esc[live[out]] = n, n
            entry[:, live[hit]] = (cayley_angle(x.reshape(2, -1)[:, hit])
                                   if n else drawn[:, hit])
            wait_in ^= hit
            wait_out ^= out
            keep = wait_in | wait_out
            live, j, wait_in, wait_out = (live[keep], j[keep], wait_in[keep],
                                          wait_out[keep])
            x = x[np.concatenate((keep, keep))]
            if live.size == 0:
                break

    return list(map(EntryTrace._make, zip(
        range(samples), *drawn.tolist(), K.tolist(), esc.tolist(),
        (K >= 0).tolist(), *entry.tolist())))


def check_forward_invariance(poly: MarkedPolygon, part: Partition,
                             dom: AttractorDomain, traces: list[EntryTrace],
                             steps: int = 1000) -> int:
    """Iterate the entered states further; count membership violations,
    as an ``int``.

    Each step maps the flat [u; w] by the gluing rows ``_Kernel.glue``
    gathered at the doubled intervals of w, and writes u and the intervals
    to a row of two buffers; one ``_Kernel.inside`` call judges each block
    of ``max(1, _BLOCK // states)`` steps as a test after every step would.
    The loop sets its own error state (``_moebius``), so the caller's
    changes nothing.  Raises ``ValueError`` for negative ``steps``."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ang = np.array([[t.entry_u for t in traces if t.entered],
                    [t.entry_w for t in traces if t.entered]])
    if not ang.size:
        return 0
    kern = _Kernel(poly, part, dom.arrays)
    exits, glue, N = 0, kern.glue, ang.shape[1]
    block = max(1, _BLOCK // N)
    us, js = np.empty((block, N)), np.empty((block, N), np.intp)
    with np.errstate(all="ignore", invalid="raise"):
        x, j = kern.start(ang)
        x = x.ravel()
        for n in range(steps):
            x = _moebius(x, glue.take(np.concatenate((j, j)), axis=1))
            k = n % block
            us[k], j = x[:N], kern.locate(x[N:])
            js[k] = j
            if k == block - 1 or n == steps - 1:
                exits += (k + 1) * N - np.count_nonzero(
                    kern.inside(0, js[:k + 1].ravel(), us[:k + 1].ravel()))
    return int(exits)


def traces_to_csv(traces: list[EntryTrace], seed: int) -> str:
    return "".join(["sample,seed,u0,w0,K,escape_step,entered\n"] + [
        f"{t.sample},{seed},{t.u0!r},{t.w0!r},{t.K},{t.escape_step},"
        f"{int(t.entered)}\n" for t in traces])
