"""Canonical marked polygon for a signature with at least one cusp.

The polygon is assembled from one building block per symbol of the signature
string: a four-sided quadruple glued in commutator fashion for each genus
handle, a two-sided wedge with an interior vertex for each elliptic order,
and a two-sided wedge of order inf, its vertex ideal, for each cusp beyond
the first.  Block ``j`` occupies the sector of angles [2pi (j-1)/l,
2pi j/l] and is the image of the standard-position block under the rotation
by 2pi (j-1)/l.  Each gluing [[a, b], [conj(b), conj(a)]] is a closed form
in standard position, and the conjugation by that rotation keeps a and
turns b.  Every glued side lies on the isometric circle of its gluing,
centre -conj(a)/conj(b) and radius 1/|b|, which pins the construction
uniquely.  Side i is kept only as its ideal ends, P_i and Q_{i+1} of
``aux``.  ``validate_polygon`` checks the construction in array passes over
the sides, the cap pairs that meet and the steps of the cusp cycle of V_0.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .arcs import (DirectedArc, Rect, _meeting, _moebius, _overlap_lengths,
                   _seam, cayley, cayley_angle, seam_split)
from .tolerances import DEFAULT, WRAP, Check, Report
from .errors import InvalidSignature
from .mobius import (TAU, BoundaryPoint, DiskPoint, MoebiusPSU,
                     geodesic_circles, geodesic_far_end, vertex_frame)

SQUARE = "square"
INFINITY = "inf"


@dataclass(frozen=True)
class Signature:
    """Orbifold data (genus; elliptic orders; cusp count), cusps >= 1."""

    genus: int
    orders: tuple[int, ...]
    cusps: int

    def __post_init__(self) -> None:
        # any integral type becomes int; a float, even 2.0, is rejected
        try:
            object.__setattr__(self, "orders",
                               tuple(map(operator.index, self.orders)))
            for name in ("genus", "cusps"):
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
        except TypeError:
            raise InvalidSignature(
                "genus, orders and cusps must be integers, got "
                f"{(self.genus, self.orders, self.cusps)!r}") from None
        if self.genus < 0:
            raise InvalidSignature("genus must be non-negative")
        if self.cusps < 1:
            raise InvalidSignature("at least one cusp is required (t >= 1)")
        if any(m < 2 for m in self.orders):
            raise InvalidSignature("elliptic orders must be >= 2")
        if list(self.orders) != sorted(self.orders):
            raise InvalidSignature("orders must be sorted ascending")
        if self.area_excess() <= 0:
            raise InvalidSignature(
                f"area condition violated: 2g-2+sum(1-1/m)+t = "
                f"{self.area_excess()} <= 0")

    @classmethod
    def of(cls, genus: int, orders, cusps: int) -> "Signature":
        return cls(genus, tuple(sorted(orders)), cusps)

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse ``"g;m1,...,mr;t"``; the middle field may be empty."""
        parts = text.replace(" ", "").split(";")
        if len(parts) != 3:
            raise InvalidSignature(f"expected 'g;m1,...,mr;t', got {text!r}")
        try:
            g = int(parts[0])
            orders = tuple(int(s) for s in parts[1].split(",") if s)
            t = int(parts[2])
        except ValueError as exc:
            raise InvalidSignature(f"cannot parse signature {text!r}: {exc}") from None
        return cls.of(g, orders, t)

    def area_excess(self) -> float:
        return (2 * self.genus - 2 + self.cusps
                + sum(1.0 - 1.0 / m for m in self.orders))

    @property
    def ell(self) -> int:
        """Number of building blocks g + r + t - 1."""
        return self.genus + len(self.orders) + self.cusps - 1

    @property
    def n_sides(self) -> int:
        return 4 * self.genus + 2 * len(self.orders) + 2 * (self.cusps - 1)

    def __str__(self) -> str:
        return f"{self.genus};{','.join(map(str, self.orders))};{self.cusps}"


@dataclass(frozen=True)
class SignatureString:
    """Block symbols: g squares, the sorted orders, then t-1 infinity marks."""

    symbols: tuple[object, ...]

    def __str__(self) -> str:
        marks = {SQUARE: "□", INFINITY: "∞"}
        return "".join(marks.get(s, str(s)) for s in self.symbols)


def signature_string(sig: Signature) -> SignatureString:
    symbols = ([SQUARE] * sig.genus + list(sig.orders)
               + [INFINITY] * (sig.cusps - 1))
    return SignatureString(tuple(symbols))


# -- standard-position generators --------------------------------------------


def elliptic_vertex(ell: int, m: int) -> complex:
    """Interior vertex of the standard elliptic wedge of order m."""
    return (math.cos((ell + m) * math.pi / (2 * ell * m))
            / math.cos((ell - m) * math.pi / (2 * ell * m))
            * cmath.exp(1j * math.pi / ell))


def elliptic_generator(ell: int, m: float) -> MoebiusPSU:
    """Clockwise rotation by 2pi/m about the standard wedge vertex, gluing
    the ray toward 1 onto the ray toward e^{2pi i/l}; m = inf gives the
    parabolic gluing of the cusp wedge, fixing e^{pi i/l}.  In closed form,
    with e = e^{pi i/l}: a = (1 + cos(pi/m) e) / (i sin(pi/l)) and
    b = i (cos(pi/m) + cos(pi/l)) e / sin(pi/l)."""
    cm, cl, sl = (math.cos(math.pi / m), math.cos(math.pi / ell),
                  math.sin(math.pi / ell))
    e = cmath.exp(1j * math.pi / ell)
    return MoebiusPSU.from_ab((1 + cm * e) / (1j * sl), 1j * (cm + cl) * e / sl)


def hyperbolic_generator_a(ell: int) -> MoebiusPSU:
    """First gluing of the standard quadruple: side V0 V1 onto V3 V2, where
    V_k = e^{k pi i/(2l)}; with h = pi/(4l), a = i e^{2ih} / sin h and
    b = -i cos h e^{3ih} / sin h."""
    h = math.pi / (4 * ell)
    s = math.sin(h)
    return MoebiusPSU.from_ab(1j * cmath.exp(2j * h) / s,
                              -1j * math.cos(h) * cmath.exp(3j * h) / s)


def hyperbolic_generator_b(ell: int) -> MoebiusPSU:
    """Second gluing (side V3 V4 onto V2 V1), the inverse of the first
    turned by pi/(2l), (conj(a), -b e^{pi i/(2l)}); this identity is what
    makes both glued sides isometric circles."""
    g = hyperbolic_generator_a(ell)
    return MoebiusPSU.from_ab(g.a.conjugate(),
                              -g.b * cmath.exp(0.5j * math.pi / ell))


# -- marked polygon -----------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    kind: str                       # "ideal" | "elliptic"
    point: object                   # BoundaryPoint | DiskPoint
    order: int | None = None

    @property
    def is_ideal(self) -> bool:
        return self.kind == "ideal"


@dataclass(frozen=True)
class AuxPoints:
    """Side extensions P (forward side), Q (backward side) and the arc
    midpoint M of [P, Q]; all equal to the vertex itself when it is ideal."""

    P: BoundaryPoint
    Q: BoundaryPoint
    M: BoundaryPoint


@dataclass(frozen=True)
class Block:
    """Building block ``index`` of the signature string: sides ``side_start``
    to ``side_start + n_sides - 1`` in the sector from ``base_angle`` of
    width ``sweep``.  Side i starts at vertex i, so the same range indexes
    the block's vertices and vertex ``side_start`` is its start corner."""

    index: int
    symbol: object
    base_angle: float
    sweep: float
    side_start: int
    n_sides: int


# rectangles per uniform strip; order 2 is a single rectangle because its
# gluing is an involution, so the whole block arc maps by one transformation
# even though it spans two cells
_UNIFORM_COUNT = {SQUARE: 4, INFINITY: 2, 2: 1}


def _uniform_strip(blk: Block) -> tuple[Rect, ...] | None:
    """The attractor strip of a quadruple, cusp or order-2 block, None for
    an order m >= 3 block: count = 4, 2 or 1 equal w-arcs of width h =
    ``Block.sweep`` / count from the block's start corner, each under the
    u-arc of sweep 2pi - h from the w-arc's end; rectangle k is carried by
    side k of the block."""
    count = _UNIFORM_COUNT.get(blk.symbol)
    if not count:
        return None
    h = blk.sweep / count
    base = blk.base_angle
    return tuple(Rect(DirectedArc.from_angles(base + (k + 1) * h, TAU - h),
                      DirectedArc.from_angles(base + k * h, h), blk.index,
                      blk.side_start + k)
                 for k in range(count))


@dataclass(frozen=True)
class MarkedPolygon:
    signature: Signature
    string: SignatureString
    ell: int
    n_sides: int
    vertices: tuple[Vertex, ...]
    generators: tuple[MoebiusPSU, ...]   # generators[i] glues side (V_i, V_{i+1})
    pairing: tuple[int, ...]
    aux: tuple[AuxPoints, ...]           # side i runs from P_i to Q_{i+1}
    blocks: tuple[Block, ...]

    # the tables shared by every partition; ``dataclasses.replace`` makes a
    # new polygon, which forms its own

    @functools.cached_property
    def side_blocks(self) -> tuple[Block, ...]:
        """The block of each side, side by side."""
        return tuple(blk for blk in self.blocks for _ in range(blk.n_sides))

    def block_of_side(self, i: int) -> Block:
        """The block holding side i mod N, from ``side_blocks``."""
        return self.side_blocks[i % self.n_sides]

    @functools.cached_property
    def uniform_strips(self) -> tuple[tuple[Rect, ...] | None, ...]:
        """Per block, its attractor strip when that strip does not depend on
        the cut points (a quadruple, cusp or order-2 block), else None."""
        return tuple(map(_uniform_strip, self.blocks))

    @functools.cached_property
    def corner_orbits(self) -> tuple[tuple[tuple[BoundaryPoint, ...],
                                           tuple[BoundaryPoint, ...]]
                                     | None, ...]:
        """Per order m >= 3 block with corners ``start`` and ``end`` and
        rotation c about its vertex k, the m powers c^j(end) and the m
        powers c^-i(start), j, i = 0..m - 1 (``rotation_powers``), from
        which every fan takes its u-arc ends; None for any other block."""
        out = []
        for blk in self.blocks:
            k = blk.side_start + 1
            if blk.symbol in _UNIFORM_COUNT:
                out.append(None)
                continue
            m = self.vertices[k].order
            start = self.vertices[blk.side_start].point
            end = BoundaryPoint.from_angle(blk.base_angle + blk.sweep)
            out.append((tuple(rotation_powers(self, k, end, range(m))),
                        tuple(rotation_powers(self, k, start,
                                              range(0, -m, -1)))))
        return tuple(out)

    @functools.cached_property
    def gluing_table(self) -> np.ndarray:
        """(4, N) read-only rows p, q, r, s: column i is ``MoebiusPSU.real``
        of ``generators[i]``."""
        table = np.array([g.real for g in self.generators]).T.copy()
        table.flags.writeable = False
        return table

    @functools.cached_property
    def block_bands(self) -> np.ndarray:
        """(B, 2, 2) read-only ``seam_split`` of each block's sector, from
        ``base_angle`` over ``Block.sweep``: the u-band onto which the
        block's strip maps."""
        bands = seam_split(np.array([blk.base_angle for blk in self.blocks]),
                           np.array([blk.sweep for blk in self.blocks]))
        bands.flags.writeable = False
        return bands

    def elliptic_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.vertices) if not v.is_ideal]

    def to_dict(self) -> dict:
        verts = []
        for i, v in enumerate(self.vertices):
            z = v.point.z
            entry = {"index": i, "kind": v.kind, "re": z.real, "im": z.imag}
            if v.is_ideal:
                entry["arg"] = v.point.theta
            else:
                entry["order"] = v.order
            verts.append(entry)
        gens = [{"index": i,
                 "a": {"re": g.a.real, "im": g.a.imag},
                 "b": {"re": g.b.real, "im": g.b.imag},
                 "pairs_with": self.pairing[i]}
                for i, g in enumerate(self.generators)]
        aux = [{"index": i, "P": x.P.theta, "Q": x.Q.theta, "M": x.M.theta}
               for i, x in enumerate(self.aux)]
        return {"signature": str(self.signature), "ell": self.ell,
                "N": self.n_sides, "string": str(self.string),
                "vertices": verts, "generators": gens, "aux": aux}


def build_canonical(sig: Signature) -> MarkedPolygon:
    """Construct the canonical polygon for a valid signature.

    Deterministic: the result is a pure function of the signature.  Block
    j's start corner 2pi j / l is computed once, as its ``base_angle``, and
    every reader of a corner takes it from there.
    """
    string = signature_string(sig)
    ell, n = sig.ell, sig.n_sides
    sector = TAU / ell

    vertices: list[Vertex] = []
    generators: list[MoebiusPSU] = []
    pairing: list[int] = []
    blocks: list[Block] = []

    for j, sym in enumerate(string.symbols):
        base = TAU * j / ell
        # conjugation by the turn z -> e^{i base} z keeps a and turns b
        turn = cmath.exp(1j * base)
        conj = (lambda g, t=turn: MoebiusPSU.from_ab(g.a, g.b * t))
        side0 = len(generators)
        vertices.append(Vertex("ideal", BoundaryPoint.from_angle(base)))
        if sym == SQUARE:
            a = hyperbolic_generator_a(ell)
            b = hyperbolic_generator_b(ell)
            generators += [conj(a), conj(b.inverse()), conj(a.inverse()), conj(b)]
            pairing += [side0 + 2, side0 + 3, side0, side0 + 1]
            for k in (1, 2, 3):
                vertices.append(Vertex("ideal", BoundaryPoint.from_angle(
                    base + k * math.pi / (2 * ell))))
        else:
            # a wedge: one gluing and its inverse around the middle vertex,
            # a cusp for the wedge of order inf, interior otherwise
            c = elliptic_generator(ell, math.inf if sym == INFINITY else sym)
            if sym == INFINITY:
                mid = Vertex("ideal", BoundaryPoint.from_angle(
                    base + math.pi / ell))
            else:
                mid = Vertex("elliptic", DiskPoint(
                    elliptic_vertex(ell, sym) * turn), sym)
            generators += [conj(c), conj(c.inverse())]
            pairing += [side0 + 1, side0]
            vertices.append(mid)
        blocks.append(Block(j, sym, base, sector, side0,
                            len(generators) - side0))

    aux = []
    for i, v in enumerate(vertices):
        if v.is_ideal:
            aux.append(AuxPoints(v.point, v.point, v.point))
            continue
        # P_i and Q_i are the far ends of the sides from V_{i+1} and from
        # V_{i-1} through V_i; at order 2 those sides make one geodesic, so
        # P and Q are the neighbouring corners themselves
        prev_pt, next_pt = vertices[i - 1].point, vertices[(i + 1) % n].point
        if v.order == 2:
            p, q = prev_pt, next_pt
        else:
            p, q = (geodesic_far_end(u, v.point) for u in (next_pt, prev_pt))
        sweep = (q.theta - p.theta) % TAU
        aux.append(AuxPoints(p, q, BoundaryPoint.from_angle(
            p.theta + 0.5 * sweep)))

    return MarkedPolygon(sig, string, ell, n, tuple(vertices),
                         tuple(generators), tuple(pairing), tuple(aux),
                         tuple(blocks))


def rotation_powers(poly: MarkedPolygon, k: int, x: BoundaryPoint,
                    powers) -> list[BoundaryPoint]:
    """c^j(x) for each j in ``powers``, c = generators[k - 1] the clockwise
    rotation by 2pi/m about the elliptic vertex V_k.  Each power is one map,
    ``vertex_frame`` about V_k, a turn by -2pi j/m and back, so no error
    carries over from one power to the next; j = 0 mod m gives x itself."""
    z, m = poly.vertices[k].point.z, poly.vertices[k].order
    t = vertex_frame(z, x.z)
    return [x if j % m == 0 else BoundaryPoint.from_angle(cmath.phase(
                vertex_frame(-z, t * cmath.exp(-1j * TAU * (j % m) / m))))
            for j in powers]


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport(Report):
    signature: str
    area: float


def _measured_elliptic_angles(poly: MarkedPolygon) -> dict[int, float]:
    """Interior angle at each elliptic vertex V_k: the clockwise turn from
    the ``vertex_frame`` image of V_{k-1} to that of V_{k+1}."""
    angles = {}
    n = poly.n_sides
    for k in poly.elliptic_indices():
        z = poly.vertices[k].point.z
        prev, nxt = (cmath.phase(vertex_frame(z, w))
                     for w in (poly.vertices[(k - 1) % n].point.z,
                               poly.vertices[(k + 1) % n].point.z))
        angles[k] = (prev - nxt) % TAU
    return angles


def _disjointness(start: np.ndarray, end: np.ndarray, pairing: np.ndarray,
                  tol: float) -> Check:
    """Largest overlap, in radians, of the ideal arcs of the caps beyond two
    sides that are not partners.  The cap beyond side i is the half-plane
    whose ideal arc runs counter-clockwise from ``start[i]`` = P_i to
    ``end[i]`` = Q_{i+1}; two caps are disjoint exactly when their arcs
    share at most an endpoint.  Only the pairs whose arcs meet
    (``_meeting``) are measured, by i and then j, so the first largest pair
    is the first in row-major order.  Raises ``ValueError`` for an arc of
    sweep at most ``WRAP``, as ``DirectedArc`` does."""
    sweep = (end - start) % TAU
    if not (sweep > WRAP).all():
        raise ValueError(f"sweep {sweep.min()} outside (0, 2pi]")
    arcs = seam_split(start, sweep)
    i, j = _meeting(arcs, arcs)
    keep = (i != j) & (j != pairing[i])
    i, j = i[keep], j[keep]
    worst, k = _worst(_overlap_lengths(arcs[i], arcs[j]))
    return Check(worst, tol, f"sides {i[k]} vs {j[k]}" if k >= 0 else "")


def _worst(res: np.ndarray) -> tuple[float, int]:
    """The largest residual and the index where it first occurs; 0.0 and
    -1 when none is positive."""
    worst = float(res.max(initial=0.0))
    return (worst, int(np.argmax(res))) if worst > 0.0 else (0.0, -1)


def validate_polygon(poly: MarkedPolygon) -> ValidationReport:
    """Numerically verify the structural properties of the construction,
    among them that the cusp cycle of V_0 closes with a parabolic P, read as
    |log P'(V_0)|, which is linear in the multiplier of a hyperbolic P.
    Each check is one pass over arrays of the sides (their ends P_i and
    Q_{i+1} from ``aux``), of the gluings and of the cycle's steps."""
    checks: dict[str, Check] = {}
    n = poly.n_sides
    sig = poly.signature
    pairing = np.array(poly.pairing)
    # side i runs from P_i of aux[i] to Q_{i+1} of its successor
    aux, succ = poly.aux, poly.aux[1:] + poly.aux[:1]
    p_theta = np.array([x.P.theta for x in aux])
    q_theta = np.array([x.Q.theta for x in succ])
    a = np.array([g.a for g in poly.generators])
    b = np.array([g.b for g in poly.generators])

    # (a) every non-diameter side lies on the isometric circle of its gluing,
    # |conj(b) z + conj(a)| = 1: centre -conj(a)/conj(b), radius 1/|b|; a
    # diameter side is glued by a proper rotation about the origin, b = 0
    # and |trace| < 2, and the last side that breaks either rule reads inf
    c, r, diameter = geodesic_circles([x.P.z for x in aux],
                                      [x.Q.z for x in succ])
    with np.errstate(all="ignore"):
        res = (np.abs(-np.conj(a) / np.conj(b) - c)
               + np.abs(1.0 / np.abs(b) - r))
        # orthogonal to the unit circle: |c|^2 = r^2 + 1
        res = np.maximum(res, np.abs(np.abs(c) ** 2 - r ** 2 - 1.0))
    # 1e-12 stays: |b| <= 1.2e-16 for rotations about 0, >= 0.5 for circles
    bad = diameter & ~((np.abs(b) < 1e-12)
                       & (np.abs(2.0 * a.real) < 2.0 - DEFAULT.spectral))
    # 1e-14 stays: it sits in the same gap between the two kinds of |b|
    none = ~diameter & (np.abs(b) < 1e-14)
    if (bad | none).any():
        i = int(np.flatnonzero(bad | none)[-1])
        worst, detail = math.inf, f"side {i}: " + (
            "bad diameter pairing" if bad[i] else "no isometric circle")
    else:
        worst, i = _worst(np.where(diameter, 0.0, res))
        detail = f"side {i}" if i >= 0 else ""
    checks["isometric_circles"] = Check(worst, DEFAULT.residual, detail)

    # (b) interior angle 2pi/m at each elliptic vertex
    measured = _measured_elliptic_angles(poly)
    worst, detail = 0.0, ""
    for k, ang in measured.items():
        m = poly.vertices[k].order
        res = abs(ang - TAU / m)
        if res > worst:
            worst, detail = res, f"vertex {k} (order {m})"
    checks["elliptic_angles"] = Check(worst, DEFAULT.residual, detail)

    # (c) free combination: excluded caps pairwise disjoint inside the disk
    checks["free_combination"] = _disjointness(p_theta, q_theta, pairing,
                                               DEFAULT.residual)

    # (d) the gluing of the side from V_j carries V_j onto V_{pairing[j] + 1};
    # log P'(V_0) sums the steps' log derivatives, inf if not back in N steps
    cycle = [0]
    while len(cycle) <= n and (j := (poly.pairing[cycle[-1]] + 1) % n):
        cycle.append(j)
    steps = np.array(cycle)
    lands = (pairing[steps] + 1) % n
    z = np.array([poly.vertices[j].point.z for j in cycle])
    log_derivative = math.inf if len(cycle) > n else abs(float(np.sum(np.log(
        1.0 / np.abs(np.conj(b[steps]) * z + np.conj(a[steps])) ** 2))))
    checks["parabolic_product"] = Check(log_derivative, DEFAULT.spectral,
                                        f"log derivative {log_derivative:.2e}")

    # (e) Gauss-Bonnet: (N-2)pi - angle sum against the signature area
    area_measured = (n - 2) * math.pi - sum(measured.values())
    area_formula = TAU * sig.area_excess()
    res = abs(area_measured - area_formula)
    checks["area"] = Check(res, DEFAULT.residual, f"area={area_formula!r}")

    # (f) ideal corners equally distributed: each step of the cycle lands on
    # its vertex, and each gluing carries P_i onto Q_{p+1}, Q_{i+1} onto P_p;
    # the landings go through the boundary action of ``image_rects``
    sides = np.concatenate([steps, np.repeat(np.arange(n), 2)])
    x = np.concatenate([[poly.vertices[j].point.theta for j in cycle],
                        np.column_stack([p_theta, q_theta]).ravel()])
    y = np.concatenate([[poly.vertices[j].point.theta for j in lands],
                        np.column_stack([q_theta[pairing],
                                         p_theta[pairing]]).ravel()])
    coef = poly.gluing_table.take(sides, axis=1)
    with np.errstate(all="ignore"):
        img = cayley_angle(_seam(_moebius(cayley(x), coef), coef)) % TAU
    d = np.abs(img - y) % TAU
    worst, i = _worst(np.minimum(d, TAU - d))
    checks["equal_distribution"] = Check(worst, DEFAULT.residual,
                                         f"side {sides[i]}" if i >= 0 else "")

    return ValidationReport(str(sig), area_formula, checks=checks)
