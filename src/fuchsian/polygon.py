"""Canonical marked polygon for a signature with at least one cusp.

The polygon is assembled from one building block per symbol of the signature
string: a four-sided quadruple glued in commutator fashion for each genus
handle, a two-sided wedge with an interior vertex for each elliptic order,
and a two-sided parabolic wedge for each cusp beyond the first.  Block
``j`` occupies the sector of angles [2pi (j-1)/l, 2pi j/l] and is the image
of the standard-position block under the rotation by 2pi (j-1)/l; all
side-pairing transformations are the standard ones conjugated by that
rotation.  Every glued side lies on the isometric circle of its pairing
transformation, which pins the construction uniquely.  Side i is kept only
as its ideal ends, P_i and Q_{i+1} of ``aux``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arcs import DirectedArc, _overlap_lengths, seam_split
from .tolerances import DEFAULT, Check, Report
from .errors import InvalidSignature
from .mobius import (TAU, BoundaryPoint, DiskPoint, MoebiusPSU,
                     geodesic_circle, geodesic_far_end, vertex_frame)

SQUARE = "square"
INFINITY = "inf"


@dataclass(frozen=True)
class Signature:
    """Orbifold data (genus; elliptic orders; cusp count), cusps >= 1."""

    genus: int
    orders: tuple[int, ...]
    cusps: int

    def __post_init__(self) -> None:
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
        return cls(genus, tuple(sorted(int(m) for m in orders)), cusps)

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


def elliptic_generator(ell: int, m: int) -> MoebiusPSU:
    """Clockwise rotation by 2pi/m about the standard wedge vertex, gluing
    the ray toward 1 onto the ray toward e^{2pi i/l}."""
    cm, cl = math.cos(math.pi / m), math.cos(math.pi / ell)
    e = cmath.exp(1j * math.pi / ell)
    return MoebiusPSU.from_coeffs(1 + cm * e, -(cm + cl) * e,
                                  (cm + cl) / e, -(1 + cm / e))


def parabolic_generator(ell: int) -> MoebiusPSU:
    """Parabolic gluing of the standard cusp wedge, fixing e^{pi i/l}."""
    e = cmath.exp(1j * math.pi / ell)
    return MoebiusPSU.from_coeffs(2 * e * e, -(e * e + e ** 3),
                                  e + 1, -2 * e)


def hyperbolic_generator_a(ell: int) -> MoebiusPSU:
    """First gluing of the standard quadruple: side V0 V1 onto V3 V2, where
    V_k = e^{k pi i/(2l)}."""
    c = math.cos(math.pi / (4 * ell))
    e = lambda k: cmath.exp(1j * k * math.pi / (4 * ell))
    return MoebiusPSU.from_coeffs(-e(5), c * e(6), -c, e(1))


def hyperbolic_generator_b(ell: int) -> MoebiusPSU:
    """Second gluing (side V3 V4 onto V2 V1), the rotation conjugate of the
    inverse of the first; this matrix identity is what makes both glued
    sides isometric circles."""
    rot = MoebiusPSU.rotation(math.pi / (2 * ell))
    return rot @ hyperbolic_generator_a(ell).inverse() @ rot.inverse()


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
    corner_angles: tuple[float, ...]     # 2 pi j / l for j = 0..l

    def block_of_side(self, i: int) -> Block:
        for blk in reversed(self.blocks):
            if i >= blk.side_start:
                return blk
        return self.blocks[0]

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

    Deterministic: the result is a pure function of the signature, with all
    shared corner angles taken from a single canonical array so adjacent
    blocks agree bitwise.
    """
    string = signature_string(sig)
    ell, n = sig.ell, sig.n_sides
    corners = tuple(TAU * j / ell for j in range(ell + 1))
    sector = TAU / ell

    vertices: list[Vertex] = []
    generators: list[MoebiusPSU] = []
    pairing: list[int] = []
    blocks: list[Block] = []

    for j, sym in enumerate(string.symbols):
        base = corners[j]
        rot = MoebiusPSU.rotation(base)
        conj = (lambda g, r=rot: r @ g @ r.inverse())
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
            # a cusp for the parabolic block, interior otherwise
            if sym == INFINITY:
                c = parabolic_generator(ell)
                mid = Vertex("ideal", BoundaryPoint.from_angle(
                    base + math.pi / ell))
            else:
                m = int(sym)
                c = elliptic_generator(ell, m)
                mid = Vertex("elliptic", DiskPoint(
                    elliptic_vertex(ell, m) * cmath.exp(1j * base)), m)
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
                         tuple(blocks), corners)


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


def _disjointness(poly: MarkedPolygon, tol: float) -> Check:
    """Largest overlap, in radians, of the ideal arcs of the caps beyond two
    sides that are not partners.  The cap beyond side i is the half-plane
    whose ideal arc runs counter-clockwise from P_i to Q_{i+1}; two caps are
    disjoint exactly when their arcs share at most an endpoint."""
    n = poly.n_sides
    caps = [DirectedArc.ccw(poly.aux[i].P, poly.aux[(i + 1) % n].Q)
            for i in range(n)]
    arcs = seam_split(np.array([c.start.theta for c in caps]),
                      np.array([c.sweep for c in caps]))
    overlap = _overlap_lengths(arcs, arcs)
    rows = np.arange(n)
    overlap[rows, rows] = 0.0
    overlap[rows, poly.pairing] = 0.0
    i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
    worst = float(overlap[i, j])
    return Check(worst, tol, f"sides {i} vs {j}" if worst > 0 else "")


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


def validate_polygon(poly: MarkedPolygon) -> ValidationReport:
    """Numerically verify the structural properties of the construction."""
    checks: dict[str, Check] = {}
    n = poly.n_sides
    sig = poly.signature

    # (a) every non-diameter side lies on the isometric circle of its gluing,
    # |conj(b) z + conj(a)| = 1: centre -conj(a)/conj(b), radius 1/|b|
    worst, detail = 0.0, ""
    for i, gen in enumerate(poly.generators):
        circle = geodesic_circle(poly.aux[i].P, poly.aux[(i + 1) % n].Q)
        if circle is None:
            # glued by a proper rotation about the origin: b = 0, |trace| < 2
            if not (abs(gen.b) < 1e-12
                    and abs(gen.trace) < 2.0 - DEFAULT.spectral):
                worst, detail = math.inf, f"side {i}: bad diameter pairing"
            continue
        if abs(gen.b) < 1e-14:      # a rotation about the origin
            worst, detail = math.inf, f"side {i}: no isometric circle"
            continue
        c, r = circle
        res = (abs(-gen.a.conjugate() / gen.b.conjugate() - c)
               + abs(1.0 / abs(gen.b) - r))
        # orthogonal to the unit circle: |c|^2 = r^2 + 1
        res = max(res, abs(abs(c) ** 2 - r ** 2 - 1.0))
        if res > worst:
            worst, detail = res, f"side {i}"
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
    checks["free_combination"] = _disjointness(poly, DEFAULT.residual)

    # (d) the full gluing product fixes V_0 and is parabolic (|trace| = 2)
    prod = boundary_product(poly)
    fix_res = abs(prod.apply(1.0 + 0j) - 1.0)
    tr_res = abs(abs(prod.trace) - 2.0)
    checks["parabolic_product"] = Check(
        max(fix_res, tr_res), DEFAULT.spectral,
        f"fix={fix_res:.2e} trace={tr_res:.2e}")

    # (e) Gauss-Bonnet: (N-2)pi - angle sum against the signature area
    area_measured = (n - 2) * math.pi - sum(measured.values())
    area_formula = TAU * sig.area_excess()
    res = abs(area_measured - area_formula)
    checks["area"] = Check(res, DEFAULT.residual, f"area={area_formula!r}")

    # (f) ideal corner vertices equally distributed: each block's gluing
    # carries its start corner onto the next block's (the last onto V_0)
    worst, detail = 0.0, ""
    for blk, nxt in zip(poly.blocks, poly.blocks[1:] + poly.blocks[:1]):
        image = block_glue_product(poly, blk).apply(
            poly.vertices[blk.side_start].point.z)
        res = abs(image - poly.vertices[nxt.side_start].point.z)
        if res > worst:
            worst, detail = res, f"block {blk.index}"
    checks["equal_distribution"] = Check(worst, DEFAULT.residual, detail)

    return ValidationReport(str(sig), area_formula, checks=checks)
