"""Dev-time oracle: high-precision derivations of constants frozen in tests.

Run with `python tools/derive_oracles.py`; not part of the shipped library
or the test suite.  Everything here is computed with mpmath at 50 digits,
independently of the package code, to confirm the exact closed forms asserted
in the tests.  The script exits 1 when any derived value misses its closed
form by more than 1e-40:

  * wedge vertex for l=2, m=3:      V1 = (2 - sqrt(3)) i
  * geodesic extension endpoints:   Q1 = (-3 + 4i)/5,  P1 = (3 + 4i)/5
  * (the circle through 1 and V1:   center 1 + 2i, radius 2)
  * hyperbolic-quadruple gluing at l=1: isometric circle center
    sec(pi/4) e^{i pi/4} = 1 + i, radius tan(pi/4) = 1
  * signature areas: (0;2,3;1) -> pi/3, (1;2,3,7;2) -> 2 pi * 169/42
  * commutator of the l=1 quadruple gluings has |trace| = 2
  * order-m wedge rotation has eigenvalue argument pi/m (angle 2 pi/m)
  * each standard block gluing (the wedge rotation, the cusp parabolic, the
    quadruple commutator b^-1 a^-1 b a) carries the block's start corner 1
    to its end corner e^{2 pi i/l}, with derivative of modulus 1 there, so
    the log derivatives that ``validate_polygon`` sums around the cusp
    cycle of V_0 are each 0
  * on the Cayley coordinate x = i (1 + z) / (1 - z) of the planar
    extension's kernel, the wedge rotation (m = 3) and the cusp parabolic
    for l = 2, 3 and 8 act by a real matrix of determinant 1, which carries
    x(0) = -inf to x(2 pi/l) = -cot(pi/l) and is [[a1 + b1, a2 - b2],
    [-(a2 + b2), a1 - b1]] for the gluing [[a, b], [conj(b), conj(a)]]
  * the closed forms of the gluings equal the block matrices above
    normalised to determinant 1, up to sign: the wedge a = (1 + cos(pi/m) e)
    / (i sin(pi/l)), b = i (cos(pi/m) + cos(pi/l)) e / sin(pi/l), e =
    e^{pi i/l}, at m = 3, 7 and 8, and at m = inf against the cusp matrix;
    the quadruple pair a = i e^{2ih} / sin h, b = -i cos h e^{3ih} / sin h,
    h = pi/(4l), and (conj(a), -b e^{pi i/(2l)}); and the turn of a gluing
    to a sector, R g R^-1 for R the rotation by phi, is (a, b e^{i phi})
  * every gluing of ``fuchsian.build_canonical`` on ``GENERATOR_SIGNATURES``
    (the acceptance set, the ladder, the stress ladder, 200;;1 and 400;;1)
    lies within ``GENERATOR_TOL`` = 1e-15, relative in the Frobenius norm,
    of its 50-digit value: the block matrix normalised and turned to its
    sector by R M R^-1; each gluing further off counts as a miss
  * the midpoint cut M of an odd-order wedge (l=31, m=17 and m=29, the
    odd-order blocks of 20;2,3,17,29;8 beyond m=3) ends its cycle exactly on
    the block's start corner 1: the (J+1)-st rotation image c^(J+1)(M) is 1,
    so ``cycle`` is right to call that cycle degenerate
  * ``fuchsian.cycle`` (imported from ``src/``) gives the J and degeneracy
    of the 50-digit rotation orbit at every elliptic vertex of
    ``CYCLE_SIGNATURES`` under the left, right and midpoint partitions;
    each mismatch is printed and counts as a miss
  * ``fuchsian.build_canonical`` puts the far ends P and Q of the sides
    through every elliptic vertex of ``CYCLE_SIGNATURES`` and
    ``15;2,2,2,3,3,3,4,4,4;20`` within ``PQ_TOL`` = 4e-15 rad of the
    50-digit ``cut_point``; each point further off counts as a miss
  * ``growth_rate`` of ``tests/oracles.py`` (float bisection) gives the log
    growth rate of each group of ``GROWTH_SIGNATURES``, the acceptance set
    and the ladder of the tests, within ``GROWTH_TOL`` = 1e-12 of -log x*,
    x* the 50-digit root in (0, 1) of the free-product growth-series
    equation; each signature further off counts as a miss
"""

import sys
from pathlib import Path

from mpmath import (mp, mpc, mpf, arg, conj, cos, cot, exp, findroot, inf,
                    log, pi, sin, sqrt, matrix)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

mp.dps = 50
TOL = mpf("1e-40")
# float P and Q carry a few ulps of 2 pi; the bound does not grow with l
PQ_TOL = mpf("4e-15")

# the acceptance and scale sets, and two larger signatures whose cycles sit
# within float rounding of a corner: 30;...;10 midpoint, 0;3,...,32;1
CYCLE_SIGNATURES = (
    "0;2,3;1", "1;;1", "0;2,2;2", "1;2,3,7;2", "2;2,5,8;2", "0;3,3,4;2",
    "3;2,5,9;3", "6;2,3,5,7,11,13;4", "10;3,4,5,6,7,8,9,10;6",
    "20;2,3,17,29;8", "30;2,3,5,7,11,13,17,19,23;10",
    "0;" + ",".join(map(str, range(3, 33))) + ";1")
PQ_SIGNATURES = CYCLE_SIGNATURES + ("15;2,2,2,3,3,3,4,4,4;20",)
# the acceptance set and the ladder of the tests (SIGNATURES + LADDER)
GROWTH_SIGNATURES = PQ_SIGNATURES + ("60;;1",)
# the float bisection stops at adjacent doubles, a few ulp of x*
GROWTH_TOL = mpf("1e-12")
# every float gluing of the acceptance set, the ladder, the stress rows and
# the two long cusp rows against its 50-digit value
GENERATOR_SIGNATURES = GROWTH_SIGNATURES + (
    "100;;1", "40;" + ",".join(map(str, range(3, 43))) + ";10",
    "0;" + ",".join(map(str, range(3, 63))) + ";1", "200;;1", "400;;1")
# a few roundings of entries whose determinant is 1 with no cancellation
GENERATOR_TOL = mpf("1e-15")


def wedge_vertex(ell, m):
    return (cos((ell + m) * pi / (2 * ell * m))
            / cos((ell - m) * pi / (2 * ell * m)) * exp(1j * pi / ell))


def wedge_gluing(ell, m):
    cm, cl = cos(pi / m), cos(pi / ell)
    ee = exp(1j * pi / ell)
    return matrix([[1 + cm * ee, -(cm + cl) * ee],
                   [(cm + cl) / ee, -(1 + cm / ee)]])


def cusp_gluing(ell):
    e = exp(1j * pi / ell)
    return matrix([[2 * e * e, -(e * e + e ** 3)], [e + 1, -2 * e]])


def quadruple_gluings(ell):
    """The first quadruple gluing a, normalised to determinant 1, and the
    second, b = rot a^-1 rot^-1 with rot the rotation by pi/(2l)."""
    e = lambda k: exp(1j * k * pi / (4 * ell))
    c = cos(pi / (4 * ell))
    a = matrix([[-e(5), c * e(6)], [-c, e(1)]])
    a = a / sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    rot = matrix([[e(1), 0], [0, e(-1)]])
    return a, rot * a ** -1 * rot ** -1


def normalised(M):
    """The top row (a, b) of M divided by a square root of its determinant."""
    M = M / sqrt(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    return M[0, 0], M[0, 1]


def wedge_closed(ell, m):
    """The closed form of the wedge gluing of order m, m = inf the cusp:
    a = (1 + cos(pi/m) e) / (i sin(pi/l)), b = i (cos(pi/m) + cos(pi/l)) e
    / sin(pi/l), e = e^{pi i/l}."""
    cm, e, s = (1 if m == inf else cos(pi / m)), exp(1j * pi / ell), sin(pi / ell)
    return (1 + cm * e) / (1j * s), 1j * (cm + cos(pi / ell)) * e / s


def quadruple_closed(ell):
    """The closed forms of both quadruple gluings, h = pi/(4l): a = i e^{2ih}
    / sin h, b = -i cos h e^{3ih} / sin h, and the second (conj(a),
    -b e^{pi i/(2l)})."""
    h = pi / (4 * ell)
    a, b = 1j * exp(2j * h) / sin(h), -1j * cos(h) * exp(3j * h) / sin(h)
    return (a, b), (conj(a), -b * exp(1j * pi / (2 * ell)))


def turned(M, phi):
    """R M R^-1 for the rotation R = diag(e^{i phi/2}, e^{-i phi/2})."""
    R = matrix([[exp(0.5j * phi), 0], [0, exp(-0.5j * phi)]])
    return R * M * R ** -1


def sign_gap(got, exact):
    """The normwise relative distance of the gluing ``got`` from ``exact``
    or its negative: the Frobenius norm of the difference of their matrices
    [[a, b], [conj(b), conj(a)]] over that of ``exact``."""
    (a, b), (A, B) = got, exact
    return min(sqrt(abs(a - s * A) ** 2 + abs(b - s * B) ** 2)
               for s in (1, -1)) / sqrt(abs(A) ** 2 + abs(B) ** 2)


def generator_misses(signatures):
    """Compare every gluing of ``fuchsian.build_canonical`` with its 50-digit
    value: the standard block matrix normalised to determinant 1 (its
    inverses for the quadruple's second and third sides and the wedge's
    second) and turned by R M R^-1 to its sector; print the worst relative
    distance per signature and return the misses beyond ``GENERATOR_TOL``."""
    from fuchsian import Signature, build_canonical
    from fuchsian.polygon import INFINITY, SQUARE

    standard, misses = {}, []
    for text in signatures:
        poly = build_canonical(Signature.parse(text))
        ell, worst, where = poly.ell, mpf(0), ""
        for blk in poly.blocks:
            key = (ell, blk.symbol)
            if key not in standard:
                if blk.symbol == SQUARE:
                    a, b = quadruple_gluings(ell)
                    standard[key] = [a, b ** -1, a ** -1, b]
                else:
                    c = (cusp_gluing(ell) if blk.symbol == INFINITY
                         else wedge_gluing(ell, blk.symbol))
                    standard[key] = [c, c ** -1]
            phi = 2 * pi * blk.index / ell
            for k, M in enumerate(standard[key]):
                i = blk.side_start + k
                g = poly.generators[i]
                gap = sign_gap((mpc(g.a), mpc(g.b)), normalised(turned(M, phi)))
                if gap > worst:
                    worst, where = gap, f"generators[{i}]"
                if gap > GENERATOR_TOL:
                    misses.append(f"generator {text} side {i}")
                    print(f"MISS {misses[-1]}: {mp.nstr(gap, 3)} relative "
                          f"from its 50-digit value")
        print(f"generators {text}: worst {mp.nstr(worst, 3)} at {where}")
    return misses


def quadruple_commutator(ell):
    """b^-1 a^-1 b a, a applied first: the quadruple's block gluing."""
    a, b = quadruple_gluings(ell)
    return b ** -1 * a ** -1 * b * a


def apply(M, z):
    return (M[0, 0] * z + M[0, 1]) / (M[1, 0] * z + M[1, 1])


def derivative_modulus(M, z):
    """|M'(z)| = |det M| / |M10 z + M11|^2."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return abs(det) / abs(M[1, 0] * z + M[1, 1]) ** 2


def orthogonal_circle_through(u, p):
    # Re(conj(c) u) = 1, Re(conj(c) p) = (1+|p|^2)/2, |c|^2 = 1 + r^2
    A = matrix([[u.real, u.imag], [p.real, p.imag]])
    rhs = matrix([mpf(1), (1 + abs(p) ** 2) / 2])
    sol = A ** -1 * rhs
    c = mpc(sol[0], sol[1])
    r = sqrt(abs(c) ** 2 - 1)
    return c, r


def cut_point(ell, m, mode):
    """The left (P), right (Q) or midpoint (M) cut of the standard order-m
    wedge: Q and P are the far ends of the sides through the wedge vertex
    from 1 and from e^{2 pi i/l}, and M halves the arc from P to Q
    counter-clockwise."""
    v = wedge_vertex(ell, m)

    def far_end(u):
        c, r = orthogonal_circle_through(u, v)
        s = c / abs(c) ** 2
        e1, e2 = s * (1 + 1j * r), s * (1 - 1j * r)
        return e1 if abs(e1 - u) > abs(e2 - u) else e2

    tp = arg(far_end(exp(2j * pi / ell))) % (2 * pi)
    tq = arg(far_end(mpc(1, 0))) % (2 * pi)
    return exp(1j * {"left": tp, "right": tq,
                     "midpoint": tp + ((tq - tp) % (2 * pi)) / 2}[mode])


def cycle_end(ell, m, mode):
    """(J, c^(J+1)(a)) for the ``mode`` cut a of the standard order-m wedge,
    where c^j(a) stays strictly inside the block arc for j = 1..J; the
    cycle is degenerate when c^(J+1)(a) is the start corner 1."""
    x = cut_point(ell, m, mode)
    c = wedge_gluing(ell, m)
    J = -1
    while True:
        x, J = apply(c, x), J + 1
        if not TOL < arg(x) % (2 * pi) < 2 * pi / ell - TOL:
            return J, x


def cycle_mismatches(signatures):
    """Compare ``fuchsian.cycle``'s J and degeneracy at every elliptic
    vertex of ``signatures`` under the three named partitions with
    ``cycle_end``; print and return the mismatches."""
    from fuchsian import Signature, build_canonical, cycle, make_partition

    oracle, misses = {}, []
    for text in signatures:
        poly = build_canonical(Signature.parse(text))
        for mode in ("left", "right", "midpoint"):
            part = make_partition(poly, mode)
            worst, count = mpf(0), 0
            for k in poly.elliptic_indices():
                key = (poly.ell, poly.vertices[k].order, mode)
                if key not in oracle:
                    J, end = cycle_end(*key)
                    oracle[key] = J, abs(end - 1) < TOL, abs(end - 1)
                J, degenerate, gap = oracle[key]
                if degenerate:
                    worst, count = max(worst, gap), count + 1
                data = cycle(poly, part, k)
                if (data.J, data.degenerate) != (J, degenerate):
                    misses.append(f"cycle {text} {mode} vertex {k}")
                    print(f"MISMATCH {misses[-1]}: J={data.J} degenerate="
                          f"{data.degenerate}, mpmath J={J} degenerate="
                          f"{degenerate}")
            print(f"cycle {text} {mode}: {len(poly.elliptic_indices())} "
                  f"elliptic vertices, {count} degenerate, ending within "
                  f"{mp.nstr(worst, 3)} of the corner")
    return misses


def far_end_misses(signatures):
    """Compare every elliptic P and Q of ``fuchsian.build_canonical`` with
    the 50-digit ``cut_point`` of its wedge, turned to the wedge's block;
    print the worst distance per signature and return the misses."""
    from fuchsian import Signature, build_canonical

    oracle, misses = {}, []
    for text in signatures:
        poly = build_canonical(Signature.parse(text))
        worst, where = mpf(0), ""
        for k in poly.elliptic_indices():
            blk = poly.block_of_side(k)
            for name, mode in (("P", "left"), ("Q", "right")):
                key = (poly.ell, poly.vertices[k].order, mode)
                if key not in oracle:
                    oracle[key] = arg(cut_point(*key))
                exact = oracle[key] + 2 * pi * blk.index / poly.ell
                got = getattr(poly.aux[k], name).theta
                gap = abs((mpf(got) - exact + pi) % (2 * pi) - pi)
                if gap > worst:
                    worst, where = gap, f"{name}_{k} (order {key[1]})"
                if gap > PQ_TOL:
                    misses.append(f"{name} {text} vertex {k}")
                    print(f"MISS {misses[-1]}: {mp.nstr(gap, 3)} from the "
                          f"50-digit far end")
        print(f"far ends {text}: worst {mp.nstr(worst, 3)} at {where}")
    return misses


def growth_exponent(genus, orders, cusps):
    """-log x* for the root x* in (0, 1) of the growth-series equation of
    the free product of 2g + t - 1 copies of Z and Z/m for each order m:
    sum_i 1/f_i(x) - (k - 1) = 0 over the k factors, f_Z = (1 + x)/(1 - x)
    and f_Z/m(x) = sum of x^|j| over the residues j of Z/m taken in
    (-m/2, m/2].  The left side falls from 1 at x = 0 to sum 1/m - (k - 1)
    < 0 at x = 1, so the bracket holds the one root."""
    free = 2 * genus + cusps - 1
    k = free + len(orders)

    def f_cyclic(m, x):
        return sum(x ** abs(j) for j in range(-((m - 1) // 2), m // 2 + 1))

    def excess(x):
        return (free * (1 - x) / (1 + x)
                + sum(1 / f_cyclic(m, x) for m in orders) - (k - 1))

    return -log(findroot(excess, (mpf(0), mpf(1)), solver="illinois"))


def growth_misses(signatures):
    """Compare ``oracles.growth_rate`` with ``growth_exponent`` on each
    signature; print the distance and return the misses."""
    from fuchsian import Signature
    from oracles import growth_rate

    misses = []
    for text in signatures:
        sig = Signature.parse(text)
        exact = growth_exponent(sig.genus, sig.orders, sig.cusps)
        gap = abs(mpf(growth_rate(sig)) - exact)
        print(f"growth rate {text}: {mp.nstr(exact, 20)}, float oracle off "
              f"by {mp.nstr(gap, 3)}")
        if gap > GROWTH_TOL:
            misses.append(f"growth rate {text}")
    return misses


def main():
    misses = []

    def check(name, derived, closed):
        diff = abs(derived - closed)
        print(f"{name}: {derived} vs {closed}, diff {mp.nstr(diff, 3)}")
        if diff > TOL:
            misses.append(name)

    v1 = wedge_vertex(2, 3)
    check("V1(l=2,m=3) = (2-sqrt3)i", v1, mpc(0, 2 - sqrt(3)))

    c, r = orthogonal_circle_through(mpc(1, 0), v1)
    check("circle(1, V1) center = 1+2i", c, mpc(1, 2))
    check("circle(1, V1) radius = 2", r, 2)
    s = c / abs(c) ** 2
    q1, q2 = s * (1 + 1j * r), s * (1 - 1j * r)
    q = q1 if abs(q1 - 1) > abs(q2 - 1) else q2
    check("Q1 = (-3+4i)/5", q, mpc(-3, 4) / 5)
    c, r = orthogonal_circle_through(mpc(-1, 0), v1)
    s = c / abs(c) ** 2
    p1, p2 = s * (1 + 1j * r), s * (1 - 1j * r)
    check("P1 = (3+4i)/5", p1 if abs(p1 + 1) > abs(p2 + 1) else p2,
          mpc(3, 4) / 5)

    # first quadruple gluing at l = 1, z -> (al z + be) / (ga z + de); its
    # isometric circle |ga z + de| = sqrt|det| has center -de/ga
    th = pi / 4
    e = lambda k: exp(1j * k * th)
    al, be, ga, de = -e(5), cos(th) * e(6), -cos(th), e(1)
    det = al * de - be * ga
    check("a1(l=1) isometric circle center = 1+i", -de / ga, mpc(1, 1))
    check("a1(l=1) isometric circle radius = 1", sqrt(abs(det)) / abs(ga), 1)

    check("area(0;2,3;1) = pi/3",
          2 * pi * (-2 + 1 + mpf(1) / 2 + mpf(2) / 3), pi / 3)
    check("area(1;2,3,7;2) = 2pi*169/42",
          2 * pi * (2 - 2 + 2 + mpf(1) / 2 + mpf(2) / 3 + mpf(6) / 7),
          2 * pi * mpf(169) / 42)

    # commutator of the quadruple gluings at l = 1
    comm = quadruple_commutator(1)
    check("(1;;1) commutator |trace| = 2", abs(comm[0, 0] + comm[1, 1]), 2)

    # wedge rotation angle: eigenvalues e^{-i pi/m}, e^{i pi/m}
    for ell, m in ((2, 3), (5, 7), (6, 8)):
        M = wedge_gluing(ell, m)
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        M = M / sqrt(det)
        check(f"wedge l={ell} m={m}: |trace| = 2 cos(pi/{m})",
              abs(M[0, 0] + M[1, 1]), 2 * cos(pi / m))

    # block gluings carry the start corner 1 to the end corner e^{2 pi i/l}
    # (validate_polygon's equal_distribution), with derivative 1 there (its
    # parabolic_product)
    blocks = ([(f"wedge l={ell} m={m}", ell, wedge_gluing(ell, m))
               for ell, m in ((2, 3), (5, 7), (6, 8))]
              + [(f"cusp l={ell}", ell, cusp_gluing(ell)) for ell in (2, 3, 5)]
              + [(f"quadruple commutator l={ell}", ell,
                  quadruple_commutator(ell)) for ell in (1, 2, 3)])
    for name, ell, M in blocks:
        check(f"{name}: 1 -> e^(2 pi i/{ell})", apply(M, 1),
              exp(2j * pi / ell))
        check(f"{name}: |derivative at 1| = 1", derivative_modulus(M, 1), 1)

    # the real-line form R = C M C^-1 of a gluing M of determinant 1, with
    # C the Cayley map z -> i (1 + z) / (1 - z)
    cayley = matrix([[1j, 1j], [-1, 1]])
    for ell in (2, 3, 8):
        for name, M in ((f"wedge l={ell} m=3", wedge_gluing(ell, 3)),
                        (f"cusp l={ell}", cusp_gluing(ell))):
            M = M / sqrt(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
            R = cayley * M * cayley ** -1
            entries = [R[i, j] for i in range(2) for j in range(2)]
            check(f"{name} real form: entries real",
                  max(abs(x.imag) for x in entries), 0)
            check(f"{name} real form: det = 1",
                  R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0], 1)
            check(f"{name} real form: -inf -> -cot(pi/{ell})",
                  R[0, 0] / R[1, 0], -cot(pi / ell))
            a, b = M[0, 0], M[0, 1]
            kernel = (a.real + b.real, a.imag - b.imag, -(a.imag + b.imag),
                      a.real - b.real)
            check(f"{name} real form: [[a1 + b1, a2 - b2], "
                  f"[-(a2 + b2), a1 - b1]]",
                  max(abs(x - y) for x, y in zip(entries, kernel)), 0)

    # the closed forms of the gluings equal the block matrices normalised to
    # determinant 1, up to sign, and the turn to a sector is (a, b e^{i phi})
    for ell, m in ((2, 3), (5, 7), (6, 8)):
        check(f"wedge l={ell} m={m}: closed form = normalised matrix",
              sign_gap(wedge_closed(ell, m), normalised(wedge_gluing(ell, m))),
              0)
    for ell in (2, 3, 5):
        check(f"wedge l={ell} m=inf: closed form = normalised cusp matrix",
              sign_gap(wedge_closed(ell, inf), normalised(cusp_gluing(ell))),
              0)
    for ell in (1, 2, 3):
        for name, closed, M in zip("ab", quadruple_closed(ell),
                                   quadruple_gluings(ell)):
            check(f"quadruple l={ell} {name}: closed form = normalised "
                  f"matrix", sign_gap(closed, normalised(M)), 0)
    for phi in (pi / 3, 2 * pi * 17 / 31, 5.5):
        a, b = wedge_closed(5, 7)
        check(f"turn by {mp.nstr(phi, 6)}: (a, b e^(i phi)) = R g R^-1",
              sign_gap((a, b * exp(1j * phi)),
                       normalised(turned(wedge_gluing(5, 7), phi))), 0)

    for ell, m in ((31, 17), (31, 29)):
        J, end = cycle_end(ell, m, "midpoint")
        check(f"wedge l={ell} m={m} midpoint cut: c^{J + 1}(M) = 1 (J = {J})",
              end, 1)

    misses += cycle_mismatches(CYCLE_SIGNATURES)
    misses += far_end_misses(PQ_SIGNATURES)
    misses += growth_misses(GROWTH_SIGNATURES)
    misses += generator_misses(GENERATOR_SIGNATURES)

    if misses:
        print(f"{len(misses)} derived value(s) miss their closed form by more "
              f"than {mp.nstr(TOL, 1)} or disagree with the package: "
              f"{', '.join(misses)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
