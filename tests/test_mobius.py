"""Disk-isometry arithmetic: group laws, conjugacy type by trace, unit
derivative at the ends of glued sides, geodesic circles.

Expected values tagged as oracles are either exact closed forms checked at
high precision in tools/derive_oracles.py or independent constructions made
inline (conjugated diagonal rotations), or the linear solve for orthogonal
circles in tests/oracles.py.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import MODES, SCALE, SIGNATURES, partition, polygon, side_circle
from oracles import orthogonal_circle

from fuchsian import BoundaryPoint, DiskPoint, MoebiusPSU, geodesic_circle
from fuchsian.arcs import cayley, cayley_angle
from fuchsian.extension import _moebius
from fuchsian.mobius import (TAU, angular_distance, geodesic_far_end,
                             vertex_frame)
from fuchsian.polygon import (elliptic_generator, elliptic_vertex,
                              hyperbolic_generator_a, hyperbolic_generator_b,
                              parabolic_generator)

V1_23 = complex(0.0, 2.0 - math.sqrt(3.0))   # wedge vertex, l=2 m=3


def conjugated_rotation(fixed, m):
    """Oracle construction: move the fixed point to 0, rotate clockwise by
    2 pi/m, move back.  Independent of the closed-form coefficients."""
    n = 1.0 / math.sqrt(1.0 - abs(fixed) ** 2)
    move = np.array([[n, -n * fixed], [-n * fixed.conjugate(), n]])
    rot = np.diag([cmath.exp(-1j * math.pi / m), cmath.exp(1j * math.pi / m)])
    mat = np.linalg.inv(move) @ rot @ move
    return MoebiusPSU.from_coeffs(*mat.flatten())


def psu_elements():
    return st.tuples(st.floats(0.0, 3.0), st.floats(0.0, TAU),
                     st.floats(0.0, TAU)).map(
        lambda t: MoebiusPSU.from_ab(
            math.hypot(1.0, t[0]) * cmath.exp(1j * t[1]),
            t[0] * cmath.exp(1j * t[2])))


class TestAction:
    def test_identity_fixes_interior_point(self):
        assert MoebiusPSU.identity().apply(0.3 + 0.1j) == 0.3 + 0.1j

    def test_full_rotation_of_two_blocks_is_half_turn(self):
        r = MoebiusPSU.rotation(TAU / 2)
        assert abs(r.apply(1.0) - (-1.0)) < 1e-15

    def test_order_three_wedge_rotation_cubes_to_identity(self):
        c = elliptic_generator(2, 3)
        z = 0.5 + 0j
        for _ in range(3):
            z = c.apply(z)
        assert abs(z - 0.5) < 1e-10
        assert c.power(3).sign_distance(MoebiusPSU.identity()) < 1e-12

    def test_closed_form_matches_conjugated_rotation(self):
        for ell, m in ((2, 3), (3, 5), (5, 7), (6, 8), (2, 2)):
            lib = elliptic_generator(ell, m)
            ora = conjugated_rotation(elliptic_vertex(ell, m), m)
            assert lib.sign_distance(ora) < 1e-12

    def test_boundary_image_modulus(self):
        g = parabolic_generator(3)
        for t in np.linspace(0, TAU, 37, endpoint=False):
            assert abs(abs(g.apply(cmath.exp(1j * t))) - 1) < 1e-10


class TestGroupStructure:
    def test_compose_with_identity(self):
        g = elliptic_generator(2, 3)
        assert (g @ MoebiusPSU.identity()).sign_distance(g) == 0

    def test_involution_squares_to_identity(self):
        c2 = elliptic_generator(3, 2)
        assert (c2 @ c2).sign_distance(MoebiusPSU.identity()) < 1e-12
        assert c2.sign_distance(c2.inverse()) < 1e-12

    def test_inverse_composes_to_identity(self):
        g = hyperbolic_generator_a(2)
        assert (g @ g.inverse()).sign_distance(MoebiusPSU.identity()) < 1e-10

    def test_quadruple_commutator_is_parabolic(self):
        # single-block genus-one case: b^-1 a^-1 b a fixes 1
        a, b = hyperbolic_generator_a(1), hyperbolic_generator_b(1)
        comm = b.inverse() @ a.inverse() @ b @ a
        assert abs(abs(comm.trace) - 2.0) < 1e-8
        assert abs(comm.apply(1.0 + 0j) - 1.0) < 1e-10
        assert comm.sign_distance(MoebiusPSU.identity()) > 1e-8

    @settings(max_examples=60, deadline=None)
    @given(psu_elements(), psu_elements(), st.floats(0.0, TAU))
    def test_group_action_is_a_homomorphism(self, g1, g2, t):
        x = cmath.exp(1j * t)
        lhs = (g1 @ g2).apply(x)
        rhs = g1.apply(g2.apply(x))
        assert abs(lhs - rhs) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(psu_elements(), st.floats(0.0, TAU))
    def test_sign_quotient_acts_identically(self, g, t):
        minus = MoebiusPSU(-g.a, -g.b)
        x = cmath.exp(1j * t)
        assert g.apply(x) == minus.apply(x)

    @settings(max_examples=40, deadline=None)
    @given(psu_elements(), st.floats(0.0, TAU), st.floats(0.1, 2.0),
           st.floats(0.1, 2.0))
    def test_cyclic_order_is_preserved(self, g, t0, d1, d2):
        ts = [t0, t0 + d1, t0 + d1 + min(d2, TAU - d1 - 0.05)]
        imgs = [g.apply_angle(t) for t in ts]
        gaps = [(imgs[1] - imgs[0]) % TAU, (imgs[2] - imgs[0]) % TAU]
        assert gaps[0] < gaps[1]


def vector_images(g, thetas):
    """Images of the angles ``thetas`` under g on the vector path of
    ``extension.image_rects``: ``cayley``, ``_moebius`` by the rows of
    ``g.real`` under its error state, ``cayley_angle``."""
    x = cayley(np.asarray(thetas, dtype=float))[None]
    with np.errstate(all="ignore", invalid="raise"):
        return cayley_angle(_moebius(x, np.array(g.real)[:, None]))[0]


def seam_pole(theta):
    """x -> -1 / (x - x0), x0 the Cayley coordinate of theta, whose
    denominator is exactly 0 at theta: (p, q, r, s) = (0, -1, 1, -x0) from
    a = -x0 / 2 - i and b = x0 / 2, each halving exact."""
    x0 = float(cayley(theta))
    return MoebiusPSU(complex(-0.5 * x0, -1.0), complex(0.5 * x0, 0.0))


def disk_gap(g, t):
    """Gap between ``apply_angle`` and the phase of the disk action
    ``apply`` at angle t, over c eps max(1, |g'|), eps = 2^-52.

    c comes from the operation counts, to first order, with each libm call
    within 1 ulp and ||M|| = sqrt(p^2 + q^2 + r^2 + s^2) = sqrt(2 (|a|^2 +
    |b|^2)); |g'| = (1 + x^2) / ((p x + q)^2 + (r x + s)^2) on the Cayley
    coordinate.  ``apply_angle``: x from cos, sin and one division is off by
    2.5 eps relative, which moves the angle by at most 2.5 eps before g
    stretches it by |g'|; p x + q and r x + s, with p, q, r, s each rounded
    once, are off by 1.5 eps (|p x| + |q|) and 1.5 eps (|r x| + |s|),
    which turn the image by at most 3 eps ||M|| sqrt|g'| (Cauchy-Schwarz);
    the quotient adds 0.5 eps and the doubled atan2 4 eps.  ``apply``:
    e^{it} is off by eps, stretched by |g'|; a z and conj(b) z are off by
    sqrt2 eps |a| and sqrt2 eps |b| against |a z + b| = |conj(b) z +
    conj(a)| = 1 / sqrt|g'|, their sums by 0.5 eps each, the quotient by 3
    eps, the phase and its wrap by 4 eps.  With |a| + |b| <= ||M|| the gap
    is below eps (3.5 |g'| + 4.5 ||M|| sqrt|g'| + 12.5), and so below
    (16 + 5 ||M||) eps max(1, |g'|).  The ||M|| term is the cancellation in
    p x + q and a z + b, which both forms share."""
    z = cmath.exp(1j * t)
    norm = math.sqrt(2.0 * (abs(g.a) ** 2 + abs(g.b) ** 2))
    bound = (16.0 + 5.0 * norm) * 2.0 ** -52 * max(
        1.0, g.derivative_modulus(z))
    return angular_distance(g.apply_angle(t),
                            cmath.phase(g.apply(z)) % TAU) / bound


class TestBoundaryAction:
    """``apply_angle`` on the Cayley coordinate, the one boundary action,
    against the vector path of ``image_rects`` and the disk action."""

    def test_matches_vector_path(self):
        # seeded angles, 0, 1e-310 (the seam in x), pi and the cut points;
        # the generators, seeded elements and three with r = 0, which fix
        # the seam; np.arctan2 and math.atan2 may differ by 1 ulp
        rng = np.random.default_rng(26)
        extra = [MoebiusPSU.from_ab(math.hypot(1.0, m) * cmath.exp(1j * u),
                                    m * cmath.exp(1j * v))
                 for m, u, v in rng.uniform(0.0, [3.0, TAU, TAU], (50, 3))]
        extra += [MoebiusPSU.identity(), MoebiusPSU(1 + 0.75j, -0.75j),
                  MoebiusPSU(1.25 + 0j, 0.75 + 0j)]
        assert [g.real[2] for g in extra[-3:]] == [0.0] * 3
        cases = [(extra, [])] + [
            (polygon(text).generators,
             [t for m in MODES for t in partition(text, m).thetas])
            for text in SIGNATURES + SCALE]
        for gens, cuts in cases:
            thetas = np.concatenate([rng.uniform(0.0, TAU, 40),
                                     [0.0, 1e-310, math.pi], cuts])
            for g in gens:
                want = vector_images(g, thetas).tolist()
                for t, w in zip(thetas.tolist(), want):
                    assert angular_distance(g.apply_angle(t), w) \
                        <= 2 * math.ulp(TAU), (g, t)

    def test_zero_denominator_gives_the_seam(self):
        rng = np.random.default_rng(27)
        for t in rng.uniform(0.5, TAU - 0.5, 20).tolist():
            g = seam_pole(t)
            assert g.apply_angle(t) == 0.0
            assert angular_distance(vector_images(g, [t])[0], 0.0) \
                <= 2 * math.ulp(TAU)

    @settings(max_examples=200, deadline=None)
    @given(psu_elements(), st.floats(0.0, TAU))
    def test_matches_disk_action(self, g, t):
        assert disk_gap(g, t) <= 1.0

    def test_generators_match_disk_action(self):
        rng = np.random.default_rng(28)
        thetas = [0.0, 1e-310, *rng.uniform(0.0, TAU, 30).tolist()]
        worst = max(disk_gap(g, t) for text in SIGNATURES + SCALE
                    for g in polygon(text).generators for t in thetas)
        assert worst <= 1.0


class TestClassification:
    """Conjugacy type read from |trace|: 2 cos(angle/2) below 2 for a
    rotation by angle, 2 for a parabolic map, above 2 for a hyperbolic one."""

    def test_identity(self):
        # the rotation by 2pi is the matrix -1, the identity up to sign
        ident = MoebiusPSU.identity()
        assert abs(ident.trace - 2.0) == 0
        assert MoebiusPSU.rotation(TAU).sign_distance(ident) < 1e-15

    def test_wedge_rotation_angle(self):
        for ell, m in ((2, 3), (5, 7), (6, 8), (3, 2)):
            tr = abs(elliptic_generator(ell, m).trace)
            assert abs(tr - 2.0 * math.cos(math.pi / m)) < 1e-12
            assert abs(2.0 * math.acos(tr / 2.0) - TAU / m) < 1e-9

    def test_cusp_gluing_is_parabolic(self):
        for ell in (2, 3, 5, 6):
            g = parabolic_generator(ell)
            assert abs(abs(g.trace) - 2.0) < 1e-8
            assert g.sign_distance(MoebiusPSU.identity()) > 1e-8

    def test_hyperbolic_gluing(self):
        assert abs(hyperbolic_generator_a(2).trace) > 2.0 + 1e-8


class TestIsometricCircle:
    """A glued side lies on the isometric circle of its gluing, the locus
    of unit derivative modulus; on the boundary that is the statement that
    the derivative has modulus 1 at both ideal ends of the side."""

    def test_cusp_gluing_circle_passes_through_glued_side(self):
        # l = 2: the glued side runs from 1 to i
        g = parabolic_generator(2)
        for z in (1.0 + 0j, 1j):
            assert abs(g.derivative_modulus(z) - 1.0) < 1e-10

    def test_quadruple_gluing_circle_closed_form(self):
        # l = 1: side V0 V1 runs from 1 to i, on the circle about 1 + i of
        # radius 1, the isometric circle of the first quadruple gluing
        c, r = geodesic_circle(BoundaryPoint.from_angle(0.0),
                               BoundaryPoint.from_angle(math.pi / 2))
        assert abs(c - (1 + 1j)) < 1e-12
        assert abs(r - 1.0) < 1e-12
        g = hyperbolic_generator_a(1)
        for z in (1.0 + 0j, 1j):
            assert abs(g.derivative_modulus(z) - 1.0) < 1e-12

    def test_unit_derivative_on_circle(self):
        # the side from 1 through the order-3 wedge vertex (l = 2)
        g = elliptic_generator(2, 3)
        u = BoundaryPoint.from_angle(0.0)
        c, r = geodesic_circle(u, geodesic_far_end(u, DiskPoint(V1_23)))
        h = 1e-6
        for s in np.linspace(0, TAU, 17):
            z = c + r * cmath.exp(1j * s)
            if abs(z) > 0.999:
                continue
            assert abs(g.derivative_modulus(z) - 1.0) < 1e-8
            fd = abs(g.apply(z + h) - g.apply(z - h)) / (2 * h)
            assert abs(fd - 1.0) < 1e-6

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_unit_derivative_at_side_ends(self, text):
        # side i runs from P_i to Q_{i+1}; a diameter side is glued by a
        # rotation about 0, whose derivative has modulus 1 everywhere on
        # the circle.  The rounding of |conj(b) z + conj(a)|^2 grows with
        # the entry scale |a|^2: at most 3.3e-15 |a|^2 up to 60;;1
        poly = polygon(text)
        n = poly.n_sides
        for i, g in enumerate(poly.generators):
            if side_circle(poly, i) is None:
                continue
            for e in (poly.aux[i].P, poly.aux[(i + 1) % n].Q):
                assert (abs(g.derivative_modulus(e.z) - 1.0)
                        < 1e-14 * abs(g.a) ** 2)


class TestGeodesics:
    def test_antipodal_pair_is_diameter(self):
        assert geodesic_circle(BoundaryPoint.from_angle(0.0),
                               BoundaryPoint.from_angle(math.pi)) is None

    def test_through_center_is_diameter(self):
        u = BoundaryPoint.from_angle(0.0)
        far = geodesic_far_end(u, DiskPoint(0j))
        assert abs(far.z - (-1.0)) < 1e-12
        assert geodesic_circle(u, far) is None

    def test_extension_endpoint_exact_value(self):
        # circle through 1 and (2 - sqrt 3) i has center 1 + 2i, radius 2;
        # far endpoint (-3 + 4i)/5 (tools/derive_oracles.py)
        u = BoundaryPoint.from_angle(0.0)
        far = geodesic_far_end(u, DiskPoint(V1_23))
        c, r = geodesic_circle(u, far)
        assert abs(c - (1 + 2j)) < 1e-12
        assert abs(r - 2.0) < 1e-12
        assert abs(far.z - (-3 + 4j) / 5) < 1e-12

    def test_endpoint_solves_orthogonality_system(self):
        # independent re-derivation by linear solve for a second case
        u = BoundaryPoint.from_angle(0.7)
        p = DiskPoint(0.31 - 0.12j)
        c, _ = geodesic_circle(u, geodesic_far_end(u, p))
        assert abs(orthogonal_circle(u.z, p.z)[0] - c) < 1e-10

    @staticmethod
    def assert_orthogonal_through(circle, ends, ref):
        # centre as the linear solve has it, through both ideal ends at
        # right angles to the unit circle
        (c, r), scale = circle, abs(ref[0])
        assert abs(c - ref[0]) < 1e-12 * scale
        for e in ends:
            assert abs(abs(e.z - c) - r) < 1e-12 * scale
        assert abs(abs(c) ** 2 - r ** 2 - 1.0) < 1e-12 * scale ** 2

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, TAU), st.floats(0.01, math.pi - 0.01),
           st.sampled_from([1, -1]))
    def test_pair_centre_matches_linear_solve(self, t, d, turn):
        u = BoundaryPoint.from_angle(t)
        w = BoundaryPoint.from_angle(t + turn * d)
        self.assert_orthogonal_through(geodesic_circle(u, w), (u, w),
                                       orthogonal_circle(u.z, w.z))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, TAU), st.floats(0.0, 0.95), st.floats(0.0, TAU))
    def test_interior_centre_matches_linear_solve(self, t, r, phi):
        u = BoundaryPoint.from_angle(t)
        p = DiskPoint(r * cmath.exp(1j * phi))
        # away from the diameters through p, where the solve is singular
        assume(abs((u.z.conjugate() * p.z).imag) > 0.01)
        far = geodesic_far_end(u, p)
        circle = geodesic_circle(u, far)
        ref = orthogonal_circle(u.z, p.z)
        self.assert_orthogonal_through(circle, (u, far), ref)
        assert abs(abs(p.z - circle[0]) - circle[1]) < 1e-12 * abs(ref[0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 0.95), st.floats(0.0, TAU), st.floats(0.0, 0.95),
           st.floats(0.0, TAU))
    def test_vertex_frame_inverse(self, r, phi, s, psi):
        z, w = r * cmath.exp(1j * phi), s * cmath.exp(1j * psi)
        assert abs(vertex_frame(z, z)) == 0.0
        assert abs(vertex_frame(-z, vertex_frame(z, w)) - w) < 1e-12 / (1 - r)


class TestNormalization:
    def test_shape_rejection(self):
        with pytest.raises(ValueError):
            MoebiusPSU.from_coeffs(2.0, 0.0, 0.0, 0.5)  # disk-breaking map

    @pytest.mark.parametrize("build, words", [
        (lambda: DiskPoint(1.0 + 0j), "is not interior"),
        (lambda: MoebiusPSU(2.0 + 0j, 0j), "determinant"),
        (lambda: MoebiusPSU.from_coeffs(1.0, 2.0, 0.5, 1.0), "singular"),
    ], ids=["disk-on-circle", "determinant", "singular"])
    def test_rejects_bad_input(self, build, words):
        with pytest.raises(ValueError, match=words):
            build()

    def test_sign_normal_form_has_nonnegative_lead(self):
        g = MoebiusPSU.from_ab(-math.sqrt(2), 1j)
        lead = g.a if abs(g.a) >= abs(g.b) else g.b
        assert lead.real > 0 or (lead.real == 0 and lead.imag >= 0)

    def test_sign_quotient_equality(self):
        g = elliptic_generator(2, 3)
        assert g.sign_distance(MoebiusPSU(-g.a, -g.b)) == 0
        assert g.sign_distance(g.inverse()) > 1e-8

    def test_non_finite_rejected(self):
        from fuchsian import NonFinite
        g = MoebiusPSU.identity()
        with pytest.raises(NonFinite):
            g.apply(complex("nan"))
        with pytest.raises(NonFinite):
            MoebiusPSU.from_ab(complex("inf"), 0j)

    @settings(max_examples=60, deadline=None)
    @given(psu_elements(), st.floats(0.0, TAU))
    def test_boundary_modulus_preserved(self, g, t):
        assert abs(abs(g.apply(cmath.exp(1j * t))) - 1.0) < 1e-10
