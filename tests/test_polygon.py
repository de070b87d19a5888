"""Canonical polygon construction and validation."""

import dataclasses
import json
import math
import tracemalloc

import pytest

import numpy as np

from conftest import LADDER, SCALE, SIGNATURES, STRESS, polygon, side_circle
from oracles import (bisector_endpoint, boundary_product, isometric_residuals,
                     landing_residuals, scalar_validation)

from fuchsian import (InvalidSignature, Signature, build_canonical,
                      signature_string, validate_polygon)
from fuchsian.mobius import (TAU, BoundaryPoint, DiskPoint, MoebiusPSU,
                             angular_distance)
from fuchsian.polygon import (INFINITY, SQUARE, elliptic_generator,
                              hyperbolic_generator_a, hyperbolic_generator_b,
                              rotation_powers)

MODULAR = "0;2,3;1"
# perturbed at their first vertex of order >= 3
PERTURBED = [MODULAR, "1;2,3,7;2", "2;2,5,8;2", "0;3,3,4;2", "20;2,3,17,29;8"]


# 50-digit far ends P and Q (tools/derive_oracles.py ``cut_point``, turned to
# the block), to 30 digits: (signature, vertex) -> (theta_P, theta_Q).  The
# wedges are those of large l where a linear solve for the side circle
# misses by more than 4e-15 rad, up to 2.6e-14 at vertex 127 of 30;...;10
FAR_ENDS = {
    ("30;2,3,5,7,11,13,17,19,23;10", 123): (
        "4.10151681708844012399573984835", "4.14516389858476712696869903275"),
    ("30;2,3,5,7,11,13,17,19,23;10", 127): (
        "4.38172891602988826726867815106", "4.38855057524161785677286796059"),
    ("30;2,3,5,7,11,13,17,19,23;10", 129): (
        "4.51468596436885127160740428843", "4.5173929147018042889726954385"),
    ("30;2,3,5,7,11,13,17,19,23;10", 135): (
        "4.90828897090424880608287731767", "4.90918807156385506411288325508"),
    ("0;" + ",".join(map(str, range(3, 33))) + ";1", 7): (
        "0.725512902830314606054541527458", "0.740563668844922238561358718073"),
    ("0;" + ",".join(map(str, range(3, 33))) + ";1", 53): (
        "5.54983890159120626429791902495", "5.55045514109272984493675426264"),
    ("15;2,2,2,3,3,3,4,4,4;20", 69): (
        "2.82498841162520025856593523937", "2.87371454139814561585467368844"),
    ("15;2,2,2,3,3,3,4,4,4;20", 77): (
        "3.42129325143149156026778630441", "3.4463744099043355191621783009"),
    ("10;3,4,5,6,7,8,9,10;6", 47): (
        "3.67813460512589186514748031032", "3.69777858156318791211263893738"),
    ("20;2,3,17,29;8", 83): (
        "4.32388674884243379044199161824", "4.39149932240667003238985776763"),
    ("20;2,3,17,29;8", 85): (
        "4.55950551148767890843537784054", "4.56124735377301113871423198189"),
}


def first_order_three(poly):
    return next(k for k in poly.elliptic_indices()
                if poly.vertices[k].order >= 3)


def turned(text, i, after):
    """The polygon of ``text`` with gluing i composed with a turn by 1e-7
    about the origin, before it or after it."""
    poly = polygon(text)
    turn = MoebiusPSU.rotation(1e-7)
    generators = list(poly.generators)
    generators[i] = turn @ generators[i] if after else generators[i] @ turn
    return dataclasses.replace(poly, generators=tuple(generators))


class TestSignature:
    def test_parse_round_trip(self):
        for text in SIGNATURES:
            assert str(Signature.parse(text)) == text

    def test_empty_order_list(self):
        sig = Signature.parse("1;;1")
        assert sig.orders == () and sig.ell == 1

    def test_orders_sorted(self):
        sig = Signature.of(0, [7, 2, 3], 2)
        assert sig.orders == (2, 3, 7)

    def test_numpy_integers_become_ints(self):
        sig = Signature.of(np.int64(0), np.array([7, 2, 3]), np.int32(2))
        assert sig == Signature.of(0, [7, 2, 3], 2)
        assert {type(x) for x in (sig.genus, *sig.orders, sig.cusps)} == {int}

    def test_area_condition_rejected(self):
        with pytest.raises(InvalidSignature, match="area"):
            Signature.parse("0;2;1")

    def test_no_cusp_rejected(self):
        with pytest.raises(InvalidSignature, match="cusp"):
            Signature.parse("1;2;0")

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidSignature):
            Signature.parse("0;1,3;1")

    @pytest.mark.parametrize("build, words", [
        (lambda: Signature(-1, (), 2), "genus"),
        (lambda: Signature(0, (3, 2), 1), "sorted"),
        (lambda: Signature.parse("0;2,3"), "expected"),
        (lambda: Signature.parse("0;2,x;1"), "cannot parse"),
        (lambda: Signature.of(0.5, (2, 3), 1), "integers"),
        (lambda: Signature.of(0, (2.5, 3), 1), "integers"),
        (lambda: Signature(0, (2.5, 3), 1), "integers"),
    ], ids=["negative-genus", "unsorted-orders", "field-count",
            "non-integer", "float-genus", "float-order-of", "float-order"])
    def test_rejects_bad_input(self, build, words):
        with pytest.raises(InvalidSignature, match=words):
            build()

    def test_string_symbols(self):
        assert signature_string(Signature.parse(MODULAR)).symbols == (2, 3)
        assert signature_string(Signature.parse("2;2,5,8;2")).symbols == (
            SQUARE, SQUARE, 2, 5, 8, INFINITY)
        assert signature_string(Signature.parse("1;;1")).symbols == (SQUARE,)
        assert str(signature_string(Signature.parse("2;2,5,8;2"))) == \
            "□□258∞"


class TestConstruction:
    def test_modular_layout(self):
        poly = polygon(MODULAR)
        assert poly.ell == 2 and poly.n_sides == 4
        assert abs(poly.vertices[0].point.z - 1.0) < 1e-15
        # order-2 vertex collapses to the origin: cos(pi/2) sec(0) = 0
        v1 = poly.vertices[1]
        assert not v1.is_ideal and v1.order == 2
        assert abs(v1.point.z) < 1e-15
        assert abs(poly.vertices[2].point.z - (-1.0)) < 1e-14
        assert side_circle(poly, 0) is None and side_circle(poly, 1) is None

    def test_block_counts(self):
        assert polygon("1;2,3,7;2").ell == 5
        poly = polygon("2;2,5,8;2")
        assert poly.ell == 6 and poly.n_sides == 16

    def test_block_of_side_holds_the_side(self):
        for text in SIGNATURES + ["3;;1", "0;2;3"]:
            poly = polygon(text)
            assert len(poly.vertices) == len(poly.generators) == poly.n_sides
            assert sum(blk.n_sides for blk in poly.blocks) == poly.n_sides
            for i in range(poly.n_sides):
                blk = poly.block_of_side(i)
                assert blk.side_start <= i < blk.side_start + blk.n_sides

    def test_determinism(self):
        a = build_canonical(Signature.parse("1;2,3,7;2"))
        b = build_canonical(Signature.parse("1;2,3,7;2"))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_side_pairing_is_involution_with_inverse_gluings(self):
        for text in SIGNATURES:
            poly = polygon(text)
            for i, j in enumerate(poly.pairing):
                assert poly.pairing[j] == i and i != j
                assert poly.generators[j].sign_distance(
                    poly.generators[i].inverse()) < 1e-12

    def test_side_pairing_endpoint_maps(self):
        # gluing of side i sends (V_i, V_{i+1}) onto the paired side with
        # reversed orientation
        for text in SIGNATURES:
            poly = polygon(text)
            n = poly.n_sides
            for i, g in enumerate(poly.generators):
                j = poly.pairing[i]
                img_start = g.apply(poly.vertices[i].point.z)
                img_end = g.apply(poly.vertices[(i + 1) % n].point.z)
                assert abs(img_start - poly.vertices[(j + 1) % n].point.z) < 1e-9
                assert abs(img_end - poly.vertices[j].point.z) < 1e-9

    def test_elliptic_generator_order_and_fixed_point(self):
        for text in SIGNATURES:
            poly = polygon(text)
            for k in poly.elliptic_indices():
                m = poly.vertices[k].order
                g = poly.generators[k - 1]
                assert g.power(m).sign_distance(MoebiusPSU.identity()) < 1e-9
                # |trace| = 2 cos(pi/m): a rotation by 2pi/m
                assert abs(abs(g.trace) - 2.0 * math.cos(math.pi / m)) < 1e-9
                assert abs(2.0 * math.acos(min(abs(g.trace) / 2.0, 1.0))
                           - TAU / m) < 1e-9
                fixed = poly.vertices[k].point.z
                assert abs(g.apply(fixed) - fixed) < 1e-10

    def test_quadruple_radii_equal(self):
        for text in ("1;;1", "1;2,3,7;2", "2;2,5,8;2"):
            poly = polygon(text)
            for blk in poly.blocks:
                if blk.symbol != SQUARE:
                    continue
                radii = [side_circle(poly, blk.side_start + k)[1]
                         for k in range(4)]
                assert max(radii) - min(radii) < 1e-9

    def test_second_gluing_rotation_identity(self):
        # b = R_{pi/(2l)} a^{-1} R_{pi/(2l)}^{-1} as matrices up to sign
        for ell in (1, 2, 5, 6):
            rot = MoebiusPSU.rotation(math.pi / (2 * ell))
            lhs = hyperbolic_generator_b(ell)
            rhs = rot @ hyperbolic_generator_a(ell).inverse() @ rot.inverse()
            assert lhs.sign_distance(rhs) < 1e-10


class TestAuxPoints:
    def test_modular_exact_values(self):
        poly = polygon(MODULAR)
        aux = poly.aux[1]
        assert abs(aux.P.z - 1.0) < 1e-14
        assert abs(aux.Q.z - (-1.0)) < 1e-14
        assert abs(aux.M.z - 1j) < 1e-14

    def test_ideal_vertices_return_themselves(self):
        poly = polygon(MODULAR)
        aux = poly.aux[0]
        assert aux.P is aux.Q is aux.M is poly.vertices[0].point

    def test_midpoint_is_projected_vertex(self):
        # mirror symmetry of each block about its bisecting ray
        for text in SIGNATURES:
            poly = polygon(text)
            for k in poly.elliptic_indices():
                blk = poly.block_of_side(k)
                expect = (blk.base_angle + math.pi / poly.ell) % TAU
                assert angular_distance(poly.aux[k].M.theta, expect) < 1e-9

    def test_midpoint_matches_angle_bisector(self):
        for text in ("0;2,3;1", "0;3,3,4;2", "2;2,5,8;2"):
            poly = polygon(text)
            for k in poly.elliptic_indices():
                b = bisector_endpoint(poly, k)
                assert angular_distance(b.theta, poly.aux[k].M.theta) < 1e-9

    def test_ordering_start_P_mid_Q_end(self):
        # within each elliptic block the five marked points are in
        # counter-clockwise order
        for text in SIGNATURES:
            poly = polygon(text)
            for k in poly.elliptic_indices():
                blk = poly.block_of_side(k)
                aux = poly.aux[k]
                mid = blk.base_angle + math.pi / poly.ell
                rel = [(t - blk.base_angle) % TAU
                       for t in (aux.P.theta, mid, aux.Q.theta)]
                sector = TAU / poly.ell
                assert 0 <= rel[0] <= rel[1] <= rel[2] <= sector + 1e-12


    @pytest.mark.parametrize("text, k", FAR_ENDS, ids=[
        f"{text.split(';')[0]};..;{text.split(';')[2]}-v{k}"
        for text, k in FAR_ENDS])
    def test_far_ends_match_50_digits(self, text, k):
        # a few ulps of 2 pi, however large l grows
        aux = polygon(text).aux[k]
        for got, want in zip((aux.P, aux.Q), FAR_ENDS[text, k]):
            assert angular_distance(got.theta, float(want)) < 4e-15

    @pytest.mark.parametrize("text", ["0;2,2;2", "15;2,2,2,3,3,3,4,4,4;20"])
    def test_order_two_far_ends_are_the_corners(self, text):
        poly = polygon(text)
        n = poly.n_sides
        for k in poly.elliptic_indices():
            if poly.vertices[k].order != 2:
                continue
            aux = poly.aux[k]
            assert aux.P is poly.vertices[k - 1].point
            assert aux.Q is poly.vertices[(k + 1) % n].point


class TestValidation:
    # up to 400;;1 (1600 sides): the gluings are closed forms of
    # determinant 1, so the cusp cycle's log derivative stays in its bound
    @pytest.mark.parametrize("text", SIGNATURES + LADDER + list(STRESS)
                             + ["200;;1", "400;;1"])
    def test_all_signatures_pass(self, text):
        rep = validate_polygon(polygon(text))
        assert rep.passed, rep.to_dict()

    def test_modular_area_is_pi_over_three(self):
        rep = validate_polygon(polygon(MODULAR))
        assert abs(rep.area - math.pi / 3) < 1e-12

    def test_area_formula_value(self):
        rep = validate_polygon(polygon("1;2,3,7;2"))
        assert abs(rep.area - TAU * 169 / 42) < 1e-12

    @pytest.mark.parametrize("text", [s for s in SIGNATURES if s != "1;;1"])
    def test_equal_distribution_sees_a_shifted_corner(self, text):
        # block 1's start corner and base angle move together by 1e-6; the
        # gluings stay, so block 0's gluing no longer lands on that corner
        poly = polygon(text)
        blk = poly.blocks[1]
        moved = blk.base_angle + 1e-6
        vertices = list(poly.vertices)
        vertices[blk.side_start] = dataclasses.replace(
            vertices[blk.side_start], point=BoundaryPoint.from_angle(moved))
        blocks = list(poly.blocks)
        blocks[1] = dataclasses.replace(blk, base_angle=moved)
        bad = dataclasses.replace(poly, vertices=tuple(vertices),
                                  blocks=tuple(blocks))
        assert validate_polygon(poly).checks["equal_distribution"].passed
        check = validate_polygon(bad).checks["equal_distribution"]
        assert check.passed is False and check.residual > 1e-7

    @pytest.mark.parametrize("text", SIGNATURES)
    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    def test_every_gluing_lands_on_its_partner(self, text, after):
        # each gluing in turn composed with a turn by 1e-7 about the origin,
        # before or after it; a turn after it keeps its isometric circle and
        # its derivatives, so only the landing on the partner side sees it
        passing = [i for i in range(polygon(text).n_sides)
                   if validate_polygon(turned(text, i, after)).passed]
        assert passing == []

    @pytest.mark.parametrize("text", PERTURBED)
    def test_elliptic_angles_sees_a_moved_vertex(self, text):
        # V_k moves 1e-6 relative along its ray; the neighbouring ideal
        # vertices stay, so both angle and area change
        poly = polygon(text)
        k = first_order_three(poly)
        vertices = list(poly.vertices)
        vertices[k] = dataclasses.replace(
            vertices[k], point=DiskPoint(vertices[k].point.z * (1 + 1e-6)))
        bad = dataclasses.replace(poly, vertices=tuple(vertices))
        assert validate_polygon(poly).checks["elliptic_angles"].passed
        check = validate_polygon(bad).checks["elliptic_angles"]
        assert check.passed is False
        assert check.detail == f"vertex {k} (order {poly.vertices[k].order})"

    @pytest.mark.parametrize("text", PERTURBED)
    def test_free_combination_sees_a_cap_past_its_corner(self, text):
        # side k-1 now ends 1e-6 rad past V_{k+1}, so its cap overlaps the
        # cap beyond side k+1, which starts at V_{k+1}, by 1e-6 rad
        poly = polygon(text)
        k = first_order_three(poly)
        n = poly.n_sides
        past = BoundaryPoint.from_angle(
            poly.vertices[(k + 1) % n].point.theta + 1e-6)
        aux = list(poly.aux)
        aux[k] = dataclasses.replace(aux[k], Q=past)
        bad = dataclasses.replace(poly, aux=tuple(aux))
        assert validate_polygon(poly).checks["free_combination"].passed
        check = validate_polygon(bad).checks["free_combination"]
        assert check.passed is False
        assert abs(check.residual - 1e-6) < 1e-8
        assert check.detail in (f"sides {k - 1} vs {(k + 1) % n}",
                                f"sides {(k + 1) % n} vs {k - 1}")

    @pytest.mark.parametrize("text", [MODULAR, "0;2,4;1"])
    @pytest.mark.parametrize("gluing", ["identity", "hyperbolic",
                                        "off-centre rotation"])
    def test_diameter_side_needs_a_rotation(self, text, gluing):
        # a diameter side must be glued by a proper rotation about the
        # origin: the identity fails |trace| < 2, an off-centre rotation
        # fails b = 0, a hyperbolic map fails both
        poly = polygon(text)
        i = next(i for i in range(poly.n_sides)
                 if side_circle(poly, i) is None)
        generators = list(poly.generators)
        generators[i] = {
            "identity": MoebiusPSU.identity(),
            "hyperbolic": hyperbolic_generator_a(poly.ell),
            "off-centre rotation": elliptic_generator(poly.ell, 3)}[gluing]
        bad = dataclasses.replace(poly, generators=tuple(generators))
        assert validate_polygon(poly).checks["isometric_circles"].passed
        check = validate_polygon(bad).checks["isometric_circles"]
        assert check.passed is False
        assert check.detail == f"side {i}: bad diameter pairing"

    def test_circle_side_needs_an_isometric_circle(self):
        # a rotation about the origin (b = 0) has no isometric circle, so a
        # circle side glued by one fails the check instead of raising
        poly = polygon("1;2,3,7;2")
        assert side_circle(poly, 0) is not None
        generators = list(poly.generators)
        generators[0] = MoebiusPSU.rotation(1.0)
        bad = dataclasses.replace(poly, generators=tuple(generators))
        check = validate_polygon(bad).checks["isometric_circles"]
        assert check.passed is False and check.residual == math.inf
        assert check.detail == "side 0: no isometric circle"

    def test_product_is_parabolic_for_all(self, any_polygon):
        prod = boundary_product(any_polygon)
        assert abs(abs(prod.trace) - 2.0) < 1e-8
        assert abs(prod.apply(1.0 + 0j) - 1.0) < 1e-7


TURNED = [(text, i, after) for text in SIGNATURES
          for i in range(polygon(text).n_sides) for after in (False, True)]


class TestScalarValidation:
    """``validate_polygon`` in array passes against ``scalar_validation``,
    the same checks one side, cap pair and step at a time."""

    @staticmethod
    def assert_same(poly):
        rep = validate_polygon(poly)
        ref = scalar_validation(poly)
        assert rep.passed == all(c.passed for c in
                                 {**rep.checks, **ref}.values())
        # the same pairs measured by the same arithmetic
        assert rep.checks["free_combination"] == ref["free_combination"]
        sides = {"isometric_circles": dict(enumerate(
                     res for res, _ in isometric_residuals(poly))),
                 "equal_distribution": {}}
        for i, res in landing_residuals(poly):
            sides["equal_distribution"][i] = max(
                res, sides["equal_distribution"].get(i, 0.0))
        for name, per_side in sides.items():
            got, want = rep.checks[name], ref[name]
            assert got.passed == want.passed
            assert got.residual == want.residual or (
                abs(got.residual - want.residual) < 1e-12)
            if got.detail != want.detail:
                # sides that tie within that 1e-12 may be named either way
                top = sorted(per_side.values(), reverse=True)
                assert top[0] - top[1] <= 1e-12
                named = int(got.detail.removeprefix("side "))
                assert want.residual - per_side[named] <= 1e-12
        # each step's log derivative is rounded its own way on either path
        # (np.log and math.log); the detail writes the residual out, so the
        # residual is compared in its place
        got, want = rep.checks["parabolic_product"], ref["parabolic_product"]
        assert got.passed == want.passed
        assert got.residual == want.residual or (
            abs(got.residual - want.residual)
            < 1e-12 * max(1.0, abs(want.residual)))

    @pytest.mark.parametrize("text", SIGNATURES + LADDER + list(STRESS))
    def test_canonical_polygons(self, text):
        self.assert_same(polygon(text))

    @pytest.mark.parametrize("text, i, after", TURNED, ids=[
        f"{text}-{i}-{'after' if after else 'before'}"
        for text, i, after in TURNED])
    def test_turned_gluings(self, text, i, after):
        self.assert_same(turned(text, i, after))

    def test_no_caps_by_caps_array(self):
        # a dense caps x caps overlap array peaks at 62 MB on 400;;1 (N =
        # 1600), the pairs whose caps meet at 1.1 MB.  Only the memory is
        # asserted here; TestValidation asserts the verdict
        poly = build_canonical(Signature.parse("400;;1"))
        tracemalloc.start()
        try:
            validate_polygon(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSerialization:
    def test_json_schema(self):
        d = polygon("2;2,5,8;2").to_dict()
        assert d["ell"] == 6 and d["N"] == 16
        assert len(d["vertices"]) == 16 and len(d["generators"]) == 16
        assert {"index", "kind", "re", "im"} <= set(d["vertices"][0])
        assert {"index", "a", "b", "pairs_with"} <= set(d["generators"][0])
        assert {"index", "P", "Q", "M"} == set(d["aux"][0])
        json.loads(json.dumps(d))


class TestRotationPowers:
    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_unit_powers_are_the_gluings(self, text):
        # c = generators[k - 1] turns clockwise about V_k, generators[k]
        # back; c^m is the identity, returned exactly.  The gluing's own
        # rounding grows with its derivative: at Q of vertex 83 of
        # 20;2,3,17,29;8 (|c'| = 875) its image is 3.5e-12 off the 50-digit
        # one, the direct power 7.5e-14
        poly = polygon(text)
        rng = np.random.default_rng(3)
        n = poly.n_sides
        for k in poly.elliptic_indices():
            m = poly.vertices[k].order
            xs = [poly.vertices[(k - 1) % n].point,
                  poly.vertices[(k + 1) % n].point,
                  poly.aux[k].P, poly.aux[k].Q, poly.aux[k].M]
            xs += [BoundaryPoint.from_angle(t)
                   for t in rng.uniform(0.0, TAU, 5)]
            for x in xs:
                fwd, back, full, zero = rotation_powers(poly, k, x,
                                                        [1, -1, m, 0])
                for got, g in ((fwd, poly.generators[(k - 1) % n]),
                               (back, poly.generators[k])):
                    assert angular_distance(
                        got.theta, g.apply_boundary(x).theta
                    ) < 1e-12 * max(1.0, g.derivative_modulus(x.z))
                assert full is x and zero is x
