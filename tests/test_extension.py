"""Natural extension: attractor structure, bijectivity, escape sets,
seeded entry simulation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (LADDER, MODES, SCALE, SIGNATURES, measure,
                      open_arc_cut, overlap, partition, polygon)
from oracles import (GAMMA, F_apply, domain_contains, interior_angles,
                     per_block_bijectivity, scalar_draws, scalar_rect_image,
                     splitmix64, two_lookup_candidate, two_lookup_cell,
                     two_lookup_step)

from fuchsian import (BoundaryPoint, NotElliptic, TilingViolation,
                      build_attractor, cycle, check_forward_invariance,
                      exceptional_set, make_partition, phi_set,
                      simulate_entry, tolerances, verify_bijectivity)
from fuchsian.arcs import DirectedArc, Rect, RectArray, seam_split
from fuchsian.extension import (_check_tiling, _draws, _Kernel, _mix64,
                                image_rects, traces_to_csv,
                                verify_exceptional)
from fuchsian.mobius import TAU, angular_distance
from fuchsian.tolerances import SAME_POINT, STRUCTURAL, WRAP

MODULAR = "0;2,3;1"
# a scale-set signature: 15 blocks, 65 rectangles under midpoint
MANY_BLOCKS = "6;2,3,5,7,11,13;4"
# no elliptic vertex; image overlap 1.50e-12 under every partition
ALL_CUSPS = "60;;1"


def domain(text, mode):
    poly = polygon(text)
    return build_attractor(poly, partition(text, mode))


class TestFApply:
    def test_modular_first_cell(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        u = BoundaryPoint.from_angle(3.0)
        w = BoundaryPoint.from_angle(0.1)
        k, u2, w2 = F_apply(poly, part, u, w)
        assert k == 0
        # the acting gluing is the half-turn about the origin
        assert abs(u2.z - (-u.z)) < 1e-12
        assert abs(w2.z - (-w.z)) < 1e-12

    def test_parabolic_fixed_w(self):
        poly = polygon("0;2,2;2")
        part = partition("0;2,2;2", "midpoint")
        cusp = poly.vertices[5].point
        u = BoundaryPoint.from_angle(1.0)
        _, u2, w2 = F_apply(poly, part, u, cusp)
        assert angular_distance(w2.theta, cusp.theta) < 1e-12
        assert angular_distance(u2.theta, u.theta) > 1e-6


class TestAttractorStructure:
    def test_single_quadruple_block(self):
        dom = domain("1;;1", "midpoint")
        assert len(dom.rects) == 4
        assert [i.count for i in dom.info] == [4]

    @pytest.mark.parametrize("text,expect", [
        # (block, gamma, u start, u sweep, w start, w sweep), angles in pi
        ("1;;1", [(0, 0, 1 / 2, 3 / 2, 0, 1 / 2),
                  (0, 1, 1, 3 / 2, 1 / 2, 1 / 2),
                  (0, 2, 3 / 2, 3 / 2, 1, 1 / 2),
                  (0, 3, 0, 3 / 2, 3 / 2, 1 / 2)]),
        ("0;2,2;2", [(0, 0, 2 / 3, 4 / 3, 0, 2 / 3),
                     (1, 2, 4 / 3, 4 / 3, 2 / 3, 2 / 3),
                     (2, 4, 5 / 3, 5 / 3, 4 / 3, 1 / 3),
                     (2, 5, 0, 5 / 3, 5 / 3, 1 / 3)]),
        ("0;2,3;1", [(0, 0, 1, 1, 0, 1)]),
    ])
    def test_uniform_strips_pinned(self, text, expect):
        # quadruple, order-2 and cusp strips do not depend on the partition
        blocks = {e[0] for e in expect}
        for mode in MODES:
            dom = domain(text, mode)
            rects = [r for r in dom.rects if r.block in blocks]
            assert len(rects) == len(expect)
            for r, (blk, gamma, *arcs) in zip(rects, expect):
                assert (r.block, r.gamma_index) == (blk, gamma)
                us, usw, ws, wsw = (x * math.pi for x in arcs)
                assert angular_distance(r.u_arc.start.theta, us) < 1e-12
                assert abs(r.u_arc.sweep - usw) < 1e-12
                assert angular_distance(r.w_arc.start.theta, ws) < 1e-12
                assert abs(r.w_arc.sweep - wsw) < 1e-12

    def test_modular_midpoint_counts(self):
        # order-2 strip is one rectangle; the order-3 midpoint cycle is
        # degenerate, so its strip carries m - 1 = 2 rectangles
        dom = domain(MODULAR, "midpoint")
        assert [i.count for i in dom.info] == [1, 2]
        assert [i.degenerate for i in dom.info] == [False, True]

    def test_modular_left_counts(self):
        dom = domain(MODULAR, "left")
        assert [i.count for i in dom.info] == [1, 3]
        assert not any(i.degenerate for i in dom.info)

    @pytest.mark.parametrize("mode", MODES)
    def test_strip_count_law(self, mode):
        # 4 per quadruple, 1 per order-2, 2 per cusp block, I+J+2 per
        # order >= 3 (m generically, m-1 for a degenerate cycle)
        for text in SIGNATURES:
            poly = polygon(text)
            dom = domain(text, mode)
            for blk, info in zip(poly.blocks, dom.info):
                if blk.symbol == "square":
                    assert info.count == 4
                elif blk.symbol == "inf":
                    assert info.count == 2
                elif blk.symbol == 2:
                    assert info.count == 1
                else:
                    data = info.cycle
                    assert info.count == data.I + data.J + 2
                    expect = blk.symbol - (1 if data.degenerate else 0)
                    assert info.count == expect

    def test_rects_positive_area_and_disjoint(self):
        for text in SIGNATURES:
            dom = domain(text, "midpoint")
            for r in dom.rects:
                assert r.u_arc.sweep > 1e-12 and r.w_arc.sweep > 1e-12
            assert overlap(list(dom.rects)) < 1e-12

    def test_w_arcs_tile_each_block_sector(self):
        dom = domain("2;2,5,8;2", "midpoint")
        poly = dom.poly
        sector = TAU / poly.ell
        for blk, strip in zip(poly.blocks, dom.strips):
            total = sum(r.w_arc.sweep for r in strip)
            assert abs(total - sector) < 1e-9

    def test_diagonal_equivariance(self):
        # each strip is the diagonal rotation of the standard-position strip
        # of its symbol, recomputed independently on a one-block signature
        dom = domain("0;3,3,4;2", "midpoint")
        poly = dom.poly
        off = TAU / poly.ell
        s0, s1 = dom.strips[0], dom.strips[1]   # two order-3 blocks
        assert len(s0) == len(s1)
        for r0, r1 in zip(s0, s1):
            assert angular_distance(
                (r0.u_arc.start.theta + off) % TAU, r1.u_arc.start.theta) < 1e-12
            assert abs(r0.u_arc.sweep - r1.u_arc.sweep) < 1e-12
            assert angular_distance(
                (r0.w_arc.start.theta + off) % TAU, r1.w_arc.start.theta) < 1e-12
            assert abs(r0.w_arc.sweep - r1.w_arc.sweep) < 1e-12

    def test_large_midpoint_attractor(self):
        # the midpoint cycles of the order-3, 17 and 29 blocks end on their
        # block corners (the order-17 one confirmed with mpmath), so each of
        # their fans has one rectangle fewer than its order
        dom = domain("20;2,3,17,29;8", "midpoint")
        assert len(dom.rects) == 141
        assert [i for i, info in enumerate(dom.info) if info.degenerate] == [
            21, 22, 23]

    def test_guarantee_warning(self):
        # a cut outside [P, Q] is reported by the domain's flag alone
        poly = polygon(MODULAR)
        outside = (poly.aux[3].P.theta - 0.03) % TAU
        part = make_partition(poly, "custom",
                              {1: poly.aux[1].M.theta, 3: outside})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dom = build_attractor(poly, part)
        assert not dom.guarantee


class TestBijectivity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text", SIGNATURES)
    def test_named_partitions(self, text, mode):
        poly = polygon(text)
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        rep = verify_bijectivity(poly, part, dom)
        assert rep.passed, rep.to_dict()

    def test_image_overlap_over_bound_fails(self):
        # image overlap 1.50e-12 lies above the overlap bound
        poly = polygon(ALL_CUSPS)
        part = partition(ALL_CUSPS, "left")
        rep = verify_bijectivity(poly, part, build_attractor(poly, part))
        assert rep.image_overlap > tolerances.DEFAULT.overlap
        assert rep.checks["image_overlap"].bound == tolerances.DEFAULT.overlap
        assert rep.passed is False
        assert rep.to_dict()["passed"] is False

    def test_order_two_strip_image(self):
        # the involution swaps the two factors of the order-2 strip
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        dom = build_attractor(poly, part)
        imgs = image_rects(poly, part, RectArray.of(dom.strips[0]))
        # expected image: [1, v^2] x [v^2, 1] as one region
        v2 = TAU / poly.ell
        expect = [Rect(DirectedArc.from_angles(0.0, v2),
                       DirectedArc.from_angles(v2, TAU - v2), 0, 0)]
        assert measure(np.logical_xor, imgs, expect) < 1e-9

    def test_cusp_gluing_corner_images(self):
        # the cusp-block gluing fixes the wedge midpoint and advances the
        # block start to the block end
        poly = polygon("0;2,2;2")
        blk = poly.blocks[2]
        g = poly.generators[blk.side_start]
        v = BoundaryPoint.from_angle(blk.base_angle + math.pi / poly.ell)
        start = poly.vertices[blk.side_start].point
        end = BoundaryPoint.from_angle(blk.base_angle + TAU / poly.ell)
        assert angular_distance(g.apply_boundary(start).theta, end.theta) < 1e-12
        assert angular_distance(g.apply_boundary(v).theta, v.theta) < 1e-12

    def test_lower_fan_images_nest(self):
        # forward image of each lower rectangle sits inside the next one
        text = "2;2,5,8;2"
        poly = polygon(text)
        part = partition(text, "left")
        dom = build_attractor(poly, part)
        strip = dom.strips[4]      # the order-8 block
        data = dom.info[4].cycle
        lows = strip[:data.J + 1]
        for j in range(data.J):
            imgs = image_rects(poly, part, RectArray.of([lows[j]]))
            inter = measure(np.logical_and, imgs, [lows[j + 1]])
            total = imgs.area.sum()
            assert total - inter < 1e-9

    def test_measure_preserved(self):
        for text in ("1;2,3,7;2", "0;3,3,4;2"):
            poly = polygon(text)
            part = partition(text, "midpoint")
            dom = build_attractor(poly, part)
            imgs = image_rects(poly, part, dom.arrays)
            assert abs(measure(np.logical_or, imgs)
                       - sum(r.area for r in dom.rects)) < 1e-9

    def test_random_guaranteed_cuts(self):
        rng = np.random.default_rng(77)
        for text in (MODULAR, "0;3,3,4;2"):
            poly = polygon(text)
            for _ in range(5):
                custom = {}
                for k in poly.elliptic_indices():
                    aux = poly.aux[k]
                    sweep = (aux.Q.theta - aux.P.theta) % TAU
                    custom[k] = (aux.P.theta + rng.uniform(0, 1) * sweep) % TAU
                part = make_partition(poly, "custom", custom)
                dom = build_attractor(poly, part)
                rep = verify_bijectivity(poly, part, dom)
                assert rep.passed, (text, custom, rep.to_dict())

    def test_bijective_outside_guarantee_range(self):
        # bijectivity needs only the open-arc condition, not [P, Q]
        poly = polygon(MODULAR)
        outside = open_arc_cut(poly, 3, 0.02)   # below P of the order-3 vertex
        part = make_partition(poly, "custom", {1: poly.aux[1].M.theta,
                                               3: outside})
        assert not part.in_guarantee_range()
        dom = build_attractor(poly, part)
        rep = verify_bijectivity(poly, part, dom)
        assert rep.passed, rep.to_dict()


def assert_same_images(poly, part, rects):
    """``image_rects`` of the whole list against ``scalar_rect_image`` one
    rectangle at a time: the same pieces with the same block and gluing,
    endpoints and sweeps within 1e-12."""
    got = image_rects(poly, part, RectArray.of(rects))
    want = RectArray.of([img for r in rects
                         for img in scalar_rect_image(poly, part, r)])
    assert got.block.tolist() == want.block.tolist()
    assert got.gamma.tolist() == want.gamma.tolist()
    d = np.abs(got.theta - want.theta) % TAU
    assert np.minimum(d, TAU - d).max() < 1e-12
    assert np.abs(got.sweep - want.sweep).max() < 1e-12


class TestArrayImaging:
    """The array imaging and the one-grid residuals against the scalar
    oracle and the per-block check of ``oracles``."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_matches_scalar_oracle(self, text, mode):
        poly = polygon(text)
        part = partition(text, mode)
        assert_same_images(poly, part, build_attractor(poly, part).rects)

    @pytest.mark.parametrize("seed", range(4))
    def test_cuts_at_arc_ends(self, seed):
        # seeded guaranteed cuts; a fan's w-arcs start and end at its cut
        # point, and extra w-arcs end or start at a cut, within 5e-12 of
        # one (not inside) or 5e-11 past one (inside)
        text = ("0;3,3,4;2", "2;2,5,8;2", "1;2,3,7;2", MANY_BLOCKS)[seed]
        poly = polygon(text)
        rng = np.random.default_rng(seed)
        custom = {}
        for k in poly.elliptic_indices():
            aux = poly.aux[k]
            sweep = (aux.Q.theta - aux.P.theta) % TAU
            custom[k] = (aux.P.theta + rng.uniform(0, 1) * sweep) % TAU
        part = make_partition(poly, "custom", custom)
        rects = list(build_attractor(poly, part).rects)
        assert set(part.thetas) & {r.w_arc.end.theta for r in rects}
        u = DirectedArc.from_angles(rng.uniform(0, TAU), 2.0)
        for t in part.thetas:
            for d in (0.0, 5e-12, -5e-12, 5e-11, -5e-11):
                rects += [Rect(u, DirectedArc.from_angles(t + d - 0.3, 0.3),
                               0, 0),
                          Rect(u, DirectedArc.from_angles(t + d, 0.3), 0, 0)]
        assert_same_images(poly, part, rects)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text", SIGNATURES + LADDER)
    def test_residuals_match_per_block_check(self, text, mode):
        poly = polygon(text)
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        rep = verify_bijectivity(poly, part, dom)
        overlap_, sym, strips, passed = per_block_bijectivity(poly, part, dom)
        assert rep.passed == passed
        assert abs(rep.image_overlap - overlap_) < 1e-13
        assert abs(rep.symmetric_difference - sym) < 1e-12
        assert len(rep.strip_residuals) == len(strips) == len(poly.blocks)
        assert max(abs(a - b) for a, b in zip(rep.strip_residuals,
                                              strips)) < 1e-12

    @pytest.mark.parametrize("text", SIGNATURES + LADDER)
    def test_bands_tile_without_seam(self, text):
        # verify_bijectivity's bands [base_angle, base_angle + sweep]: in
        # block order from 0, each ending within 2 ulp(2pi) of the next
        # block's start (2pi after the last), and none across the seam
        blocks = polygon(text).blocks
        lo = np.array([blk.base_angle for blk in blocks])
        sweep = np.array([blk.sweep for blk in blocks])
        assert lo[0] == 0.0
        assert np.abs(lo + sweep - np.append(lo[1:], TAU)).max() \
            <= 2 * math.ulp(TAU)
        bands = seam_split(lo, sweep)
        assert (bands[:, 1, 1] <= bands[:, 1, 0]).all()

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_perturbed_gluing_fails(self, text):
        # the gluing with the largest |b|, its b scaled by 1 + 1e-9 (the
        # unit determinant no longer holds, so the constructor is bypassed)
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        gens = list(poly.generators)
        k = max(range(len(gens)), key=lambda i: abs(gens[i].b))
        g = object.__new__(type(gens[k]))
        object.__setattr__(g, "a", gens[k].a)
        object.__setattr__(g, "b", gens[k].b * (1 + 1e-9))
        gens[k] = g
        bent = dataclasses.replace(poly, generators=tuple(gens))
        assert verify_bijectivity(poly, part, dom).passed
        assert not verify_bijectivity(bent, part, dom).passed
        assert not per_block_bijectivity(bent, part, dom)[3]


class TestPhiAndExceptional:
    def test_all_ideal_phi_is_diagonal_squares(self):
        poly = polygon("1;;1")
        phi = phi_set(poly, partition("1;;1", "midpoint"))
        assert len(phi) == 4
        for r in phi:
            assert angular_distance(r.u_arc.start.theta,
                                    r.w_arc.start.theta) < 1e-12
            assert abs(r.u_arc.sweep - r.w_arc.sweep) < 1e-12

    def test_phi_covers_cells(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        phi = phi_set(poly, part)
        assert len(phi) == 4
        for r in phi:
            # u-range contains the w-range (diagonal neighbourhood)
            inter = measure(np.logical_and, [r],
                            [Rect(r.w_arc, r.w_arc, 0, 0)])
            assert abs(inter - r.w_arc.sweep ** 2) < 1e-9

    def test_complement_only_at_high_order_vertices(self):
        # the plane minus (attractor + escape set) is empty for signatures
        # without elliptic points of order > 2 ...
        for text in ("1;;1", "0;2,2;2"):
            dom = domain(text, "midpoint")
            phi = phi_set(dom.poly, dom.part)
            covered = measure(np.logical_or, list(dom.rects) + phi)
            assert abs(covered - TAU * TAU) < 1e-8
        # ... and nonempty exactly near the order-3 vertex here
        dom = domain(MODULAR, "left")
        phi = phi_set(dom.poly, dom.part)
        covered = measure(np.logical_or, list(dom.rects) + phi)
        assert TAU * TAU - covered > 0.1
        hats = exceptional_set(dom.poly, dom.part, 3)
        gap = TAU * TAU - covered
        assert abs(sum(r.area for r in hats) - gap) < 1e-8

    def test_exceptional_empty_for_order_two(self):
        poly = polygon(MODULAR)
        assert exceptional_set(poly, partition(MODULAR, "midpoint"), 1) == []

    def test_exceptional_requires_elliptic(self):
        with pytest.raises(NotElliptic):
            exceptional_set(polygon(MODULAR), partition(MODULAR, "midpoint"), 0)

    def test_exceptional_odd_order_enters(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "left")
        dom = build_attractor(poly, part)
        rep = verify_exceptional(poly, part, 3, dom)
        assert rep.passed, rep

    def test_exceptional_even_order_enters(self):
        text = "0;3,3,4;2"
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        for k in poly.elliptic_indices():
            rep = verify_exceptional(poly, part, k, dom)
            assert rep.passed, (k, rep)

    def test_exceptional_outside_guarantee_escapes(self):
        # every cut at 2 % of its open vertex arc, below its P: at the
        # order-4 vertex the exceptional rectangles are still partly outside
        # the attractor when the step budget max(J, I) + 3 runs out
        text = "0;3,3,4;2"
        poly = polygon(text)
        part = make_partition(poly, "custom", {
            k: open_arc_cut(poly, k, 0.02) for k in poly.elliptic_indices()})
        assert not part.in_guarantee_range()
        dom = build_attractor(poly, part)
        data = cycle(poly, part, 5)
        assert data.order == 4
        rep = verify_exceptional(poly, part, 5, dom)
        assert rep.passed is False
        assert rep.checks["escaped"].passed is False
        # a measure of a part of the torus, not a sum over pieces
        assert 0 < rep.checks["escaped"].residual <= TAU * TAU
        assert rep.steps_used == max(data.J, data.I) + 3

    def _first_lower_hat_target(self, text, mode, k):
        poly = polygon(text)
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        blk = poly.block_of_side(k)
        hats = exceptional_set(poly, part, k)
        lower = [r for r in hats if r.gamma_index == blk.side_start]
        data = cycle(poly, part, k)
        return poly, part, dom, blk, lower[0], data

    def test_first_lower_hat_image_odd_order(self):
        # after J+1 steps the first lower hat sits inside
        # [start, v-point] x [end, start], a subset of the attractor
        poly, part, dom, blk, hat, data = self._first_lower_hat_target(
            MODULAR, "left", 3)
        assert data.order % 2 == 1 and not data.degenerate
        region = RectArray.of([hat])
        for _ in range(data.J + 1):
            region = image_rects(poly, part, region)
        v_angle = blk.base_angle + math.pi / poly.ell
        target = [Rect(DirectedArc.from_angles(blk.base_angle, math.pi / poly.ell),
                       DirectedArc.from_angles(blk.base_angle + TAU / poly.ell,
                                               TAU - TAU / poly.ell), 0, 0)]
        assert measure(np.logical_and, target, list(dom.rects)) \
            >= target[0].area - 1e-9
        outside = region.area.sum() \
            - measure(np.logical_and, region, target)
        assert outside < 1e-9

    def test_first_lower_hat_image_even_order(self):
        # the step-J image splits at the block start; the piece not already
        # inside the attractor maps into [start, P] x [end, start]
        text = "0;3,3,4;2"
        poly = polygon(text)
        k = 5
        assert poly.vertices[k].order == 4
        poly, part, dom, blk, hat, data = self._first_lower_hat_target(
            text, "midpoint", k)
        assert data.order % 2 == 0 and not data.degenerate
        region = RectArray.of([hat])
        for _ in range(data.J):
            region = image_rects(poly, part, region)

        # (row, w-start, w-end, w-sweep) of the pieces of each region row's
        # w-arc cut at the cut points more than WRAP inside it; cut pieces
        # up to 1e-13 dropped
        pieces = []
        for i, (ws, we, sweep) in enumerate(zip(*region.theta[:, 2:].T,
                                                region.sweep[:, 1])):
            inner = interior_angles(DirectedArc.from_angles(ws, sweep),
                                    sorted(set(part.thetas)), WRAP)
            bounds = [ws] + inner + [we]
            pieces += [(i, ws, we, sweep)] if not inner else [
                (i, lo, hi, (hi - lo) % TAU)
                for lo, hi in zip(bounds, bounds[1:])
                if (hi - lo) % TAU > 1e-13]
        rows, *w = (np.array(x) for x in zip(*pieces))
        cut = region.take(rows)
        cut.theta[:, 2], cut.theta[:, 3], cut.sweep[:, 1] = w
        rest = [i for i in range(len(cut))
                if cut.area[i] - measure(np.logical_and, cut.take([i]),
                                         dom.arrays) > 1e-9]
        final = image_rects(poly, part, cut.take(rest))
        p_sweep = (poly.aux[k].P.theta - blk.base_angle) % TAU
        target = [Rect(DirectedArc.from_angles(blk.base_angle, p_sweep),
                       DirectedArc.from_angles(blk.base_angle + TAU / poly.ell,
                                               TAU - TAU / poly.ell), 0, 0)]
        assert measure(np.logical_and, target, list(dom.rects)) \
            >= target[0].area - 1e-9
        outside = final.area.sum() \
            - measure(np.logical_and, final, target)
        assert outside < 1e-9

    def test_corner_orbit_consistency(self):
        # the deepest forward corner image meets the deepest backward image
        # of the other corner: c^{J+1}(end) = c^{-I}(start); this is where
        # the lower and upper image fans meet in the vertical strip
        for text, mode in (("2;2,5,8;2", "left"), ("0;3,3,4;2", "midpoint")):
            poly = polygon(text)
            part = partition(text, mode)
            for k in poly.elliptic_indices():
                data = cycle(poly, part, k)
                if data.degenerate or poly.vertices[k].order < 3:
                    continue
                blk = poly.block_of_side(k)
                c = poly.generators[blk.side_start]
                start = poly.vertices[blk.side_start].point
                end = BoundaryPoint.from_angle(blk.base_angle + TAU / poly.ell)
                fwd = end
                for _ in range(data.J + 1):
                    fwd = c.apply_boundary(fwd)
                bwd = start
                for _ in range(data.I):
                    bwd = c.inverse().apply_boundary(bwd)
                assert angular_distance(fwd.theta, bwd.theta) < 1e-9


class TestSimulation:
    def test_start_inside_has_K_zero(self):
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=64, seed=3)
        for t in traces:
            if domain_contains(dom, t.u0, t.w0):
                assert t.K == 0 and t.escape_step >= 0

    def test_all_enter_and_stay(self):
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=600, seed=42)
        assert all(t.entered for t in traces)
        assert check_forward_invariance(dom.poly, dom.part, dom,
                                        traces, steps=300) == 0

    def test_deterministic_per_sample_streams(self):
        dom = domain(MODULAR, "midpoint")
        a = simulate_entry(dom.poly, dom.part, dom, samples=40, seed=9)
        b = simulate_entry(dom.poly, dom.part, dom, samples=40, seed=9)
        assert a == b
        c = simulate_entry(dom.poly, dom.part, dom, samples=40, seed=10)
        assert any(x.u0 != y.u0 for x, y in zip(a, c))

    def test_sample_prefix_stable(self):
        # stream depends on (seed, index) only, not on the sample count
        dom = domain(MODULAR, "midpoint")
        a = simulate_entry(dom.poly, dom.part, dom, samples=10, seed=5)
        b = simulate_entry(dom.poly, dom.part, dom, samples=25, seed=5)
        assert a == b[:10]

    def test_survey_mode_outside_guarantee(self):
        poly = polygon(MODULAR)
        part = make_partition(poly, "custom",
                              {1: poly.aux[1].M.theta,
                               3: open_arc_cut(poly, 3, 0.02)})
        dom = build_attractor(poly, part)
        traces = simulate_entry(poly, part, dom, samples=300, seed=1,
                                max_iters=3000)
        assert len(traces) == 300  # statistics only, entry not asserted

    def test_csv_format(self):
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=3, seed=0)
        text = traces_to_csv(traces, 0)
        lines = text.strip().split("\n")
        assert lines[0] == "sample,seed,u0,w0,K,escape_step,entered"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == traces[0].u0

    def test_rejects_zero_samples(self):
        dom = domain(MODULAR, "midpoint")
        with pytest.raises(ValueError):
            simulate_entry(dom.poly, dom.part, dom, samples=0, seed=1)

    @pytest.mark.parametrize("buffer", [4.0, math.pi, math.nan,
                                        math.pi - 1e-9, math.pi / 2 + 1e-6])
    def test_rejects_buffer_no_draw_can_clear(self, buffer):
        # a draw is kept once its angular distance from the diagonal
        # reaches buffer, with odds 1 - buffer / pi: none past pi, and about
        # one in 3e9 at pi - 1e-9; the bound pi / 2 keeps at least half, and
        # the check comes before any draw
        dom = domain(MODULAR, "midpoint")
        with pytest.raises(ValueError,
                           match=r"buffer must lie in \[0, pi/2\]"):
            simulate_entry(dom.poly, dom.part, dom, samples=1, seed=1,
                           buffer=buffer)

    def test_buffer_half_pi_finishes(self):
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=64, seed=1,
                                buffer=math.pi / 2)
        assert all(angular_distance(t.u0, t.w0) >= math.pi / 2
                   for t in traces)

    def test_rejects_negative_seed(self):
        dom = domain(MODULAR, "midpoint")
        with pytest.raises(ValueError, match="seed .* got -1"):
            simulate_entry(dom.poly, dom.part, dom, samples=1, seed=-1)

    def test_rejects_negative_steps(self):
        # a negative count would run no step and report 0 exits
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=8, seed=1)
        with pytest.raises(ValueError, match="steps must be >= 0, got -5"):
            check_forward_invariance(dom.poly, dom.part, dom, traces,
                                     steps=-5)
        assert check_forward_invariance(dom.poly, dom.part, dom, traces,
                                        steps=0) == 0


def chi2_sf(x, dof):
    """P(X > x) for X chi-squared with ``dof`` degrees of freedom: one minus
    the series of the regularized lower incomplete gamma P(dof/2, x/2)."""
    a, h = dof / 2, x / 2
    term = total = math.exp(a * math.log(h) - h - math.lgamma(a + 1))
    n = 0
    while term > 1e-18 * total:
        n += 1
        term *= h / (a + n)
        total += term
    return 1.0 - total


class TestDraws:
    """The counter-based draw against the scalar reference in Python
    integers, bit for bit."""

    def test_known_answer(self):
        # the first four outputs of the SplitMix64 reference generator from
        # state 0 (Steele, Lea and Flood): the draw's key 0, counters 0-3
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                0xF88BB8A8724C81EC]
        k = np.arange(1, 5, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _mix64(k * np.uint64(GAMMA))
        assert got.tolist() == want
        assert [splitmix64(int(x) * GAMMA % 2**64) for x in k] == want

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5])
    def test_matches_scalar_reference(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _draws(seed, 257, 1e-6)
        assert np.array_equal(got, np.array(scalar_draws(seed, 257, 1e-6)).T)
        d = np.abs(got[0] - got[1])
        assert (np.minimum(d, TAU - d) >= 1e-6).all()

    def test_forced_retries(self):
        # a pair clears 3.0 with odds (pi - 3) / pi: about 95 % are redrawn
        got = _draws(11, 257, 3.0)
        assert np.array_equal(got, np.array(scalar_draws(11, 257, 3.0)).T)
        d = np.abs(got[0] - got[1])
        assert (np.minimum(d, TAU - d) >= 3.0).all()
        first = _draws(11, 257, 0.0)
        assert (got != first).any(axis=0).mean() > 0.9

    def test_prefix_stable(self):
        assert np.array_equal(_draws(3, 10, 1e-6),
                              _draws(3, 1000, 1e-6)[:, :10])

    def test_wide_seed_differs_from_its_low_limb(self):
        a, b = _draws(2**64 + 5, 50, 1e-6), _draws(5, 50, 1e-6)
        assert (a != b).all()

    def test_uniform_chi_squared(self):
        # 10^5 angles of each coordinate over 64 equal bins; the test fails
        # with probability 1e-6 per coordinate on truly uniform draws
        expected = 100_000 / 64
        for row in _draws(2024, 100_000, 1e-6):
            counts = np.bincount((row * (64 / TAU)).astype(int), minlength=64)
            stat = float(((counts - expected) ** 2).sum() / expected)
            assert counts.size == 64 and chi2_sf(stat, 63) > 1e-6


def dense_member(rects, pu, pw, tol):
    """Test-side oracle: the closed test against every rectangle."""
    us = np.array([r.u_arc.start.theta for r in rects])
    usw = np.array([r.u_arc.sweep for r in rects])
    ws = np.array([r.w_arc.start.theta for r in rects])
    wsw = np.array([r.w_arc.sweep for r in rects])
    du = (pu[:, None] - us[None, :]) % TAU
    dw = (pw[:, None] - ws[None, :]) % TAU
    in_u = (du <= usw[None, :] + tol) | (du >= TAU - tol)
    in_w = (dw <= wsw[None, :] + tol) | (dw >= TAU - tol)
    return (in_u & in_w).any(axis=1)


KERNEL_DOMAINS = ([(t, m) for t in SIGNATURES for m in MODES]
                  + [(MANY_BLOCKS, "midpoint"), (MANY_BLOCKS, "left")])


def kernel_rects(key, which):
    dom = domain(*key)
    return list(dom.rects) if which == "attractor" else phi_set(dom.poly,
                                                                dom.part)


def edge_angles(rects):
    return np.array([x for r in rects for a in (r.u_arc, r.w_arc)
                     for x in (a.start.theta, a.start.theta + a.sweep)])


def stressed_states(rects, tol, n, rng):
    """Uniform states, with u, w or both moved to within 3 tol of a
    rectangle edge."""
    pu, pw = rng.uniform(0.0, TAU, (2, n))
    edge = (rng.choice(edge_angles(rects), (2, n))
            + rng.uniform(-3 * tol, 3 * tol, (2, n))) % TAU
    which = rng.integers(0, 4, n)
    return (np.where(which & 1, edge[0], pu),
            np.where(which & 2, edge[1], pw))


def kernel_member(key, rects, pu, pw):
    """The kernel's membership verdicts, with its fixed slack
    ``STRUCTURAL``, for one rectangle list of the domain ``key``."""
    kern = _Kernel(polygon(key[0]), partition(*key), RectArray.of(rects))
    return kern.inside(0, kern.locate(pw), np.stack([pu, pw]))


class TestMembershipKernel:
    """The kernel's membership test against the dense oracle and the scalar
    ``domain_contains``."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_oracle_and_scalar_path(self, data):
        key = data.draw(st.sampled_from(KERNEL_DOMAINS))
        which = data.draw(st.sampled_from(["attractor", "phi"]))
        rects = kernel_rects(key, which)
        tol = STRUCTURAL
        edges = sorted(set(edge_angles(rects) % TAU))
        angle = st.one_of(
            st.floats(0.0, TAU, exclude_max=True),
            st.builds(lambda e, d: (e + d) % TAU, st.sampled_from(edges),
                      st.floats(-3 * tol, 3 * tol)))
        states = data.draw(st.lists(st.tuples(angle, angle), min_size=1,
                                    max_size=40))
        pu, pw = np.array(states).T
        got = kernel_member(key, rects, pu, pw)
        assert got.tolist() == dense_member(rects, pu, pw, tol).tolist()
        if which == "attractor":
            dom = domain(*key)
            assert got.tolist() == [domain_contains(dom, u, w)
                                    for u, w in states]

    @pytest.mark.parametrize("which", ["attractor", "phi"])
    @pytest.mark.parametrize("key", KERNEL_DOMAINS, ids=str)
    def test_seeded_batch_matches_oracle(self, key, which):
        rects = kernel_rects(key, which)
        tol = STRUCTURAL
        pu, pw = stressed_states(rects, tol, 20_000,
                                 np.random.default_rng(len(rects)))
        got = kernel_member(key, rects, pu, pw)
        assert np.array_equal(got, dense_member(rects, pu, pw, tol))

    def test_sliver_widens_window(self):
        # split a w-arc of sweep tol / 2 off the end of the widest one: a
        # state within tol / 2 before it also passes the tol-widened w-test
        # of the next rectangle, two places on
        tol = STRUCTURAL
        rects = list(domain(MANY_BLOCKS, "midpoint").rects)
        i = max(range(len(rects)), key=lambda j: rects[j].w_arc.sweep)
        r, w = rects[i], rects[i].w_arc
        rects[i:i + 1] = [
            Rect(r.u_arc, DirectedArc.from_angles(start, sweep), r.block,
                 r.gamma_index)
            for start, sweep in ((w.start.theta, w.sweep - tol / 2),
                                 (w.end.theta - tol / 2, tol / 2))]
        _check_tiling(tuple(rects))
        sliver = rects[i + 1]
        assert sliver.w_arc.sweep < tol
        kernel = _Kernel(polygon(MANY_BLOCKS),
                         partition(MANY_BLOCKS, "midpoint"),
                         RectArray.of(rects))
        assert len(kernel.offsets[0]) == 4       # p = 2 either way
        rng = np.random.default_rng(0)
        pu = rng.uniform(0.0, TAU, 50_000)
        pw = (sliver.w_arc.start.theta
              + rng.uniform(-3 * tol, 3 * tol, pu.size)) % TAU
        want = dense_member(rects, pu, pw, tol)
        j = kernel.locate(pw)
        assert np.array_equal(kernel.inside(0, j, np.stack([pu, pw])), want)
        # the widening matters: a window of one neighbour misses states
        kernel.offsets[0] = [1, len(rects) - 1]
        assert not np.array_equal(kernel.inside(0, j, np.stack([pu, pw])), want)

    @pytest.mark.parametrize("which", ["attractor", "phi"])
    @pytest.mark.parametrize("key", KERNEL_DOMAINS, ids=str)
    def test_window_filter_near_breakpoints(self, key, which):
        # w within 3 (STRUCTURAL + SAME_POINT) of every breakpoint, where
        # the recheck filter decides; u uniform or near a rectangle edge
        rects = kernel_rects(key, which)
        kern = _Kernel(polygon(key[0]), partition(*key), RectArray.of(rects))
        rng = np.random.default_rng(len(rects) + 1)
        span = 3 * (STRUCTURAL + SAME_POINT)
        pw = (kern.breaks[:, None] + np.linspace(-span, span, 41)).ravel()
        pw = np.repeat(pw % TAU, 8)
        pu = np.where(rng.integers(0, 2, pw.size) == 1,
                      rng.uniform(0.0, TAU, pw.size),
                      (rng.choice(edge_angles(rects), pw.size)
                       + rng.uniform(-3 * STRUCTURAL, 3 * STRUCTURAL,
                                     pw.size)) % TAU)
        got = kern.inside(0, kern.locate(pw), np.stack([pu, pw]))
        assert np.array_equal(got, dense_member(rects, pu, pw, STRUCTURAL))

    def test_junction_overlap_rechecked(self):
        # stretch one w-arc 0.9 SAME_POINT past the next start, a junction
        # _check_tiling accepts: a state in that overlap, under the
        # stretched rectangle's u-arc only, fails its candidate (the next
        # rectangle) at a w-offset above STRUCTURAL and passes only the
        # stretched one, so the recheck filter needs its SAME_POINT term
        rects = list(domain(MANY_BLOCKS, "midpoint").rects)
        rects.sort(key=lambda r: r.w_arc.start.theta)
        i = next(i for i, (r, s) in enumerate(zip(rects, rects[1:]))
                 if r.u_arc.sweep < TAU - 0.1 and s.w_arc.sweep > 1e-3
                 and s.u_arc.start.theta != r.u_arc.start.theta)
        r, nxt = rects[i], rects[i + 1]
        rects[i] = Rect(r.u_arc, DirectedArc.from_angles(
            r.w_arc.start.theta, r.w_arc.sweep + 0.9 * SAME_POINT),
            r.block, r.gamma_index)
        _check_tiling(tuple(rects))
        kern = _Kernel(polygon(MANY_BLOCKS),
                       partition(MANY_BLOCKS, "midpoint"), RectArray.of(rects))
        rng = np.random.default_rng(3)
        pu = (r.u_arc.start.theta
              + rng.uniform(0.0, r.u_arc.sweep, 20_000)) % TAU
        pw = nxt.w_arc.start.theta + rng.uniform(2 * STRUCTURAL,
                                                 0.9 * SAME_POINT, pu.size)
        want = dense_member(rects, pu, pw, STRUCTURAL)
        assert (want & ~dense_member([nxt], pu, pw, STRUCTURAL)).sum() > 100
        assert np.array_equal(
            kern.inside(0, kern.locate(pw), np.stack([pu, pw])), want)

    def test_tiling_violation_raises(self):
        rects = domain(MODULAR, "midpoint").rects
        _check_tiling(rects)
        with pytest.raises(TilingViolation):
            _check_tiling(rects[1:])
        r = rects[0]
        shifted = Rect(r.u_arc, DirectedArc.from_angles(
            r.w_arc.start.theta + 1e-6, r.w_arc.sweep), r.block,
            r.gamma_index)
        with pytest.raises(TilingViolation):
            _check_tiling((shifted,) + rects[1:])

    @pytest.mark.parametrize("text, seed, samples, expected", [
        (MODULAR, 2024, 12, [(0, 0), (0, 0), (6, 5), (1, 1), (2, 1), (0, 0),
                             (0, 0), (0, 0), (0, 0), (2, 1), (0, 0), (0, 0)]),
        ("1;2,3,7;2", 5, 12, [(0, 0)] * 12),
        (MANY_BLOCKS, 1, 8, [(0, 0), (0, 0), (2, 2)] + [(0, 0)] * 5),
    ])
    def test_entry_traces_pinned(self, text, seed, samples, expected):
        # stored from the scalar path: F_apply from the same draws, with
        # domain_contains for entry and dense_member on phi_set for escape
        dom = domain(text, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=samples,
                                seed=seed)
        assert [(t.K, t.escape_step) for t in traces] == expected
        assert check_forward_invariance(dom.poly, dom.part, dom, traces,
                                        steps=50) == 0
        if text == MODULAR:
            stored = {2: ("0x1.3bc2e95f2b338p+2", "0x1.352da3cbedf6fp+1"),
                      3: ("0x1.0117487be352ep+2", "0x1.f26cab7f08d98p+0"),
                      4: ("0x1.352fe327213c1p+2", "0x1.77019b45b6e87p+1"),
                      9: ("0x1.504304705e68fp+2", "0x1.a420211096340p-3")}
            for i, (u, w) in stored.items():
                assert traces[i].entry_u == pytest.approx(float.fromhex(u),
                                                          abs=1e-12)
                assert traces[i].entry_w == pytest.approx(float.fromhex(w),
                                                          abs=1e-12)


def cut_distance(part, theta):
    return min(angular_distance(theta, t) for t in part.thetas)


class TestStepKernel:
    """The kernel's step against the scalar ``Partition.cell_of`` and
    ``F_apply``, away from the cut points where the two may pick either
    neighbouring cell."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_DOMAINS),
           st.lists(st.floats(0.0, TAU, exclude_max=True), min_size=1,
                    max_size=20))
    def test_cells_match_cell_of(self, key, thetas):
        part = partition(*key)
        thetas = [t for t in thetas if cut_distance(part, t) > 1e-9]
        assume(thetas)
        kern = _Kernel(polygon(key[0]), part)
        cells = kern.cell[kern.locate(np.array(thetas))]
        assert cells.tolist() == [part.cell_of(t) for t in thetas]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_DOMAINS),
           st.lists(st.tuples(st.floats(0.0, TAU, exclude_max=True),
                              st.floats(0.0, TAU, exclude_max=True)),
                    min_size=1, max_size=20))
    def test_step_matches_F_apply(self, key, states):
        poly, part = polygon(key[0]), partition(*key)
        states = [(u, w) for u, w in states
                  if cut_distance(part, w) > 1e-9
                  and angular_distance(u, w) > 1e-9]
        assume(states)
        tu, tw = np.array(states).T
        kern = _Kernel(poly, part)
        _, (pu, pw), _ = kern.step(np.exp(1j * np.stack([tu, tw])),
                                   kern.locate(tw))
        for (u, w), su, sw in zip(states, pu, pw):
            _, u2, w2 = F_apply(poly, part, BoundaryPoint.from_angle(u),
                                BoundaryPoint.from_angle(w))
            assert angular_distance(u2.theta, su) < 1e-12
            assert angular_distance(w2.theta, sw) < 1e-12


# the acceptance signatures under the named partitions, and one seeded
# custom partition
FUSED_CASES = [(t, m) for t in SIGNATURES for m in MODES] + [
    ("2;2,5,8;2", "custom")]


def fused_case(key):
    """Polygon, partition and attractor of ``key``; "custom" draws each
    elliptic cut uniformly on 0.02-0.98 of its [P, Q] arc from a fixed
    seed, inside the guarantee range."""
    text, mode = key
    poly = polygon(text)
    if mode != "custom":
        return poly, partition(text, mode), domain(text, mode)
    rng = np.random.default_rng(16)
    cuts = {}
    for k in poly.elliptic_indices():
        lo, hi = poly.aux[k].P.theta, poly.aux[k].Q.theta
        cuts[k] = (lo + rng.uniform(0.02, 0.98) * ((hi - lo) % TAU)) % TAU
    part = make_partition(poly, "custom", cuts)
    return poly, part, build_attractor(poly, part)


class TestFusedLookup:
    """The kernel's one breakpoint lookup per step against the two separate
    lookups of ``oracles``, on the cut points for the step and on the
    w-starts for the candidate rectangle: the same cells, candidates and
    states, bit for bit."""

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_cell_and_candidate_near_breakpoints(self, key):
        poly, part, dom = fused_case(key)
        lists = [list(dom.rects), phi_set(poly, part)]
        kern = _Kernel(poly, part, *map(RectArray.of, lists))
        b = kern.breaks
        near = np.concatenate([
            np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
            (b[:, None] + np.linspace(-3, 3, 25) * STRUCTURAL).ravel()])
        pw = np.concatenate([[0.0, TAU], near % TAU])
        j = kern.locate(pw)
        cells = two_lookup_cell(part, pw)
        assert np.array_equal(kern.cell[j], cells)
        assert np.array_equal(kern.coef[0][j],
                              np.array([g.a for g in poly.generators])[cells])
        for i, rects in enumerate(lists):
            assert np.array_equal(kern.cand[i][j],
                                  two_lookup_candidate(rects, pw))

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_states_match_two_lookups(self, key):
        poly, part, dom = fused_case(key)
        kern = _Kernel(poly, part, dom.arrays)
        z, j = kern.start(np.random.default_rng(500).uniform(0.0, TAU,
                                                              (2, 500)))
        ref, ref_w = z, np.angle(z[1]) % TAU
        for _ in range(300):
            z, ang, j = kern.step(z, j)
            ref, want = two_lookup_step(poly, part, ref, ref_w)
            ref_w = want[1]
            assert np.array_equal(z, ref) and np.array_equal(ang, want)
            assert np.array_equal(kern.inside(0, j, ang),
                                  dense_member(dom.rects, *ang, STRUCTURAL))

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_two_pi_takes_the_last_cell(self, key):
        # the kernel's convention; Partition.cell_of wraps 2pi to 0 instead
        # (cell 0, or the next cell when cell 0 is empty), and the two
        # differ only on this measure-zero set
        poly, part, _ = fused_case(key)
        kern = _Kernel(poly, part)
        cells = kern.cell[kern.locate(np.array([0.0, TAU]))].tolist()
        assert cells == [part.cell_of(0.0), part.n - 1]
        assert part.cell_of(TAU) == part.cell_of(0.0) != part.n - 1
