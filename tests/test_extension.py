"""Natural extension: attractor structure, bijectivity, escape sets,
seeded entry simulation."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (LADDER, MODES, SCALE, SIGNATURES, STRESS, measure,
                      open_arc_cut, overlap, partition, polygon)
from oracles import (GAMMA, F_apply, ReferenceKernel, candidates_reference,
                     cayley_candidates, dense_candidates, domain_contains,
                     exceptional_set, grid_bijectivity,
                     interior_angles, kernel_reference, kernel_step,
                     moebius_reference, per_block_bijectivity, scalar_draws,
                     scalar_rect_image, split_reference, splitmix64,
                     two_lookup_cell, two_lookup_step, verify_exceptional)

from fuchsian import (BoundaryPoint, NotElliptic, Signature, TilingViolation,
                      build_attractor, build_canonical, cycle,
                      check_forward_invariance, make_partition, phi_set,
                      simulate_entry, tolerances, verify_bijectivity)
from fuchsian.arcs import (DirectedArc, Rect, RectArray, _overlap_lengths,
                          cayley, cayley_angle, seam_split)
from fuchsian.extension import (_BLOCK, EntryTrace, _check_tiling, _cover,
                                _draws, _Kernel, _meeting, _mix64, _moebius,
                                _runs, _split, image_rects, traces_to_csv)
from fuchsian.mobius import TAU, angular_distance
from fuchsian.polygon import INFINITY, SQUARE, rotation_powers
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


# the acceptance and scale sets under the named partitions, and one seeded
# custom partition per signature with an elliptic vertex
TABLE_CASES = [(t, m) for t in SIGNATURES + SCALE for m in MODES] + [
    (t, "custom") for t in SIGNATURES + SCALE if polygon(t).elliptic_indices()]


def table_partition(poly, mode):
    """The partition ``mode`` of ``poly``; "custom" draws each elliptic cut
    uniformly on 0.02-0.98 of its [P, Q] arc from a fixed seed."""
    if mode != "custom":
        return make_partition(poly, mode)
    rng = np.random.default_rng(33)
    cuts = {}
    for k in poly.elliptic_indices():
        lo, hi = poly.aux[k].P.theta, poly.aux[k].Q.theta
        cuts[k] = (lo + rng.uniform(0.02, 0.98) * ((hi - lo) % TAU)) % TAU
    return make_partition(poly, "custom", cuts)


class TestPolygonTables:
    """The partition-independent tables of a polygon are formed once and
    read by each of its partitions."""

    @pytest.mark.parametrize("key", TABLE_CASES, ids=str)
    def test_reused_polygon_builds_the_fresh_attractor(self, key):
        text, mode = key
        poly = polygon(text)
        for other in MODES:            # the tables formed by other partitions
            build_attractor(poly, table_partition(poly, other))
        fresh = build_canonical(Signature.parse(text))
        assert "gluing_table" not in vars(fresh)
        assert (repr(build_attractor(poly, table_partition(poly, mode)))
                == repr(build_attractor(fresh, table_partition(fresh, mode))))

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_uniform_strips_are_shared(self, text):
        poly = polygon(text)
        doms = [build_attractor(poly, table_partition(poly, mode))
                for mode in (*MODES, "custom")]
        shared = 0
        for b, strip in enumerate(poly.uniform_strips):
            if strip is None:
                continue
            for dom in doms:
                assert len(dom.strips[b]) == len(strip)
                assert all(r is q for r, q in zip(dom.strips[b], strip))
                shared += 1
        assert shared == len(doms) * sum(
            blk.symbol in (SQUARE, INFINITY, 2) for blk in poly.blocks)

    @pytest.mark.parametrize("key", TABLE_CASES, ids=str)
    def test_fans_read_the_corner_orbits(self, key):
        # each fan's u-arc ends are the first J + 1 and I + 1 powers, to the
        # bit those of rotation_powers taken for this partition alone
        text, mode = key
        poly = polygon(text)
        dom = build_attractor(poly, table_partition(poly, mode))
        for blk, info, orbits in zip(poly.blocks, dom.info,
                                     poly.corner_orbits):
            if orbits is None:
                assert info.cycle is None
                continue
            k, m = blk.side_start + 1, blk.symbol
            start = poly.vertices[blk.side_start].point
            end = BoundaryPoint.from_angle(blk.base_angle + blk.sweep)
            assert len(orbits[0]) == len(orbits[1]) == m
            J, I = info.cycle.J, info.cycle.I
            assert repr(orbits[0][:J + 1]) == repr(tuple(
                rotation_powers(poly, k, end, range(J + 1))))
            assert repr(orbits[1][:I + 1]) == repr(tuple(
                rotation_powers(poly, k, start, range(0, -I - 1, -1))))

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_cached_arrays_are_read_only(self, text):
        poly = polygon(text)
        table = poly.gluing_table
        assert table is poly.gluing_table
        assert table.shape == (4, poly.n_sides)
        assert table.flags.writeable is False
        assert np.array_equal(table, real_form(poly))
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        bands = poly.block_bands
        assert bands is poly.block_bands
        assert bands.shape == (len(poly.blocks), 2, 2)
        assert bands.flags.writeable is False
        with pytest.raises(ValueError):
            bands[0, 0, 0] = 1.0
        for name in ("side_blocks", "uniform_strips", "corner_orbits"):
            assert isinstance(getattr(poly, name), tuple)

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_replaced_polygon_forms_its_own_tables(self, text):
        poly = polygon(text)
        table = poly.gluing_table
        gens = list(poly.generators)
        gens[0] = gens[0].inverse()
        bent = dataclasses.replace(poly, generators=tuple(gens))
        assert bent.gluing_table is not table
        assert np.array_equal(bent.gluing_table[:, 0], gens[0].real)
        assert np.array_equal(bent.gluing_table[:, 1:], table[:, 1:])
        assert np.array_equal(poly.gluing_table, real_form(poly))
        moved = dataclasses.replace(poly, vertices=poly.vertices)
        assert moved.corner_orbits is not poly.corner_orbits
        assert moved.uniform_strips is not poly.uniform_strips
        bands = poly.block_bands
        assert dataclasses.replace(poly).block_bands is not bands


class TestBijectivity:
    # up to 1920 rectangles: image_overlap holds on the ladder's cusp rows
    # since the gluings are closed forms
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text", SIGNATURES + LADDER + list(STRESS))
    def test_named_partitions(self, text, mode):
        poly = polygon(text)
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        rep = verify_bijectivity(poly, part, dom)
        assert rep.passed, rep.to_dict()

    def test_image_overlap_over_bound_fails(self):
        # with its row 0 twice the domain has two equal images, whose
        # overlap 0.164 lies above the overlap bound
        poly = polygon(ALL_CUSPS)
        part = partition(ALL_CUSPS, "left")
        dom = build_attractor(poly, part)
        rs = dom.arrays
        twice = dataclasses.replace(dom, arrays=rs.take(
            np.r_[0, np.arange(len(rs))]))
        rep = verify_bijectivity(poly, part, twice)
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
    """The array imaging and the pair-sum residuals against the scalar
    oracle, the per-block check and the coverage grid of ``oracles``."""

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

    @pytest.mark.parametrize("case", [(t, m) for t in SIGNATURES + LADDER
                                      for m in MODES]
                             + [(t, seed) for t in SIGNATURES + LADDER
                                if polygon(t).elliptic_indices()
                                for seed in range(3)]
                             + [(t, "midpoint") for t in STRESS], ids=str)
    def test_pair_sums_match_grid(self, case):
        # the pair-sum residuals against the coverage grid they replace: the
        # same verdict, the same image_overlap to the bit, and every
        # residual within 1e-12; an integer mode draws each elliptic cut
        # uniformly on 0.02-0.98 of its [P, Q] arc from that seed
        text, mode = case
        poly = polygon(text)
        if isinstance(mode, str):
            part = partition(text, mode)
        else:
            rng = np.random.default_rng(mode)
            cuts = {}
            for k in poly.elliptic_indices():
                lo, hi = poly.aux[k].P.theta, poly.aux[k].Q.theta
                cuts[k] = (lo + rng.uniform(0.02, 0.98)
                           * ((hi - lo) % TAU)) % TAU
            part = make_partition(poly, "custom", cuts)
        dom = build_attractor(poly, part)
        rep = verify_bijectivity(poly, part, dom)
        grid = grid_bijectivity(poly, part, dom)
        assert rep.passed == grid.passed
        assert rep.image_overlap == grid.image_overlap
        assert abs(rep.symmetric_difference
                   - grid.symmetric_difference) < 1e-12
        assert len(rep.strip_residuals) == len(grid.strip_residuals)
        assert max(abs(a - b) for a, b in zip(rep.strip_residuals,
                                              grid.strip_residuals)) < 1e-12

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_deleted_row_fails(self, text):
        # the domain less any one row no longer maps onto itself: the image
        # of the missing row is missing, and the symmetric difference fails
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        rows = np.arange(len(dom.arrays))
        for k in rows:
            less = dataclasses.replace(
                dom, arrays=dom.arrays.take(np.delete(rows, k)))
            rep = verify_bijectivity(poly, part, less)
            assert not rep.checks["symmetric_difference"].passed, k
            assert not rep.passed, k

    @pytest.mark.parametrize("text", SIGNATURES + LADDER)
    def test_bands_tile_without_seam(self, text):
        # verify_bijectivity's bands [base_angle, base_angle + sweep], the
        # polygon's block_bands: in block order from 0, each ending within
        # 2 ulp(2pi) of the next block's start (2pi after the last), and
        # none across the seam
        poly = polygon(text)
        lo = np.array([blk.base_angle for blk in poly.blocks])
        sweep = np.array([blk.sweep for blk in poly.blocks])
        assert lo[0] == 0.0
        assert np.abs(lo + sweep - np.append(lo[1:], TAU)).max() \
            <= 2 * math.ulp(TAU)
        bands = poly.block_bands
        assert bands.tobytes() == seam_split(lo, sweep).tobytes()
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

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_duplicated_row_fails(self, text):
        # the residuals' pair terms give the unions only while no three
        # images share area: a domain row listed twice images onto itself,
        # and image_overlap fails the report
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        rows = np.arange(len(dom.arrays))
        for k in rows:
            twice = dataclasses.replace(
                dom, arrays=dom.arrays.take(np.append(rows, k)))
            rep = verify_bijectivity(poly, part, twice)
            assert not rep.checks["image_overlap"].passed, k
            assert not rep.passed, k

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text", SIGNATURES)
    def test_shuffled_rows_change_nothing(self, text, mode):
        # the sums hold for any row list in any order: the same verdicts,
        # image_overlap to the bit, and every residual within 1e-12
        poly = polygon(text)
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        perm = np.random.default_rng(len(dom.arrays)).permutation(
            len(dom.arrays))
        rep = verify_bijectivity(poly, part, dom)
        got = verify_bijectivity(poly, part, dataclasses.replace(
            dom, arrays=dom.arrays.take(perm)))
        assert ({k: c.passed for k, c in got.checks.items()}
                == {k: c.passed for k, c in rep.checks.items()})
        assert got.image_overlap == rep.image_overlap
        assert abs(got.symmetric_difference
                   - rep.symmetric_difference) < 1e-12
        assert max(abs(a - b) for a, b in zip(got.strip_residuals,
                                              rep.strip_residuals)) < 1e-12

    # 1;;1 is one block
    @pytest.mark.parametrize("text", [t for t in SIGNATURES if t != "1;;1"])
    def test_block_tags_move_only_strip_residuals(self, text):
        # block tags shifted by one: each image is clipped to another
        # block's band, so its parts outside that band carry most of its
        # area; the symmetric difference, over all images whatever
        # their tags, moves only by rounding, and the strip residuals fail
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        rs = dom.arrays
        moved = dataclasses.replace(dom, arrays=RectArray(
            rs.theta, rs.sweep, (rs.block + 1) % len(poly.blocks), rs.gamma))
        rep = verify_bijectivity(poly, part, dom)
        bad = verify_bijectivity(poly, part, moved)
        assert abs(bad.symmetric_difference
                   - rep.symmetric_difference) < 1e-12
        assert not bad.checks["strip_residuals"].passed

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_subnormal_arc_end_under_every_error_state(self, text):
        # every arc end at angle 0 moved to 1e-310, which halves to an
        # underflow in cayley and leaves an overlap 1e-310 long: the
        # caller's error state changes no bit, and a warning would fail
        # the suite
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        rs = dom.arrays
        theta = np.where(rs.theta == 0.0, 1e-310, rs.theta)
        assert (theta == 1e-310).any()
        sub = dataclasses.replace(dom, arrays=RectArray(theta, rs.sweep,
                                                        rs.block, rs.gamma))
        out = []
        for mode in ("raise", "warn", "ignore"):
            with np.errstate(all=mode):
                kern = _Kernel(poly, part, sub.arrays)
                images = image_rects(poly, part, sub.arrays)
                rep = verify_bijectivity(poly, part, sub)
                out.append([a.tobytes() for a in (
                    cayley(theta), kern.breaks, kern.glue, *kern.edges,
                    images.theta, images.sweep)] + [repr(rep.to_dict())])
        assert out[0] == out[1] == out[2]


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


# the acceptance set under the named partitions, and one seeded custom
# partition per signature with an elliptic vertex
PREFIX_CASES = [(t, m) for t in SIGNATURES for m in MODES] + [
    (t, "custom") for t in SIGNATURES if polygon(t).elliptic_indices()]


class TestSimulation:
    def test_start_inside_has_K_zero(self):
        dom = domain(MODULAR, "midpoint")
        traces = simulate_entry(dom.poly, dom.part, dom, samples=64, seed=3)
        for t in traces:
            if domain_contains(dom, t.u0, t.w0):
                assert t.K == 0 and t.escape_step >= 0
            if t.K == 0:
                # the drawn angles to the bit, not their Cayley round trip
                assert (t.entry_u, t.entry_w) == (t.u0, t.w0)

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

    @pytest.mark.parametrize("key", PREFIX_CASES, ids=str)
    def test_small_batches_are_prefixes(self, key):
        # a batch of k samples is the first k of 150, whatever the live
        # count at which the flat state of each batch is compacted
        poly = polygon(key[0])
        part = table_partition(poly, key[1])
        dom = build_attractor(poly, part)
        full = simulate_entry(poly, part, dom, samples=150, seed=5)
        for k in (1, 2, 3, 149):
            got = simulate_entry(poly, part, dom, samples=k, seed=5)
            assert repr(got) == repr(full[:k]), k

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

    def test_rejects_negative_max_iters(self):
        # a negative budget would run no step and report samples as never
        # entered
        dom = domain(MODULAR, "midpoint")
        with pytest.raises(ValueError, match="max_iters must be >= 0, got -3"):
            simulate_entry(dom.poly, dom.part, dom, samples=8, seed=1,
                           max_iters=-3)
        assert len(simulate_entry(dom.poly, dom.part, dom, samples=8, seed=1,
                                  max_iters=0)) == 8

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
    du = (pu[:, None] - us[None, :]) % TAU
    in_u = (du <= usw[None, :] + tol) | (du >= TAU - tol)
    return (in_u & dense_candidates(rects, pw, tol)).any(axis=1)


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
    x, j = kern.start(np.stack([pu, pw]))
    return kern.inside(0, j, x[0])


def near_ends(arcs, theta, tol, band):
    """Mask of the angles theta within ``band`` of an end of some arc
    widened by ``tol``."""
    ends = np.array([e for a in arcs for e in (a.start.theta - tol,
                                               a.start.theta + a.sweep
                                               + tol)]) % TAU
    d = np.abs(theta[:, None] - ends[None, :]) % TAU
    return (np.minimum(d, TAU - d) <= band).any(axis=1)


def near_edges(rects, ang, tol, band):
    """Mask of the states at angles ``ang`` with u or w within ``band`` of
    an end of some rectangle's arc widened by ``tol``."""
    return (near_ends([r.u_arc for r in rects], ang[0], tol, band)
            | near_ends([r.w_arc for r in rects], ang[1], tol, band))


# an angle, or (i, d): d past the i-th (mod their count) of the sorted
# distinct edge angles of a rectangle list
EDGE_OR_ANGLE = st.one_of(
    st.floats(0.0, TAU, exclude_max=True),
    st.tuples(st.integers(0, 1 << 16),
              st.floats(-3 * STRUCTURAL, 3 * STRUCTURAL)))


class TestMembershipKernel:
    """The kernel's membership test against the dense oracle and the scalar
    ``domain_contains``."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(KERNEL_DOMAINS),
           st.sampled_from(["attractor", "phi"]),
           st.lists(st.tuples(EDGE_OR_ANGLE, EDGE_OR_ANGLE), min_size=1,
                    max_size=40))
    # u STRUCTURAL past a u-arc's end (to 1.5 ulp(2pi)), where the
    # kernel's x and the dense test's angle round to other verdicts
    @example(("0;2,2;2", "left"), "attractor",
             [((1, STRUCTURAL), 2.1535040783279173)])
    def test_matches_oracle_and_scalar_path(self, key, which, states):
        # equal verdicts with the reference kernel everywhere, and with every
        # rectangle off the 2 ulp(2pi) band about the widened edges
        rects = kernel_rects(key, which)
        edges = sorted(set(edge_angles(rects) % TAU))
        ang = np.array([[a if isinstance(a, float)
                         else (edges[a[0] % len(edges)] + a[1]) % TAU
                         for a in state] for state in states]).T
        got = kernel_member(key, rects, *ang)
        assert np.array_equal(got, kernel_reference(
            polygon(key[0]), partition(*key), RectArray.of(rects),
            cayley(ang)))
        off = ~near_edges(rects, ang, STRUCTURAL, 2 * np.spacing(TAU))
        assert np.array_equal(got[off],
                              dense_member(rects, *ang[:, off], STRUCTURAL))
        if which == "attractor":
            dom = domain(*key)
            assert got[off].tolist() == [domain_contains(dom, u, w)
                                         for u, w in ang[:, off].T]

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
        # state on the sliver also passes the tol-widened w-tests of both
        # its neighbours, so its intervals list three candidates
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
        sliver = rects[i + 1].w_arc
        assert sliver.sweep < tol
        nxt = next(k for k, q in enumerate(rects)
                   if angular_distance(q.w_arc.start.theta,
                                       sliver.end.theta) < WRAP)
        kernel = _Kernel(polygon(MANY_BLOCKS),
                         partition(MANY_BLOCKS, "midpoint"),
                         RectArray.of(rects))
        first, last = kernel.locate(cayley([sliver.start.theta,
                                            sliver.start.theta
                                            + sliver.sweep]))
        for j in range(first, last + 1):
            assert set(kernel.cand[0][:, j]) - {-1} == {i, i + 1, nxt}
        rng = np.random.default_rng(0)
        pu = rng.uniform(0.0, TAU, 50_000)
        pw = (sliver.start.theta
              + rng.uniform(-3 * tol, 3 * tol, pu.size)) % TAU
        want = dense_member(rects, pu, pw, tol)
        x, j = kernel.start(np.stack([pu, pw]))
        assert np.array_equal(kernel.inside(0, j, x[0]), want)
        # the third row matters: without it states are missed
        kernel.edges[0] = kernel.edges[0][:2]
        assert not np.array_equal(kernel.inside(0, j, x[0]), want)

    @pytest.mark.parametrize("which", ["attractor", "phi"])
    @pytest.mark.parametrize("key", KERNEL_DOMAINS, ids=str)
    def test_near_breakpoints_matches_oracle(self, key, which):
        # w within 3 (STRUCTURAL + SAME_POINT) of the reference kernel's
        # breakpoints, 0, the cuts and the w-arc ends widened by STRUCTURAL
        # + WRAP, against every rectangle; then of the kernel's own, the
        # widened edges themselves, against the reference kernel; u uniform
        # or near a rectangle edge
        rects = kernel_rects(key, which)
        poly, part, rs = polygon(key[0]), partition(*key), RectArray.of(rects)
        kern = _Kernel(poly, part, rs)
        rng = np.random.default_rng(len(rects) + 1)
        span = 3 * (STRUCTURAL + SAME_POINT)
        window = ReferenceKernel(poly, part, rs).breaks
        for xb, exact in ((window, False), (kern.breaks, True)):
            pw = (cayley_angle(xb)[:, None]
                  + np.linspace(-span, span, 41)).ravel()
            pw = np.repeat(pw % TAU, 8)
            pu = np.where(rng.integers(0, 2, pw.size) == 1,
                          rng.uniform(0.0, TAU, pw.size),
                          (rng.choice(edge_angles(rects), pw.size)
                           + rng.uniform(-3 * STRUCTURAL, 3 * STRUCTURAL,
                                         pw.size)) % TAU)
            x = cayley(np.stack([pu, pw]))
            got = kern.inside(0, kern.locate(x[1]), x[0])
            want = (kernel_reference(poly, part, rs, x) if exact
                    else dense_member(rects, pu, pw, STRUCTURAL))
            assert np.array_equal(got, want)

    def test_junction_overlap_rechecked(self):
        # stretch one w-arc 0.9 SAME_POINT past the next start, a junction
        # _check_tiling accepts: a state in that overlap, under the
        # stretched rectangle's u-arc only, fails the next rectangle at a
        # w-offset above STRUCTURAL and passes only the stretched one, which
        # its interval lists beside the next
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
        x, j = kern.start(np.stack([pu, pw]))
        assert np.array_equal(kern.inside(0, j, x[0]), want)

    @pytest.mark.parametrize("shift", [1e-3, 3 * SAME_POINT])
    @pytest.mark.parametrize("key", [(MANY_BLOCKS, "midpoint"),
                                     ("2;2,5,8;2", "left"),
                                     ("0;3,3,4;2", "right")], ids=str)
    def test_matches_oracle_without_tiling(self, key, shift):
        # shift the w-arcs, in w-start order, by shift / 2 alternately
        # forward and back: their junctions overlap and leave gaps of
        # ``shift`` in turn, and the list no longer tiles the circle
        rects = sorted(domain(*key).rects, key=lambda r: r.w_arc.start.theta)
        moved = [Rect(r.u_arc, DirectedArc.from_angles(
                     r.w_arc.start.theta + (-1) ** k * shift / 2,
                     r.w_arc.sweep), r.block, r.gamma_index)
                 for k, r in enumerate(rects)]
        with pytest.raises(TilingViolation):
            _check_tiling(tuple(moved))
        rng = np.random.default_rng(7)
        pu, pw = stressed_states(moved, STRUCTURAL, 100_000, rng)
        # half the w within 2 shift of a junction
        near = (rng.choice([r.w_arc.start.theta for r in rects], pw.size)
                + rng.uniform(-2 * shift, 2 * shift, pw.size)) % TAU
        pw = np.where(rng.integers(0, 2, pw.size) == 1, near, pw)
        want = dense_member(moved, pu, pw, STRUCTURAL)
        got = kernel_member(key, moved, pu, pw)
        assert np.array_equal(got, want)

    def test_full_w_arc_matches_oracle(self):
        # a w-arc of sweep 2pi, or one whose widened ends meet, is a
        # candidate on every interval
        key = (MODULAR, "midpoint")
        rects = list(domain(*key).rects)
        rects += [Rect(r.u_arc, DirectedArc.from_angles(r.w_arc.start.theta,
                                                        sweep),
                       r.block, r.gamma_index)
                  for r, sweep in zip(rects, (TAU, TAU - STRUCTURAL))]
        pu, pw = stressed_states(rects, STRUCTURAL, 20_000,
                                 np.random.default_rng(5))
        assert np.array_equal(kernel_member(key, rects, pu, pw),
                              dense_member(rects, pu, pw, STRUCTURAL))

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
        cells = kern.cell[kern.locate(cayley(thetas))]
        assert cells.tolist() == [part.cell_of(t) for t in thetas]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_DOMAINS),
           st.lists(st.tuples(st.floats(0.0, TAU, exclude_max=True),
                              st.floats(0.0, TAU, exclude_max=True)),
                    min_size=1, max_size=20))
    # the smallest normal angle: its x = -9e307 overflowed p x in a step
    @example(("1;;1", "left"), [(2.2250738585072014e-308, 2.0)])
    def test_step_matches_F_apply(self, key, states):
        poly, part = polygon(key[0]), partition(*key)
        states = [(u, w) for u, w in states
                  if cut_distance(part, w) > 1e-9
                  and angular_distance(u, w) > 1e-9]
        assume(states)
        tu, tw = np.array(states).T
        kern = _Kernel(poly, part)
        x, _ = kernel_step(kern, *kern.start(np.stack([tu, tw])))
        pu, pw = cayley_angle(x)
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


def real_form(poly):
    """(p, q, r, s) of each generator, 4 x n: the gluing on the Cayley
    coordinate, as rows 0 to 3 of the kernel's ``table``."""
    a = np.array([g.a for g in poly.generators])
    b = np.array([g.b for g in poly.generators])
    return np.stack([a.real + b.real, a.imag - b.imag, -(a.imag + b.imag),
                     a.real - b.real])


class TestFusedLookup:
    """The kernel's one breakpoint lookup per step against ``oracles``: the
    binary search on the cut points, both in the Cayley coordinate, bit for
    bit, the test of every rectangle for the candidate lists, and the
    complex step of ``two_lookup_step`` for one step."""

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_cell_and_candidate_near_breakpoints(self, key):
        poly, part, dom = fused_case(key)
        lists = [list(dom.rects), phi_set(poly, part)]
        kern = _Kernel(poly, part, *map(RectArray.of, lists))
        xb = kern.breaks
        near = np.concatenate([
            np.nextafter(xb, -np.inf), np.nextafter(xb, np.inf),
            cayley((cayley_angle(xb)[:, None] + np.linspace(-3, 3, 25)
                    * STRUCTURAL).ravel() % TAU)])
        x = np.concatenate([[-np.inf, np.inf], cayley([0.0, TAU]), near])
        j = kern.locate(x)
        cells = two_lookup_cell(part, x, cayley)
        assert np.array_equal(kern.cell[j], cells)
        assert np.array_equal(kern.glue[:, j], real_form(poly)[:, cells])
        # each list holds exactly the rectangles whose STRUCTURAL-widened
        # w-range holds x; on angles, every rectangle whose arc widened as
        # much holds w, off the 2 ulp(2pi) band about the widened ends where
        # angles and x round differently, and none whose arc widened by WRAP
        # more does not, up to the rounding of the widened ends mod 2pi and
        # of the coordinate
        pw = cayley_angle(x)
        rows, beyond = np.arange(pw.size), WRAP + 4 * np.spacing(TAU)
        for i, rects in enumerate(lists):
            # padding, -1, marks the extra last column
            got = np.zeros((pw.size, len(rects) + 1), bool)
            got[rows, kern.cand[i][:, j]] = True
            got = got[:, :-1]
            assert np.array_equal(got, cayley_candidates(rects, x,
                                                         STRUCTURAL))
            off = ~near_ends([r.w_arc for r in rects], pw, STRUCTURAL,
                             2 * np.spacing(TAU))
            assert (got >= dense_candidates(rects, pw, STRUCTURAL))[off].all()
            assert (got <= dense_candidates(rects, pw,
                                            STRUCTURAL + beyond)).all()

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_step_matches_two_lookups(self, key):
        """One step from the same angles against the complex step, within
        the sum of both steps' first-order rounding bounds, in units of
        eps = 2^-52 (a libm call <= 1 ulp, + - * / <= eps / 2):

        - input angle: cos, sin and a division give x to 2.5 eps relative,
          an angle error of |sin theta| 2.5 eps; exp gives z to 1.5 eps
          tangentially.  Both grow by |g'| = 1 / |conj(b) z + conj(a)|^2;
        - step: a matrix entry rounded to eps relative moves the image by at
          most 2 eps |M|_F sqrt|g'| (|M u| = 1 / sqrt|g'| for a unit u),
          |M|_F^2 = p^2 + q^2 + r^2 + s^2 = 2 (|a|^2 + |b|^2); the complex
          products and sums cost at most sqrt(5) eps |a| sqrt|g'| <= 1.6 eps
          |M|_F sqrt|g'|;
        - the rest, output roundings: 1.5 + 4 (atan2, doubled) real; 4.5
          (sums, Smith's division), 1 (renormalisation) and 4 (angle, mod
          2pi) complex.

        So the gap is at most eps (4 |g'| + 3.6 |M|_F sqrt|g'| + 15), which
        is below c eps max(1, |g'|) with c = 19 + 3.6 |M|_F, from the
        operation counts alone.
        """
        poly, part, _ = fused_case(key)
        kern = _Kernel(poly, part)
        ang = np.random.default_rng(500).uniform(0.0, TAU, (2, 5000))
        x, j = kern.start(ang)
        y, _ = kernel_step(kern, x, j)
        _, want = two_lookup_step(poly, part, np.exp(1j * ang), ang[1])
        cells = two_lookup_cell(part, ang[1])
        assert np.array_equal(kern.cell[j], cells)
        a = np.array([g.a for g in poly.generators])[cells]
        b = np.array([g.b for g in poly.generators])[cells]
        dg = 1.0 / np.abs(np.conj(b) * np.exp(1j * ang) + np.conj(a)) ** 2
        c = 19 + 3.6 * np.sqrt(2 * (np.abs(a) ** 2 + np.abs(b) ** 2))
        d = np.abs(cayley_angle(y) - want) % TAU
        err = np.minimum(d, TAU - d) / np.maximum(1.0, dg)
        assert (err <= c * np.finfo(float).eps).all()

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_inside_matches_dense_along_orbits(self, key):
        # 300 steps of the kernel's own states: their verdicts are those of
        # every rectangle on their angles, except within 2 ulp(2pi) of a
        # widened edge, where the two rounded coordinates may disagree
        poly, part, dom = fused_case(key)
        kern = _Kernel(poly, part, dom.arrays)
        x, j = kern.start(np.random.default_rng(500).uniform(0.0, TAU,
                                                              (2, 500)))
        for _ in range(300):
            x, j = kernel_step(kern, x, j)
            ang = cayley_angle(x)
            off = kern.inside(0, j, x[0]) != dense_member(dom.rects, *ang,
                                                          STRUCTURAL)
            assert near_edges(dom.rects, ang[:, off], STRUCTURAL,
                              2 * np.spacing(TAU)).all()

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_verdicts_equal_reference(self, key):
        # both lists, on states with u, w or both at 0, +-STRUCTURAL, 2 and
        # 3 STRUCTURAL from a rectangle edge, where angles and x round
        # differently at the widened edges, and on the kernel's own orbits
        poly, part, dom = fused_case(key)
        lists = [list(dom.rects), phi_set(poly, part)]
        arrays = [RectArray.of(rects) for rects in lists]
        kern = _Kernel(poly, part, *arrays)
        rng = np.random.default_rng(23)
        x, j = kern.start(rng.uniform(0.0, TAU, (2, 500)))
        orbits = [x]
        for _ in range(200):
            x, j = kernel_step(kern, x, j)
            orbits.append(x)
        offsets = np.array([0, 1, -1, 2, 3]) * STRUCTURAL
        for i, rects in enumerate(lists):
            edge = (rng.choice(edge_angles(rects), (2, 20_000))
                    + rng.choice(offsets, (2, 20_000))) % TAU
            # 1: u on an edge, 2: w, 3: both
            which = rng.integers(1, 4, 20_000)
            ang = np.where([which & 1, which & 2], edge,
                           rng.uniform(0.0, TAU, edge.shape))
            x = np.hstack([cayley(ang), *orbits])
            assert np.array_equal(kern.inside(i, kern.locate(x[1]), x[0]),
                                  kernel_reference(poly, part, arrays[i], x))

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_seam_maps_to_p_over_r(self, key):
        # a start state at theta = 0, on u and then on w, is x = -inf and
        # maps to p / r of the cell of w; a u next to the pole -s / r of the
        # cell of w, where the denominator rounds to exactly 0, maps to the
        # seam.  None raises a RuntimeWarning, and each agrees with F_apply
        poly, part, _ = fused_case(key)
        kern = _Kernel(poly, part)
        mids = [lo + 0.5 * sweep for lo, sweep in map(part.cell_arc,
                                                        range(part.n))
                if sweep > 0]
        x, _ = kern.start(np.array([[0.0, mids[0], 0.0], [mids[0], 0.0, 0.0]]))
        xm = cayley(mids)
        p, q, r, s = kern.glue[:, kern.locate(xm)]
        near = -s / r + np.spacing(-s / r) * np.arange(-4, 5)[:, None]
        pole = r * near + s == 0.0
        assert pole.any()
        x = np.hstack([x, [near[pole], np.broadcast_to(xm, near.shape)[pole]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = kernel_step(kern, x, kern.locate(x[1]))
        for (u, w), (su, sw) in zip(cayley_angle(x).T, cayley_angle(y).T):
            _, u2, w2 = F_apply(poly, part, BoundaryPoint.from_angle(u),
                                BoundaryPoint.from_angle(w))
            assert angular_distance(u2.theta, su) < 1e-12
            assert angular_distance(w2.theta, sw) < 1e-12
        p, q, r, s = kern.glue[:, kern.locate(x[1])]
        seam = np.isinf(x)
        assert np.array_equal(y[seam], np.broadcast_to(p / r, x.shape)[seam])
        assert np.isinf(y[0, 3:]).all()

    def test_states_stay_c_ordered(self):
        # a transposed (Fortran-ordered) start array gives C-ordered states,
        # which every step keeps
        poly, part, dom = fused_case(("1;2,3,7;2", "midpoint"))
        kern = _Kernel(poly, part, dom.arrays)
        ang = np.random.default_rng(1).uniform(0.0, TAU, (500, 2)).T
        assert ang.flags.f_contiguous and not ang.flags.c_contiguous
        x, j = kern.start(ang)
        assert x.flags.c_contiguous
        for _ in range(3):
            x, j = kernel_step(kern, x, j)
            assert x.flags.c_contiguous

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_two_pi_takes_the_last_cell(self, key):
        # the kernel's convention; Partition.cell_of wraps 2pi to 0 instead
        # (cell 0, or the next cell when cell 0 is empty), and the two
        # differ only on this measure-zero set
        poly, part, _ = fused_case(key)
        kern = _Kernel(poly, part)
        cells = kern.cell[kern.locate(cayley([0.0, TAU]))].tolist()
        assert cells == [part.cell_of(0.0), part.n - 1]
        assert part.cell_of(TAU) == part.cell_of(0.0) != part.n - 1


def seam_entries(rng, n):
    """Entered traces of n states each with u = 0, with w = 0 and with u =
    1e-310, which ``cayley`` puts on the seam x = -inf, the other angle
    uniform."""
    u, w = rng.uniform(0.0, TAU, (2, n))
    ang = np.hstack([[0 * u, w], [u, 0 * w], [np.full(n, 1e-310), w]])
    return [EntryTrace(i, a, b, 0, 0, True, a, b)
            for i, (a, b) in enumerate(ang.T.tolist())]


def shrunk(dom):
    """``dom`` with every u-start moved on by 0.01 and every sweep scaled by
    0.98."""
    rs = dom.arrays
    theta = rs.theta.copy()
    theta[:, 0] += 0.01
    return dataclasses.replace(dom, arrays=RectArray(
        theta % TAU, rs.sweep * 0.98, rs.block, rs.gamma))


def oracle_exits(poly, part, rs, traces, steps):
    """The exits of ``check_forward_invariance`` from a loop of
    ``kernel_step`` and the verdicts of ``kernel_reference``."""
    kern = _Kernel(poly, part, rs)
    x, j = kern.start(np.array([[t.entry_u, t.entry_w] for t in traces
                                if t.entered]).T)
    exits = 0
    for _ in range(steps):
        x, j = kernel_step(kern, x, j)
        exits += int(np.count_nonzero(~kernel_reference(poly, part, rs, x)))
    return exits


class TestLoops:
    """The loops of ``simulate_entry`` and ``check_forward_invariance``:
    the seam found by numpy's invalid flag against the NaN test of
    ``moebius_reference``, states on the seam, the loops' own error state,
    the exits counted past the first candidate, and traces pinned by
    hash."""

    def test_moebius_matches_reference_bits(self):
        # columns of real gluings, random ones, and random ones with r = 0
        # and with p = r = 0; states uniform over six decades and on the
        # pole -s / r, then 30 % of them set to +-inf, +-0.0 or +-1e308,
        # whose p x overflows: in u alone, in w alone and in both.  Each
        # batch also steps as the loops' flat [u; w] of permuted columns,
        # with the coefficients gathered at the doubled index
        rng = np.random.default_rng(25)
        n = 6000
        x = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-3, 4, (2, n))
        coef = rng.standard_normal((4, n))
        kern = _Kernel(polygon("1;2,3,7;2"), partition("1;2,3,7;2",
                                                       "midpoint"))
        coef[:, :2000] = kern.glue[:, rng.integers(1, kern.glue.shape[1],
                                                   2000)]
        coef[2, 3000:5000] = 0.0
        coef[0, 4000:5000] = 0.0
        x[:, 5000:] = -coef[3, 5000:] / coef[2, 5000:]
        plain = x.copy()
        pick = rng.random((2, n)) < 0.3
        x[pick] = rng.choice([np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308],
                             np.count_nonzero(pick))
        only_u, only_w = plain.copy(), plain.copy()
        only_u[0], only_w[1] = x[0], x[1]
        j = rng.permutation(n)
        doubled = coef.take(np.concatenate((j, j)), axis=1)
        for states in (plain, only_u, only_w, x):
            with np.errstate(all="ignore"):
                want = moebius_reference(states, coef)
            with np.errstate(all="ignore", invalid="raise"):
                got = _moebius(states, coef)
                flat = _moebius(states[:, j].ravel(), doubled)
            assert got.tobytes() == want.tobytes()
            assert flat.tobytes() == want[:, j].tobytes()
        # the seam and the p = r = 0 columns map to +-inf and to NaN
        assert np.isinf(want).any() and np.isnan(want).any()

    @pytest.mark.parametrize("key", FUSED_CASES, ids=str)
    def test_seam_entries_match_oracle(self, key):
        poly, part, dom = fused_case(key)
        traces = seam_entries(np.random.default_rng(3), 60)
        exits = check_forward_invariance(poly, part, dom, traces, steps=40)
        assert type(exits) is int
        assert exits == oracle_exits(poly, part, dom.arrays, traces, 40)

    @pytest.mark.parametrize("key", [(MODULAR, "midpoint"),
                                     ("1;2,3,7;2", "left"),
                                     ("2;2,5,8;2", "custom")], ids=str)
    def test_loops_keep_their_error_state(self, key):
        # each loop sets its own error state: the ambient one changes no
        # trace or exit, and a warning would fail the suite
        poly, part, dom = fused_case(key)
        seam = seam_entries(np.random.default_rng(4), 30)
        out = []
        for mode in ("raise", "warn", "ignore"):
            with np.errstate(all=mode):
                traces = simulate_entry(poly, part, dom, samples=300, seed=11,
                                        buffer=0.0)
                out.append((np.array(traces, dtype=float),
                            check_forward_invariance(poly, part, dom, traces,
                                                     steps=100),
                            check_forward_invariance(poly, part, dom, seam,
                                                     steps=100)))
        for got in out[:2]:
            assert np.array_equal(got[0], out[2][0], equal_nan=True)
            assert got[1:] == out[2][1:]

    def test_exits_past_the_first_candidate(self):
        # orbits of the full domain are outside the shrunk one at about
        # half of their state steps, so the later candidates are tested on
        # every step; each exit is a state that no candidate holds
        poly, part, dom = fused_case(("1;2,3,7;2", "midpoint"))
        traces = simulate_entry(poly, part, dom, samples=300, seed=11)
        small = shrunk(dom)
        exits = check_forward_invariance(poly, part, small, traces,
                                         steps=200)
        assert exits == 29480
        assert exits == oracle_exits(poly, part, small.arrays, traces, 200)

    @pytest.mark.parametrize("case", ["shrunk", "seam", "wide"])
    def test_block_boundaries_match_oracle(self, case):
        # one membership pass judges a block of B = max(1, _BLOCK // states)
        # steps: no step, one, a block less one, one block, one step into
        # the next, and two blocks and a partial third; the shrunk domain
        # has exits, and "wide" holds more states than a block, so each
        # block is one step
        poly, part, dom = fused_case(("1;2,3,7;2", "midpoint"))
        if case == "seam":
            traces = seam_entries(np.random.default_rng(5), 60)
        else:
            samples = _BLOCK + 4 if case == "wide" else 300
            traces = simulate_entry(poly, part, dom, samples, seed=11)
            dom = shrunk(dom)
        B = max(1, _BLOCK // sum(t.entered for t in traces))
        assert (B == 1) == (case == "wide")
        for steps in (0, 1, B - 1, B, B + 1, 2 * B + 3):
            assert check_forward_invariance(
                poly, part, dom, traces, steps=steps) == oracle_exits(
                    poly, part, dom.arrays, traces, steps), steps

    @pytest.mark.parametrize("text, digest", [
        ("0;2,3;1",
         "56b66c6961846d3c7d70b32948a336f801b234c2558ef953a39466a7a67e8758"),
        ("1;2,3,7;2",
         "80ca4b2d7b14d80c5bce0d22278b14d593eea6e551305328ff814e0a0e65824b"),
        ("2;2,5,8;2",
         "9cd16c347aa6c92adcf216a65206115f525fb6a6c0b059c2b336e6a47105e571"),
    ])
    def test_traces_pinned_by_hash(self, text, digest):
        poly, part, dom = fused_case((text, "midpoint"))
        traces = simulate_entry(poly, part, dom, samples=300, seed=11)
        csv = traces_to_csv(traces, 11).encode()
        assert hashlib.sha256(csv).hexdigest() == digest
        assert check_forward_invariance(poly, part, dom, traces,
                                        steps=300) == 0


def random_arcs(rng, n, cuts):
    """Start, end and sweep of n arcs, each uniform, from 0, from one of the
    ``cuts`` to another, ending on a cut, full, or under 3e-11 about a cut,
    with equal odds; most uniform ones cross the seam."""
    kind = rng.integers(0, 6, n)
    start = rng.uniform(0.0, TAU, n)
    start[kind == 1] = 0.0
    pick = rng.choice(cuts, (2, n))
    start[kind == 2] = pick[0, kind == 2]
    tiny = kind == 5
    start[tiny] = (pick[0, tiny] - rng.uniform(0.0, 3e-11, tiny.sum())) % TAU
    end = (start + np.where(tiny, rng.uniform(1e-12, 3e-11, n),
                            rng.uniform(1e-9, TAU, n))) % TAU
    on_cut = (kind == 2) | (kind == 3)
    end[on_cut] = pick[1, on_cut]
    sweep = (end - start) % TAU
    full = (kind == 4) | (sweep == 0.0)
    sweep[full], end[full] = TAU, start[full]
    return start, end, sweep


def random_rects(rng, n, cuts):
    """n rectangles of ``random_arcs`` in u and in w, as a ``RectArray``."""
    (us, ue, uw), (ws, we, ww) = (random_arcs(rng, n, cuts) for _ in "uw")
    return RectArray(np.column_stack([us, ue, ws, we]),
                     np.column_stack([uw, ww]), np.zeros(n, np.int64),
                     np.zeros(n, np.int64))


class TestRuns:
    """The run reading of the sorted tables, the inner cuts of each w-arc
    and each w-arc's intervals, against the dense masks it replaced in
    ``oracles``, output for output."""

    def test_runs(self):
        owner, value = _runs(np.array([2, 5, 0, 7]), np.array([4, 5, 3, 8]))
        assert owner.tolist() == [0, 0, 2, 2, 2, 3]
        assert value.tolist() == [2, 3, 0, 1, 2, 7]

    def test_split_margins(self):
        # a cut is inside when it lies more than 1e-11 past the start and
        # before the end, each sum rounded: the float at start + 1e-11 and
        # the one at end - 1e-11 are not inside, the floats next to them
        # that lie between them are
        first, last = 1.0 + 1e-11, 3.0 - 1e-11
        inner = np.nextafter([first, last], [np.inf, -np.inf])
        cuts = np.sort([first, last, *inner])
        _, lo, hi, _ = _split(np.array([1.0]), np.array([3.0]),
                              np.array([2.0]), cuts)
        assert lo.tolist() == [1.0, *inner]
        assert hi.tolist() == [*inner, 3.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_split_equals_reference(self, seed):
        # odd seeds repeat three cuts
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.uniform(0.0, TAU, rng.integers(1, 40)))
        if seed % 2:
            cuts = np.sort(np.concatenate([cuts, cuts[:3]]))
        arcs = random_arcs(rng, 500, cuts)
        for got, want in zip(_split(*arcs, cuts),
                             split_reference(*arcs, cuts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("key", [(STRESS[2], m) for m in MODES] + [
        (MANY_BLOCKS, "left"), (MODULAR, "midpoint")], ids=str)
    def test_split_of_domain_and_image(self, key):
        poly, part = polygon(key[0]), partition(*key)
        dom = build_attractor(poly, part)
        cuts = np.array(sorted(set(part.thetas)))
        for rs in (dom.arrays, image_rects(poly, part, dom.arrays)):
            arcs = *rs.theta[:, 2:].T, rs.sweep[:, 1]
            for got, want in zip(_split(*arcs, cuts),
                                 split_reference(*arcs, cuts)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("key", [(MODULAR, "midpoint"),
                                     ("2;2,5,8;2", "left"),
                                     (MANY_BLOCKS, "right")], ids=str)
    def test_candidates_equal_reference(self, key, seed):
        # two random lists in one table, with arcs from and to the cuts
        poly, part = polygon(key[0]), partition(*key)
        rng = np.random.default_rng(seed)
        cuts = np.array(part.thetas)
        lists = [random_rects(rng, n, cuts) for n in (60, 7)]
        kern = _Kernel(poly, part, *lists)
        for cand, rs in zip(kern.cand, lists):
            assert np.array_equal(cand, candidates_reference(kern.breaks, rs))

    @pytest.mark.parametrize("mode", MODES)
    def test_candidates_of_1920_rectangles(self, mode):
        poly, part = polygon(STRESS[2]), partition(STRESS[2], mode)
        dom = build_attractor(poly, part)
        lists = [dom.arrays, RectArray.of(phi_set(poly, part))]
        assert len(lists[0]) == 1920
        kern = _Kernel(poly, part, *lists)
        for cand, rs in zip(kern.cand, lists):
            assert np.array_equal(cand, candidates_reference(kern.breaks, rs))


# interval ends where pairs touch, start together, cross the seam or end at
# a subnormal angle, and any angle besides
_ENDPOINTS = st.one_of(st.sampled_from([0.0, 1e-310, 0.5, 1.0, 3.0, TAU]),
                       st.floats(0.0, TAU))
_SWEEPS = st.one_of(st.sampled_from([1e-310, 0.5, TAU - 0.5, TAU]),
                    st.floats(1e-300, TAU))


def _padded(rows):
    return np.array(rows, dtype=float).reshape(-1, 2, 2)


# padded rows: a seam-split arc (full, across the seam, or one interval and
# the padding), or any two intervals, empty ones among them
_ROW = st.one_of(
    st.builds(lambda s, w: seam_split(np.array([s]), np.array([w]))[0]
              .tolist(), _ENDPOINTS, _SWEEPS),
    st.lists(st.lists(_ENDPOINTS, min_size=2, max_size=2).map(sorted),
             min_size=2, max_size=2))
_ROWS = st.lists(_ROW, min_size=1, max_size=12).map(_padded)


class TestCandidatePairs:
    """The candidate pairs of ``verify_bijectivity`` and its cover function
    against the dense overlap products they replace."""

    @settings(max_examples=300, deadline=None)
    @given(_ROWS, _ROWS)
    @example(_padded([[[0.0, 1e-310], [0.0, 0.0]], [[1.0, 2.0], [0.0, 0.0]]]),
             _padded([[[0.0, 0.5], [0.0, 0.0]], [[2.0, 3.0], [0.0, 0.0]],
                      [[5.0, TAU], [0.0, 1.0]]]))
    def test_pairs_are_the_positive_overlaps(self, x, y):
        # exactly the row pairs of positive overlap, each once, by row; the
        # pairs of one list with i < k, its strict upper triangle
        i, k = _meeting(x, y)
        want = np.nonzero(_overlap_lengths(x[:, None], y) > 0.0)
        assert i.tolist() == want[0].tolist()
        assert k.tolist() == want[1].tolist()
        i, k = _meeting(x, x)
        later = i < k
        want = np.nonzero(np.triu(_overlap_lengths(x[:, None], x) > 0.0, 1))
        assert i[later].tolist() == want[0].tolist()
        assert k[later].tolist() == want[1].tolist()

    @settings(max_examples=200, deadline=None)
    @given(_ROWS, _ROWS, st.lists(st.floats(0.0, 10.0), min_size=12,
                                  max_size=12))
    def test_cover_equals_summed_overlaps(self, x, y, weight):
        # G(b) - G(a) over y's intervals is sum_k weight_k |y_i and x_k|
        weight = np.array(weight[:len(x)])
        ends = np.interp(y, *_cover(x, weight))
        got = (ends[..., 1] - ends[..., 0]).sum(axis=1)
        want = (_overlap_lengths(y[:, None], x) * weight).sum(axis=1)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, weight.sum())

    @pytest.mark.parametrize("key", [(MANY_BLOCKS, "left"),
                                     ("2;2,5,8;2", "midpoint"),
                                     (STRESS[0], "midpoint")], ids=str)
    def test_pairs_of_images_and_gaps(self, key):
        # the lists verify_bijectivity meets: the images' u-intervals
        # against themselves and the domain rows' u-gaps
        poly, part = polygon(key[0]), partition(*key)
        rs = build_attractor(poly, part).arrays
        u, _ = image_rects(poly, part, rs).intervals()
        other = np.concatenate([u, seam_split(rs.theta[:, 0] + rs.sweep[:, 0],
                                              TAU - rs.sweep[:, 0])])
        i, k = _meeting(u, other)
        want = np.nonzero(_overlap_lengths(u[:, None], other) > 0.0)
        assert i.tolist() == want[0].tolist()
        assert k.tolist() == want[1].tolist()

    @pytest.mark.parametrize("pairs", [1, 3000, 1 << 16])
    def test_slices_give_the_one_slice_report(self, monkeypatch, pairs):
        # the pairs are met by slices of image rows, each of at most _PAIRS
        # row pairs; any slice size gives the one-slice report to the bit
        poly, part = polygon(STRESS[0]), partition(STRESS[0], "midpoint")
        dom = build_attractor(poly, part)
        monkeypatch.setattr("fuchsian.extension._PAIRS", 1 << 40)
        whole = verify_bijectivity(poly, part, dom)
        monkeypatch.setattr("fuchsian.extension._PAIRS", pairs)
        assert repr(verify_bijectivity(poly, part, dom)) == repr(whole)

    def test_scale_set_is_one_slice(self, monkeypatch):
        calls = []
        meeting = _meeting
        monkeypatch.setattr("fuchsian.extension._meeting",
                            lambda x, y: calls.append(len(x)) or meeting(x, y))
        for text in SCALE:
            for mode in MODES:
                verify_bijectivity(polygon(text), partition(text, mode),
                                   domain(text, mode))
        assert len(calls) == len(SCALE) * len(MODES)
