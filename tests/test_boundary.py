"""Partitions, the boundary map, one-sided orbits, cycles, Markov checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (LADDER, MODES, OPEN_ORBIT_CUTS, SCALE, SIGNATURES,
                      partition, polygon)
from oracles import _nearest as nearest_reference
from oracles import (circular_run, f_apply, growth_rate, markov_entropy,
                     markov_full_walk, markov_reference, matching_walk, orbit,
                     transition_ends)

from fuchsian import (BoundaryPoint, CustomPointOutOfRange, NonFinite,
                      NotElliptic, Partition, cycle, make_partition,
                      markov_check, verify_matching)
from fuchsian import boundary
from fuchsian.boundary import _nearest, _nearest_many, _walk
from fuchsian.mobius import TAU, DiskPoint, angular_distance
from fuchsian.tolerances import SAME_POINT, STRUCTURAL

MODULAR = "0;2,3;1"
ORDERS_3_TO_32 = "0;" + ",".join(map(str, range(3, 33))) + ";1"
PRIMES = "30;2,3,5,7,11,13,17,19,23;10"
# degenerate cycles whose iterated float orbit ended up to 2e-12 inside the
# vertex arc, one J too late; J from tools/derive_oracles.py at 50 digits,
# where c^(J+1)(a) lies within 1.3e-46 of the preceding corner
MPMATH_DEGENERATE = [
    ("6;2,3,5,7,11,13;4", "midpoint", 35, 5),
    (PRIMES, "midpoint", 129, 4), (PRIMES, "midpoint", 135, 8),
    (PRIMES, "midpoint", 137, 10),
    (ORDERS_3_TO_32, "left", 35, 8), (ORDERS_3_TO_32, "left", 47, 11),
    (ORDERS_3_TO_32, "left", 51, 12), (ORDERS_3_TO_32, "right", 35, 9),
    (ORDERS_3_TO_32, "right", 47, 12), (ORDERS_3_TO_32, "right", 51, 13),
    (ORDERS_3_TO_32, "midpoint", 21, 5), (ORDERS_3_TO_32, "midpoint", 33, 8),
    (ORDERS_3_TO_32, "midpoint", 37, 9), (ORDERS_3_TO_32, "midpoint", 49, 12),
    (ORDERS_3_TO_32, "midpoint", 57, 14),
]


def nudged(text, mode, toward):
    """The polygon and named partition of ``text`` with every elliptic
    vertex and elliptic cut point moved 1 ulp toward ``toward``."""
    ulp = lambda x: math.nextafter(x, toward)
    poly = polygon(text)
    verts = tuple(v if v.is_ideal else replace(v, point=DiskPoint(complex(
        ulp(v.point.z.real), ulp(v.point.z.imag)))) for v in poly.vertices)
    poly = replace(poly, vertices=verts)
    points = tuple(p if v.is_ideal else BoundaryPoint.from_angle(ulp(p.theta))
                   for p, v in zip(partition(text, mode).points, verts))
    return poly, Partition(poly, points, mode)


@st.composite
def anchors_and_angles(draw):
    """A sorted anchor list of multiples of 1/64 in [0, 2pi), and angles:
    anchors, exact midpoints of neighbouring anchors, 0, the float below
    2pi, 2pi and any float in between."""
    anchors = [k / 64 for k in sorted(draw(st.lists(
        st.integers(0, 401), min_size=1, max_size=30, unique=True)))]
    special = (anchors + [(a + b) / 2 for a, b in zip(anchors, anchors[1:])]
               + [0.0, math.nextafter(TAU, 0), TAU])
    return anchors, draw(st.lists(st.one_of(st.sampled_from(special),
                                            st.floats(0.0, TAU)),
                                  min_size=1, max_size=40))


def seeded_partitions(poly):
    """(partition, max_steps) of two seeded custom cut sets: a mix of P, M
    and Q (finite orbits; an order-2 vertex takes M, its P and Q are ideal
    vertices) and a uniform draw (open orbits, a budget hit).  Empty when
    the polygon has no elliptic vertex."""
    rng = np.random.default_rng(11)
    mixed, drawn = {}, {}
    for k in poly.elliptic_indices():
        aux = poly.aux[k]
        pick = rng.integers(3) if poly.vertices[k].order > 2 else 1
        mixed[k] = (aux.P, aux.M, aux.Q)[pick].theta
        sweep = (aux.Q.theta - aux.P.theta) % TAU
        drawn[k] = (aux.P.theta + rng.uniform(0.02, 0.98) * sweep) % TAU
    if not mixed:
        return []
    return [(make_partition(poly, "custom", mixed), 10_000),
            (make_partition(poly, "custom", drawn), 1_000)]


class TestMakePartition:
    def test_midpoint_modular(self):
        part = partition(MODULAR, "midpoint")
        assert abs(part.points[1].z - 1j) < 1e-14
        assert abs(part.points[3].z - (-1j)) < 1e-14

    def test_ideal_points_copied(self):
        poly = polygon("1;;1")
        part = make_partition(poly, "left")
        for p, v in zip(part.points, poly.vertices):
            assert p is v.point

    def test_left_right_order_two_touch_corners(self):
        # order-2 side extensions degenerate onto the neighbouring ideal
        # vertices; the map is unaffected because the gluing is an involution
        poly = polygon(MODULAR)
        left = make_partition(poly, "left")
        right = make_partition(poly, "right")
        assert left.points[1].theta == poly.vertices[0].point.theta
        assert right.points[1].theta == poly.vertices[2].point.theta
        x = BoundaryPoint.from_angle(0.4)
        _, a = f_apply(poly, left, x)
        _, b = f_apply(poly, right, x)
        assert angular_distance(a.theta, b.theta) < 1e-12

    def test_custom_out_of_range(self):
        poly = polygon(MODULAR)
        bad = poly.vertices[0].point.theta  # equals V_{k-1}, open-arc violation
        with pytest.raises(CustomPointOutOfRange):
            make_partition(poly, "custom", [bad, 4.0])

    def test_custom_valid(self):
        poly = polygon(MODULAR)
        part = make_partition(poly, "custom", [1.0, 4.0])
        assert part.points[1].theta == 1.0
        assert part.points[3].theta == 4.0

    @pytest.mark.parametrize("build, error, words", [
        # cuts at 0, 3, 1, 2 lift to 0, 3, 1 + 2pi, 2 + 2pi: past the close
        (lambda poly: Partition(poly, tuple(
            BoundaryPoint.from_angle(t) for t in (0.0, 3.0, 1.0, 2.0)),
            "custom"), ValueError, "wind"),
        (lambda poly: make_partition(poly, "custom"),
         CustomPointOutOfRange, "requires angles"),
        (lambda poly: make_partition(poly, "custom", {1: 1.0}),
         CustomPointOutOfRange, "vertex 3"),
        # vertex 2 is ideal and 99 is no vertex; both elliptic keys are valid
        (lambda poly: make_partition(poly, "custom", {
            1: poly.aux[1].M.theta, 3: poly.aux[3].M.theta, 2: 5.0, 99: 1.0}),
         CustomPointOutOfRange, "2 is not an elliptic vertex"),
        (lambda poly: make_partition(poly, "diag"), ValueError,
         "unknown partition mode"),
    ], ids=["winding", "no-custom-angles", "missing-vertex", "stray-key",
            "unknown-mode"])
    def test_rejects_bad_input(self, build, error, words):
        with pytest.raises(error, match=words):
            build(polygon(MODULAR))

    def test_guarantee_range_flag(self):
        poly = polygon(MODULAR)
        assert make_partition(poly, "midpoint").in_guarantee_range()
        aux = poly.aux[3]
        outside = (aux.P.theta - 0.05) % TAU
        part = make_partition(poly, "custom", [1.5, outside])
        assert not part.in_guarantee_range()

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_cuts_are_the_sorted_distinct_angles(self, text):
        poly = polygon(text)
        for part in ([partition(text, m) for m in MODES]
                     + [p for p, _ in seeded_partitions(poly)]):
            assert list(part.cuts) == sorted(set(part.thetas)), part.mode
            assert all(a < b for a, b in zip(part.cuts, part.cuts[1:]))

    def test_cut_on_a_corner_is_one_cut(self):
        # the left cut of an order-2 vertex is the ideal corner before it
        part = partition("0;2,2;2", "left")
        assert len(part.cuts) < part.n
        with pytest.raises(TypeError):
            Partition(part.poly, part.points, part.mode, cuts=part.cuts)


class TestVectorLookups:
    @settings(max_examples=300, deadline=None)
    @given(anchors_and_angles())
    @example(([3.0], [3.0, 0.0, math.nextafter(TAU, 0)]))
    @example(([1.0, 2.0], [1.5, 0.0, math.nextafter(TAU, 0)]))
    def test_nearest_many_is_nearest(self, case):
        # index and distance to the bit, the lower end winning a tie, against
        # the reference lookup; the distance also against _nearest's
        anchors, thetas = case
        idx, dist = _nearest_many(np.array(thetas), np.array(anchors))
        assert (repr(list(zip(idx.tolist(), dist.tolist())))
                == repr([nearest_reference(t, anchors) for t in thetas]))
        assert (repr(dist.tolist())
                == repr([_nearest(t, anchors) for t in thetas]))

    def test_tie_goes_to_the_lower_end(self):
        idx, dist = _nearest_many(np.array([1.5, 0.75]),
                                  np.array([0.5, 1.0, 2.0]))
        assert idx.tolist() == [1, 0] and dist.tolist() == [0.5, 0.25]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(t, m) for t in SIGNATURES + SCALE
                            for m in MODES]),
           st.lists(st.one_of(st.floats(-TAU, 2 * TAU), st.integers(0, 999)),
                    min_size=1, max_size=40))
    def test_cells_of_is_cell_of(self, key, thetas):
        # anywhere on or off the circle, and on every cut (an integer picks
        # one), where the empty cells of coincident cuts are skipped
        part = partition(*key)
        thetas = [part.thetas[t % part.n] if isinstance(t, int) else t
                  for t in thetas]
        assert (part.cells_of(np.array(thetas)).tolist()
                == [part.cell_of(t) for t in thetas])


class TestBoundaryMap:
    def test_cut_point_uses_forward_cell(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        k, img = f_apply(poly, part, part.points[1])  # the cut at i
        assert k == 1
        expect = poly.generators[1].apply_boundary(part.points[1])
        assert angular_distance(img.theta, expect.theta) < 1e-15

    def test_modular_first_cell_acts_by_involution(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        x = BoundaryPoint.from_angle(0.1)
        k, img = f_apply(poly, part, x)
        assert k == 0
        # the order-2 gluing about the origin is z -> -z
        assert abs(img.z - (-x.z)) < 1e-12

    def test_parabolic_cusp_is_fixed(self):
        poly = polygon("0;2,2;2")
        part = partition("0;2,2;2", "midpoint")
        cusp = poly.vertices[5].point  # wedge cusp of the parabolic block
        _, img = f_apply(poly, part, cusp)
        assert angular_distance(img.theta, cusp.theta) < 1e-12

    def test_covering_unique_cell(self):
        poly = polygon("1;2,3,7;2")
        part = partition("1;2,3,7;2", "midpoint")
        rng = np.random.default_rng(5)
        for t in rng.uniform(0, TAU, 2000):
            i = part.cell_of(t)
            lo, sweep = part.cell_arc(i)
            assert (t - lo) % TAU <= sweep
            hits = sum(1 for j in range(part.n)
                       if part.cell_arc(j)[1] > 0
                       and (t - part.cell_arc(j)[0]) % TAU < part.cell_arc(j)[1])
            assert hits == 1

    def test_block_equivariance(self):
        # on a rotated block the map is the rotation conjugate of the
        # standard-position map
        from fuchsian.mobius import MoebiusPSU
        poly = polygon("0;3,3,4;2")
        part = partition("0;3,3,4;2", "midpoint")
        rot = MoebiusPSU.rotation(TAU / poly.ell)
        rng = np.random.default_rng(11)
        blk0, blk1 = poly.blocks[0], poly.blocks[1]
        assert blk0.symbol == blk1.symbol == 3
        for t in rng.uniform(0, TAU / poly.ell, 200):
            x0 = BoundaryPoint.from_angle(blk0.base_angle + t)
            x1 = BoundaryPoint.from_angle(blk1.base_angle + t)
            _, y0 = f_apply(poly, part, x0)
            _, y1 = f_apply(poly, part, x1)
            assert angular_distance(y1.theta,
                                    rot.apply_boundary(y0).theta) < 1e-9


class TestOrbits:
    @pytest.mark.parametrize("text", SIGNATURES)
    def test_base_cusp_orbit_size(self, text):
        poly = polygon(text)
        sig = poly.signature
        expect = 4 * sig.genus + len(sig.orders) + sig.cusps - 1
        for mode in MODES:
            for side in ("upper", "lower"):
                rec = orbit(poly, partition(text, mode),
                            poly.vertices[0].point, side)
                assert rec.periodic_from is not None
                assert rec.distinct_count() == expect

    def test_parabolic_cusp_orbit_is_single_point(self):
        poly = polygon("0;2,2;2")
        rec = orbit(poly, partition("0;2,2;2", "midpoint"),
                    poly.vertices[5].point)
        assert rec.distinct_count() == 1 and rec.periodic_from == 0

    def test_budget_flag(self):
        poly = polygon("1;2,3,7;2")
        part = partition("1;2,3,7;2", "midpoint")
        rec = orbit(poly, part, BoundaryPoint.from_angle(1.2345), max_steps=3)
        assert rec.budget_exceeded

    def test_non_finite_start_raises(self):
        # the library's one walk, that of markov_check, refuses a NaN angle
        with pytest.raises(NonFinite):
            _walk(polygon(MODULAR), partition(MODULAR, "midpoint"), math.nan,
                  10_000)

    def test_midpoint_orbits_reach_cusp_set(self):
        # degenerate order-3 cycle: lower orbit of the cut lands on the
        # preceding corner, then runs inside the two-cusp orbit
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        rec = orbit(poly, part, part.points[3], side="lower")
        angles = sorted(p.theta for p in rec.points)
        assert rec.periodic_from is not None
        assert any(a < 1e-12 for a in angles)
        assert any(abs(a - math.pi) < 1e-12 for a in angles)


class TestCycle:
    def test_not_elliptic(self):
        with pytest.raises(NotElliptic):
            cycle(polygon(MODULAR), partition(MODULAR, "midpoint"), 0)

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_random_cuts_match_with_sum_rule(self, text):
        poly = polygon(text)
        rng = np.random.default_rng(101)
        for k in poly.elliptic_indices():
            m = poly.vertices[k].order
            aux = poly.aux[k]
            sweep = (aux.Q.theta - aux.P.theta) % TAU
            for _ in range(25):
                t = (aux.P.theta + rng.uniform(0.01, 0.99) * sweep) % TAU
                custom = {j: (poly.aux[j].M.theta if j != k else t)
                          for j in poly.elliptic_indices()}
                part = make_partition(poly, "custom", custom)
                data = cycle(poly, part, k)
                assert not data.degenerate
                assert data.I + data.J == m - 2
                assert data.matching_residual < 1e-9
                assert verify_matching(poly, part, k, data) < 1e-9

    def test_monotone_descent(self):
        poly = polygon("2;2,5,8;2")
        part = partition("2;2,5,8;2", "left")
        for k in poly.elliptic_indices():
            if poly.vertices[k].order < 3:
                continue
            data = cycle(poly, part, k)
            base = poly.block_of_side(k).base_angle
            rel = [(part.points[k].theta - base) % TAU]
            rel += [(p.theta - base) % TAU for p in data.lower_points[:data.J]]
            assert all(b < a for a, b in zip(rel, rel[1:]))

    def test_midpoint_even_order_ends_at_antipode(self):
        for text, k in (("2;2,5,8;2", 13), ("0;3,3,4;2", 5), (MODULAR, 1)):
            poly = polygon(text)
            assert poly.vertices[k].order % 2 == 0
            part = partition(text, "midpoint")
            data = cycle(poly, part, k)
            assert not data.degenerate
            anti = (part.points[k].theta + math.pi) % TAU
            assert angular_distance(data.end_of_cycle.theta, anti) < 1e-9

    def test_midpoint_odd_order_degenerates_at_corner(self):
        # the orders 17 and 29 at l = 31 are confirmed with mpmath in
        # tools/derive_oracles.py (J = 7 and 13)
        for text, k in ((MODULAR, 3), ("2;2,5,8;2", 11), ("1;2,3,7;2", 9),
                        ("20;2,3,17,29;8", 85), ("20;2,3,17,29;8", 87)):
            poly = polygon(text)
            m = poly.vertices[k].order
            assert m % 2 == 1
            part = partition(text, "midpoint")
            data = cycle(poly, part, k)
            assert data.degenerate
            corner = poly.vertices[k - 1].point.theta
            assert angular_distance(data.end_of_cycle.theta, corner) < 1e-10
            assert data.I + data.J == m - 3

    def test_left_right_odd_order_ends_at_antipode_of_midpoint(self):
        for text, k in ((MODULAR, 3), ("0;3,3,4;2", 1), ("1;2,3,7;2", 7)):
            poly = polygon(text)
            assert poly.vertices[k].order % 2 == 1
            for mode in ("left", "right"):
                part = partition(text, mode)
                data = cycle(poly, part, k)
                assert not data.degenerate
                anti = (poly.aux[k].M.theta + math.pi) % TAU
                assert angular_distance(data.end_of_cycle.theta, anti) < 1e-9

    def test_left_right_even_order_degenerates(self):
        poly = polygon("2;2,5,8;2")
        k = 13
        assert poly.vertices[k].order == 8
        for mode in ("left", "right"):
            data = cycle(poly, partition("2;2,5,8;2", mode), k)
            assert data.degenerate

    def test_order_two_trivial_cycle(self):
        poly = polygon(MODULAR)
        data = cycle(poly, partition(MODULAR, "midpoint"), 1)
        assert data.I == data.J == 0

    @pytest.mark.parametrize("mode", ["left", "right"])
    def test_matching_residual_is_the_iterated_one(self, mode):
        # the stored residual walks the boundary map, as verify_matching
        # does; at vertex 87 (order 29) that walk is 1.8e-8 off, not 0
        text = "20;2,3,17,29;8"
        poly, part = polygon(text), partition(text, mode)
        for k in poly.elliptic_indices():
            data = cycle(poly, part, k)
            assert data.matching_residual == verify_matching(poly, part, k,
                                                             data)
        assert cycle(poly, part, 87).matching_residual > 1e-9

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_matching_residual_equals_the_point_walk(self, text):
        # cycle walks bare angles; matching_walk steps BoundaryPoints
        # through f_apply, on the named and the seeded custom cuts
        poly = polygon(text)
        for part in ([partition(text, m) for m in MODES]
                     + [p for p, _ in seeded_partitions(poly)]):
            for k in poly.elliptic_indices():
                d = cycle(poly, part, k)
                assert d.matching_residual == matching_walk(
                    poly, part, k, d.J, d.I, d.degenerate), (part.mode, k)

    @pytest.mark.parametrize("text, mode, k, J", MPMATH_DEGENERATE)
    def test_corner_landing_matches_mpmath(self, text, mode, k, J):
        poly = polygon(text)
        data = cycle(poly, partition(text, mode), k)
        assert (data.J, data.degenerate) == (J, True)
        assert data.I == data.order - 3 - J

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_ulp_nudge_keeps_cycle_combinatorics(self, text):
        poly = polygon(text)
        for mode in MODES:
            part = partition(text, mode)
            want = [(d.J, d.I, d.degenerate) for d in
                    (cycle(poly, part, k) for k in poly.elliptic_indices())]
            for toward in (math.inf, -math.inf):
                moved_poly, moved_part = nudged(text, mode, toward)
                got = [(d.J, d.I, d.degenerate) for d in
                       (cycle(moved_poly, moved_part, k)
                        for k in poly.elliptic_indices())]
                assert got == want, (mode, toward)


class TestMarkov:
    @pytest.mark.parametrize("text", SIGNATURES)
    @pytest.mark.parametrize("mode", MODES)
    def test_finite_markov_property(self, text, mode):
        poly = polygon(text)
        rep = markov_check(poly, partition(text, mode))
        assert rep.passed, rep.to_dict()
        assert rep.endpoint_residual < 1e-9
        assert len(rep.transitions) == len(rep.refinement)
        assert all(cov for cov in rep.transitions)

    def test_stops_at_first_budget_hit(self):
        # the vertex-0 cusp orbits land on a cut at once and stop there; the
        # open vertex-1 orbit is the first to run, and hits a one-step budget
        poly = polygon("0;2,2;2")
        part = make_partition(poly, "custom", OPEN_ORBIT_CUTS)
        rep = markov_check(poly, part, max_steps=1)
        assert rep.passed is False
        assert rep.budget_exceeded and not rep.all_orbits_finite
        assert rep.checks["orbits_finite"].residual == 1
        assert rep.checks["orbits_finite"].detail == "orbit 1:upper"
        assert rep.refinement == [] and rep.transitions == []
        assert rep.endpoint_residual == math.inf
        assert rep.orbit_sizes == {"0:upper": 0, "0:lower": 0, "1:upper": 1}

    def test_no_budget_fails_the_first_walk(self):
        # a walk that would land on a cut at its first step has no step to
        # take it with
        rep = markov_check(polygon("40;;1"), partition("40;;1", "midpoint"),
                           max_steps=0)
        assert rep.checks["orbits_finite"].detail == "orbit 0:upper"
        assert rep.orbit_sizes == {"0:upper": 0} and rep.refinement == []

    @pytest.mark.parametrize("text", SIGNATURES + SCALE)
    def test_first_cells_meet_the_cut(self, text, monkeypatch):
        # each cut's first two steps, upper then lower, take the gluing of
        # the nonempty cell that starts at the cut and of the one that ends
        # there; at coincident cuts, as at order-2 vertices under left and
        # right, the cell between them is empty
        poly = polygon(text)
        cell = {id(g): i for i, g in enumerate(poly.generators)}
        step, steps = boundary._step, []

        def spy(gen, t):
            steps.append((cell[id(gen)], t))
            return step(gen, t)

        monkeypatch.setattr(boundary, "_step", spy)
        for part in ([partition(text, m) for m in MODES]
                     + [p for p, _ in seeded_partitions(poly)]):
            steps.clear()
            markov_check(poly, part)
            for theta, (up, t0), (low, t1) in zip(
                    part.thetas, steps[0:2 * part.n:2], steps[1:2 * part.n:2]):
                assert t0 == t1 == theta
                lo, sweep = part.cell_arc(up)
                assert sweep > 0 and angular_distance(lo, theta) < STRUCTURAL
                lo, sweep = part.cell_arc(low)
                assert sweep > 0 and angular_distance(lo + sweep,
                                                      theta) < STRUCTURAL

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError, match="max_steps must be >= 0, got -1"):
            markov_check(polygon(MODULAR), partition(MODULAR, "midpoint"),
                         max_steps=-1)

    def test_open_orbit_fails_the_default_budget(self):
        poly = polygon("0;2,2;2")
        part = make_partition(poly, "custom", OPEN_ORBIT_CUTS)
        rep = markov_check(poly, part)
        assert rep.checks["orbits_finite"].passed is False
        assert rep.checks["orbits_finite"].detail == "orbit 1:upper"
        assert rep.refinement == []

    def test_orbits_before_the_budget_hit_are_kept(self):
        # with the budget at the longest orbit's size, the shorter orbits
        # close and the first longest one stops the check
        text = "2;2,5,8;2"
        poly, part = polygon(text), partition(text, "midpoint")
        full = markov_check(poly, part).orbit_sizes
        longest = max(full.values())
        rep = markov_check(poly, part, max_steps=longest)
        names = list(full)
        first = next(k for k in names if full[k] == longest)
        assert rep.orbit_sizes == {k: full[k]
                                   for k in names[:names.index(first) + 1]}
        assert rep.passed is False and rep.refinement == []

    @pytest.mark.parametrize("text", SIGNATURES + SCALE + ["40;;1"])
    def test_refinement_equals_full_orbit_walk(self, text):
        # markov_check stops each orbit at the first cut it lands on, whose
        # own upper orbit carries the rest; walking every orbit in full gives
        # the same report, on the named and the seeded custom cuts
        poly = polygon(text)
        for part, max_steps in ([(partition(text, m), 10_000) for m in MODES]
                                + seeded_partitions(poly)):
            got = markov_check(poly, part, max_steps).to_dict()
            del got["orbit_sizes"]
            assert got == markov_full_walk(poly, part, max_steps), part.mode

    @pytest.mark.parametrize("text", SIGNATURES + SCALE + ["40;;1"])
    def test_walks_equal_the_reference_walk(self, text):
        # markov_check steps on bare angles; walk_reference steps
        # BoundaryPoints through f_apply.  Reports and orbit sizes agree to
        # the bit (repr round-trips each float), up to and including the
        # first orbit over its budget
        poly = polygon(text)
        for part, max_steps in ([(partition(text, m), 10_000) for m in MODES]
                                + seeded_partitions(poly)):
            assert (repr(markov_check(poly, part, max_steps).to_dict())
                    == repr(markov_reference(poly, part, max_steps))), part.mode

    @pytest.mark.parametrize("text", LADDER[4:])
    @pytest.mark.parametrize("mode", MODES)
    def test_larger_ladder_equals_the_reference(self, text, mode):
        # the same bit-for-bit comparison on the four larger signatures of
        # the ladder, 119 to 510 rectangles; one repr per report field, as
        # pytest's diff of two long one-line strings takes minutes
        poly, part = polygon(text), partition(text, mode)
        got = markov_check(poly, part).to_dict().items()
        want = markov_reference(poly, part).items()
        assert list(map(repr, got)) == list(map(repr, want))

    def test_transitions_are_circular_runs(self):
        # each transition is the run of intervals from the nearest point to
        # the image of the interval's lower end up to the one of its upper
        # end; some run wraps past the seam of the refinement
        wraps = 0
        for text in SIGNATURES + SCALE:
            poly = polygon(text)
            for mode in MODES:
                part = partition(text, mode)
                rep = markov_check(poly, part)
                r = len(rep.refinement)
                ends = transition_ends(poly, part, rep.refinement)
                assert rep.transitions == [circular_run(ilo, ihi, r)
                                           for ilo, _, ihi, _ in ends]
                wraps += sum(ilo > ihi for ilo, _, ihi, _ in ends)
        assert wraps > 0

    def test_no_orbit_point_off_the_cuts_on_all_ideal_polygon(self):
        # on 40;;1 every cut-point orbit reaches a cut in one step; walked in
        # full, each of the 320 ran through 160 points
        poly = polygon("40;;1")
        for mode in MODES:
            rep = markov_check(poly, partition("40;;1", mode))
            assert rep.passed
            assert len(rep.orbit_sizes) == 320
            assert set(rep.orbit_sizes.values()) == {0}

    @pytest.mark.parametrize("text", SIGNATURES + [
        pytest.param(text, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 3: the float cut orbits drift "
            "off their cut, a known false Markov reject"))
        if text == ORDERS_3_TO_32 else text for text in LADDER])
    def test_midpoint_entropy_is_the_growth_rate(self, text):
        # the log spectral radius of the midpoint transitions is the log
        # growth rate of the group (measured within 1.5e-14); left and right
        # often fall below it, so only midpoint is asserted
        poly = polygon(text)
        rep = markov_check(poly, partition(text, "midpoint"))
        assert abs(markov_entropy(rep) - growth_rate(poly.signature)) < 1e-9

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_a_dropped_transition_misses_the_growth_rate(self, text):
        # dropping either end of the first run of two or more intervals
        # moves the entropy by 0.0048 or more here (any one end of any run
        # on the scale set: 4e-5 or more)
        poly = polygon(text)
        rep = markov_check(poly, partition(text, "midpoint"))
        i = next(i for i, run in enumerate(rep.transitions) if len(run) > 1)
        for run in (rep.transitions[i][1:], rep.transitions[i][:-1]):
            cut = replace(rep, transitions=[*rep.transitions[:i], run,
                                            *rep.transitions[i + 1:]])
            assert abs(markov_entropy(cut)
                       - growth_rate(poly.signature)) > 1e-9

    @pytest.mark.parametrize("text", SIGNATURES)
    def test_a_duplicated_refinement_point_misses_the_growth_rate(self, text):
        # a copy of the first midpoint refinement point 1.5e-9 above it,
        # just outside SAME_POINT, with the transitions recomputed by the
        # reference scan, moves the entropy by 0.0047 or more here (any
        # point but the last: 1.2e-4 or more).  The last point is a cut,
        # and its copy leaves the entropy unchanged on four of these six
        poly = polygon(text)
        part = partition(text, "midpoint")
        rep = markov_check(poly, part)

        def entropy(refined):
            runs = [circular_run(ilo, ihi, len(refined))
                    for ilo, _, ihi, _ in transition_ends(poly, part, refined)]
            return markov_entropy(replace(rep, refinement=refined,
                                          transitions=runs)), runs

        assert entropy(rep.refinement)[1] == rep.transitions
        refined = sorted([*rep.refinement,
                          rep.refinement[0] + 1.5 * SAME_POINT])
        assert len(refined) == len(rep.refinement) + 1
        assert abs(entropy(refined)[0] - growth_rate(poly.signature)) > 1e-9

    def test_all_ideal_refinement_is_vertex_set(self):
        rep = markov_check(polygon("1;;1"), partition("1;;1", "midpoint"))
        assert len(rep.refinement) == 4

    def test_odd_block_count_antipode_is_ideal_vertex(self):
        # with an odd number of blocks, the antipode of a block midpoint is
        # a sector corner, hence an ideal vertex of the polygon
        poly = polygon("0;2,2;2")
        assert poly.ell == 3
        part = partition("0;2,2;2", "midpoint")
        data = cycle(poly, part, 1)
        corners = [v.point.theta for v in poly.vertices if v.is_ideal]
        assert any(angular_distance(data.end_of_cycle.theta, c) < 1e-9
                   for c in corners)

    def test_transition_endpoints_land_on_refinement(self):
        poly = polygon(MODULAR)
        part = partition(MODULAR, "midpoint")
        rep = markov_check(poly, part)
        r = len(rep.refinement)
        for i, covered in enumerate(rep.transitions):
            lo = rep.refinement[i]
            hi = rep.refinement[(i + 1) % r]
            g = poly.generators[part.cell_of((lo + 0.5 * ((hi - lo) % TAU)) % TAU)]
            for t, expect in ((lo, covered[0]),):
                img = g.apply_angle(t)
                assert angular_distance(img, rep.refinement[expect]) < 1e-9
