"""Acceptance suite: one test per criterion, full strength.

Each test prints a single `ACCEPTANCE nn PASS` line when every assertion in
it held (pytest shows the failure itself otherwise).  Tolerances are pinned
here as literals; they must not be loosened.

Two structural facts about degenerate cycles are asserted as the geometry
dictates (see notes in the class docstrings of criteria 3 and 8): a cut
point lying exactly on a corner orbit shortens its rectangle fan by one and
ends its cycle on the corner, which happens for the arc-midpoint partition
at odd orders and for the edge partitions at even orders.
"""

import math
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import MODES, SIGNATURES, partition, polygon
from oracles import orbit

from fuchsian import (FigureSpec, build_attractor, check_forward_invariance,
                      cycle, make_partition, markov_check, render_attractor,
                      render_polygon, simulate_entry, validate_polygon,
                      verify_bijectivity, verify_matching)
from fuchsian.mobius import TAU, MoebiusPSU, angular_distance
from fuchsian.polygon import SQUARE, hyperbolic_generator_a, hyperbolic_generator_b

SEED = 42


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_polygon_suite():
    """Isometric-circle containment, elliptic angles, parabolic product,
    and Gauss-Bonnet area across the signature set."""
    worst = {"iso": 0.0, "ang": 0.0, "par": 0.0, "area": 0.0}
    for text in SIGNATURES:
        rep = validate_polygon(polygon(text))
        assert rep.passed, rep.to_dict()
        worst["iso"] = max(worst["iso"], rep.checks["isometric_circles"].residual)
        worst["ang"] = max(worst["ang"], rep.checks["elliptic_angles"].residual)
        worst["par"] = max(worst["par"], rep.checks["parabolic_product"].residual)
        worst["area"] = max(worst["area"], rep.checks["area"].residual)
    assert worst["iso"] < 1e-9
    assert worst["ang"] < 1e-9
    assert worst["par"] < 1e-8
    assert worst["area"] < 1e-9
    assert abs(validate_polygon(polygon("0;2,3;1")).area - math.pi / 3) < 1e-9
    assert abs(validate_polygon(polygon("1;2,3,7;2")).area
               - TAU * 169 / 42) < 1e-9
    report(1, f"polygon suite over {len(SIGNATURES)} signatures; "
              f"max residuals iso={worst['iso']:.1e} ang={worst['ang']:.1e} "
              f"parab={worst['par']:.1e} area={worst['area']:.1e}")


def test_criterion_02_generator_orders():
    """c^m = identity up to sign; the second quadruple gluing is the stated
    rotation conjugate of the first, as matrices up to sign."""
    worst_pow = 0.0
    for text in SIGNATURES:
        poly = polygon(text)
        for k in poly.elliptic_indices():
            m = poly.vertices[k].order
            g = poly.generators[k - 1]
            worst_pow = max(worst_pow,
                            g.power(m).sign_distance(MoebiusPSU.identity()))
    assert worst_pow < 1e-9
    worst_b = 0.0
    for ell in sorted({polygon(t).ell for t in SIGNATURES}):
        rot = MoebiusPSU.rotation(math.pi / (2 * ell))
        lhs = hyperbolic_generator_b(ell)
        rhs = rot @ hyperbolic_generator_a(ell).inverse() @ rot.inverse()
        worst_b = max(worst_b, lhs.sign_distance(rhs))
    assert worst_b < 1e-10
    report(2, f"generator orders (residual {worst_pow:.1e}) and second-gluing "
              f"identity (residual {worst_b:.1e})")


def test_criterion_03_cycle_property():
    """Matching identity for 100 random cuts per elliptic vertex, and the
    end-of-cycle landing claims for the named partitions.

    A cut exactly on a corner orbit (arc midpoint at odd order, edge
    partitions at even order) has the degenerate cycle: it ends on the
    preceding corner with I + J = m - 3 and both one-sided orbits run into
    the cusp orbit.  The antipode -M_k is the end of the cycle in the
    complementary, non-degenerate cases, which is what the landing claim
    can assert.
    """
    rng = np.random.default_rng(SEED)
    checked = 0
    for text in SIGNATURES:
        poly = polygon(text)
        base = {k: poly.aux[k].M.theta for k in poly.elliptic_indices()}
        for k in poly.elliptic_indices():
            m = poly.vertices[k].order
            aux = poly.aux[k]
            sweep = (aux.Q.theta - aux.P.theta) % TAU
            for _ in range(100):
                t = (aux.P.theta + rng.uniform(1e-6, 1 - 1e-6) * sweep) % TAU
                custom = dict(base)
                custom[k] = t
                part = make_partition(poly, "custom", custom)
                data = cycle(poly, part, k)
                assert not data.degenerate
                assert data.I + data.J == m - 2
                assert data.matching_residual < 1e-9
                assert verify_matching(poly, part, k, data) < 1e-9
                checked += 1
        # end-of-cycle landings for the named partitions; for order 2 the
        # edge partitions put the cut exactly on a corner, so left lands on
        # the following corner and right degenerates onto the preceding one
        for mode in MODES:
            part = partition(text, mode)
            for k in poly.elliptic_indices():
                m = poly.vertices[k].order
                data = cycle(poly, part, k)
                anti = (poly.aux[k].M.theta + math.pi) % TAU
                if m == 2:
                    deg_expected = (mode == "right")
                else:
                    deg_expected = ((mode == "midpoint") == (m % 2 == 1))
                assert data.degenerate == deg_expected, (text, mode, k)
                if data.degenerate:
                    corner = poly.vertices[k - 1].point.theta
                    assert angular_distance(data.end_of_cycle.theta,
                                            corner) < 1e-9
                    assert data.I + data.J == max(m - 3, 0)
                elif m == 2 and mode == "left":
                    nxt = poly.vertices[(k + 1) % poly.n_sides].point.theta
                    assert angular_distance(data.end_of_cycle.theta,
                                            nxt) < 1e-9
                else:
                    assert angular_distance(data.end_of_cycle.theta,
                                            anti) < 1e-9
    report(3, f"cycle property on {checked} random cuts (I+J=m-2, matching "
              f"< 1e-9) plus end-of-cycle landings for left/right/midpoint")


def test_criterion_04_ideal_orbit_size():
    """|orbit(V_0)| = 4g + r + t - 1 exactly, both one-sided orbits."""
    for text in SIGNATURES:
        poly = polygon(text)
        sig = poly.signature
        expect = 4 * sig.genus + len(sig.orders) + sig.cusps - 1
        for side in ("upper", "lower"):
            rec = orbit(poly, partition(text, "midpoint"),
                        poly.vertices[0].point, side)
            assert rec.periodic_from is not None
            assert rec.distinct_count() == expect, (text, side)
    report(4, "base-cusp orbit sizes exact for all signatures")


def test_criterion_05_markov_property():
    """Finite orbits within 10^4 steps and interval-onto-intervals with
    endpoint residual < 1e-9, for all three named partitions."""
    worst = 0.0
    sizes = []
    for text in SIGNATURES:
        poly = polygon(text)
        for mode in MODES:
            rep = markov_check(poly, partition(text, mode), max_steps=10_000)
            assert rep.all_orbits_finite and not rep.budget_exceeded
            assert rep.endpoint_residual < 1e-9, (text, mode)
            worst = max(worst, rep.endpoint_residual)
            sizes.append(len(rep.refinement))
    report(5, f"Markov property for {len(sizes)} (signature, partition) "
              f"pairs; refinements up to {max(sizes)} intervals, endpoint "
              f"residual {worst:.1e}")


def test_criterion_06_bijectivity():
    """F permutes the rectangle union: symmetric difference < 1e-9,
    pairwise image overlap < 1e-12, per-block vertical strip identity,
    for the named partitions and 20 random guaranteed cuts."""
    rng = np.random.default_rng(SEED)
    runs = 0
    worst_sym, worst_ov = 0.0, 0.0
    for text in SIGNATURES:
        poly = polygon(text)
        parts = [partition(text, mode) for mode in MODES]
        for _ in range(20):
            custom = {}
            for k in poly.elliptic_indices():
                aux = poly.aux[k]
                sweep = (aux.Q.theta - aux.P.theta) % TAU
                custom[k] = (aux.P.theta + rng.uniform(0.0, 1.0) * sweep) % TAU
            parts.append(make_partition(poly, "custom", custom))
        for part in parts:
            dom = build_attractor(poly, part)
            rep = verify_bijectivity(poly, part, dom)
            assert rep.symmetric_difference < 1e-9, (text, part.mode)
            assert rep.image_overlap < 1e-12, (text, part.mode)
            assert all(r < 1e-9 for r in rep.strip_residuals), (text, part.mode)
            worst_sym = max(worst_sym, rep.symmetric_difference)
            worst_ov = max(worst_ov, rep.image_overlap)
            runs += 1
    report(6, f"bijectivity on {runs} (signature, partition) runs; "
              f"sym-diff <= {worst_sym:.1e}, overlap <= {worst_ov:.1e}")


def test_criterion_07_global_attraction():
    """10^4 seeded samples per signature enter the attractor within 10^5
    iterations (diagonal buffer 1e-6) and never leave during 10^3 further
    steps at membership tolerance 1e-10; under 60 s per signature."""
    stats = []
    for text in SIGNATURES:
        t0 = time.time()
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        traces = simulate_entry(poly, part, dom, samples=10_000, seed=SEED,
                                max_iters=100_000, buffer=1e-6)
        entered = [t for t in traces if t.entered]
        assert len(entered) == 10_000, (text, 10_000 - len(entered))
        exits = check_forward_invariance(poly, part, dom, traces, steps=1000)
        assert exits == 0, (text, exits)
        elapsed = time.time() - t0
        assert elapsed < 60.0, (text, elapsed)
        stats.append((text, max(t.K for t in traces), elapsed))
    summary = ", ".join(f"{s}: maxK={k} {dt:.1f}s" for s, k, dt in stats)
    report(7, f"global attraction with forward invariance; {summary}")


def test_criterion_08_strip_structure():
    """Rectangles per block: 4 (quadruple), 1 (order 2), 2 (cusp pair),
    and I + J + 2 for order m >= 3 -- which is m exactly when the block's
    cycle is non-degenerate and m - 1 when the cut point sits on a corner
    orbit (see criterion 3); both cases tile the block arc."""
    for text in SIGNATURES:
        poly = polygon(text)
        for mode in MODES:
            dom = build_attractor(poly, partition(text, mode))
            for blk, info in zip(poly.blocks, dom.info):
                if blk.symbol == SQUARE:
                    assert info.count == 4
                elif blk.symbol == "inf":
                    assert info.count == 2
                elif blk.symbol == 2:
                    assert info.count == 1
                else:
                    data = info.cycle
                    assert info.count == data.I + data.J + 2
                    if not data.degenerate:
                        assert info.count == blk.symbol
                    else:
                        assert info.count == blk.symbol - 1
            # strips tile each sector in the w coordinate regardless
            for blk, strip in zip(poly.blocks, dom.strips):
                total = sum(r.w_arc.sweep for r in strip)
                assert abs(total - TAU / poly.ell) < 1e-9
    report(8, "strip structure counts (4/1/2/I+J+2) for all partitions")


def test_criterion_09_conjecture_survey():
    """50 random partitions with some cut outside [P, Q] but inside the
    open vertex arc: statistics produced, no crashes, nothing asserted
    about entry (not provable)."""
    rng = np.random.default_rng(SEED)
    outcomes = []
    for text in ("0;2,3;1", "1;2,3,7;2"):
        poly = polygon(text)
        big = [k for k in poly.elliptic_indices()
               if poly.vertices[k].order >= 3]
        for _ in range(25):
            custom = {k: poly.aux[k].M.theta for k in poly.elliptic_indices()}
            k = big[rng.integers(len(big))]
            aux = poly.aux[k]
            lo = poly.vertices[k - 1].point.theta
            arc = (poly.vertices[(k + 1) % poly.n_sides].point.theta - lo) % TAU
            inner = (aux.P.theta - lo) % TAU
            if rng.uniform() < 0.5:
                t = lo + rng.uniform(0.05, 0.95) * inner          # below P
            else:
                hi_gap = arc - (aux.Q.theta - lo) % TAU
                t = aux.Q.theta + rng.uniform(0.05, 0.95) * hi_gap  # above Q
            custom[k] = t % TAU
            part = make_partition(poly, "custom", custom)
            assert not part.in_guarantee_range()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dom = build_attractor(poly, part)
            traces = simulate_entry(poly, part, dom, samples=200, seed=SEED,
                                    max_iters=20_000)
            outcomes.append(sum(t.entered for t in traces) / len(traces))
    assert len(outcomes) == 50
    report(9, f"conjecture survey: 50 out-of-range partitions, entry "
              f"fraction min={min(outcomes):.3f} mean="
              f"{sum(outcomes)/len(outcomes):.3f} (not asserted)")


def test_criterion_10_rendering():
    """Figures parse as strict XML, are byte-stable, and carry exactly the
    attractor's rectangle count from criterion 8."""
    ns = "{http://www.w3.org/2000/svg}"
    for text in ("1;2,3,7;2", "2;2,5,8;2"):
        poly = polygon(text)
        part = partition(text, "midpoint")
        dom = build_attractor(poly, part)
        spec = FigureSpec()
        pdoc = render_polygon(poly, part, spec)
        adoc = render_attractor(dom, spec)
        assert pdoc == render_polygon(poly, part, spec)
        assert adoc == render_attractor(dom, spec)
        ET.fromstring(pdoc)
        root = ET.fromstring(adoc)
        groups = [g for g in root.iter(f"{ns}g")
                  if g.get("class") == "omega-rect"]
        expect = 0
        for blk, info in zip(poly.blocks, dom.info):
            if blk.symbol == SQUARE:
                expect += 4
            elif blk.symbol == "inf":
                expect += 2
            elif blk.symbol == 2:
                expect += 1
            else:
                expect += blk.symbol - (1 if info.degenerate else 0)
        assert len(groups) == len(dom.rects) == expect
    report(10, "rendering: strict XML, byte-stable, exact rectangle counts")
