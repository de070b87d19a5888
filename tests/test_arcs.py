"""Arc and rectangle measure machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, measure, overlap
from oracles import arc_contains, arc_intervals, rect_boxes

from fuchsian.arcs import (DirectedArc, Rect, RectArray, clip_intervals,
                           seam_split)
from fuchsian.extension import _split
from fuchsian.mobius import TAU, BoundaryPoint


def arc(start, sweep):
    return DirectedArc.from_angles(start, sweep)


def rect(us, usw, ws, wsw):
    return Rect(arc(us, usw), arc(ws, wsw), 0, 0)


def u_overlap(a1, a2):
    """Overlap length of two u-arcs, read through a pair of rectangles on
    one w-arc of sweep 1."""
    w = arc(0.0, 1.0)
    return overlap([Rect(a1, w, 0, 0), Rect(a2, w, 0, 0)])


# -- test-side oracle: the slab sweep and the pairwise loop --------------------


def interval_intersection_length(xs, ys):
    total = 0.0
    for (a, b) in xs:
        for (c, d) in ys:
            total += max(0.0, min(b, d) - max(a, c))
    return total


def merge(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def sweep_slabs(rect_sets):
    """Yield (width, covers) per u-slab, where covers[i] is the merged
    w-interval list of set i over that slab."""
    cuts = {0.0, TAU}
    for rects in rect_sets:
        for r in rects:
            for lo, hi in arc_intervals(r.u_arc):
                cuts.add(lo)
                cuts.add(hi)
    xs = sorted(cuts)
    for lo, hi in zip(xs, xs[1:]):
        if hi - lo < 1e-15:
            continue
        mid = 0.5 * (lo + hi)
        covers = []
        for rects in rect_sets:
            w_ints = []
            for r in rects:
                if any(a <= mid <= b for a, b in arc_intervals(r.u_arc)):
                    w_ints.extend(arc_intervals(r.w_arc))
            covers.append(merge(w_ints))
        yield hi - lo, covers


def sweep_union(rects):
    return sum(width * sum(hi - lo for lo, hi in cov)
               for width, (cov,) in sweep_slabs([rects]))


def sweep_intersection(rects_a, rects_b):
    return sum(width * interval_intersection_length(ca, cb)
               for width, (ca, cb) in sweep_slabs([rects_a, rects_b]))


def sweep_symmetric_difference(rects_a, rects_b):
    total = 0.0
    for width, (ca, cb) in sweep_slabs([rects_a, rects_b]):
        la = sum(hi - lo for lo, hi in ca)
        lb = sum(hi - lo for lo, hi in cb)
        total += width * (la + lb - 2.0 * interval_intersection_length(ca, cb))
    return total


def pairwise_overlap_loop(rects):
    worst = 0.0
    for i, r in enumerate(rects):
        for s in rects[i + 1:]:
            worst = max(worst, interval_intersection_length(
                arc_intervals(r.u_arc), arc_intervals(s.u_arc))
                * interval_intersection_length(
                arc_intervals(r.w_arc), arc_intervals(s.w_arc)))
    return worst


# arcs that share edges, or miss sharing them by at most 1e-15, wrap across
# the seam at 0 = 2pi, or cover the whole circle
EDGES = [0.0, 0.5, 1.0, 2.5, 4.0, 6.0, TAU - 1e-3]
JITTER = [0.0, 0.0, 1e-16, -1e-16, 4e-16, -1e-15, 1e-15]
edge = st.builds(lambda e, d: (e + d) % TAU, st.sampled_from(EDGES),
                 st.sampled_from(JITTER))
start = st.one_of(edge, st.floats(0.0, TAU, exclude_max=True))
sweep = st.one_of(st.floats(1e-3, TAU), st.just(TAU),
                  st.builds(lambda a, b: (b - a) % TAU or TAU,
                            st.sampled_from(EDGES), edge))
arcs = st.builds(lambda s, w: arc(s, max(w, 1e-9)), start, sweep)
rect_lists = st.lists(st.builds(lambda u, w: Rect(u, w, 0, 0), arcs, arcs),
                      max_size=6)


class TestDirectedArc:
    def test_ccw_basic(self):
        a = DirectedArc.ccw(BoundaryPoint.from_angle(1.0),
                            BoundaryPoint.from_angle(2.5))
        assert abs(a.sweep - 1.5) < 1e-15
        assert arc_contains(a, 2.0) and not arc_contains(a, 0.5)

    def test_wrap_membership(self):
        a = arc(6.0, 1.0)  # crosses the seam
        assert arc_contains(a, 6.2) and arc_contains(a, 0.5)
        assert not arc_contains(a, 3.0)

    def test_full_circle(self):
        a = DirectedArc.ccw(BoundaryPoint.from_angle(1.0),
                            BoundaryPoint.from_angle(1.0), full_if_equal=True)
        assert a.sweep == TAU and arc_contains(a, 4.0)

    def test_zero_sweep_rejected(self):
        with pytest.raises(ValueError):
            arc(1.0, 0.0)

    def test_intervals_split_at_seam(self):
        ints = seam_split(np.array([6.0, 1.0]), np.array([1.0, 2.0]))
        assert abs(ints[0, 0, 1] - TAU) < 1e-15 and ints[0, 1, 0] == 0.0
        assert ints[0, 1, 1] > 0.0
        # one interval, padded with the empty one
        assert ints[1].tolist() == [[1.0, 3.0], [0.0, 0.0]]

    def test_interior_angles_ordered(self):
        # the w-arc from 5.5 of sweep 2 is cut at the inner cuts in order
        # along it; 1.4 lies beyond its end
        end = (5.5 + 2.0) % TAU
        rows, lo, hi, sweep = _split(np.array([5.5]), np.array([end]),
                                     np.array([2.0]),
                                     np.sort([0.2, 6.0, 5.6, 1.4, 1.2]))
        assert lo.tolist() == [5.5, 5.6, 6.0, 0.2, 1.2]
        assert hi.tolist() == [5.6, 6.0, 0.2, 1.2, end]
        assert rows.tolist() == [0] * 5
        assert abs(sweep.sum() - 2.0) < 1e-12

    def test_overlap_length(self):
        assert abs(u_overlap(arc(0.0, 2.0), arc(1.0, 2.0)) - 1.0) < 1e-12
        assert u_overlap(arc(0.0, 1.0), arc(2.0, 1.0)) == 0.0
        # wrap against plain
        assert abs(u_overlap(arc(6.0, 1.0), arc(0.0, 1.0))
                   - (1.0 - (TAU - 6.0))) < 1e-12


class TestMeasure:
    def test_disjoint_union(self):
        rs = [rect(0, 1, 0, 1), rect(2, 1, 2, 1)]
        assert abs(measure(np.logical_or, rs) - 2.0) < 1e-12
        assert overlap(rs) == 0.0

    def test_overlap_counted_once(self):
        rs = [rect(0, 2, 0, 2), rect(1, 2, 1, 2)]
        assert abs(measure(np.logical_or, rs) - 7.0) < 1e-12
        assert abs(overlap(rs) - 1.0) < 1e-12

    def test_symmetric_difference(self):
        a = [rect(0, 2, 0, 2)]
        b = [rect(1, 2, 0, 2)]
        assert abs(measure(np.logical_xor, a, b) - 4.0) < 1e-12
        assert measure(np.logical_xor, a, a) == 0.0

    def test_seam_crossing_measure(self):
        r = rect(6.0, 1.0, 6.1, 0.5)
        assert abs(measure(np.logical_or, [r]) - 0.5) < 1e-12

    def test_intersection_measure(self):
        a = [rect(0, 2, 0, 2)]
        b = [rect(1, 4, 1, 4)]
        assert abs(measure(np.logical_and, a, b) - 1.0) < 1e-12

    @staticmethod
    def clip(r, lo, sweep):
        """Boxes of the rectangle r with its u-arc clipped to the band
        (lo, sweep)."""
        u, w = RectArray.of([r]).intervals()
        band = seam_split(np.array([lo]), np.array([sweep]))
        return rect_boxes(clip_intervals(u, band), w)

    def test_clip_to_band(self):
        r = rect(0, 3, 0, 1)
        pieces = self.clip(r, 1.0, 1.0)
        assert len(pieces) == 1
        assert abs(pieces[0, 1] - pieces[0, 0] - 1.0) < 1e-12
        assert tuple(pieces[0, 2:]) == arc_intervals(r.w_arc)[0]

    def test_clip_band_wraps(self):
        pieces = self.clip(rect(0.0, TAU, 0, 1), 6.0, 1.0)
        assert len(pieces) == 2
        assert abs((pieces[:, 1] - pieces[:, 0]).sum() - 1.0) < 1e-12

    def test_seam_split_boxes(self):
        b = boxes([rect(6.0, 1.0, 6.1, 0.5)])
        assert len(b) == 4
        assert b.min() == 0.0 and b.max() == TAU

    def test_full_torus(self):
        r = rect(1.0, TAU, 2.0, TAU)
        assert abs(measure(np.logical_or, [r]) - TAU * TAU) < 1e-12
        assert abs(overlap([r, r]) - TAU * TAU) < 1e-12

    def test_empty_sets(self):
        assert measure(np.logical_or, []) == 0.0
        assert measure(np.logical_xor, [], []) == 0.0
        assert overlap([]) == 0.0


class TestMeasureMatchesSweep:
    """The coverage grid against the slab sweep, and the broadcast pair
    overlap against the pairwise loop."""

    @settings(max_examples=100, deadline=None)
    @given(rect_lists, rect_lists)
    def test_measures(self, a, b):
        assert abs(measure(np.logical_or, a) - sweep_union(a)) < 1e-12
        assert abs(measure(np.logical_and, a, b)
                   - sweep_intersection(a, b)) < 1e-12
        assert abs(measure(np.logical_xor, a, b)
                   - sweep_symmetric_difference(a, b)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(rect_lists)
    def test_pairwise_overlap_bit_identical(self, rects):
        assert overlap(rects) == pairwise_overlap_loop(rects)

    @settings(max_examples=50, deadline=None)
    @given(rect_lists)
    def test_symmetric_difference_with_itself(self, rects):
        assert measure(np.logical_xor, rects, rects) == 0.0

    def test_many_rectangles(self):
        # more rectangles than one slice of the pair loop and the grid
        rng = np.random.default_rng(7)
        rects = [rect(*rng.uniform(0.0, TAU, 4)) for _ in range(150)]
        assert overlap(rects) == pairwise_overlap_loop(rects)
        assert abs(measure(np.logical_or, rects) - sweep_union(rects)) < 1e-12
