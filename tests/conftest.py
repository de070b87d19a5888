import pytest

from fuchsian import Signature, build_canonical, geodesic_circle, make_partition
from fuchsian.arcs import (RectArray, box_measure, max_pairwise_overlap,
                           rect_boxes)
from fuchsian.mobius import TAU

# the six-signature regression set used throughout
SIGNATURES = ["0;2,3;1", "1;;1", "0;2,2;2", "1;2,3,7;2", "2;2,5,8;2",
              "0;3,3,4;2"]
MODES = ["left", "right", "midpoint"]
# the scale set of bench/workloads.py: 29 to 144 rectangles
SCALE = ["3;2,5,9;3", "6;2,3,5,7,11,13;4", "10;3,4,5,6,7,8,9,10;6",
         "20;2,3,17,29;8"]
# the scale set and four larger signatures, up to 510 rectangles
LADDER = SCALE + ["30;2,3,5,7,11,13,17,19,23;10", "15;2,2,2,3,3,3,4,4,4;20",
                  "0;" + ",".join(map(str, range(3, 33))) + ";1", "60;;1"]

# random cuts of 0;2,2;2 whose vertex-1 orbit never closes, so the Markov
# check fails on its step budget
OPEN_ORBIT_CUTS = {1: 1.1873762153433152, 3: 2.428747594602236}

_cache = {}


def polygon(sig_text):
    if sig_text not in _cache:
        _cache[sig_text] = build_canonical(Signature.parse(sig_text))
    return _cache[sig_text]


def partition(sig_text, mode):
    key = (sig_text, mode)
    if key not in _cache:
        _cache[key] = make_partition(polygon(sig_text), mode)
    return _cache[key]


def side_circle(poly, i):
    """``geodesic_circle`` of side i, which runs from P_i to Q_{i+1}."""
    return geodesic_circle(poly.aux[i].P, poly.aux[(i + 1) % poly.n_sides].Q)


def open_arc_cut(poly, k, fraction):
    """The angle ``fraction`` of the way along the open arc of elliptic
    vertex k, from the ideal vertex before it to the one after it."""
    lo = poly.vertices[k - 1].point.theta
    sweep = (poly.vertices[(k + 1) % poly.n_sides].point.theta - lo) % TAU
    return (lo + fraction * (sweep or TAU)) % TAU


def boxes(rects):
    """``rect_boxes`` of a ``RectArray`` or a rectangle list."""
    if not isinstance(rects, RectArray):
        rects = RectArray.of(rects)
    return rect_boxes(*rects.intervals())


def measure(op, rects_a, rects_b=()):
    """Angular area where ``op(in a, in b)`` holds: ``np.logical_or`` gives
    the union, ``np.logical_and`` the intersection, ``np.logical_xor`` the
    symmetric difference."""
    return box_measure(boxes(rects_a), boxes(rects_b), op)


def overlap(rects):
    """``max_pairwise_overlap`` of a rectangle list."""
    return max_pairwise_overlap(*RectArray.of(rects).intervals())


@pytest.fixture(params=SIGNATURES)
def any_polygon(request):
    return polygon(request.param)
