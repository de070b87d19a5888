"""The verdict record: every report holds named checks, each a residual
with the bound it was held to, and passes when every check passed."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import MODES, OPEN_ORBIT_CUTS, SIGNATURES, partition, polygon

from fuchsian import (Signature, build_attractor, build_canonical, cycle,
                      make_partition, markov_check, simulate_entry,
                      tolerances, validate_polygon, verify_bijectivity)
from fuchsian.cli import main
from fuchsian.extension import verify_exceptional
from fuchsian.tolerances import Check, Report

PROFILES = ("default", "strict", "loose")

# the tolerance field each check is held to
BOUND_FIELD = {
    "isometric_circles": "residual", "elliptic_angles": "residual",
    "free_combination": "residual", "parabolic_product": "spectral",
    "area": "residual", "equal_distribution": "residual",
    "endpoints": "residual", "image_overlap": "overlap",
    "symmetric_difference": "residual", "strip_residuals": "residual",
    "containment": "residual", "escaped": "residual",
    "matching": "residual",
}


def expected_bound(name, tols):
    # orbits_finite counts orbits over the step budget; none may be
    return 1 if name == "orbits_finite" else getattr(tols, BOUND_FIELD[name])


def reports(text, mode):
    poly, part = polygon(text), partition(text, mode)
    dom = build_attractor(poly, part)
    yield validate_polygon(poly)
    yield markov_check(poly, part)
    yield verify_bijectivity(poly, part, dom)
    for k in poly.elliptic_indices():
        yield verify_exceptional(poly, part, k, dom)


class TestCheck:
    def test_passed_is_strict_and_a_plain_bool(self):
        assert Check(0.5, 1.0).passed is True
        assert Check(1.0, 1.0).passed is False
        assert Check(np.float64(0.5), 1.0).passed is True

    def test_nan_fails(self):
        assert Check(math.nan, 1.0).passed is False
        assert Check(math.inf, 1.0).passed is False

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Check(0.0, 1.0).residual = 2.0


class TestReport:
    def test_to_dict_writes_payload_checks_verdict(self):
        @dataclasses.dataclass(frozen=True)
        class Demo(Report):
            payload: int

        rep = Demo(7, checks={"a": Check(0.0, 1.0, "x"),
                              "b": Check(2.0, 1.0)})
        d = rep.to_dict()
        assert list(d) == ["payload", "checks", "passed"]
        assert d["checks"]["a"] == {"residual": 0.0, "bound": 1.0,
                                    "detail": "x", "passed": True}
        assert d["checks"]["b"]["passed"] is False
        assert rep.passed is False and d["passed"] is False
        json.dumps(d)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text", SIGNATURES)
def test_verdict_is_that_of_the_checks(text, mode):
    for rep in reports(text, mode):
        assert rep.checks
        for c in rep.checks.values():
            assert c.passed is bool(c.residual < c.bound)
        assert rep.passed is all(c.passed for c in rep.checks.values())


@pytest.mark.parametrize("name", PROFILES)
def test_bounds_are_the_active_record(name):
    with tolerances.profile(name) as tols:
        reps = list(reports("0;3,3,4;2", "midpoint"))
    for rep in reps:
        for check_name, c in rep.checks.items():
            assert c.bound == expected_bound(check_name, tols), check_name


@pytest.mark.parametrize("name", PROFILES)
def test_verify_report_carries_bound_and_verdict(name, tmp_path, capsys):
    out = tmp_path / "verify.json"
    main(["verify", "--signature", "0;3,3,4;2", "--checks", "all",
          "--report", str(out), "--tolerance-profile", name])
    data = json.loads(out.read_text())
    tols = tolerances.profile(name).tols
    assert set(data["results"]) == {"polygon", "cycles", "markov",
                                    "bijectivity"}
    for result in data["results"].values():
        for check_name, c in result["checks"].items():
            assert list(c) == ["residual", "bound", "detail", "passed"]
            assert c["bound"] == expected_bound(check_name, tols)
            assert c["passed"] == (c["residual"] < c["bound"])
        assert result["passed"] == all(c["passed"]
                                       for c in result["checks"].values())
    assert data["passed"] == all(r["passed"]
                                 for r in data["results"].values())
    # one top-level check per group, counting and naming its failed checks
    assert list(data["checks"]) == list(data["results"])
    for group, c in data["checks"].items():
        failed = [n for n, x in data["results"][group]["checks"].items()
                  if not x["passed"]]
        assert c == {"residual": len(failed), "bound": 1,
                     "detail": ",".join(failed), "passed": not failed}
    assert data["results"]["cycles"]["vertices"]


@pytest.mark.parametrize("text,passed", [
    ("3;2,5,9;3", True), ("6;2,3,5,7,11,13;4", True),
    ("10;3,4,5,6,7,8,9,10;6", False), ("20;2,3,17,29;8", False)])
def test_parabolic_product_verdicts_pinned(text, passed):
    rep = validate_polygon(build_canonical(Signature.parse(text)))
    check = rep.checks["parabolic_product"]
    assert check.passed is passed
    assert check.bound == tolerances.DEFAULT.spectral


def built(text, mode, custom=None):
    """Every object the pipeline builds for one partition, and no bound."""
    poly = build_canonical(Signature.parse(text))
    part = make_partition(poly, mode, custom)
    markov = markov_check(poly, part)
    dom = build_attractor(poly, part)
    traces = simulate_entry(poly, part, dom, samples=50, seed=3)
    return (part.points,
            [cycle(poly, part, k) for k in poly.elliptic_indices()],
            markov.refinement, markov.transitions, markov.orbit_sizes,
            dom.rects, [(t.K, t.escape_step) for t in traces])


class TestProfilesSetBoundsOnly:
    """A profile changes the bounds of the checks and nothing it builds."""

    @pytest.mark.parametrize("text,mode,custom", [
        pytest.param("6;2,3,5,7,11,13;4", "left", None, id="sliver-left"),
        pytest.param("20;2,3,17,29;8", "midpoint", None, id="large-midpoint"),
        pytest.param("0;2,2;2", "custom", OPEN_ORBIT_CUTS, id="open-orbit")])
    def test_objects_equal_under_every_profile(self, text, mode, custom):
        # sliver-left: strict's old 1e-11 refinement dedupe gave 234
        # intervals for the default's 70
        want = built(text, mode, custom)
        for name in ("strict", "loose"):
            with tolerances.profile(name):
                assert built(text, mode, custom) == want, name

    def test_loose_keeps_an_open_orbit_open(self):
        poly = build_canonical(Signature.parse("0;2,2;2"))
        part = make_partition(poly, "custom", OPEN_ORBIT_CUTS)
        with tolerances.profile("loose"):
            rep = markov_check(poly, part)
        assert rep.checks["orbits_finite"].passed is False
        assert rep.checks["orbits_finite"].detail == "orbit 1:upper"
        assert rep.refinement == []

    def test_strict_builds_the_default_attractor(self):
        # the order-17 midpoint cycle ends on its block corner (confirmed
        # with mpmath), so its fan has one rectangle fewer than its order
        poly = build_canonical(Signature.parse("20;2,3,17,29;8"))
        part = make_partition(poly, "midpoint")
        want = build_attractor(poly, part)
        with tolerances.profile("strict"):
            dom = build_attractor(poly, part)
        assert len(dom.rects) == 141
        assert dom.rects == want.rects
        assert [i.degenerate for i in dom.info] == [
            i.degenerate for i in want.info]
