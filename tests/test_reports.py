"""The verdict record: every report holds named checks, each a residual
with the bound it was held to, and passes when every check passed."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (LADDER, MODES, SIGNATURES, STRESS, partition,
                      polygon)
from oracles import verify_exceptional

from fuchsian import (Signature, build_attractor, build_canonical,
                      markov_check, tolerances, validate_polygon,
                      verify_bijectivity)
from fuchsian.cli import main
from fuchsian.tolerances import Check, Report

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


def expected_bound(name):
    # orbits_finite counts orbits over the step budget; none may be
    if name == "orbits_finite":
        return 1
    return getattr(tolerances.DEFAULT, BOUND_FIELD[name])


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
                              "b": Check(2.0, 0.5)})
        d = rep.to_dict()
        assert list(d) == ["payload", "checks", "passed"]
        assert d["checks"]["a"] == {"residual": 0.0, "bound": 1.0,
                                    "detail": "x", "headroom": 0.0,
                                    "passed": True}
        assert d["checks"]["b"]["headroom"] == 4.0
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


@pytest.mark.parametrize("mode", MODES)
def test_bounds_are_the_default_record(mode):
    for rep in reports("0;3,3,4;2", mode):
        for check_name, c in rep.checks.items():
            assert c.bound == expected_bound(check_name), check_name


@pytest.mark.parametrize("mode", MODES)
def test_verify_report_carries_bound_and_verdict(mode, tmp_path, capsys):
    out = tmp_path / "verify.json"
    main(["verify", "--signature", "0;3,3,4;2", "--checks", "all",
          "--partition", mode, "--report", str(out)])
    data = json.loads(out.read_text())
    assert "tolerance_profile" not in data["config"]
    assert set(data["results"]) == {"polygon", "cycles", "markov",
                                    "bijectivity"}
    for result in data["results"].values():
        for check_name, c in result["checks"].items():
            assert list(c) == ["residual", "bound", "detail", "headroom",
                               "passed"]
            assert c["bound"] == expected_bound(check_name)
            assert c["headroom"] == c["residual"] / c["bound"]
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
                     "detail": ",".join(failed), "headroom": len(failed),
                     "passed": not failed}
    assert data["results"]["cycles"]["vertices"]


@pytest.mark.parametrize("text", LADDER + list(STRESS))
def test_parabolic_product_verdicts_pinned(text):
    rep = validate_polygon(build_canonical(Signature.parse(text)))
    check = rep.checks["parabolic_product"]
    assert check.passed is True
    assert check.bound == tolerances.DEFAULT.spectral
