"""Command-line interface: exit codes, artifacts, determinism."""

import json
import math

import pytest

from conftest import OPEN_ORBIT_CUTS, open_arc_cut, polygon

from fuchsian import (Signature, TilingViolation, build_attractor,
                      build_canonical, make_partition, verify_bijectivity)
from fuchsian.cli import main, parse_partition_arg


def run(argv):
    return main(argv)


def outside_guarantee():
    """Custom partition of 0;2,3;1 whose order-3 cut lies below its P."""
    poly = polygon("0;2,3;1")
    return f"custom={poly.aux[1].M.theta},{open_arc_cut(poly, 3, 0.02)}"


class TestRunConfig:
    def test_partition_parsing(self):
        assert parse_partition_arg("left") == ("left", None)
        assert parse_partition_arg("custom=1.5,2.5") == ("custom", [1.5, 2.5])
        with pytest.raises(ValueError):
            parse_partition_arg("diag")

    def test_unparsable_custom_angles(self):
        with pytest.raises(ValueError, match="cannot parse custom angles"):
            parse_partition_arg("custom=a,b")


class TestPolygonCommand:
    def test_valid_signature_writes_artifacts(self, tmp_path, capsys):
        js = tmp_path / "poly.json"
        svg = tmp_path / "poly.svg"
        code = run(["polygon", "--signature", "1;2,3,7;2",
                    "--json", str(js), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ell=5" in out
        data = json.loads(js.read_text())
        assert data["ell"] == 5
        assert svg.read_text().startswith("<?xml")

    def test_attractor_figure_output(self, tmp_path, capsys):
        out = tmp_path / "att.svg"
        code = run(["polygon", "--signature", "2;2,5,8;2",
                    "--partition", "left", "--attractor-svg", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.count('class="omega-rect"') == 23

    def test_area_in_report(self, tmp_path, capsys):
        rep = tmp_path / "report.json"
        code = run(["polygon", "--signature", "0;2,3;1",
                    "--report", str(rep)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert abs(data["area"] - math.pi / 3) < 1e-12

    def test_invalid_signature_exit_two(self, capsys):
        code = run(["polygon", "--signature", "0;2;1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "area" in err

    def test_zero_cusps_exit_two(self, capsys):
        code = run(["polygon", "--signature", "1;2;0"])
        assert code == 2
        assert "cusp" in capsys.readouterr().err

    def test_bad_partition_exit_two_without_figures(self, capsys):
        # the partition is built for every command, drawn or not
        code = run(["polygon", "--signature", "0;2,3;1",
                    "--partition", "custom=9"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("configuration error:") and out == ""

    def test_library_raise_writes_no_file(self, tmp_path, monkeypatch,
                                          capsys):
        # the attractor is built before any file is written
        def reject(poly, part):
            raise TilingViolation("w-sweeps do not tile the circle")

        monkeypatch.setattr("fuchsian.cli.build_attractor", reject)
        code = run(["polygon", "--signature", "0;2,3;1",
                    "--json", str(tmp_path / "p.json"),
                    "--attractor-svg", str(tmp_path / "a.svg"),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert list(tmp_path.iterdir()) == []

    def test_outside_guarantee_warns_once(self, tmp_path, capsys):
        code = run(["polygon", "--signature", "0;2,3;1",
                    "--partition", outside_guarantee(),
                    "--attractor-svg", str(tmp_path / "a.svg")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: partition outside [P,Q] guarantee range\n")


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path):
        rep = tmp_path / "verify.json"
        code = run(["verify", "--signature", "0;2,3;1",
                    "--partition", "midpoint", "--checks", "all",
                    "--report", str(rep)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert data["passed"]
        assert set(data["results"]) == {"polygon", "cycles", "markov",
                                        "bijectivity"}

    def test_unknown_check_exit_two(self, capsys):
        assert run(["verify", "--signature", "0;2,3;1",
                    "--checks", "frobnicate"]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: unknown checks: frobnicate")

    def test_no_checks_exit_two(self, capsys):
        # an empty selection ran nothing and exited 0
        assert run(["verify", "--signature", "0;2,3;1", "--checks", ","]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("configuration error: no checks selected")
        assert out == ""

    def test_custom_outside_guarantee_warns_but_passes(self, tmp_path, capsys):
        import fuchsian
        poly = fuchsian.build_canonical(fuchsian.Signature.parse("0;2,3;1"))
        outside = (poly.aux[3].P.theta - 0.02) % (2 * math.pi)
        arg = f"custom={poly.aux[1].M.theta},{outside}"
        rep = tmp_path / "v.json"
        code = run(["verify", "--signature", "0;2,3;1", "--partition", arg,
                    "--checks", "bijectivity", "--report", str(rep)])
        err = capsys.readouterr().err
        assert code == 0
        assert "guarantee" in err
        data = json.loads(rep.read_text())
        assert data["results"]["bijectivity"]["passed"]
        assert data["results"]["bijectivity"]["guarantee"] is False

    def test_results_are_plain_report_dicts(self, tmp_path, capsys):
        # the guarantee is stated once, as the report's own field
        rep = tmp_path / "v.json"
        arg = outside_guarantee()
        assert run(["verify", "--signature", "0;2,3;1", "--partition", arg,
                    "--checks", "bijectivity", "--report", str(rep)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: partition outside [P,Q] guarantee range"]
        poly = build_canonical(Signature.parse("0;2,3;1"))
        part = make_partition(poly, *parse_partition_arg(arg))
        want = verify_bijectivity(poly, part, build_attractor(poly, part))
        assert json.loads(rep.read_text())["results"]["bijectivity"] == (
            json.loads(json.dumps(want.to_dict())))

    def test_library_raise_while_running_exit_two(self, tmp_path, capsys):
        # one configuration-error line, not a traceback, and no report
        rep = tmp_path / "r.json"
        code = run(["simulate", "--signature", "0;2,3;1", "--samples", "0",
                    "--report", str(rep)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("configuration error:")
        assert len(err.splitlines()) == 1
        assert not rep.exists()

    def test_bad_custom_point_exit_two(self, capsys):
        assert run(["verify", "--signature", "0;2,3;1",
                    "--partition", "custom=0.0,4.0"]) == 2


class TestSimulateCommand:
    def test_strict_all_enter(self, tmp_path, capsys):
        csv = tmp_path / "sim.csv"
        code = run(["simulate", "--signature", "0;2,3;1", "--samples", "200",
                    "--seed", "42", "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 201
        assert lines[0] == "sample,seed,u0,w0,K,escape_step,entered"

    def test_report_holds_printed_statistics(self, tmp_path, capsys):
        rep = tmp_path / "sim.json"
        code = run(["simulate", "--signature", "0;2,3;1", "--samples", "50",
                    "--seed", "7", "--report", str(rep)])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(rep.read_text())
        assert list(data) == ["config", "samples", "entered", "max_K",
                              "mean_K", "checks", "passed"]
        assert data["config"]["seed"] == 7
        assert data["config"]["report_out"] == str(rep)
        assert data["samples"] == data["entered"] == 50
        assert data["checks"]["entered"] == {
            "residual": 0, "bound": 1, "detail": "", "headroom": 0.0,
            "passed": True}
        assert data["passed"] is True
        assert out.strip() == (f"samples=50 entered=50 max_K={data['max_K']} "
                               f"mean_K={data['mean_K']:.3f}")

    @pytest.mark.parametrize("option", [["--samples", "0"],
                                        ["--max-iters", "-3"]])
    def test_zero_samples_exit_two(self, option, tmp_path, capsys):
        rep = tmp_path / "r.json"
        assert run(["simulate", "--signature", "0;2,3;1", *option,
                    "--report", str(rep)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exit_two_writes_no_file(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        code = run(["simulate", "--signature", "0;2,3;1", "--seed", "-1",
                    "--report", str(rep)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: seed must be a non-negative integer, got -1")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("buffer", ["4", "nan"])
    def test_buffer_no_draw_can_clear_exit_two(self, buffer, capsys):
        # a draw must lie at least buffer from the diagonal: at most pi/2
        code = run(["simulate", "--signature", "0;2,3;1",
                    "--buffer", buffer])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: buffer")

    def test_buffer_near_pi_exit_two_writes_no_file(self, tmp_path, capsys):
        # a buffer below pi that a draw clears only once in 75 tries
        rep, runs = tmp_path / "r.json", tmp_path / "runs.csv"
        code = run(["simulate", "--signature", "0;2,3;1", "--buffer", "3.1",
                    "--report", str(rep), "--csv", str(runs)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: buffer must lie in [0, pi/2], got 3.1")
        assert list(tmp_path.iterdir()) == []

    def test_survey_mode_exit_zero(self, capsys):
        code = run(["simulate", "--signature", "0;2,3;1",
                    "--partition", outside_guarantee(),
                    "--samples", "100", "--seed", "1", "--survey",
                    "--max-iters", "5000"])
        assert code == 0

    @pytest.mark.parametrize("survey,warned", [((), 1), (("--survey",), 0)])
    def test_outside_guarantee_warns_once(self, survey, warned, capsys):
        run(["simulate", "--signature", "0;2,3;1",
             "--partition", outside_guarantee(), "--samples", "20",
             "--max-iters", "2000", *survey])
        assert capsys.readouterr().err.splitlines() == (
            ["warning: partition outside [P,Q] guarantee range"] * warned)

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(["simulate", "--signature", "0;2,2;2",
                        "--samples", "64", "--seed", "11",
                        "--csv", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOneRecord:
    # cuts whose vertex-1 orbit never closes: the Markov check fails on its
    # step budget
    VERIFY = ["verify", "--checks", "markov", "--signature", "0;2,2;2",
              "--partition", "custom=" + ",".join(
                  map(repr, OPEN_ORBIT_CUTS.values()))]

    def test_environment_leaves_the_verdict(self, monkeypatch, capsys):
        assert run(self.VERIFY) == 1
        monkeypatch.setenv("FUCHSIAN_TOLERANCE_PROFILE", "loose")
        assert run(self.VERIFY) == 1


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["cycle", "--vertex", "3", "--report"],
        ["simulate", "--samples", "8", "--csv"],
        ["polygon", "--json"], ["polygon", "--svg"],
        ["polygon", "--attractor-svg"]],
        ids=["report", "csv", "json", "svg", "attractor-svg"])
    def test_unwritable_path_exit_two(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing"
        report = tmp_path / "report.json"
        extra = [] if "--report" in argv else ["--report", str(report)]
        code = run(argv + [str(missing / "out"), "--signature", "0;2,3;1"]
                   + extra)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert not missing.exists() and not report.exists()

    @pytest.mark.parametrize("command, first, second", [
        (["polygon"], "--json", "--svg"),
        (["polygon"], "--json", "--attractor-svg"),
        (["simulate", "--samples", "8"], "--csv", "--report")],
        ids=["json-svg", "json-attractor-svg", "csv-report"])
    def test_bad_path_writes_no_file(self, command, first, second, tmp_path,
                                     capsys):
        # the command would write ``first`` before it reaches ``second``, or
        # the other way round: neither order leaves a file behind
        for ok, bad in ((first, second), (second, first)):
            good = tmp_path / "good.out"
            code = run(command + [ok, str(good), bad,
                                  str(tmp_path / "missing" / "out"),
                                  "--signature", "0;2,3;1"])
            err = capsys.readouterr().err.splitlines()
            assert code == 2
            assert len(err) == 1 and err[0].startswith("configuration error:")
            assert list(tmp_path.iterdir()) == []

    def test_directory_path_exit_two(self, tmp_path, capsys):
        code = run(["polygon", "--json", str(tmp_path / "p.json"), "--svg",
                    str(tmp_path), "--signature", "0;2,3;1"])
        assert code == 2 and "configuration error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCycleCommand:
    def test_order_three_left(self, capsys):
        code = run(["cycle", "--signature", "0;2,3;1", "--vertex", "3",
                    "--partition", "left"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["I"] + data["J"] == 1  # m - 2
        assert not data["degenerate"]

    def test_order_two(self, capsys):
        code = run(["cycle", "--signature", "0;2,3;1", "--vertex", "1"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["I"] == data["J"] == 0

    def test_failed_matching_exit_one(self, tmp_path, capsys):
        # the row and the check are those of verify --checks cycles, which
        # fails on the same input
        rep = tmp_path / "cycle.json"
        common = ["--signature", "20;2,3,17,29;8", "--partition", "left"]
        assert run(["cycle", "--vertex", "87", "--report", str(rep)]
                   + common) == 1
        row = json.loads(capsys.readouterr().out)
        assert row["vertex"] == 87 and row["order"] == 29
        data = json.loads(rep.read_text())
        assert data["vertices"] == [row]
        assert data["checks"]["matching"]["passed"] is False
        assert data["passed"] is False
        assert run(["verify", "--checks", "cycles"] + common) == 1

    def test_ideal_vertex_exit_two(self, capsys):
        assert run(["cycle", "--signature", "0;2,3;1", "--vertex", "0"]) == 2

    def test_out_of_range_vertex_exit_two(self, capsys):
        assert run(["cycle", "--signature", "0;2,3;1", "--vertex", "9"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: vertex index must be in [0, 4)\n")

    def test_matching_detail_names_worst_vertex(self, tmp_path, capsys):
        # the matching residual at vertex 87 (order 29) is the worst one
        rep = tmp_path / "verify.json"
        assert run(["verify", "--checks", "cycles", "--signature",
                    "20;2,3,17,29;8", "--partition", "left",
                    "--report", str(rep)]) == 1
        cycles = json.loads(rep.read_text())["results"]["cycles"]
        check = cycles["checks"]["matching"]
        row = next(r for r in cycles["vertices"] if r["vertex"] == 87)
        assert check["detail"] == "vertex 87"
        assert check["residual"] == row["residual"]
        assert abs(check["residual"] - 1.795e-8) < 0.01e-8


def strict_loads(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every report, and the row that ``cycle`` prints, is strict JSON: a
    non-finite float, not measured or undefined, is null."""

    @pytest.mark.parametrize("argv, code", [
        (["polygon", "--signature", "0;2,3;1"], 0),
        (["verify", "--signature", "0;2,3;1"], 0),
        (["simulate", "--signature", "0;2,3;1", "--samples", "50"], 0),
        (["cycle", "--signature", "0;2,3;1", "--vertex", "3"], 0),
        # the known false reject: the Markov endpoints residual is inf
        (["verify", "--signature", "0;" + ",".join(map(str, range(3, 33)))
          + ";1", "--checks", "markov"], 1),
        # no sample entered, so mean_K is undefined
        (["simulate", "--signature", "0;2,3;1", "--samples", "1",
          "--max-iters", "0", "--seed", "2"], 1),
    ], ids=["polygon", "verify", "simulate", "cycle", "markov-reject",
            "none-entered"])
    def test_every_report_parses_strictly(self, argv, code, tmp_path,
                                          capsys):
        rep = tmp_path / "report.json"
        assert run(argv + ["--report", str(rep)]) == code
        data = strict_loads(rep.read_text())
        assert data["passed"] is (code == 0)
        if argv[0] == "cycle":
            assert strict_loads(capsys.readouterr().out) == data["vertices"][0]

    def test_non_finite_written_as_null(self, tmp_path, capsys):
        rep = tmp_path / "markov.json"
        run(["verify", "--signature", "0;" + ",".join(map(str, range(3, 33)))
             + ";1", "--checks", "markov", "--report", str(rep)])
        endpoints = strict_loads(rep.read_text())["results"]["markov"][
            "checks"]["endpoints"]
        assert endpoints["residual"] is None and endpoints["headroom"] is None
        assert endpoints["passed"] is False
        run(["simulate", "--signature", "0;2,3;1", "--samples", "1",
             "--max-iters", "0", "--seed", "2", "--report", str(rep)])
        data = strict_loads(rep.read_text())
        assert data["entered"] == 0 and data["mean_K"] is None
