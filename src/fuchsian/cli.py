"""Command-line front end.

Subcommands build the canonical polygon, verify the structural and dynamical
properties, run seeded entry simulations, and report cycle data.  Each one
returns a single ``Report``; ``main`` writes it to ``--report`` once the
command has finished, as strict JSON with null for a non-finite float, and
picks the exit code: 0 all requested checks passed (always under
``--survey``), 1 a check failed, 2 configuration error,
including a value the library rejects while the command runs and an output
path that cannot be written (all are checked first), which writes no file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from .tolerances import DEFAULT, Check, Report
from .boundary import MODES, Partition, cycle, make_partition, markov_check
from .errors import FuchsianError
from .extension import (AttractorDomain, build_attractor, simulate_entry,
                        traces_to_csv, verify_bijectivity)
from .polygon import MarkedPolygon, Signature, build_canonical, validate_polygon
from .render import FigureSpec, render_attractor, render_polygon

ALL_CHECKS = ("polygon", "cycles", "markov", "bijectivity")


@dataclass
class RunConfig:
    """Flat, serializable description of one CLI run."""

    signature: str
    partition: str = "midpoint"
    seed: int = 42
    samples: int = 1000
    max_iters: int = 100_000
    buffer: float = 1e-6
    checks: tuple[str, ...] = ("all",)
    survey: bool = False
    vertex: int = -1
    json_out: str = ""
    svg_out: str = ""
    attractor_svg_out: str = ""
    report_out: str = ""
    csv_out: str = ""


@dataclass(frozen=True)
class CyclesReport(Report):
    """Check ``matching``: the worst residual of the ``vertices`` rows."""

    vertices: list[dict]


@dataclass(frozen=True)
class SimulateReport(Report):
    """Check ``entered``: the number of samples that never entered."""

    config: dict
    samples: int
    entered: int
    max_K: int
    mean_K: float


@dataclass(frozen=True)
class VerifyReport(Report):
    """One check per selected group, named as the group: its residual counts
    the group's failed checks (bound 1) and its detail names them.
    ``results`` holds each group's own report, as ``to_dict()``."""

    config: dict
    results: dict[str, dict]


def parse_partition_arg(text: str):
    """Returns (mode, custom angles or None)."""
    if text in MODES:
        return text, None
    if text.startswith("custom="):
        body = text[len("custom="):]
        try:
            angles = [float(s) for s in body.split(",") if s]
        except ValueError:
            raise ValueError(f"cannot parse custom angles {body!r}") from None
        return "custom", angles
    raise ValueError(f"unknown partition {text!r}; "
                     "use left|right|midpoint|custom=a1,a2,...")


def _json(obj) -> str:
    """Strict JSON of ``obj``: a non-finite float, a residual or statistic
    that was not measured or is undefined, is written as null."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(obj), indent=2, allow_nan=False)


def _write(path: str, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _attractor(cfg: RunConfig, poly: MarkedPolygon,
               part: Partition) -> AttractorDomain:
    """The attractor, with one warning line on stderr when the partition
    voids the attraction guarantee (none under ``--survey``)."""
    dom = build_attractor(poly, part)
    if not dom.guarantee and not cfg.survey:
        print("warning: partition outside [P,Q] guarantee range",
              file=sys.stderr)
    return dom


def _cycles_report(poly: MarkedPolygon, part: Partition,
                  vertices: list[int]) -> CyclesReport:
    """One row per elliptic vertex, and the check ``matching`` on the worst
    matching residual; its detail names that vertex."""
    worst, where, rows = 0.0, "", []
    for k in vertices:
        data = cycle(poly, part, k)
        res = data.matching_residual
        if res > worst or not where:
            worst, where = res, f"vertex {data.vertex}"
        rows.append({"vertex": data.vertex, "order": data.order, "J": data.J,
                     "I": data.I, "degenerate": data.degenerate,
                     "end_of_cycle": data.end_of_cycle.theta,
                     "residual": res})
    return CyclesReport(rows, checks={
        "matching": Check(worst, DEFAULT.residual, where)})


def cmd_polygon(cfg: RunConfig, poly: MarkedPolygon,
                part: Partition) -> Report:
    report = validate_polygon(poly)
    dom = _attractor(cfg, poly, part) if cfg.attractor_svg_out else None
    _write(cfg.json_out, _json(poly.to_dict()))
    if cfg.svg_out:
        _write(cfg.svg_out, render_polygon(poly, part, FigureSpec()))
    if dom:
        _write(cfg.attractor_svg_out, render_attractor(dom, FigureSpec()))
    print(f"signature={poly.signature} ell={poly.ell} N={poly.n_sides} "
          f"area={report.area!r} valid={report.passed}")
    for name, res in report.checks.items():
        print(f"  {name}: {'pass' if res.passed else 'FAIL'} "
              f"(residual {res.residual:.3e})")
    return report


def cmd_verify(cfg: RunConfig, poly: MarkedPolygon,
               part: Partition) -> Report:
    selected = ALL_CHECKS if "all" in cfg.checks else cfg.checks
    available = f"available: {','.join(ALL_CHECKS)},all"
    if not selected:
        raise ValueError(f"no checks selected; {available}")
    unknown = [c for c in selected if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {','.join(unknown)}; {available}")

    reports: dict[str, Report] = {}
    if "polygon" in selected:
        reports["polygon"] = validate_polygon(poly)
    if "cycles" in selected:
        reports["cycles"] = _cycles_report(poly, part,
                                           poly.elliptic_indices())
    if "markov" in selected:
        reports["markov"] = markov_check(poly, part, max_steps=10_000)
    if "bijectivity" in selected:
        dom = _attractor(cfg, poly, part)
        reports["bijectivity"] = verify_bijectivity(poly, part, dom)

    results = {name: rep.to_dict() for name, rep in reports.items()}
    checks = {}
    for name, rep in reports.items():
        failed = [c for c, check in rep.checks.items() if not check.passed]
        checks[name] = Check(len(failed), 1, ",".join(failed))
        print(f"{name}: {'pass' if rep.passed else 'FAIL'}")
    return VerifyReport(asdict(cfg), results, checks=checks)


def cmd_simulate(cfg: RunConfig, poly: MarkedPolygon,
                 part: Partition) -> Report:
    dom = _attractor(cfg, poly, part)
    traces = simulate_entry(poly, part, dom, cfg.samples, cfg.seed,
                            cfg.max_iters, cfg.buffer)
    _write(cfg.csv_out, traces_to_csv(traces, cfg.seed))
    ks = [t.K for t in traces if t.entered]
    report = SimulateReport(
        asdict(cfg), cfg.samples, len(ks), max(ks) if ks else -1,
        sum(ks) / len(ks) if ks else float("nan"),
        checks={"entered": Check(cfg.samples - len(ks), 1)})
    print(f"samples={cfg.samples} entered={len(ks)} max_K={report.max_K} "
          f"mean_K={report.mean_K:.3f}")
    return report


def cmd_cycle(cfg: RunConfig, poly: MarkedPolygon,
              part: Partition) -> Report:
    if not (0 <= cfg.vertex < poly.n_sides):
        raise ValueError(f"vertex index must be in [0, {poly.n_sides})")
    report = _cycles_report(poly, part, [cfg.vertex])
    print(_json(report.vertices[0]))
    return report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fuchsian",
        description="canonical polygons, boundary maps, and attractors "
                    "for signatures with a cusp")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help):
        # options left unset stay off the namespace: RunConfig holds defaults
        p = sub.add_parser(name, help=help,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--signature", required=True,
                       help='signature "g;m1,...,mr;t", e.g. "0;2,3;1"')
        p.add_argument("--partition",
                       help="left|right|midpoint|custom=a1,a2,...")
        p.add_argument("--report", dest="report_out")
        return p

    p = command("polygon", "build and validate the polygon")
    p.add_argument("--json", dest="json_out")
    p.add_argument("--svg", dest="svg_out")
    p.add_argument("--attractor-svg", dest="attractor_svg_out")

    p = command("verify", "run structural/dynamical checks")
    p.add_argument("--checks",
                   type=lambda text: tuple(s for s in text.split(",") if s),
                   help=f"comma list from {','.join(ALL_CHECKS)} or 'all'")

    p = command("simulate", "seeded attractor-entry simulation")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--buffer", type=float)
    p.add_argument("--survey", action="store_true",
                   help="statistics only; always exit 0")
    p.add_argument("--csv", dest="csv_out")

    p = command("cycle", "cycle data of one elliptic vertex")
    p.add_argument("--vertex", type=int, required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(ns).items() if k != "command"})
    handler = {"polygon": cmd_polygon, "verify": cmd_verify,
               "simulate": cmd_simulate, "cycle": cmd_cycle}[ns.command]
    try:
        for path in filter(None, (cfg.json_out, cfg.svg_out, cfg.csv_out,
                                  cfg.attractor_svg_out, cfg.report_out)):
            if os.path.isdir(path) or not os.access(
                    path if os.path.exists(path) else
                    os.path.dirname(os.path.abspath(path)), os.W_OK):
                raise OSError(f"cannot write {path!r}")
        poly = build_canonical(Signature.parse(cfg.signature))
        part = make_partition(poly, *parse_partition_arg(cfg.partition))
        report = handler(cfg, poly, part)
        _write(cfg.report_out, _json(report.to_dict()))
    except (FuchsianError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed or cfg.survey else 1


if __name__ == "__main__":
    sys.exit(main())
