"""Benchmark of the fuchsian library, driven through its public API.

    python3 bench/run.py --workload attract --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) in a single process with
no worker threads, closed loop: one caller, each op starts when the last
one ended.  It imports the library from ``src/`` of the checkout it sits
in, sets it up several times, then runs rounds of ops until ``--seconds``
have passed.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from recorded
spans with ``--trace 1``.  The line before it records the environment.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import os

# one process, no worker threads: pin the BLAS pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import (WORKLOADS, Context, Tally,  # noqa: E402
                       known_false_reject)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 31         # set-ups per run; setup_s is their median
OUT = ROOT / ".bench_out"

Op = namedtuple("Op", "round count seconds fails unexpected")


def import_library():
    """Import ``fuchsian`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "fuchsian" or m.startswith("fuchsian.")]:
        del sys.modules[name]
    lib = importlib.import_module("fuchsian")
    importlib.import_module("fuchsian.tolerances")
    if SRC / "fuchsian" not in Path(lib.__file__).resolve().parents:
        raise ImportError(f"fuchsian loaded from {lib.__file__}, not {SRC}")
    return lib


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    cpu, os_threads = platform.machine(), None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/self/status") as fh:
            os_threads = next((int(ln.split()[1]) for ln in fh
                               if ln.startswith("Threads:")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python_threads": threading.active_count(),
            "os_threads": os_threads}


class Round:
    """One round: its ops' wall and CPU time, and the calibration units run
    after each op, which give the round's speed factor."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.tally = Tally()
        self.ops = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.units: list[float] = []

    @property
    def factor(self) -> float:
        return calibration.factor(self.units)


def run_round(rec: Recorder, rnd: Round, plan, ops: list) -> None:
    for sig, mode, count, thunk in plan:
        rec.op += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        fails = rec.call("bench.op", thunk)
        dt = time.perf_counter() - t0
        rnd.cpu += cpu_seconds() - c0
        rnd.wall += dt
        rnd.ops += count
        # sample the machine's speed for about 3 % of the op's time
        rnd.units.extend(calibration.unit()
                         for _ in range(min(1 + int(dt / 0.1), 10)))
        ops.append(Op(rnd.index, count, dt, fails, [
            f for f in fails if not known_false_reject(sig, mode, f)]))


def end_to_end(rounds, ops, setups, setup_factor, scaled=True) -> dict:
    """The user-facing metrics; times at nominal machine speed unless
    ``scaled`` is false."""
    k = {r.index: r.factor if scaled else 1.0 for r in rounds}
    attempted = sum(op.count for op in ops)
    failed = sum(op.count for op in ops if op.fails)
    # Latency percentiles are taken per round and reported as the median
    # over rounds.  The ops of a round carry equal weight (every sample of
    # an attract batch waits for the whole batch), and a round's fixed mix
    # puts p50 between two equal groups of ops on attract and verify-scale,
    # where a percentile over the whole run would hinge on one extreme op.
    latency = defaultdict(list)
    for op in ops:
        latency[op.round].append(op.seconds * k[op.round] * 1e3)
    return {"ops_per_s": statistics.median(r.ops / (r.wall * k[r.index])
                                           for r in rounds),
            "op_ms.p50": statistics.median(
                statistics.median(v) for v in latency.values()),
            "op_ms.p90": statistics.median(
                statistics.quantiles(v, n=10, method="inclusive")[8]
                for v in latency.values()),
            "pass_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups) * (setup_factor if scaled
                                                    else 1.0)}


def per_layer(rec: Recorder, rounds, names, setup_factor) -> dict:
    """Per-layer metrics of the traced rounds: self times (at nominal
    speed) as the median per round, counts as the mean per round."""
    selfs = rec.self_seconds()
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]

    def sums(name):
        return sum(r.tally.sums[name] for r in traced)

    def peak(name):
        return max(r.tally.peaks.get(name, 0.0) for r in traced)

    def self_s(layer):
        if layer == "polygon.build_canonical":   # runs in set-up only
            return setup_factor * statistics.median(
                selfs[g].get(layer, 0.0) for g in selfs if g < 0)
        return statistics.median(r.factor * selfs[r.index].get(layer, 0.0)
                                 for r in traced)

    inv = "extension.check_forward_invariance"
    sim = "extension.simulate_entry"
    inv_ns = sum(r.factor * selfs[r.index].get(inv, 0.0) for r in traced)
    entered = sums(sim + ".samples") - sums(sim + ".never_entered")
    out = {
        inv + ".ns_per_state_step": inv_ns * 1e9 / max(
            sums(inv + ".state_steps"), 1),
        sim + ".meanK": sums(sim + ".K_sum") / max(entered, 1),
        "process.cpu_s": statistics.median(r.factor * r.cpu for r in traced),
        "bench.round_s": statistics.median(r.factor * r.wall for r in traced),
        "trace.overhead": (
            statistics.median(r.factor * r.wall for r in traced)
            / statistics.median(r.factor * r.wall for r in plain)),
        "trace.spans": sum(1 for s in rec.spans if s[2] >= 0) / len(traced),
    }
    for name in names:
        layer, _, what = name.rpartition(".")
        if name in out:
            continue
        if what == "s":
            out[name] = self_s(layer)
        elif what in ("maxK", "max_headroom"):
            out[name] = peak(name)
        else:
            out[name] = sums(name) / len(traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        import_library()
    except (OSError, ImportError) as exc:
        print(f"bench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    workload = WORKLOADS[args.workload]()
    rec = Recorder()
    rec.enabled = bool(args.trace)
    setups, setup_units = [], []
    for k in range(SETUPS):
        gc.collect()
        rec.group = -1 - k
        t0 = time.perf_counter()
        ctx = Context(import_library(), rec.call)
        state = workload.setup(ctx)
        setups.append(time.perf_counter() - t0)
        setup_units.append(calibration.unit())
    setup_factor = calibration.factor(setup_units)

    # the traced run alternates traced and untraced rounds, so that it can
    # report its own overhead; it needs at least one of each
    rng = np.random.default_rng(args.seed)
    rounds, ops = [], []
    start = time.perf_counter()
    while (len(rounds) < 1 + args.trace
           or time.perf_counter() - start < args.seconds):
        rnd = Round(len(rounds), bool(args.trace) and len(rounds) % 2 == 0)
        ctx.tally = rnd.tally
        rec.enabled, rec.group = rnd.traced, rnd.index
        run_round(rec, rnd, workload.plan(ctx, state, rng), ops)
        rounds.append(rnd)

    env = environment()
    if args.trace:
        values = per_layer(rec, rounds, units, setup_factor)
        rec.dump(OUT / f"spans-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "env": env})
    else:
        values = end_to_end(rounds, ops, setups, setup_factor)
    print(json.dumps({
        "env": env, "workload": args.workload, "seed": args.seed,
        "nominal_unit_s": calibration.NOMINAL_S,
        "setup_units_s": statistics.median(setup_units),
        "round_units_s": [statistics.median(r.units) for r in rounds],
        "unscaled": end_to_end(rounds, ops, setups, setup_factor,
                               scaled=False)}))
    print(json.dumps({
        "correct": not any(op.unexpected for op in ops),
        "attempted": sum(op.count for op in ops),
        "failed": sum(op.count for op in ops if op.fails),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
