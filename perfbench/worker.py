"""One benchmark run of one workload, in this process.

Set-up (imports, input generation from the seed, cache warm-up) is timed
first.  Untraced passes over the whole workload then repeat until the run
length is used.  ``wall_s`` sums each check's median time over the passes,
with every check timed against a fixed reference computation run beside it
(see ``reference_s``).  With ``--trace 1`` one traced
pass follows and gives the per-layer metrics.  The last line of standard
output is one JSON object; ``run.py`` is the command that wraps it.
"""

from __future__ import annotations

import time

START = time.perf_counter()   # set-up is timed from before the first heavy import

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# layers whose summed self time is reported as <module>.self_s
SELF_TIME_LAYERS = ("samplers", "weights", "penalized_mc", "quadrature")
CRITERIA = range(1, 12)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    from tracing import TARGETS, WARNING_LAYER

    out = []
    for t in TARGETS:
        key = f"{t.module}.{t.name}"
        out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
        if t.work:
            out += [(f"{key}.{t.work}", "count"), (f"{key}.{t.work}_per_s", "1/s")]
    out += [(f"{m}.self_s", "s") for m in SELF_TIME_LAYERS]
    out.append((f"{WARNING_LAYER}.integration_warnings", "count"))
    out += [(f"acceptance.criterion_{k}.wall_s", "s") for k in CRITERIA]
    out += [("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.top_level_share", "ratio")]
    return out


END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("verdicts_passed_frac", "ratio"),
              ("peak_rss_mb", "MB"), ("mc_tol_geomean", "1")]


def machine() -> dict:
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


# On a shared machine the speed of every process can drift by +-15% over tens
# of seconds.  Each check is timed relative to a fixed numpy
# computation run just before and after it, and the ratio is scaled back to
# seconds by that computation's nominal time (its median over 20 s on a
# 2-core x86_64 machine, Python 3.11, numpy 2.4).  The scale is a constant, so ratios of
# wall_s between two commits are ratios of measured times.
REF_NOMINAL_S = 0.0023
_REF_X = np.random.default_rng(0).random(4000)


def reference_s() -> float:
    """Time of the fixed reference computation, now: the fastest of three
    runs, since BLAS threads still spinning after a check slow some runs."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(100):
            y = np.sqrt(_REF_X * _REF_X + 1.0)
            float(np.where(y > 1.2, y, _REF_X).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(workloads, checks, tracer=None):
    """Run every check once.

    Returns the pass's wall time, each check's time in reference seconds,
    and the outcomes.  The reference computation runs between checks, outside
    any span.
    """
    outcomes, times, refs = [], [], [reference_s()]
    wall = 0.0
    for check in checks:
        t0 = time.perf_counter()
        if tracer is None:
            outcomes += workloads.run_check(check)
        else:
            with tracer.span(check.name):
                outcomes += workloads.run_check(check)
        times.append(time.perf_counter() - t0)
        wall += times[-1]
        refs.append(reference_s())
    scaled = [REF_NOMINAL_S * t / (0.5 * (r0 + r1)) for t, r0, r1 in zip(times, refs, refs[1:])]
    return wall, scaled, outcomes


def tol_geomean(outcomes) -> float:
    """Geometric mean of the Monte Carlo tolerances (k * stderr).  A workload
    without Monte Carlo verdicts falls back to all its finite tolerances, so
    loosening one of its oracle tolerances still shows."""
    tols = [o.tolerance for o in outcomes if o.kind == "mc"]
    if not tols:
        tols = [o.tolerance for o in outcomes if o.kind in ("oracle", "exact")]
    tols = [t for t in tols if 0.0 < t < math.inf]
    return math.exp(statistics.fmean(math.log(t) for t in tols)) if tols else math.nan


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracing import TARGETS, WARNING_LAYER

    stats = tracer.stats()
    values = {}
    for t in TARGETS:
        key = f"{t.module}.{t.name}"
        row = stats.get(key, {"calls": 0, "self_s": 0.0})
        values[f"{key}.calls"] = row["calls"]
        values[f"{key}.self_s"] = row["self_s"]
        if t.work:
            work = tracer.work.get(key, 0)
            values[f"{key}.{t.work}"] = work
            values[f"{key}.{t.work}_per_s"] = work / row["self_s"] if row["self_s"] > 0 else 0.0
    for m in SELF_TIME_LAYERS:
        values[f"{m}.self_s"] = sum(row["self_s"] for name, row in stats.items()
                                    if name.startswith(f"{m}."))
    values[f"{WARNING_LAYER}.integration_warnings"] = sum(tracer.integration_warnings.values())
    for k in CRITERIA:
        values[f"acceptance.criterion_{k}.wall_s"] = \
            stats.get(f"acceptance.criterion_{k}", {"total_s": 0.0})["total_s"]
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.top_level_share"] = tracer.top_level_s() / traced_wall
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "penalab" / "__init__.py").is_file():
        print(f"perfbench: no penalab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    import penalab

    if Path(penalab.__file__).resolve().parent != src / "penalab":
        print(f"perfbench: imported penalab from {penalab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workloads.warm_up()
    checks = workloads.build(args.workload, args.seed, args.scale)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing

    walls, check_times, outcomes, stray = [], [], [], set()
    begin = time.perf_counter()
    while True:
        stray.update(tracing.installed_wrappers())
        wall, times, outs = run_pass(workloads, checks)
        if not walls:
            first = outs
        walls.append(wall)
        check_times.append(times)
        outcomes += outs
        if time.perf_counter() - begin + wall > args.seconds:
            break
    stray.update(tracing.installed_wrappers())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # time to produce every verdict once: each check's median over the passes,
    # so a burst of load from elsewhere on the machine hits one pass, not the sum
    wall_s = sum(statistics.median(col) for col in zip(*check_times))
    raw_wall_s = statistics.median(walls)

    if args.trace:
        with tracing.Tracer() as tracer:
            traced_wall, _, outs = run_pass(workloads, checks, tracer)
        left = tracing.installed_wrappers()
        outcomes += outs
        values = layer_metrics(tracer, traced_wall, raw_wall_s)
        units = dict(per_layer_names())
    else:
        left = []
        passed = sum(o.passed for o in outcomes)
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "verdicts_passed_frac": passed / len(outcomes),
                  "peak_rss_mb": peak_rss_mb, "mc_tol_geomean": tol_geomean(outcomes)}
        units = dict(END_TO_END)

    failed = [o for o in outcomes if o.failed]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "machine": machine(), "setup_s": setup_s,
        "passes": len(walls), "pass_s": walls, "raw_wall_s": raw_wall_s,
        "verdicts_per_pass": len(first),
        "pinned_failures": sorted({o.name for o in outcomes if not o.passed}),
        "failures": sorted({o.name for o in failed}),
        "wrappers_in_untraced_run": sorted(stray), "wrappers_left_after_trace": left,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.json")
    result = {
        "correct": not failed and not stray and not left,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result,
                   "first_pass_verdicts": [dataclasses.asdict(o) for o in first]},
                  fh, indent=1, default=str)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
