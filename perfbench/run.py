"""penalab benchmark: one run of one workload.

    python3 perfbench/run.py --workload limit-sampler --seed 1 --seconds 30 --trace 0

Workloads: limit-sampler, penalized-mc, quadrature-oracle (see NOTES.md).
The workload runs in a child process of its own with the BLAS/OpenMP thread
pools capped at the number of usable cores.  Set-up is timed in that child
and in SETUP_REPEATS - 1 set-up-only children; ``setup_s`` is the median.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child(argv: list[str], env: dict) -> dict:
    """Run the worker to completion and return its last JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("limit-sampler", "penalized-mc", "quadrature-oracle"))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="work per pass relative to the benchmark's sizes (smoke test only)")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child([*common, "--seconds", "0", "--setup-only"], env)["setup_s"])
    result = _child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env)
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median([*setups, setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
