"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit for
every workload, that no traced wrapper is installed during the untraced
passes or left behind after the traced one, and that the benchmark fails
without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert info["wrappers_in_untraced_run"] == []
    assert info["wrappers_left_after_trace"] == []
    if trace:
        assert result["metrics"]["trace.top_level_share"]["value"] == pytest.approx(1.0, abs=0.01)


def test_tracer_wraps_every_namespace_and_restores():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracing
    from penalab import penalized_mc, quadrature, samplers

    orig = samplers.exact_bm_state
    assert tracing.installed_wrappers() == []
    with tracing.Tracer() as tracer:
        assert penalized_mc.exact_bm_state is samplers.exact_bm_state is not orig
        quadrature.q_y_limit(1.0, quadrature.RectEvent(1.0, 0.0, 0.5))
    assert tracing.installed_wrappers() == []
    assert penalized_mc.exact_bm_state is orig
    stats = tracer.stats()
    assert stats["quadrature.q_y_limit"]["calls"] == 1
    assert stats["quadrature.rect_prob"]["calls"] == 1
    parent = tracer.spans[0]
    assert parent[4] == pytest.approx(stats["quadrature.rect_prob"]["total_s"])
    assert tracer.top_level_s() == pytest.approx(stats["quadrature.q_y_limit"]["total_s"])


def test_fails_without_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
