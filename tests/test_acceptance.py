"""Acceptance gate: every criterion at its pinned sample sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the same battery backs ``penalab verify``).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import penalab
from penalab import acceptance, expansion, penalized_mc
from penalab.report import abs_verdict
from penalab.samplers import RngStream, exact_bm_state

SEED = int(os.environ.get("PENALAB_SEED", "12345"))


@pytest.mark.parametrize("label,fn", acceptance.CRITERIA,
                         ids=[label.replace(" ", "-") for label, _ in acceptance.CRITERIA])
def test_criterion(label, fn):
    verdicts = fn(SEED, 1.0)
    ok = all(v.passed for v in verdicts)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {label}")
    for v in verdicts:
        print(f"    [{'ok' if v.passed else 'FAIL'}] {v.name}: observed={v.observed:.6g} "
              f"target={v.target:.6g} tol={v.tolerance:.3g}")
    failed = [v for v in verdicts if not v.passed]
    assert not failed, f"criterion {label}: {[v.name for v in failed]}"


def test_chi3_cdf_is_the_chi3_law():
    z = np.linspace(-2.0, 8.0, 1001)
    assert np.array_equal(acceptance._chi3_cdf(z), stats.chi(3).cdf(np.maximum(z, 0.0)))
    assert np.all(acceptance._chi3_cdf(z[z <= 0.0]) == 0.0)


def test_import_leaves_out_scipy_integrate_and_stats():
    # penalab.cli imports every module of the package
    src = str(Path(penalab.__file__).resolve().parents[1])
    code = ("import sys, penalab, penalab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def reference_criterion_10(seed, scale):
    """Criterion 10 with every state drawn at once: the in-memory loop the
    block stream replaced, kept as its reference."""
    n = max(int(1000000 * scale), 10000)
    x, s = exact_bm_state(1.0, n, RngStream(seed, 10).generator(0))
    r = 2.0 * s - x
    verdicts = []
    for r0 in (1.0, 2.0, 3.0):
        mask = np.abs(r - r0) <= 0.05
        verdicts.append(abs_verdict(f"pitman-cond-mean-r={r0}", float(np.mean(s[mask])), r0 / 2.0,
                                    0.05 * (r0 / 2.0),
                                    f"binned regression, {int(mask.sum())} samples"))
    return verdicts


@pytest.mark.parametrize("seed,scale", [(12345, 0.25), (12345, 1.0), (7, 0.013)])
def test_criterion_10_streams_the_in_memory_verdicts(seed, scale):
    # scale 0.013 draws n = 10 000 states, not a whole number of blocks
    assert acceptance.criterion_10_pitman_regression(seed, scale) == reference_criterion_10(
        seed, scale)


def test_criterion_10_holds_its_normals_not_every_state():
    # 8 MB of normals and one block; drawing every state at once peaked at 39 MB
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        acceptance.criterion_10_pitman_regression(12345, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak - before < 16 * 2 ** 20


def _count_calls(monkeypatch, modules, name):
    """Wrap ``name`` in every module of ``modules`` that binds it; the list
    the wrapper appends to on each call."""
    calls = []
    orig = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_criterion_11_runs_one_ladder_per_branch_and_b():
    # 2 limits, one ladder over t_list per b in bessel_penalization_check and
    # one over the rate horizons per b, for each branch: 12 rules (32 when
    # every horizon was a rule of its own)
    with pytest.MonkeyPatch.context() as m:
        calls = _count_calls(m, [penalized_mc, acceptance], "expect_on_event")
        acceptance.criterion_11_bessel_penalization(SEED, 0.06)
    assert len(calls) == 12


@pytest.mark.parametrize("criterion,module,name,count", [
    (acceptance.criterion_5_finite_t_convergence, acceptance, "q_y_finite", 1),
    (acceptance.criterion_5_finite_t_convergence, acceptance, "q_ay_finite", 1),
    (acceptance.criterion_8_expansion_coefficient, expansion, "q_phi_finite", 1),
    (acceptance.criterion_9_kennedy_expansion, expansion, "finite_t_value", 1),
], ids=["5-q_y_finite", "5-q_ay_finite", "8-q_phi_finite", "9-finite_t_value"])
def test_rate_criteria_take_each_series_as_one_ladder(criterion, module, name, count):
    with pytest.MonkeyPatch.context() as m:
        calls = _count_calls(m, [module], name)
        criterion(SEED, 1.0)
    assert len(calls) == count
