"""Acceptance gate: every criterion at its pinned sample sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the same battery backs ``penalab verify``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import penalab
from penalab import acceptance

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
