"""The benchmark workloads: named checks that turn penalab's outputs into verdicts.

Each workload is a list of ``Check``s built from the seed.  A check calls the
program only through public module attributes (``quadrature.q_y_limit``, not a
name imported here), so the traced run sees every call.  Tuning knobs the
program plans to delete (``steps``, ``step``, ``fine_step``, ``fine_span``,
``coarse_step``) are left at their defaults.
"""

from __future__ import annotations

import importlib
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from penalab import (acceptance, exact_laws, expansion, martingales, penalized_mc, quadrature,
                     report, samplers, weights)
from penalab.report import Verdict, abs_verdict

WORKLOADS = ("limit-sampler", "penalized-mc", "quadrature-oracle")

# pinned tolerances of the oracle pairs: the phi-mixture oracles, the q_ay_limit
# routes and the series masses agree to ~1e-6 (at worst a few 1e-5, see
# NOTES.md); the closed-form-based masses and rect_prob to ~1e-13
LOOSE_TOL = 1e-5
TIGHT_TOL = 1e-8
LADDER_T = (8.0, 32.0, 128.0)
REGIMES = {"R1": (-2.0, 1.0), "R2": (0.5, 0.25), "R3": (0.0, -1.0)}

_TABULATED_GRID = np.linspace(0.0, 1.5, 301)
PHI_TABULATED = exact_laws.DensitySpec.tabulated(_TABULATED_GRID, 0.3 + _TABULATED_GRID ** 2)

# Monte Carlo verdicts of the acceptance criteria and of this benchmark
_STATISTICAL = re.compile(
    r"(ks-|sampler-vs-|atom-weight|sample_Q_f-vs-|regime\(|pitman-cond-mean|bessel-"
    r"|m_phi\[|m_kennedy\[|m_mu_lambda\[|ladder-)")


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[], list[Verdict]]


@dataclass(frozen=True)
class Outcome:
    """A verdict as the benchmark classifies it.

    ``passed`` is the verdict at its pinned tolerance (the program's own, or
    the benchmark's for its own checks).  ``failed`` is a correctness failure:
    an exception, a deterministic verdict that did not pass, or a verdict
    beyond what its error source explains: a Monte Carlo verdict more than
    twice its k-sigma tolerance off, a KS p-value below a thousandth of its
    level, or a quadrature oracle pair (``-mass``, ``-routes``) more than 100
    times its tolerance apart.
    """

    check: str
    name: str
    kind: str          # "mc", "ks", "oracle", "exact" or "error"
    observed: float
    target: float
    tolerance: float
    passed: bool
    failed: bool


def kind_of(verdict: Verdict) -> str:
    if verdict.name.startswith("ks-"):
        return "ks"
    if _STATISTICAL.match(verdict.name):
        return "mc"
    return "oracle" if verdict.name.endswith(("-mass", "-routes")) else "exact"


GROSS_FACTOR = {"mc": 2.0, "oracle": 100.0}


def classify(check: str, v: Verdict) -> Outcome:
    kind = kind_of(v)
    if kind == "ks":
        failed = not v.observed > v.target * 1e-3
    elif kind in GROSS_FACTOR:
        failed = not abs(v.observed - v.target) <= GROSS_FACTOR[kind] * v.tolerance
    else:
        failed = not v.passed
    return Outcome(check, v.name, kind, v.observed, v.target, v.tolerance,
                   bool(v.passed), bool(failed))


def run_check(check: Check) -> list[Outcome]:
    """Run one check; an exception becomes one failed verdict named by its type."""
    try:
        verdicts = check.run()
    except Exception as exc:  # a raised verdict is recorded, the run goes on
        return [Outcome(check.name, f"raised {type(exc).__name__}: {exc}", "error",
                        math.nan, math.nan, math.nan, False, True)]
    return [classify(check.name, v) for v in verdicts]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _warm_spec(spec) -> None:
    grid = np.linspace(0.0, 2.0, 9)
    for k in range(6):
        spec.tail_moment(k, grid)
    if spec.laplace_lambda is None:
        spec.ppf(np.linspace(0.0, 1.0, 9))
    else:
        spec.laplace_tail(grid, spec.laplace_lambda)


def warm_up() -> None:
    """Fill the program's lazy caches before the first timed call."""
    importlib.import_module("scipy.stats")       # criterion 1 imports it lazily
    for spec in (acceptance.PHI_UNIFORM, acceptance.PHI_EXP, acceptance.PSI_KENNEDY,
                 PHI_TABULATED):
        _warm_spec(spec)
    # Gauss-Legendre node tables of the conditional kernels and expect_on_event
    one = np.zeros(1)
    weights.g_phi_hat(one, one, 1.0, PHI_TABULATED)
    weights.g_kennedy_bar(one, one, 1.0, 1.0, acceptance.PSI_KENNEDY)
    quadrature.expect_on_event(quadrature.RectEvent(1.0), lambda x, s: np.ones_like(x))


# ---------------------------------------------------------------------------
# limit-sampler: the level-pinned sampler and the penalty-pair draws
# ---------------------------------------------------------------------------

def separable_penalty():
    g = np.linspace(-12.0, 1.0, 3000)
    return exact_laws.SeparableIndicator(g, np.exp(g), 1.0)


def tabulated_penalty():
    # support kept off the diagonal, as in the reduction tests
    a = np.linspace(-3.0, -0.5, 41)
    y = np.linspace(0.5, 3.0, 41)
    aa, yy = np.meshgrid(a, y, indexing="ij")
    return exact_laws.TabulatedGrid(a, y, np.exp(aa - yy))


def _penalty_levels(f, n: int, stream: samplers.RngStream, label: str) -> list[Verdict]:
    """Q^f terminal levels from penalty pairs, KS-tested against phi_from_f(f)."""
    phi = exact_laws.phi_from_f(f)
    gen = stream.generator()
    a, y = samplers.draw_penalty_pairs(f, n, gen)
    atom = gen.random(n) < (y - a) / (2.0 * y - a)
    levels = np.where(atom, y, y * (1.0 - gen.random(n)))
    return [report.ks_test(np.sort(levels), phi.cdf, name=f"ks-penalty-levels[{label}]",
                    provenance="Q^f levels from draw_penalty_pairs vs phi_from_f(f).cdf")]


def _criterion(k: int, seed: int, scale: float) -> Check:
    fn = next(f for f in vars(acceptance).values()
              if callable(f) and getattr(f, "__name__", "").startswith(f"criterion_{k}_"))
    return Check(f"acceptance.criterion_{k}", lambda: fn(seed, scale))


def limit_sampler(seed: int, scale: float) -> list[Check]:
    draws = max(int(1000 * scale), 100)
    base = samplers.RngStream(seed, 800)
    checks = [_criterion(3, seed, 0.03 * scale), _criterion(4, seed, 0.05 * scale),
              _criterion(7, seed, 0.05 * scale)]
    for i, (label, f) in enumerate((("SeparableIndicator", separable_penalty()),
                                    ("TabulatedGrid", tabulated_penalty()))):
        checks.append(Check("bench.penalty_levels",
                            lambda f=f, i=i, label=label:
                            _penalty_levels(f, draws, base.substream(i), label)))
    return checks


# ---------------------------------------------------------------------------
# penalized-mc: exact states, conditional kernels, weighted estimates
# ---------------------------------------------------------------------------

def _ladder(name: str, pen, exact: Callable[[float], float], n: int,
            stream: samplers.RngStream) -> list[Verdict]:
    """penalized_estimate on a t-ladder against the exact finite-t value, at 3 sigma."""
    out = []
    for k, t in enumerate(LADDER_T):
        est = penalized_mc.penalized_estimate(pen, acceptance.EVENT, t, n, stream.substream(k))
        out.append(abs_verdict(f"ladder-{name}@t={t:g}", est.value, exact(t),
                               3.0 * est.stderr, f"mc vs exact finite-t, stderr {est.stderr:.2e}"))
    return out


def penalized_mc_workload(seed: int, scale: float) -> list[Check]:
    n = max(int(20000 * scale), 2000)
    checks = [_criterion(1, seed, 0.05 * scale), _criterion(2, seed, 0.2 * scale),
              _criterion(6, seed, 0.05 * scale), _criterion(10, seed, 0.25 * scale),
              _criterion(11, seed, 0.06 * scale)]
    ev = acceptance.EVENT
    base = samplers.RngStream(seed, 900)
    phis = {"uniform": acceptance.PHI_UNIFORM, "exponential": acceptance.PHI_EXP,
            "tabulated": PHI_TABULATED}
    for i, (label, phi) in enumerate(phis.items()):
        checks.append(Check("bench.ladder", lambda phi=phi, i=i, label=label: _ladder(
            f"phi[{label}]", penalized_mc.PhiOfMax(phi),
            lambda t: expansion.phi_series_value(phi, ev, t), n, base.substream(i))))
    psi = acceptance.PSI_KENNEDY
    checks.append(Check("bench.ladder", lambda: _ladder(
        "kennedy[lam=1]", penalized_mc.KennedyWeight(1.0, psi),
        lambda t: expansion.kennedy_series_value(1.0, psi, ev, t), n, base.substream(3))))
    return checks


# ---------------------------------------------------------------------------
# quadrature-oracle: no Monte Carlo; route pairs and total masses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCase:
    ev: quadrature.RectEvent
    y: float
    a: float
    t: float
    phi: exact_laws.DensitySpec
    a_phi: float


def sweep_cases(n: int, gen: np.random.Generator) -> list[SweepCase]:
    """n seeded cases, Latin-hypercube stratified in every parameter so the
    sweep covers each range evenly; the phi family cycles with the case index.

    Every draw stays in its law's domain: c > 0, a <= y, t > u, and a_phi
    below the end of phi's support (q_a_phi_limit divides by zero beyond it).
    """
    def strata(lo, hi):
        return lo + (hi - lo) * (gen.permutation(n) + gen.random(n)) / n

    u, b, c = strata(0.5, 2.0), strata(-0.5, 1.0), strata(0.3, 1.5)
    y, t = strata(0.4, 2.0), strata(4.0, 64.0)
    a_frac, shape, a_phi_frac = strata(0.0, 1.0), strata(0.0, 1.0), strata(0.0, 1.0)
    curvature = strata(0.5, 2.0)
    cases = []
    for k in range(n):
        family = k % 3
        if family == 0:
            top = 0.5 + 1.5 * shape[k]
            phi = exact_laws.DensitySpec.uniform(top)
        elif family == 1:
            top = math.inf
            phi = exact_laws.DensitySpec.exponential(0.5 + 1.5 * shape[k])
        else:
            top = 1.0 + 1.5 * shape[k]
            grid = np.linspace(0.0, top, 201)
            phi = exact_laws.DensitySpec.tabulated(grid, 0.2 + curvature[k] * grid ** 2)
        hi = 0.8 * min(top, 1.0)
        cases.append(SweepCase(quadrature.RectEvent(u[k], b=b[k], c=c[k]), y[k],
                               -1.0 + (y[k] + 1.0) * a_frac[k], t[k], phi,
                               -1.0 + (hi + 1.0) * a_phi_frac[k]))
    return cases


def _mass(name, value, tol) -> Verdict:
    return abs_verdict(f"{name}-mass", value, 1.0, tol, "total mass on the full event")


def _prob(name, value) -> Verdict:
    return abs_verdict(f"{name}-prob", value, 0.5, 0.5 + TIGHT_TOL,
                       "a probability lies in [0, 1] up to roundoff")


def _routes(name, first, second, tol) -> Verdict:
    return abs_verdict(f"{name}-routes", first, second, tol, "deliberate oracle pair")


def _sweep_checks(c: SweepCase, tag: str) -> list[Check]:
    q = quadrature
    ev, full = c.ev, q.RectEvent(c.ev.u)
    psi = acceptance.PSI_KENNEDY

    def regimes():
        out = []
        for label, (lam, mu) in REGIMES.items():
            m = lambda x, s, lam=lam, mu=mu: martingales.m_mu_lambda_xs(x, s, ev.u, lam, mu)
            out.append(_mass(f"{tag}expect_on_event[{label}]", q.expect_on_event(full, m), TIGHT_TOL))
            out.append(_prob(f"{tag}expect_on_event[{label}]", q.expect_on_event(ev, m)))
        return out

    return [
        Check("bench.sweep.q_y_limit", lambda: [
            _mass(f"{tag}q_y_limit", q.q_y_limit(c.y, full), TIGHT_TOL),
            _prob(f"{tag}q_y_limit", q.q_y_limit(c.y, ev))]),
        Check("bench.sweep.q_y_finite", lambda: [
            _mass(f"{tag}q_y_finite", q.q_y_finite(c.y, full, c.t), TIGHT_TOL),
            _prob(f"{tag}q_y_finite", q.q_y_finite(c.y, ev, c.t))]),
        Check("bench.sweep.q_ay_limit", lambda: [
            _mass(f"{tag}q_ay_limit", q.q_ay_limit(c.a, c.y, full), TIGHT_TOL),
            _routes(f"{tag}q_ay_limit", q.q_ay_limit(c.a, c.y, ev),
                    q.q_ay_limit(c.a, c.y, ev, route="mixture"), LOOSE_TOL)]),
        Check("bench.sweep.q_ay_finite", lambda: [
            _mass(f"{tag}q_ay_finite", q.q_ay_finite(c.a, c.y, full, c.t), TIGHT_TOL),
            _prob(f"{tag}q_ay_finite", q.q_ay_finite(c.a, c.y, ev, c.t))]),
        Check("bench.sweep.q_phi_limit", lambda: [
            _mass(f"{tag}q_phi_limit", q.q_phi_limit(c.phi, full), LOOSE_TOL),
            _routes(f"{tag}q_phi_limit", q.q_phi_limit(c.phi, ev),
                    q.q_phi_limit(c.phi, ev, route="martingale"), LOOSE_TOL)]),
        Check("bench.sweep.q_a_phi_limit", lambda: [
            _mass(f"{tag}q_a_phi_limit", q.q_a_phi_limit(c.a_phi, c.phi, full), LOOSE_TOL),
            _routes(f"{tag}q_a_phi_limit", q.q_a_phi_limit(c.a_phi, c.phi, ev),
                    q.q_a_phi_limit(c.a_phi, c.phi, ev, route="bridge"), LOOSE_TOL)]),
        Check("bench.sweep.expect_on_event", lambda: regimes() + [
            _routes(f"{tag}rect_prob", q.rect_prob(ev),
                    q.expect_on_event(ev, lambda x, s: np.ones_like(x)), TIGHT_TOL)]),
        Check("bench.sweep.phi_series_value", lambda: [
            _mass(f"{tag}phi_series_value", expansion.phi_series_value(c.phi, full, c.t), LOOSE_TOL),
            _prob(f"{tag}phi_series_value", expansion.phi_series_value(c.phi, ev, c.t))]),
        # the mass alone: each call costs ~0.4 s, a third of the case
        Check("bench.sweep.kennedy_series_value", lambda: [
            _mass(f"{tag}kennedy_series_value",
                  expansion.kennedy_series_value(1.0, psi, full, c.t), LOOSE_TOL)]),
    ]


def quadrature_oracle(seed: int, scale: float) -> list[Check]:
    cases = max(round(8 * scale), 3)
    gen = samplers.RngStream(seed, 700).generator()
    checks = [_criterion(k, seed, scale) for k in (5, 8, 9)]
    for k, case in enumerate(sweep_cases(cases, gen)):
        _warm_spec(case.phi)
        checks.extend(_sweep_checks(case, f"case{k}:"))
    return checks


BUILDERS = {"limit-sampler": limit_sampler, "penalized-mc": penalized_mc_workload,
            "quadrature-oracle": quadrature_oracle}


def build(workload: str, seed: int, scale: float = 1.0) -> list[Check]:
    return BUILDERS[workload](seed, scale)
