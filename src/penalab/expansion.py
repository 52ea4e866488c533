"""Rate fitting and verification of the first-order horizon expansions.

The penalized rectangle probabilities admit, as the horizon t grows,

    polynomial family:   V(t) = L + c1/t + O(1/t^2)
    discounted family:   V(t) = L + e^{-lam^2 t/2} t^{-1/2} (c1/t + O(1/t^2))

with c1 the weighted expectation of the corresponding coefficient
martingale on the event.  The deterministic series here are exact finite-t
values: the phi series mixes the closed-form ``q_y_finite`` over the maximum,
and the Kennedy series integrates the conditional kernel the Monte Carlo uses.
Coefficient extraction is limited by roundoff rather than sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exact_laws import DensitySpec
from .martingales import f1_lambda_phi_xs, f1_phi_xs, m_kennedy_xs, m_phi_xs
from .penalized_mc import KennedyWeight, finite_t_value
from .quadrature import RectEvent, expect_on_event, q_phi_finite, q_phi_limit

__all__ = [
    "RateFit",
    "fit_rate",
    "phi_series_value",
    "kennedy_series_value",
    "f1_coefficient_check",
    "f1_kennedy_check",
]

DEFAULT_POLY_WINDOW = (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
DEFAULT_DISCOUNTED_WINDOW = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class RateFit:
    """Weighted least-squares fit of a rate model over a t-window."""

    q_limit: float
    c1: float
    residual: float
    window: tuple[float, ...]
    extra: dict = field(default_factory=dict, compare=False)


def _regressor(model: str, t: np.ndarray, lam: float | None) -> np.ndarray:
    if model == "poly":
        return 1.0 / t
    if model == "discounted":
        if lam is None or lam <= 0.0:
            raise ValueError("the discounted model needs lam > 0")
        return np.exp(-lam * lam * t / 2.0) / (np.sqrt(t) * t)
    raise ValueError("model must be 'poly' or 'discounted'")


def fit_rate(series: Sequence, model: str = "poly", lam: float | None = None) -> RateFit:
    """Fit value(t) = q_limit + c1 * regressor(t) by weighted least squares.

    ``series`` holds (t, value) or (t, value, stderr) tuples with strictly
    increasing t; stderr entries, when present and positive, set the weights.
    """
    rows = [tuple(map(float, row)) for row in series]
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if t.size < 4:
        raise ValueError("rate fitting needs at least 4 points")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t values must be strictly increasing")
    if t[-1] / t[0] < 8.0:
        raise ValueError("the t-window must span at least a factor of 8")
    if not np.all(np.isfinite(v)):
        raise ValueError("series values must be finite")
    sig = np.array([r[2] if len(r) > 2 else 0.0 for r in rows])
    w = np.ones_like(sig)
    w[sig > 0.0] = sig[sig > 0.0] ** -2

    design = np.column_stack([np.ones_like(t), _regressor(model, t, lam)])
    sq = np.sqrt(w)
    sol, _, rank, _ = np.linalg.lstsq(design * sq[:, None], v * sq, rcond=None)
    if rank < 2:
        raise ValueError("singular design: cannot separate the limit from the rate term")
    fitted = design @ sol
    resid = float(np.max(np.abs(fitted - v)))
    extra = {"model": model, "lam": lam}
    if np.any(sig > 0.0):
        cov = np.linalg.inv(design.T @ (design * w[:, None]))
        extra["q_limit_stderr"] = float(math.sqrt(cov[0, 0]))
        extra["c1_stderr"] = float(math.sqrt(cov[1, 1]))
    return RateFit(q_limit=float(sol[0]), c1=float(sol[1]), residual=resid,
                   window=tuple(t), extra=extra)


# ---------------------------------------------------------------------------
# deterministic series for the two weight families
# ---------------------------------------------------------------------------

def phi_series_value(phi: DensitySpec, ev: RectEvent, t: float) -> float:
    """Exact penalized probability at horizon t for the phi(S_t) weight.

    The phi-mixture ``q_phi_finite``; ``finite_t_value(PhiOfMax(phi), ...)``,
    which integrates the ``g_phi_hat`` kernel, is its oracle partner.
    """
    return q_phi_finite(phi, ev, t)


def kennedy_series_value(lam: float, psi: DensitySpec, ev: RectEvent, t: float) -> float:
    """Exact penalized probability at horizon t for the Kennedy weight."""
    return finite_t_value(KennedyWeight(lam, psi), ev, t)


# ---------------------------------------------------------------------------
# coefficient checks
# ---------------------------------------------------------------------------

def f1_coefficient_check(phi: DensitySpec, ev: RectEvent,
                         t_list: Sequence[float] = DEFAULT_POLY_WINDOW) -> dict:
    """Compare the fitted 1/t coefficient with its quadrature target.

    The series is deterministic (quadrature).  The target is the weighted
    expectation of the martingale-form coefficient ``f1_phi_xs`` on the event.
    """
    u = ev.u
    if not np.isfinite(phi.moment(5)):
        raise ValueError("the first-order expansion needs a finite fifth moment")
    series = [(t, phi_series_value(phi, ev, t)) for t in t_list]
    fit = fit_rate(series, model="poly")
    target = expect_on_event(ev, lambda x, s: f1_phi_xs(x, s, u, phi), points=phi.kinks)
    limit = q_phi_limit(phi, ev)

    t_arr = np.array([row[0] for row in series])
    v_arr = np.array([row[1] for row in series])
    resid = np.abs(v_arr - (limit + target / t_arr))
    half = len(resid) // 2
    first = float(np.max(resid[:half]))
    second = float(np.max(resid[half:]))
    ratio = first / second if second > 0.0 else math.inf

    return {
        "series": series,
        "fit": fit,
        "limit": limit,
        "target": target,
        "rel_err": abs(fit.c1 - target) / abs(target) if target != 0.0 else abs(fit.c1),
        "residual_half_ratio": ratio,
    }


def f1_kennedy_check(lam: float, psi: DensitySpec, ev: RectEvent,
                     t_list: Sequence[float] = DEFAULT_DISCOUNTED_WINDOW) -> dict:
    """Same pipeline for the discounted (Kennedy) expansion."""
    u = ev.u
    series = [(t, kennedy_series_value(lam, psi, ev, t)) for t in t_list]
    fit = fit_rate(series, model="discounted", lam=lam)
    target = expect_on_event(ev, lambda x, s: f1_lambda_phi_xs(x, s, u, lam, psi),
                             points=psi.kinks)
    limit = expect_on_event(ev, lambda x, s: m_kennedy_xs(x, s, u, lam, psi), points=psi.kinks)

    # scaled residual diagnostics: (V - L) sqrt(t) e^{lam^2 t/2} t -> c1
    t_arr = np.array([row[0] for row in series])
    v_arr = np.array([row[1] for row in series])
    scaled = (v_arr - limit) * np.sqrt(t_arr) * np.exp(lam * lam * t_arr / 2.0) * t_arr

    return {
        "series": series,
        "fit": fit,
        "limit": limit,
        "target": target,
        "scaled_coefficients": list(zip(t_arr.tolist(), scaled.tolist())),
        "rel_err": abs(fit.c1 - target) / abs(target) if target != 0.0 else abs(fit.c1),
    }
