"""Weighted Monte Carlo estimation of finite-horizon penalized laws.

The estimand for a weight F_t and an event (or functional) measured at time
u < t is the ratio E[1_G F_t] / E[F_t].  Because every in-scope weight is a
function of (X_t, S_t), the default estimator replaces F_t by its exact
conditional expectation given (X_u, S_u) (same estimand, finite variance even
for exponential weights at t ~ 10^3, where raw terminal weighting has an
effective sample size of order n e^{-ct}).  The raw terminal estimator is
kept as mode="terminal" for cross-checks at small t.

Conditioning on the terminal state is exact too: ``max_conditional`` samples
the law given S_u = y, and ``terminal_conditional`` the law given S_t = y, or
given (X_t, S_t) = (a, y), at a finite horizon t.

``penalized_estimate`` draws in fixed-size chunks of ``CHUNK`` states, one
substream each, so its output is a deterministic function of (seed, n) however
the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from ._stable import norm_pdf
from .exact_laws import (
    BivariatePenalty,
    DensitySpec,
    ExponentialBivariate,
    h_cdf,
    p_bessel3,
    p_joint,
    p_max,
)
from .martingales import m_bar_xs
from .quadrature import RectEvent, expect_on_event, rect_prob, q_ay_finite, q_ay_limit, atom_weight
from .samplers import RngStream, exact_bm_state, exact_two_time_state
from .weights import log_g_explinear, log_g_kennedy, log_g_phi

__all__ = [
    "PhiOfMax",
    "BivariateF",
    "ExpLinear",
    "KennedyWeight",
    "PenaltyKind",
    "Estimate",
    "penalized_estimate",
    "finite_t_value",
    "max_conditional",
    "terminal_conditional",
    "bessel_weight",
    "bessel_penalization_check",
    "bridge_convergence_check",
]

CHUNK = 4096


@dataclass(frozen=True)
class PhiOfMax:
    phi: DensitySpec


@dataclass(frozen=True)
class BivariateF:
    f: BivariatePenalty


@dataclass(frozen=True)
class ExpLinear:
    """The weight e^{lam S_t + mu X_t} 1{S_t <= cap}."""

    lam: float
    mu: float
    cap: float = math.inf


@dataclass(frozen=True)
class KennedyWeight:
    lam: float
    psi: DensitySpec

    def __post_init__(self):
        norm = self.psi.laplace_mass(self.lam)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"psi is not Laplace-normalized for lam={self.lam}: mass {norm}")


PenaltyKind = PhiOfMax | BivariateF | ExpLinear | KennedyWeight


@dataclass(frozen=True)
class Estimate:
    """A ratio estimate; ``ess`` is the Kish effective sample size
    (sum w)^2 / sum w^2 of its weights."""

    value: float
    stderr: float
    n: int
    seed: tuple[int, int]
    ess: float


def _normalize_penalty(pen: PenaltyKind) -> PenaltyKind:
    if isinstance(pen, BivariateF) and isinstance(pen.f, ExponentialBivariate):
        return ExpLinear(pen.f.lam, pen.f.mu)
    return pen


def _log_weight_terminal(pen: PenaltyKind, xt, st):
    with np.errstate(divide="ignore"):
        if isinstance(pen, PhiOfMax):
            return np.log(pen.phi.pdf(st))
        if isinstance(pen, ExpLinear):
            return np.where(st <= pen.cap, pen.lam * st + pen.mu * xt, -np.inf)
        if isinstance(pen, KennedyWeight):
            return np.log(pen.psi.pdf(st)) + pen.lam * (st - xt)
        if isinstance(pen, BivariateF):
            vals = np.where(st >= np.maximum(xt, 0.0), 1.0, 0.0)
            out = np.full(xt.shape, -np.inf)
            ok = vals > 0.0
            out[ok] = np.log(np.maximum(pen.f.evaluate(xt[ok], st[ok]), 0.0))
            return out
    raise TypeError(f"unsupported penalty {pen!r}")


def _log_weight_conditional(pen: PenaltyKind, xu, su, r: float):
    if isinstance(pen, PhiOfMax):
        return log_g_phi(xu, su, r, pen.phi)
    if isinstance(pen, ExpLinear):
        return log_g_explinear(xu, su, r, pen.lam, pen.mu, pen.cap)
    if isinstance(pen, KennedyWeight):
        return log_g_kennedy(xu, su, r, pen.lam, pen.psi)
    raise TypeError(f"no conditional kernel for {pen!r}; use mode='terminal'")


def _ratio_with_stderr(vals: np.ndarray, logw: np.ndarray):
    """Self-normalized ratio with a delta-method standard error and the
    Kish effective sample size of the weights."""
    n = vals.size
    shift = float(np.max(logw))
    if not math.isfinite(shift):
        raise ValueError("degenerate weights: all penalty weights vanished")
    w = np.exp(logw - shift)
    sw = float(np.sum(w))
    if sw <= 0.0:
        raise ValueError("degenerate weights: all penalty weights vanished")
    vw = vals * w
    r = float(np.sum(vw)) / sw
    wbar = sw / n
    w2bar = float(np.mean(w * w))
    var_vw = float(np.mean(vw * vw)) - (float(np.mean(vw))) ** 2
    var_w = w2bar - wbar ** 2
    cov = float(np.mean(vw * w)) - float(np.mean(vw)) * wbar
    var_r = (var_vw - 2.0 * r * cov + r * r * var_w) / (n * wbar * wbar)
    return r, math.sqrt(max(var_r, 0.0)), n * wbar * wbar / w2bar


def _event_values(ev):
    """(u, vals) for a RectEvent or a pair (u, g): vals(x, s) as a float array."""
    if isinstance(ev, RectEvent):
        return ev.u, lambda x, s: ev.indicator(x, s).astype(float)
    u, g = ev
    return u, lambda x, s: np.asarray(g(x, s), dtype=float)


def penalized_estimate(pen: PenaltyKind, ev, t: float, n: int, rng: RngStream,
                       mode: str = "auto") -> Estimate:
    """Ratio estimator of the penalized probability (or functional mean).

    ``ev`` is a RectEvent, or a pair (u, g) with g a vectorized functional
    of the state (X_u, S_u).  ``mode``: "conditional" weights each draw by
    the exact conditional expectation of F_t given the time-u state;
    "terminal" evaluates F_t at an exact draw of (X_t, S_t); "auto" picks
    "conditional" when a kernel exists.
    """
    u, val_fn = _event_values(ev)
    if t <= u:
        raise ValueError("horizon t must exceed the observation time u")
    pen = _normalize_penalty(pen)
    if mode == "auto":
        mode = "terminal" if isinstance(pen, BivariateF) else "conditional"
    if n < 2:
        raise ValueError("need at least two samples")

    vals_parts = []
    logw_parts = []
    done = 0
    ci = 0
    while done < n:
        m = min(CHUNK, n - done)
        gen = rng.generator(ci)
        if mode == "conditional":
            xu, su = exact_bm_state(u, m, gen)
            logw = _log_weight_conditional(pen, xu, su, t - u)
        elif mode == "terminal":
            xu, su, xt, st = exact_two_time_state(u, t, m, gen)
            logw = _log_weight_terminal(pen, xt, st)
        else:
            raise ValueError("mode must be 'auto', 'conditional' or 'terminal'")
        vals_parts.append(val_fn(xu, su))
        logw_parts.append(np.asarray(logw, dtype=float))
        done += m
        ci += 1

    vals = np.concatenate(vals_parts)
    logw = np.concatenate(logw_parts)
    r, se, ess = _ratio_with_stderr(vals, logw)
    return Estimate(r, se, n, (rng.seed, rng.stream_id), ess)


def finite_t_value(pen: PenaltyKind, ev: RectEvent, t: float, w_max: float = math.inf) -> float:
    """Exact penalized probability E[1_G F_t] / E[F_t] at horizon t, on the
    event further restricted to {2 S_u - X_u <= w_max}.

    The conditional kernel at r = t - u, divided by the kernel at the origin
    with horizon t, integrated over the time-u state; the s-integral breaks at
    the weight's kink (the end of phi's or psi's support, or the cap).  For a
    phi weight this is the kernel partner of ``quadrature.q_phi_finite``.
    """
    u = ev.u
    if t <= u:
        raise ValueError("horizon must exceed the event time")
    pen = _normalize_penalty(pen)
    zero = np.zeros(1)
    log_den = float(_log_weight_conditional(pen, zero, zero, t)[0])
    if isinstance(pen, ExpLinear):
        kink = pen.cap
    else:
        kink = (pen.phi if isinstance(pen, PhiOfMax) else pen.psi).effective_upper()
    return expect_on_event(
        ev, lambda x, s: np.exp(_log_weight_conditional(pen, x, s, t - u) - log_den),
        w_max=w_max, points=(kink,))


def max_conditional(g: Callable, y: float, u: float, n: int, rng: RngStream) -> Estimate:
    """E[g(X_u, S_u) | S_u = y], a plain mean over exact draws.

    Given S_u = y, 2 y - X_u = sqrt(y^2 - 2 u log U) with U uniform; g must
    be vectorized over (x, s) arrays.
    """
    if y <= 0.0 or u <= 0.0:
        raise ValueError("need y > 0 and u > 0")
    if n < 2:
        raise ValueError("need at least two samples")
    x = 2.0 * y - np.sqrt(y * y - 2.0 * u * np.log(1.0 - rng.generator().random(n)))
    vals = np.asarray(g(x, np.full(n, y)), dtype=float)
    return Estimate(float(np.mean(vals)), float(np.std(vals)) / math.sqrt(n), n,
                    (rng.seed, rng.stream_id), float(n))


def terminal_conditional(ev, t: float, y: float, n: int, rng: RngStream,
                         a: float | None = None) -> Estimate:
    """P(G | S_t = y), or with ``a`` P(G | X_t = a, S_t = y), for an event or
    functional G at time u < t, as in ``penalized_estimate``.

    Given the time-u state (x, s) and r = t - u, the terminal state has a
    closed-form density, which splits the conditional law into two exact
    parts, each a plain mean over n draws:

    * A, on {s < y}: free draws of (X_u, S_u) weighted by the density of S_t
      at y, p_max(r, y - x), or of (X_t, S_t) at (a, y), p_joint(r, a - x, y - x);
    * B, on {s = y}: draws of X_u given S_u = y (``max_conditional``) weighted
      by p_max(u, y) P(S_r < y - x), or by p_max(u, y) times the reflected
      normal density phi_r(a - x) - phi_r(2 y - x - a).

    Their sum is divided by p_max(t, y), or p_joint(t, a, y).  Integrated
    over the time-u state, the same two parts give the closed forms
    ``q_y_finite`` and ``q_ay_finite``.  ``ess`` is the Kish number of the
    part-A weights.
    """
    u, val_fn = _event_values(ev)
    if t <= u:
        raise ValueError("horizon t must exceed the observation time u")
    if y <= 0.0 or (a is not None and y <= a):
        # at y = a the density of the terminal state vanishes
        raise ValueError("terminal conditioning requires y > max(a, 0)")
    if n < 2:
        raise ValueError("need at least two samples")
    r = t - u
    xu, su = exact_bm_state(u, n, rng.generator(0))
    if a is None:
        dens = p_max(r, y - xu)
        kernel = lambda x: h_cdf(r, y - x)
        denom = p_max(t, y)
    else:
        sr = math.sqrt(r)
        dens = p_joint(r, a - xu, y - xu)
        kernel = lambda x: (norm_pdf((a - x) / sr) - norm_pdf((2.0 * y - x - a) / sr)) / sr
        denom = p_joint(t, a, y)
    dens = np.where(su < y, dens, 0.0)
    part_a = val_fn(xu, su) * dens
    atom = p_max(u, y)
    part_b = max_conditional(lambda x, s: val_fn(x, s) * kernel(x), y, u, n, rng)
    value = (float(np.mean(part_a)) + atom * part_b.value) / denom
    stderr = math.hypot(float(np.std(part_a)) / math.sqrt(n), atom * part_b.stderr) / denom
    s1, s2 = float(np.sum(dens)), float(np.sum(dens * dens))
    return Estimate(value, stderr, n, (rng.seed, rng.stream_id), s1 * s1 / s2 if s2 > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# limit-law checks
# ---------------------------------------------------------------------------

def bessel_weight(lam: float, mu: float, trivial: bool = False) -> ExpLinear:
    """A Bessel(3) penalization as an exponential weight on (X_t, S_t).

    By Pitman's theorem R = 2S - X is a Bessel(3) process and its future
    infimum J_t = inf_{v >= t} R_v equals S_t pathwise, so
    exp(mu R_t + lam J_t) = exp((lam + 2 mu) S_t - mu X_t), and the trivial
    family e^{-R_t} 1{J_t <= 1} = exp(-2 S_t + X_t) 1{S_t <= 1}.
    """
    if trivial:
        return ExpLinear(-2.0, 1.0, cap=1.0)
    return ExpLinear(lam + 2.0 * mu, -mu)


def bessel_penalization_check(lam: float, mu: float, u: float, t_list: Sequence[float],
                              n: int, rng: RngStream, b_levels: Sequence[float] = (0.8, 1.6),
                              trivial: bool = False) -> dict:
    """Bessel(3) paths penalized by exp(mu R_t + lam J_t), or with ``trivial``
    by e^{-R_t} 1{J_t <= 1}, on the events {R_u <= b}.

    Through ``bessel_weight`` and {R_u <= b} = {2 S_u - X_u <= b} each row is
    a ``penalized_estimate``, compared at 3 stderr with the exact finite-t
    value.  Each row also carries the t -> inf limit: the integral of m_bar_xs
    against the Bessel(3) marginal, or the plain Bessel(3) law for the
    trivial family.
    """
    if trivial:
        density = lambda r: p_bessel3(u, r)
    else:
        # raises for parameters outside the supported branches
        m_bar_xs(np.array([1.0]), u, lam, mu)
        density = lambda r: m_bar_xs(r, u, lam, mu) * p_bessel3(u, r)
    limits = {b: integrate.quad(density, 0.0, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
              for b in b_levels}
    pen = bessel_weight(lam, mu, trivial)
    label = "exp(-R) 1{J <= 1}" if trivial else f"exp({mu} R + {lam} J)"

    rows = []
    for k, t in enumerate(t_list):
        for b in b_levels:
            # the same draws for every b
            est = penalized_estimate(pen, (u, lambda x, s, b=b: 2.0 * s - x <= b), t, n,
                                     rng.substream(7000 + k))
            target = finite_t_value(pen, RectEvent(u), t, w_max=b)
            tol = 3.0 * est.stderr
            rows.append({
                "penalty": label, "event": (u, b), "t": t, "b": b,
                "value": est.value, "stderr": est.stderr, "n": est.n, "ess": est.ess,
                "target": target, "target_source": "finite-t quadrature", "tol": tol,
                "limit": limits[b],
                "pass": bool(abs(est.value - target) <= tol),
            })
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows)}


def bridge_convergence_check(a: float, y: float, ev: RectEvent,
                             t_list: Sequence[float], n: int, rng: RngStream) -> dict:
    """Cross-validate the doubly conditioned law three ways.

    (i) the closed form ``q_ay_finite`` over t_list, (ii) the exact Monte Carlo of
    the same finite-t law (``terminal_conditional``), (iii) the limit value;
    plus the atom-weight and unpenalized-bridge sanity rows.
    """
    limit = q_ay_limit(a, y, ev)
    rows = []
    for k, t in enumerate(t_list):
        est = terminal_conditional(ev, t, y, n, rng.substream(8000 + k), a=a)
        rows.append({"t": t, "quadrature": q_ay_finite(a, y, ev, t), "mc": est.value,
                     "stderr": est.stderr, "n": est.n})
    gaps = [abs(r["quadrature"] - limit) for r in rows]
    trend_ok = all(g2 <= g1 * 1.05 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    baseline = rect_prob(ev)
    return {
        "limit": limit,
        "atom_weight": atom_weight(a, y),
        "wiener_baseline": baseline,
        "rows": rows,
        "max_quadrature_gap": max(gaps),
        "trend_decreasing": trend_ok,
    }
