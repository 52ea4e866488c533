"""Weighted Monte Carlo estimation of finite-horizon penalized laws.

The estimand for a weight F_t and an event (or functional) measured at time
u < t is the ratio E[1_G F_t] / E[F_t].  Because every in-scope weight is a
function of (X_t, S_t), the default estimator replaces F_t by its exact
conditional expectation given (X_u, S_u) (same estimand, finite variance even
for exponential weights at t ~ 10^3, where raw terminal weighting has an
effective sample size of order n e^{-ct}).  A kind with no kernel is weighted
by F_t itself, at an exact draw of (X_t, S_t).

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

from ._stable import norm_pdf
from .exact_laws import (
    BivariatePenalty,
    DensitySpec,
    ExponentialBivariate,
    h_cdf,
    p_joint,
    p_max,
)
from .martingales import m_bar_xs
from .quadrature import RectEvent, expect_on_event
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
]

CHUNK = 4096


@dataclass(frozen=True)
class PhiOfMax:
    phi: DensitySpec

    def log_terminal(self, xt, st):
        return np.log(self.phi.pdf(st))

    def log_kernel(self, x, s, r: float):
        return log_g_phi(x, s, r, self.phi)

    kinks = property(lambda self: self.phi.kinks)


@dataclass(frozen=True)
class ExpLinear:
    """The weight e^{lam S_t + mu X_t} 1{S_t <= cap}."""

    lam: float
    mu: float
    cap: float = math.inf

    def log_terminal(self, xt, st):
        return np.where(st <= self.cap, self.lam * st + self.mu * xt, -np.inf)

    def log_kernel(self, x, s, r: float):
        return log_g_explinear(x, s, r, self.lam, self.mu, self.cap)

    kinks = property(lambda self: (self.cap,))


@dataclass(frozen=True)
class KennedyWeight:
    lam: float
    psi: DensitySpec

    def __post_init__(self):
        self.psi.require_laplace_normalized(self.lam)

    def log_terminal(self, xt, st):
        return np.log(self.psi.pdf(st)) + self.lam * (st - xt)

    def log_kernel(self, x, s, r: float):
        return log_g_kennedy(x, s, r, self.lam, self.psi)

    kinks = property(lambda self: self.psi.kinks)


@dataclass(frozen=True)
class BivariateF:
    """The weight f(X_t, S_t).  The exponential family takes ``ExpLinear``'s
    kernel and kinks; the other families have no conditional kernel."""

    f: BivariatePenalty
    log_kernel = None
    kinks = ()

    def __post_init__(self):
        if isinstance(self.f, ExponentialBivariate):
            exp = ExpLinear(self.f.lam, self.f.mu)
            object.__setattr__(self, "log_kernel", exp.log_kernel)
            object.__setattr__(self, "kinks", exp.kinks)

    def log_terminal(self, xt, st):
        out = np.full(xt.shape, -np.inf)
        ok = st >= np.maximum(xt, 0.0)
        out[ok] = np.log(np.maximum(self.f.evaluate(xt[ok], st[ok]), 0.0))
        return out


# A penalty kind provides log_terminal(xt, st) = log F_t, log_kernel(x, s, r) =
# log E[F_t | X_u = x, S_u = s] at r = t - u (None for a kind with no kernel),
# and kinks, the s where that kernel bends.
PenaltyKind = PhiOfMax | BivariateF | ExpLinear | KennedyWeight


@dataclass(frozen=True)
class Estimate:
    """A ratio estimate; ``ess`` is the Kish effective sample size
    (sum w)^2 / sum w^2 of its weights.  ``value`` and ``stderr`` are arrays
    for a vector-valued functional."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    n: int
    seed: tuple[int, int]
    ess: float

    def __post_init__(self):
        if np.ndim(self.value) == 0:
            object.__setattr__(self, "value", float(self.value))
            object.__setattr__(self, "stderr", float(self.stderr))


class _WeightedSums:
    """Streamed sums of a self-normalized ratio: sum w, sum w^2, and per row
    of the values sum v w, sum (v w)^2 and sum v w^2, with w = e^{logw - shift}.

    ``shift`` is the largest log-weight seen so far; a chunk that raises it
    rescales the sums by e^{old - new}, so memory stays O(chunk)."""

    def __init__(self):
        self.shift = -math.inf
        self.sw = self.sww = 0.0
        self.svw = self.svv = self.svww = 0.0
        self.n = 0

    def add(self, vals: np.ndarray, logw: np.ndarray) -> None:
        self.n += logw.size
        top = float(np.max(logw))
        if not top < math.inf:
            raise ValueError("degenerate weights: a log-weight is NaN or +inf")
        if top > self.shift:
            scale = math.exp(self.shift - top)
            self.sw *= scale
            self.svw *= scale
            self.sww *= scale * scale
            self.svv *= scale * scale
            self.svww *= scale * scale
            self.shift = top
        if self.shift == -math.inf:
            return     # every weight so far vanished
        w = np.exp(logw - self.shift)
        vw = vals * w
        self.sw += float(np.sum(w))
        self.sww += float(np.sum(w * w))
        self.svw += np.sum(vw, axis=-1)
        self.svv += np.sum(vw * vw, axis=-1)
        self.svww += np.sum(vw * w, axis=-1)

    def ratio(self):
        """The ratio sum v w / sum w, its delta-method standard error and the
        Kish effective sample size (sum w)^2 / sum w^2 of the weights."""
        if self.shift == -math.inf:
            raise ValueError("degenerate weights: all penalty weights vanished")
        n = self.n
        r = self.svw / self.sw
        wbar = self.sw / n
        w2bar = self.sww / n
        vwbar = self.svw / n
        var_vw = self.svv / n - vwbar ** 2
        var_w = w2bar - wbar ** 2
        cov = self.svww / n - vwbar * wbar
        var_r = (var_vw - 2.0 * r * cov + r * r * var_w) / (n * wbar * wbar)
        return r, np.sqrt(np.maximum(var_r, 0.0)), n * wbar * wbar / w2bar


def _event_values(ev):
    """(u, vals) for a RectEvent or a pair (u, g): vals(x, s) as a float array."""
    if isinstance(ev, RectEvent):
        return ev.u, lambda x, s: ev.indicator(x, s).astype(float)
    u, g = ev
    return u, lambda x, s: np.asarray(g(x, s), dtype=float)


def penalized_estimate(pen: PenaltyKind, ev, t: float, n: int, rng: RngStream) -> Estimate:
    """Ratio estimator of the penalized probability (or functional mean).

    ``ev`` is a RectEvent, or a pair (u, g) with g a vectorized functional
    of the state (X_u, S_u).  A g that returns shape (k, m) for m states is
    k functionals at once: ``value`` and ``stderr`` are length-k arrays, all
    from the same draws and weights, and ``ess`` is their shared Kish number.
    A kind with a kernel weights each draw by the exact conditional
    expectation of F_t given the time-u state; a kind without one by F_t at
    an exact draw of (X_t, S_t).  The ratio sums are streamed chunk by chunk,
    so memory is O(CHUNK k).
    """
    u, val_fn = _event_values(ev)
    if t <= u:
        raise ValueError("horizon t must exceed the observation time u")
    if n < 2:
        raise ValueError("need at least two samples")

    kernel = pen.log_kernel
    sums = _WeightedSums()
    for ci, done in enumerate(range(0, n, CHUNK)):
        m = min(CHUNK, n - done)
        gen = rng.generator(ci)
        if kernel is not None:
            xu, su = exact_bm_state(u, m, gen)
            logw = kernel(xu, su, t - u)
        else:
            xu, su, xt, st = exact_two_time_state(u, t, m, gen)
            with np.errstate(divide="ignore"):
                logw = pen.log_terminal(xt, st)
        sums.add(val_fn(xu, su), np.asarray(logw, dtype=float))

    r, se, ess = sums.ratio()
    return Estimate(r, se, n, (rng.seed, rng.stream_id), ess)


def finite_t_value(pen: PenaltyKind, ev: RectEvent, t: float, w_max: float = math.inf) -> float:
    """Exact penalized probability E[1_G F_t] / E[F_t] at horizon t, on the
    event further restricted to {2 S_u - X_u <= w_max}.

    The conditional kernel at r = t - u, divided by the kernel at the origin
    with horizon t, integrated over the time-u state; the s-integral breaks at
    the weight's kinks (the knots and end of phi's or psi's support, or the
    cap).  The last kink is where the weight's support ends, and S_u <= S_t,
    so the kernel is 0 above it and the s-integral stops there.  For a phi
    weight this is the kernel partner of ``quadrature.q_phi_finite``.
    """
    u = ev.u
    if t <= u:
        raise ValueError("horizon must exceed the event time")
    kernel = pen.log_kernel
    if kernel is None:
        raise TypeError(f"no conditional kernel for {pen!r}")
    log_den = float(kernel(np.zeros(1), np.zeros(1), t)[0])
    support = RectEvent(u, ev.b, min(ev.c, max(pen.kinks, default=math.inf)))
    return expect_on_event(support, lambda x, s: np.exp(kernel(x, s, t - u) - log_den),
                           w_max=w_max, points=pen.kinks)


def max_conditional(g: Callable, y: float, u: float, n: int, rng: RngStream) -> Estimate:
    """E[g(X_u, S_u) | S_u = y], a plain mean over exact draws.

    Given S_u = y, 2 y - X_u = sqrt(y^2 - 2 u log U) with U uniform; g must
    be vectorized over (x, s) arrays, and a g of shape (k, n) gives length-k
    ``value`` and ``stderr``.
    """
    if y <= 0.0 or u <= 0.0:
        raise ValueError("need y > 0 and u > 0")
    if n < 2:
        raise ValueError("need at least two samples")
    x = 2.0 * y - np.sqrt(y * y - 2.0 * u * np.log(1.0 - rng.generator().random(n)))
    vals = np.asarray(g(x, np.full(n, y)), dtype=float)
    return Estimate(np.mean(vals, axis=-1), np.std(vals, axis=-1) / math.sqrt(n), n,
                    (rng.seed, rng.stream_id), float(n))


def terminal_conditional(ev, t: float, y: float, n: int, rng: RngStream,
                         a: float | None = None) -> Estimate:
    """P(G | S_t = y), or with ``a`` P(G | X_t = a, S_t = y), for an event or
    functional G at time u < t, as in ``penalized_estimate`` (a functional of
    shape (k, n) gives length-k ``value`` and ``stderr``).

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
    value = (np.mean(part_a, axis=-1) + atom * part_b.value) / denom
    stderr = np.hypot(np.std(part_a, axis=-1) / math.sqrt(n), atom * part_b.stderr) / denom
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
    trivial family, taken over the Brownian state with R = 2S - X.
    """
    if trivial:
        g = lambda x, s: np.ones_like(x)
    else:
        g = lambda x, s: m_bar_xs(2.0 * s - x, u, lam, mu)
    limits = {b: expect_on_event(RectEvent(u), g, w_max=b) for b in b_levels}
    pen = bessel_weight(lam, mu, trivial)
    label = "exp(-R) 1{J <= 1}" if trivial else f"exp({mu} R + {lam} J)"

    rows = []
    for k, t in enumerate(t_list):
        # one estimate for every b, on the same draws
        est = penalized_estimate(
            pen, (u, lambda x, s: np.stack([2.0 * s - x <= b for b in b_levels])), t, n,
            rng.substream(7000 + k))
        for b, value, stderr in zip(b_levels, est.value.tolist(), est.stderr.tolist()):
            target = finite_t_value(pen, RectEvent(u), t, w_max=b)
            tol = 3.0 * stderr
            rows.append({
                "penalty": label, "event": (u, b), "t": t, "b": b,
                "value": value, "stderr": stderr, "n": est.n, "ess": est.ess,
                "target": target, "target_source": "finite-t quadrature", "tol": tol,
                "limit": limits[b],
                "pass": bool(abs(value - target) <= tol),
            })
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows)}
