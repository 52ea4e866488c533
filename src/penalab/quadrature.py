"""Deterministic evaluation of the finite-horizon and limit conditional laws.

All conditioning on {S_u = y} is resolved analytically through the density
ratio p_joint / p_max; nothing in this module touches random numbers, so it
serves as the oracle the samplers and weighted Monte Carlo are checked
against.  Rectangle events {X_u <= b, S_u <= c} are the computable family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from ._stable import GAUSS_CUT, gauss_legendre, norm_cdf, norm_sf
from .exact_laws import DensitySpec, h_cdf, p_joint, p_max

__all__ = [
    "RectEvent",
    "rect_prob",
    "q_y_limit",
    "q_y_finite",
    "q_ay_limit",
    "q_ay_finite",
    "q_a_phi_limit",
    "q_phi_limit",
    "atom_weight",
    "expect_on_event",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=400)
GL_NODES = 96     # Gauss-Legendre nodes of the inner integral of expect_on_event


@dataclass(frozen=True)
class RectEvent:
    """The event {X_u <= b, S_u <= c} at observation time u."""

    u: float
    b: float = math.inf
    c: float = math.inf

    def __post_init__(self):
        if self.u <= 0.0:
            raise ValueError("observation time must be positive")
        if self.c <= 0.0:
            raise ValueError("the S-bound must be positive (the event is null otherwise)")

    def indicator(self, x, s):
        return (np.asarray(x) <= self.b) & (np.asarray(s) <= self.c)


def atom_weight(a: float, y: float) -> float:
    """Mass the limiting bridge law puts on paths whose total maximum is y."""
    _check_bridge_point(a, y)
    return (y - a) / (2.0 * y - a)


def _check_bridge_point(a: float, y: float) -> None:
    # the boundary a = y is allowed (the atom weight is then 0)
    if y <= 0.0 or y < max(a, 0.0):
        raise ValueError("bridge conditioning requires y >= max(a, 0) and y > 0")


# ---------------------------------------------------------------------------
# baseline Wiener rectangle probability
# ---------------------------------------------------------------------------

def rect_prob(ev: RectEvent) -> float:
    """P0(X_u <= b, S_u <= c), by the reflection principle.

    With b' = min(b, c), P(X_u <= b', S_u > c) = P(X_u >= 2c - b'), so the
    probability is Phi(b'/sqrt(u)) - Phi((b' - 2c)/sqrt(u)).  The second
    argument is negative, so nothing cancels; b = -inf makes both terms 0.
    """
    root_u = math.sqrt(ev.u)
    if ev.c == math.inf:
        return float(norm_cdf(ev.b / root_u))
    bb = min(ev.b, ev.c)
    return float(norm_cdf(bb / root_u) - norm_cdf((bb - 2.0 * ev.c) / root_u))


def _cond_mean_block(u: float, y: float, b: float) -> float:
    """Closed form of the integral of (y - a) p_joint(u, a, y) over a <= min(b, y)."""
    if b == -math.inf:
        return 0.0
    w0 = 2.0 * y - min(b, y)
    root_u = math.sqrt(u)
    return (math.sqrt(2.0 / (math.pi * u)) * (w0 - y) * math.exp(-w0 * w0 / (2.0 * u))
            + 2.0 * float(norm_sf(w0 / root_u)))


# ---------------------------------------------------------------------------
# conditioning on the terminal maximum
# ---------------------------------------------------------------------------

def q_y_limit(y: float, ev: RectEvent) -> float:
    """Limit law of the path conditioned on {S_t = y} as the horizon grows."""
    if y <= 0.0:
        raise ValueError("q_y_limit requires y > 0")
    first = _cond_mean_block(ev.u, y, ev.b) if ev.c >= y else 0.0
    second = rect_prob(RectEvent(ev.u, ev.b, min(ev.c, y)))
    return first + second


def q_y_finite(y: float, ev: RectEvent, t: float) -> float:
    """P0(event | S_t = y) at a finite horizon t > u."""
    if y <= 0.0:
        raise ValueError("q_y_finite requires y > 0")
    u, b, c = ev.u, ev.b, ev.c
    if t <= u:
        raise ValueError("horizon t must exceed the observation time u")
    if b == -math.inf:
        return 0.0
    r = t - u
    root_u = math.sqrt(u)
    denom = p_max(t, y)

    total = 0.0
    if c >= y:
        a_hi = min(b, y)
        a_lo = a_hi - GAUSS_CUT * root_u - 2.0 * max(y - a_hi, 0.0)

        def f1(a):
            return h_cdf(r, y - a) * p_joint(u, a, y)

        if a_hi > a_lo:
            v1, _ = integrate.quad(f1, a_lo, a_hi, **_QUAD_OPTS)
            total += v1 / denom

    cprime = min(c, y)
    a_hi = min(b, cprime)
    a_lo = -GAUSS_CUT * root_u

    def f2(a):
        bracket = math.exp(-a * a / (2.0 * u)) - math.exp(-(2.0 * cprime - a) ** 2 / (2.0 * u))
        return math.exp(-(y - a) ** 2 / (2.0 * r)) * bracket

    if a_hi > a_lo:
        v2, _ = integrate.quad(f2, a_lo, a_hi, **_QUAD_OPTS)
        pref = math.sqrt(2.0 / (math.pi * r)) * math.sqrt(2.0 / (math.pi * u ** 3)) * u / 2.0
        total += pref * v2 / denom
    return total


# ---------------------------------------------------------------------------
# conditioning on the bridge endpoint and the maximum jointly
# ---------------------------------------------------------------------------

def q_ay_limit(a: float, y: float, ev: RectEvent, route: str = "direct") -> float:
    """Limit of the doubly conditioned law {X_t = a, S_t = y}.

    route="direct" evaluates the two-term representation; route="mixture"
    evaluates the convex combination over the single-max laws.  The two must
    agree (checked in the test suite at 1e-7).
    """
    _check_bridge_point(a, y)
    u, b, c = ev.u, ev.b, ev.c
    if b == -math.inf:
        return 0.0
    if route == "mixture":
        first = (y - a) * q_y_limit(y, ev)
        # q_y_limit(z, ev) has kinks at z = c and z = b
        pts = sorted({p for p in (c, b) if 0.0 < p < y}) or None
        second, _ = integrate.quad(lambda z: q_y_limit(z, ev), 0.0, y, points=pts,
                                   epsabs=1e-11, epsrel=1e-10, limit=400)
        return (first + second) / (2.0 * y - a)
    if route != "direct":
        raise ValueError("route must be 'direct' or 'mixture'")

    total = 0.0
    if c >= y:
        total += atom_weight(a, y) * _cond_mean_block(u, y, b)

    cprime = min(c, y)
    root_u = math.sqrt(u)

    def inner(s):
        w0 = 2.0 * s - min(b, s)
        gaussian = math.exp(-w0 * w0 / (2.0 * u))
        return (math.sqrt(2.0 / (math.pi * u)) * (w0 + 2.0 * y - a - 2.0 * s) * gaussian
                + 2.0 * float(norm_sf(w0 / root_u)))

    s_hi = min(cprime, (max(b, 0.0) + GAUSS_CUT * root_u) / 2.0 if math.isfinite(b)
               else GAUSS_CUT * root_u)
    if s_hi > 0.0:
        pts = [b] if (math.isfinite(b) and 0.0 < b < s_hi) else None
        v, _ = integrate.quad(inner, 0.0, s_hi, points=pts, **_QUAD_OPTS)
        total += v / (2.0 * y - a)
    return total


def q_ay_finite(a: float, y: float, ev: RectEvent, t: float) -> float:
    """P0(event | X_t = a, S_t = y) at a finite horizon t > u."""
    if y <= max(a, 0.0):
        # at y = a the terminal density p_joint(t, a, y) vanishes
        raise ValueError("q_ay_finite requires y > max(a, 0)")
    u, b, c = ev.u, ev.b, ev.c
    if t <= u:
        raise ValueError("horizon t must exceed the observation time u")
    if b == -math.inf:
        return 0.0
    r = t - u
    root_u = math.sqrt(u)
    denom = p_joint(t, a, y)
    pref_r = math.sqrt(2.0 / (math.pi * r ** 3)) * r / 2.0

    total = 0.0
    if c >= y:
        x_hi = min(b, y)
        x_lo = x_hi - GAUSS_CUT * root_u - 2.0 * max(y - x_hi, 0.0)

        def f1(x):
            bracket = math.exp(-(a - x) ** 2 / (2.0 * r)) \
                - math.exp(-(2.0 * y - x - a) ** 2 / (2.0 * r))
            return pref_r * bracket * p_joint(u, x, y)

        if x_hi > x_lo:
            v1, _ = integrate.quad(f1, x_lo, x_hi, **_QUAD_OPTS)
            total += v1 / denom

    cprime = min(c, y)
    x_hi = min(b, cprime)
    x_lo = -GAUSS_CUT * root_u
    pref_u = math.sqrt(2.0 / (math.pi * u ** 3)) * u / 2.0

    def f2(x):
        w = 2.0 * y - x - a
        joint_r = math.sqrt(2.0 / (math.pi * r ** 3)) * w * math.exp(-w * w / (2.0 * r))
        bracket = math.exp(-x * x / (2.0 * u)) - math.exp(-(2.0 * cprime - x) ** 2 / (2.0 * u))
        return joint_r * pref_u * bracket

    if x_hi > x_lo:
        v2, _ = integrate.quad(f2, x_lo, x_hi, **_QUAD_OPTS)
        total += v2 / denom
    return total


# ---------------------------------------------------------------------------
# mixing over a max-density
# ---------------------------------------------------------------------------

def q_a_phi_limit(a: float, phi: DensitySpec, ev: RectEvent, route: str = "single") -> float:
    """Limit of the bridge-to-a law penalized by phi of the maximum.

    route="single" mixes the single-max laws; route="bridge" mixes the
    doubly conditioned laws.  Both are implemented and must agree within
    1e-6.
    """
    if not np.isfinite(phi.moment(1)):
        raise ValueError("q_a_phi_limit requires a finite first moment of phi")
    ap = max(a, 0.0)
    denom = 2.0 * phi.tail_moment(1, ap) - a * phi.tail_moment(0, ap)
    if denom <= 0.0:
        raise ValueError(f"q_a_phi_limit needs a below the end of phi's support: the "
                         f"normaliser 2 E[Y; Y > a+] - a P(Y > a+) is {denom} at a = {a}")
    hi = phi.effective_upper(1e-13)

    if route == "bridge":
        def f16(y):
            return (2.0 * y - a) * phi.pdf(y) * q_ay_limit(a, y, ev, route="direct")

        num, _ = integrate.quad(f16, ap, hi, epsabs=1e-10, epsrel=1e-9, limit=400,
                                points=[p for p in (ev.c, ev.b) if ap < p < hi] or None)
        return num / denom
    if route != "single":
        raise ValueError("route must be 'single' or 'bridge'")

    def f17a(y):
        return (y - a) * phi.pdf(y) * q_y_limit(y, ev)

    def f17b(z):
        return phi.tail(max(z, ap)) * q_y_limit(z, ev)

    pts = [p for p in (ev.c, ev.b) if ap < p < hi] or None
    n1, _ = integrate.quad(f17a, ap, hi, points=pts, epsabs=1e-11, epsrel=1e-10, limit=400)
    pts_b = sorted({p for p in (ev.c, ev.b, ap) if 0.0 < p < hi}) or None
    n2, _ = integrate.quad(f17b, 0.0, hi, points=pts_b, epsabs=1e-11, epsrel=1e-10, limit=400)
    return (n1 + n2) / denom


def q_phi_limit(phi: DensitySpec, ev: RectEvent, route: str = "mixture") -> float:
    """Limit law for the phi(S_t) penalty on a rectangle event.

    route="mixture" integrates the single-max laws against phi; the
    route="martingale" oracle computes the weighted expectation of the
    associated martingale on the event instead.
    """
    hi = phi.effective_upper(1e-13)
    if route == "martingale":
        from .martingales import m_phi_xs

        return expect_on_event(ev, lambda x, s: m_phi_xs(x, s, phi), points=(hi,))
    if route != "mixture":
        raise ValueError("route must be 'mixture' or 'martingale'")

    def f(y):
        return q_y_limit(y, ev) * phi.pdf(y)

    pts = sorted({p for p in (ev.c, ev.b) if 0.0 < p < hi}) or None
    with warnings.catch_warnings():
        # densely tabulated phi gives the integrand micro-kinks that trip the
        # roundoff detector long after the requested accuracy is reached
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, 0.0, hi, points=pts, epsabs=1e-10, epsrel=1e-9, limit=400)
    return val


# ---------------------------------------------------------------------------
# generic rectangle-weighted expectations
# ---------------------------------------------------------------------------

def expect_on_event(ev: RectEvent, g, w_max: float = math.inf, points=()) -> float:
    """Integral of g(x, s) p_joint(u, x, s) over the rectangle event, further
    restricted to {2s - x <= w_max}.

    g must accept numpy arrays for x at a scalar s.  The inner position
    integral uses Gauss-Legendre in the reflected variable w = 2s - x; the
    outer max integral is adaptive, with a breakpoint at b and at each of
    ``points`` (where g jumps in s, e.g. at the end of a density's support).
    """
    u, b, c = ev.u, ev.b, ev.c
    if b == -math.inf:
        return 0.0
    root_u = math.sqrt(u)
    nodes, weights = gauss_legendre(GL_NODES)
    pref = math.sqrt(2.0 / (math.pi * u ** 3))

    def inner(s):
        x_hi = min(b, s)
        w0 = 2.0 * s - x_hi
        w1 = min(w0 + GAUSS_CUT * root_u, w_max)
        if w1 <= w0:
            return 0.0
        w = w0 + (w1 - w0) * nodes
        x = 2.0 * s - w
        dens = pref * w * np.exp(-w * w / (2.0 * u))
        vals = np.asarray(g(x, s), dtype=float)
        return float(np.dot(weights, vals * dens)) * (w1 - w0)

    # w = 2s - x >= s on the support, so the cap on w caps s as well
    s_hi = min(c, w_max, (max(b, 0.0) + GAUSS_CUT * root_u) / 2.0 if math.isfinite(b)
               else GAUSS_CUT * root_u)
    if s_hi <= 0.0:
        return 0.0
    pts = sorted({p for p in (b, *points) if 0.0 < p < s_hi}) or None
    # tabulated densities give the inner integral micro-kinks; 1e-10 absolute
    # keeps the adaptive refinement from chasing roundoff
    val, _ = integrate.quad(inner, 0.0, s_hi, points=pts,
                            epsabs=1e-10, epsrel=1e-9, limit=400)
    return val
