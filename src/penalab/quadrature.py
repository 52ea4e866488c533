"""Deterministic evaluation of the finite-horizon and limit conditional laws.

All conditioning on {S_u = y} is resolved analytically through the density
ratio p_joint / p_max; nothing in this module touches random numbers, so it
serves as the oracle the samplers and weighted Monte Carlo are checked
against.  Rectangle events {X_u <= b, S_u <= c} are the computable family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import (GAUSS_CUT, gauss_legendre, gauss_tail_e, log_each, log_gauss_tail_e,
                      log_norm_cdf, log_norm_sf, norm_cdf, norm_sf)
from .exact_laws import DensitySpec, h_cdf
from .martingales import m_phi_xs

__all__ = [
    "RectEvent",
    "rect_prob",
    "q_y_limit",
    "q_y_finite",
    "q_ay_limit",
    "q_ay_finite",
    "q_a_phi_limit",
    "q_phi_limit",
    "q_phi_finite",
    "atom_weight",
    "expect_on_event",
]

MIX_NODES = 8       # Gauss-Legendre nodes per piece at the first level of the level mixtures
EVENT_NODES = 8     # s-nodes per piece at the first level of expect_on_event
W_PER_S = 6         # inner w-nodes of expect_on_event per s-node of its level
MIX_TOL = 1e-10     # largest allowed gap between two node levels, and mass beyond a window
MAX_REFINE = 1      # node doublings a checked rule may add after its first gap
MAX_DOUBLINGS = 4   # times expect_on_event may double its window
EVENT_BLOCK = 16384  # most states per call of expect_on_event's integrand


@dataclass(frozen=True)
class RectEvent:
    """The event {X_u <= b, S_u <= c} at observation time u."""

    u: float
    b: float = math.inf
    c: float = math.inf

    def __post_init__(self):
        if any(map(math.isnan, (self.u, self.b, self.c))):
            raise ValueError("event bounds must not be NaN")
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


def _check_bridge_point(a, y) -> None:
    # elementwise for arrays; the boundary a = y is allowed (the atom weight is then 0)
    if np.any(np.asarray(y) <= 0.0) or np.any(np.asarray(y) < np.maximum(a, 0.0)):
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
    if ev.c == math.inf:
        return float(norm_cdf(ev.b / math.sqrt(ev.u)))
    return float(_rect_prob(ev.u, ev.b, ev.c))


def _rect_prob(u: float, b: float, c):
    """rect_prob for a finite S-bound c, vectorized in c."""
    root_u = math.sqrt(u)
    bb = np.minimum(b, c)
    return norm_cdf(bb / root_u) - norm_cdf((bb - 2.0 * c) / root_u)


def _cond_mean_block(u: float, y, b: float):
    """Closed form of the integral of (y - a) p_joint(u, a, y) over a <= min(b, y),
    vectorized in y."""
    y = np.asarray(y, dtype=float)
    if b == -math.inf:
        return np.zeros_like(y)
    w0 = 2.0 * y - np.minimum(b, y)
    return (math.sqrt(2.0 / (math.pi * u)) * (w0 - y) * np.exp(-w0 * w0 / (2.0 * u))
            + 2.0 * norm_sf(w0 / math.sqrt(u)))


def _check_horizons(t, u: float) -> None:
    """Raise ValueError unless the horizon t, or every horizon of an array, exceeds u."""
    if (t <= u) if np.ndim(t) == 0 else np.any(np.asarray(t) <= u):
        raise ValueError("horizon t must exceed the observation time u")


def _check_levels(y, name: str) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError(f"{name} requires y > 0")
    return y


# ---------------------------------------------------------------------------
# conditioning on the terminal maximum, alone or with the bridge endpoint
# ---------------------------------------------------------------------------

def q_y_limit(y: float, ev: RectEvent) -> float:
    """Limit law of the path conditioned on {S_t = y} as the horizon grows.

    Closed form and vectorized in y (an array y gives an array).  Above the
    S-bound (y > c) the event keeps the path below y up to time u, where it
    is still Brownian, so the value is rect_prob(ev).
    """
    y = _check_levels(y, "q_y_limit")
    u, b = ev.u, ev.b
    out = np.where(y <= ev.c, _cond_mean_block(u, y, b) + _rect_prob(u, b, y), rect_prob(ev))
    return float(out) if out.ndim == 0 else out


def q_y_finite(y: float, ev: RectEvent, t: float) -> float:
    """P0(event | S_t = y) at a finite horizon t > u, in closed form.

    Vectorized in y and t: an array y gives an array, and an array of
    horizons t that broadcasts against y (e.g. shape (H, 1) for an array y)
    gives the H laws stacked, each bit for bit its float-t value.  With
    r = t - u the maximum is either reached by time u (S_u = y, the pinned
    part, only on {y <= c}) or after it (S_u < y, the free part).
    Integrating the reflection-principle
    densities over X_u (Borodin & Salminen) leaves normal CDFs: with
    sigma = sqrt(u r / t), c' = min(c, y), m = min(b, c') and w0 = 2y - min(b, y),

        free   = Phi((m - yu/t)/sigma) - e^{2c'(y - c')/t} Phi((m - (2c'r + yu)/t)/sigma)
        pinned = sqrt(t/u) e^{y^2/2t - w0^2/2u} erf((w0 - y)/sqrt(2r)) + 2 Q((w0 - yu/t)/sigma).

    The factor e^{2c'(y - c')/t} is applied on the log scale with its CDF, so
    it cannot overflow; w0 >= y keeps the pinned exponent negative.
    """
    y = _check_levels(y, "q_y_finite")
    u, b, c = ev.u, ev.b, ev.c
    _check_horizons(t, u)
    r = t - u
    sigma = np.sqrt(u * r / t)
    cprime = np.minimum(c, y)
    m = np.minimum(b, cprime)
    free = (norm_cdf((m - y * u / t) / sigma)
            - np.exp(2.0 * cprime * (y - cprime) / t
                     + log_norm_cdf((m - (2.0 * cprime * r + y * u) / t) / sigma)))
    w0 = 2.0 * y - np.minimum(b, y)
    pinned = (np.sqrt(t / u) * np.exp(y * y / (2.0 * t) - w0 * w0 / (2.0 * u)) * h_cdf(r, w0 - y)
              + 2.0 * norm_sf((w0 - y * u / t) / sigma))
    out = free + np.where(y <= c, pinned, 0.0)
    return float(out) if out.ndim == 0 else out


def q_ay_limit(a: float, y: float, ev: RectEvent, route: str = "direct") -> float:
    """Limit of the doubly conditioned law {X_t = a, S_t = y}.

    route="direct" is closed form and vectorized in y (an array y gives an
    array): the pinned law q_y_limit(y), weight y - a, mixed with levels s
    uniform on [0, y], weight y, whose pieces below and above b+ integrate
    exactly.  With c' = min(c, y), s1 = min(b+, c'), E(z) = phi(z) - z Q(z),
    z_a = s1/sqrt(u), z1 = (2 s1 - b)/sqrt(u) and z2 = (2c' - b)/sqrt(u):

        (2y - a) q = 1{y <= c} (y - a) [pinned block of q_y_limit(y)]
                   + (2y - a) P(S_u < s1) - sqrt(2u/pi)(1 - e^{-z_a^2/2})
                   - 2 sqrt(u) (E(z_a) - E(0))
                   + 1{c' > s1} [(2y - a - b)(Q(z1) - Q(z2)) - sqrt(u)(E(z2) - E(z1))].

    route="mixture", the oracle partner, runs the same mixture through
    ``_level_mixture``.
    """
    _check_bridge_point(a, y)
    u, b, c = ev.u, ev.b, ev.c
    if route == "mixture":
        # the atom at level y, weight y - a, and levels uniform on [0, y], weight y
        uniform = _level_mixture(ev, lambda z: q_y_limit(z, ev), np.zeros_like, y)
        return ((y - a) * q_y_limit(y, ev) + y * uniform) / (2.0 * y - a)
    if route != "direct":
        raise ValueError("route must be 'direct' or 'mixture'")
    y = np.asarray(y, dtype=float)
    root_u = math.sqrt(u)
    m = 2.0 * y - a
    cprime = np.minimum(c, y)
    s1 = np.minimum(max(b, 0.0), cprime)
    z_a = s1 / root_u
    total = (np.where(y <= c, (y - a) * _cond_mean_block(u, y, b), 0.0)
             + m * h_cdf(u, s1)
             + math.sqrt(2.0 * u / math.pi) * np.expm1(-0.5 * z_a * z_a)
             - 2.0 * root_u * (gauss_tail_e(z_a) - gauss_tail_e(0.0)))
    if math.isfinite(b):
        # the levels above b+, where the event bounds X_u by b rather than by s
        # (b = -inf empties the event: every other term is then 0)
        z1 = (2.0 * s1 - b) / root_u
        z2 = (2.0 * cprime - b) / root_u
        total = total + np.where(cprime > s1, (m - b) * (norm_sf(z1) - norm_sf(z2))
                                 - root_u * (gauss_tail_e(z2) - gauss_tail_e(z1)), 0.0)
    out = total / m
    return float(out) if out.ndim == 0 else out


def q_ay_finite(a: float, y: float, ev: RectEvent, t: float) -> float:
    """P0(event | X_t = a, S_t = y) at a finite horizon t > u, in closed form.

    Vectorized in y and t, as ``q_y_finite``.  With r = t - u, M = 2y - a,
    sigma^2 = u r / t and c' = min(c, y), the maximum is reached by time u
    (S_u = y, pinned, only on {y <= c}) or after it (free).  Each part
    integrates a linear factor times Gaussians in the reflected variable v
    (Borodin & Salminen): int_V^inf v e^{-v^2/2v1} phi_{v2}(v - m) dv is
    e^{-m^2/2t} (sigma/sqrt(v2)) [sigma E(z) + V Q(z)], z = (V - m v1/t)/sigma,
    E(z) = phi(z) - z Q(z).  Over p_joint(t, a, y), with V1 = 2y - min(b, y)
    and W2 = M - min(b, c'),

        q = (t/M) [1{y <= c} (K(M, V1; u) - K(a, V1; u)) / u
                   + (K(M, W2; r) - K(M - 2c', W2; r)) / r],
        K(m, V; v1) = e^{(M^2 - m^2)/2t} [sigma E(z) + V Q(z)],

    with K on the log scale, so its exponential factor cannot overflow.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= np.maximum(a, 0.0)):
        raise ValueError("q_ay_finite requires y > max(a, 0): p_joint(t, a, y) is 0 at y = a")
    u, b, c = ev.u, ev.b, ev.c
    _check_horizons(t, u)
    if b == -math.inf:
        out = np.zeros(np.broadcast_shapes(y.shape, np.shape(t)))
        return float(out) if out.ndim == 0 else out
    r = t - u
    m_top = 2.0 * y - a
    sigma = np.sqrt(u * r / t)
    log_sigma = log_each(sigma)

    def k(m, v_lo, v1):
        z = (v_lo - m * v1 / t) / sigma
        return np.exp((m_top * m_top - m * m) / (2.0 * t)
                      + np.logaddexp(log_sigma + log_gauss_tail_e(z),
                                     np.log(v_lo) + log_norm_sf(z)))

    cprime = np.minimum(c, y)
    v1 = 2.0 * y - np.minimum(b, y)
    w2 = m_top - np.minimum(b, cprime)
    pinned = np.where(y <= c, (k(m_top, v1, u) - k(a, v1, u)) / u, 0.0)
    free = (k(m_top, w2, r) - k(m_top - 2.0 * cprime, w2, r)) / r
    out = t / m_top * (pinned + free)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# mixing over a max-density
# ---------------------------------------------------------------------------

def q_a_phi_limit(a: float, phi: DensitySpec, ev: RectEvent, route: str = "single") -> float:
    """Limit of the bridge-to-a law penalized by phi of the maximum.

    route="single" mixes the single-max laws; route="bridge" mixes the
    doubly conditioned laws q_ay_limit(a, y) over y > a+ with weight
    (2y - a) phi(y).  Both run the fixed rule of ``_level_mixture`` and
    differ only in their integrands, so they must agree within its MIX_TOL.
    """
    if not np.isfinite(phi.moment(1)):
        raise ValueError("q_a_phi_limit requires a finite first moment of phi")
    ap = max(a, 0.0)
    denom = 2.0 * phi.tail_moment(1, ap) - a * phi.tail_moment(0, ap)
    if denom <= 0.0:
        raise ValueError(f"q_a_phi_limit needs a below the end of phi's support: the "
                         f"normaliser 2 E[Y; Y > a+] - a P(Y > a+) is {denom} at a = {a}")
    hi = phi.effective_upper(1e-13)

    kinks = (*phi.kinks, ap)
    if route == "bridge":
        # the terminal maxima y > a+, weight (2y - a) phi(y); below a+ the
        # weight is 0 and q_ay_limit is evaluated at a+ only to stay defined
        return _level_mixture(ev, lambda z: q_ay_limit(a, np.maximum(z, ap), ev),
                              lambda z: _log(np.where(z > ap, (2.0 * z - a) * phi.pdf(z), 0.0)),
                              hi, kinks, scale=_length_scale(phi))
    if route != "single":
        raise ValueError("route must be 'single' or 'bridge'")

    def log_weight(z):
        # the atoms at the terminal maxima y > a+, weight (y - a) phi(y), and
        # the levels below them, weight P(Y > max(z, a+)); the weights total denom
        return _log(np.where(z > ap, (z - a) * phi.pdf(z), 0.0) + phi.tail(np.maximum(z, ap)))

    return _level_mixture(ev, lambda z: q_y_limit(z, ev), log_weight, hi, kinks,
                          scale=_length_scale(phi))


def q_phi_limit(phi: DensitySpec, ev: RectEvent, route: str = "mixture") -> float:
    """Limit law for the phi(S_t) penalty on a rectangle event.

    route="mixture" integrates the single-max laws against phi with the
    fixed rule of ``_level_mixture``; the route="martingale" oracle computes the
    weighted expectation of the associated martingale on the event instead.
    """
    if route == "martingale":
        hi = phi.effective_upper(1e-13)
        return expect_on_event(ev, lambda x, s: m_phi_xs(x, s, phi), points=(hi, *phi.kinks))
    if route != "mixture":
        raise ValueError("route must be 'mixture' or 'martingale'")
    return _level_mixture(ev, lambda y: q_y_limit(y, ev), lambda y: _log(phi.pdf(y)),
                          phi.effective_upper(1e-13), phi.kinks, scale=_length_scale(phi))


def q_phi_finite(phi: DensitySpec, ev: RectEvent, t: float) -> float:
    """Exact penalized probability E[1_G phi(S_t)] / E[phi(S_t)] at horizon t > u.

    By Fubini this is the mixture of ``q_y_finite`` over y with weight
    phi(y) p_max(t, y); no conditional kernel is involved, so it is the
    independent partner of ``finite_t_value(PhiOfMax(phi), ev, t)``.

    The mixture ends at Y = sqrt(y0^2 + 80 t), y0 = 2 E[Y], when that is below
    phi's end.  By Markov's inequality at most half of phi's mass lies above
    y0, so the normaliser is at least e^{-y0^2/2t} mass/2, while beyond Y the
    weight e^{-y^2/2t} is below e^{-40} e^{-y0^2/2t}: the mass left out is
    under e^{-40} (4e-18) of the normaliser, and q <= 1 moves the value by no
    more.  A short horizon then does not spread the pieces over all of phi.

    A 1-D array of horizons t is one ladder: a single mixture whose pieces
    are cut for the smallest horizon and reach the largest horizon's end,
    integrating the stack of the H laws, and an array of the H values.
    """
    _check_horizons(t, ev.u)
    if np.ndim(t) == 0:
        t_lo = t_hi = t
    else:
        # a ladder's horizons down the rows, so every law and weight is an (H, m) stack
        t = np.asarray(t, dtype=float)[:, None]
        t_lo, t_hi = float(np.min(t)), float(np.max(t))
    y0 = 2.0 * phi.moment(1) / phi.mass()
    return _level_mixture(ev, lambda y: q_y_finite(y, ev, t),
                          lambda y: _log(phi.pdf(y)) - y * y / (2.0 * t),
                          min(phi.effective_upper(1e-13), math.sqrt(y0 * y0 + 80.0 * t_hi)),
                          phi.kinks, t_lo, _length_scale(phi))


def _length_scale(phi: DensitySpec) -> float:
    """The scale 1/rate on which an exponential phi changes; +inf for the
    others, whose kinks cut their pieces."""
    return 1.0 / phi.rate if phi.family == "exponential" else math.inf


def _level_mixture(ev: RectEvent, q_of_y, log_weight, hi: float, kinks=(),
                   t: float = math.inf, scale: float = math.inf) -> float:
    """Mixture of the single-max law q(y) over levels y in (0, hi] at horizon
    t (t = inf for the limit laws): the integral of q(y) w(y) divided by the
    integral of w(y), with log w(y) = log_weight(y) for an array y.

    The checked rule of ``_checked_rule`` with MIX_NODES nodes per piece, cut
    at the weight's kinks and at the kinks y = b and y = c of q, with every
    piece at most sqrt(min(u, t - u))/4 wide (q varies on the scale
    sqrt(u (t - u) / t)) and at most ``scale`` wide, the weight's own scale
    (1/rate for an exponential phi, ``_length_scale``).  q_of_y and
    log_weight run once on the nodes of all the levels of a call; each
    level's weights are normalised on the log scale by that level's own
    largest.

    A stack of H laws (q_of_y gives an (H, m) array for m levels, and
    log_weight an (H, m) or an (m,) one) gives the array of the H mixtures,
    each row summed as a single law is; the rule settles when every row has.
    """
    def integral(levels):
        y = np.concatenate([nodes for nodes, _, _ in levels])
        log_w_all, q_all = log_weight(y), q_of_y(y)
        values, i = [], 0
        for _, wts, _ in levels:
            log_w, q = log_w_all[..., i:i + wts.size], q_all[..., i:i + wts.size]
            if q.ndim == 1 and log_w.ndim == 1:
                w = np.exp(log_w - np.max(log_w)) * wts
                values.append(float(np.dot(w, q) / np.sum(w)))
            else:
                log_w, q = np.broadcast_arrays(log_w, q)
                w = np.exp(log_w - np.max(log_w, axis=-1, keepdims=True)) * wts
                values.append(np.array([np.dot(w_h, q_h) / np.sum(w_h) for w_h, q_h in zip(w, q)]))
            i += wts.size
        return values

    return _checked_rule("level-mixture", hi, (ev.b, ev.c, *kinks),
                         min(0.25 * math.sqrt(min(ev.u, t - ev.u)), scale), MIX_NODES, integral)


class _Unresolved(FloatingPointError):
    """A checked rule or event window that did not settle, for ``reason``.
    ``component`` is the worst entry of an integrand stack, None for a
    single integrand."""

    def __init__(self, reason: str, component: int | None = None):
        super().__init__(reason if component is None else f"{reason} at component {component}")
        self.reason, self.component = reason, component


def _worst(excess):
    """The index of the largest entry of a stack's array, a NaN first."""
    return int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))


def _checked_rule(name: str, hi: float, cuts, width: float, n: int, integral) -> float:
    """One fixed Gauss-Legendre pass over [0, hi], cut at ``cuts`` and with
    every piece at most ``width`` wide.  integral(levels) sums the integrand
    at each level of a list of (y, wts, k), the nodes y with the weights wts
    of k nodes per piece, and returns their values in that order: floats,
    or 1-D arrays for an integrand stack, one entry per integrand.

    The levels n, 2n, ... double the nodes up to MAX_REFINE times past the
    first gap: the first level within MIX_TOL of the one before it is the
    value, and a last gap above MIX_TOL, or not finite, raises.  A stack
    takes a level only when every entry is within MIX_TOL, so one entry that
    needs a finer level refines them all, and it raises naming its worst
    entry.  Levels n and 2n go to one call; each later level has a call of
    its own, made only after a failed gap.
    """
    # a cut below the smallest normal float would round first-piece nodes to y = 0
    cuts = np.asarray(cuts, dtype=float)
    inside = cuts[(cuts > np.finfo(float).tiny) & (cuts < hi)]
    cuts = np.unique(np.concatenate(([0.0, hi], inside)))
    gaps = np.diff(cuts)
    pieces = np.ceil(gaps / width).astype(int)
    # edge i of a cut interval is lo + i (gap / pieces), the float np.linspace gives
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    steps = (np.arange(first.size) - first) * np.repeat(gaps / pieces, pieces)
    edges = np.append(np.repeat(cuts[:-1], pieces) + steps, cuts[-1])
    lo, span = edges[:-1, None], np.diff(edges)[:, None]

    def level(k):
        nodes, weights = gauss_legendre(k)
        return (lo + span * nodes).ravel(), (span * weights).ravel(), k

    k = 2 * n
    last, value = integral([level(n), level(k)])
    worst = None
    for refine in range(MAX_REFINE + 1):
        if refine:
            k, last = 2 * k, value
            (value,) = integral([level(k)])
        gap = abs(value - last)
        if isinstance(gap, np.ndarray):
            worst = _worst(gap)
            gap = gap[worst]
        if gap <= MIX_TOL:
            return value
    raise _Unresolved(f"{name} rule unresolved: {k // 2} and {k} nodes per piece "
                      f"differ by {gap:.2e}", worst)


def _log(w):
    with np.errstate(divide="ignore"):
        return np.log(w)


# ---------------------------------------------------------------------------
# generic rectangle-weighted expectations
# ---------------------------------------------------------------------------

def expect_on_event(ev: RectEvent, g, w_max: float = math.inf, points=()) -> float:
    """Integral of g(x, s) p_joint(u, x, s) over the rectangle event, further
    restricted to {2s - x <= w_max}.

    g takes the x block as an (m, k) array, one row per s-node, and s as its
    (m, 1) column, so it must broadcast; its factors in s alone then run once
    per s-node, and it may return an (m, 1) array or a scalar.  It may also
    return a stack of H integrands on a leading axis, an (H, m, k) or
    (H, m, 1) array, and the value is then the array of their H integrals on
    the same nodes (a ladder of horizons; ``finite_t_value``).  A block holds
    at most EVENT_BLOCK states across the stack, so g runs
    ceil(m / (EVENT_BLOCK // (H k))) times on a level of m s-nodes.  A g that
    knows its H says so in a ``height`` attribute; otherwise H is read from
    g's first block, which is then sized for H = 1.  The outer
    integral over s runs ``_checked_rule`` from EVENT_NODES nodes per piece
    at most sqrt(u) wide, cut at b, at ``points`` and at the bends of the
    cap: every jump or kink of g in s must be in ``points``.  At k s-nodes
    per piece the inner integral runs Gauss-Legendre nodes in the reflected
    variable w = 2s - x, W_PER_S k of them on a window of length R, so each
    level doubles the nodes in both variables and the gap between levels
    checks the inner rule too.  The inner window has reach R above the
    event's edge w0 = 2s - min(b, s), capped at w_max; a window that w_max
    cuts to a length L < R (its longest, at s = 0) has the same density,
    max(k, ceil(W_PER_S k L / R)) nodes.  Every state beyond it has w >= R,
    so when the nodes with w > R - sqrt(u) carry more than MIX_TOL min(1, A),
    A the absolute mass sum |f| of all nodes, R doubles, at most
    MAX_DOUBLINGS times, and then raises: a g that tilts the mass past the
    window fails loudly instead of returning the window's small share of
    it.  A stack passes the window when every integrand does.
    """
    u, b, c = ev.u, ev.b, ev.c
    if b == -math.inf:
        return 0.0
    root_u = math.sqrt(u)
    pref = math.sqrt(2.0 / (math.pi * u ** 3))
    reach = GAUSS_CUT * root_u
    # the longest window w_max leaves, at s = 0, where w0 = max(-b, 0)
    longest = w_max + min(b, 0.0)
    height = getattr(g, "height", 1)
    band = []

    def integral(levels):
        nonlocal height
        values = []
        for s_all, s_wts, n in levels:
            total = band_mass = abs_mass = 0.0
            n_w = (W_PER_S * n if longest >= reach
                   else max(n, math.ceil(W_PER_S * n * longest / reach)))
            w_nodes, w_weights = gauss_legendre(n_w)
            # one row per s-node: s is a column, so s-only work in g runs once a row;
            # each row's window edge w0, span and weight span s_wt, for the whole level
            s_col = s_all[:, None]
            w0 = 2.0 * s_col - np.minimum(b, s_col)
            span = np.maximum(np.minimum(w0 + reach, w_max) - w0, 0.0)
            row_wts = span * s_wts[:, None]
            i = 0
            while i < s_all.size:
                rows = slice(i, i + max(EVENT_BLOCK // (n_w * height), 1))
                s = s_col[rows]
                w = w0[rows] + span[rows] * w_nodes
                gauss = -w
                gauss *= w
                gauss /= 2.0 * u
                np.exp(gauss, out=gauss)
                f = g(2.0 * s - w, s) * pref * w
                f *= gauss
                f *= row_wts[rows] * w_weights
                i += s.shape[0]
                if f.ndim < 3:
                    total += float(np.sum(f))
                    np.abs(f, out=f)
                    abs_mass += float(np.sum(f))
                    band_mass += float(np.sum(f[w > reach - root_u]))
                    continue
                # a stack: each integrand's sums over its flattened block
                height = f.shape[0]
                total = total + np.sum(f.reshape(height, -1), axis=1)
                np.abs(f, out=f)
                abs_mass = abs_mass + np.sum(f.reshape(height, -1), axis=1)
                band_mass = band_mass + np.sum(f[:, w > reach - root_u], axis=1)
            band.append((band_mass, abs_mass))
            values.append(total)
        return values

    for _ in range(MAX_DOUBLINGS + 1):
        # w = 2s - x >= s on the support, so the cap on w caps s as well
        s_hi = min(c, w_max, (w_max + b) / 2.0,
                   (max(b, 0.0) + reach) / 2.0 if math.isfinite(b) else reach)
        if s_hi <= 0.0:
            return 0.0
        val = _checked_rule("event", s_hi, (b, *points, w_max - reach, (w_max - reach + b) / 2.0),
                            root_u, EVENT_NODES, integral)
        band_mass, abs_mass = band[-1]
        worst = None
        if isinstance(band_mass, np.ndarray):
            # a stack: the integrand furthest past its bound
            worst = _worst(band_mass - MIX_TOL * np.minimum(1.0, abs_mass))
            band_mass, abs_mass = band_mass[worst], abs_mass[worst]
        if band_mass <= MIX_TOL * min(1.0, abs_mass):
            return val
        reach *= 2.0
    raise _Unresolved(f"event window unresolved: {band_mass:.2e} of the integrand's "
                      f"absolute mass {abs_mass:.2e} lies within sqrt(u) of its reach "
                      f"{reach / 2.0:.3g}", worst)
