"""Penalty-weight kernels: terminal weights and their exact conditional
expectations given the state (X_u, S_u).

For a weight F_t = f(X_t, S_t) and r = t - u, the conditional kernel is

    g(x, s, r) = E[ f(X_t, S_t) | X_u = x, S_u = s ],

computed in closed form (exponential weights, and Kennedy weights with a
uniform or exponential psi, which are exponential weights), via error
functions (density weights with a uniform or exponential shape), or by the
exact Hermite expansion of ``exact_laws._LinearTable.gauss_tail`` (tabulated
phi and Kennedy psi).  Each kernel formula is written once: a phi kernel's
flat part is phi(s) times the running-max CDF ``exact_laws.h_cdf``, and a
tabulated psi's flat part is the G1 piece of ``log_g_explinear``
(``_log_g1``).  Every ``log_g_*`` returns the full log g, so the exact
finite-horizon law integrates g(., r = t - u) / g(0, 0, t) for any weight;
the large factors (e.g. exp(mu^2 r / 2)) stay on the log scale.
Every kernel takes r as a float or as an array of horizons that broadcasts
against (x, s), e.g. of shape (H, 1, 1) for an (m, k) block, and then
returns the H kernels stacked on the leading axis, each bit for bit its
float-r value.
``g_phi_hat`` is the linear-scale phi kernel without its known factor, and
``g_kennedy_bar`` the Kennedy kernel without e^{lam^2 r/2}, read back from
``log_g_kennedy``.
"""

from __future__ import annotations

import math

import numpy as np

from ._stable import log_each, log_gauss_tail_e, log_norm_cdf, log_norm_sf
from .exact_laws import DensitySpec, h_cdf

__all__ = [
    "g_phi_hat",
    "log_g_phi",
    "log_g_explinear",
    "g_kennedy_bar",
    "log_g_kennedy",
]


def _per_horizon(kernel, r, x, s):
    """The float-r kernels kernel(x, s, r_h) of an array r of shape
    (H, 1, ..., 1), stacked in the shape r broadcasts to with (x, s)."""
    out = np.stack([kernel(x, s, float(v)) for v in np.ravel(r)])
    return out.reshape(np.broadcast_shapes(np.shape(r), out.shape[1:]))


# ---------------------------------------------------------------------------
# phi(S_t) weights
# ---------------------------------------------------------------------------

def g_phi_hat(x, s, r: float, phi: DensitySpec):
    """ghat(x, s, r) with E[phi(S_t) | X_u, S_u] = sqrt(2/(pi r)) ghat.

    ghat = phi(s) * int_0^{s-x} e^{-z^2/2r} dz
           + int_s^inf e^{-(v-x)^2/2r} phi(v) dv.

    The flat part is phi(s) sqrt(pi r/2) P(S_r < s - x), the running-max CDF
    ``h_cdf``, which keeps its relative digits as s - x -> 0.  For a uniform
    phi = C on [0, A] the two parts add up to C sqrt(pi r/2) P(S_r < A - x)
    on s <= A, and 0 above.
    """
    if phi.family == "tabulated" and np.ndim(r):
        # the table's panel count depends on r
        return _per_horizon(lambda x, s, r: g_phi_hat(x, s, r, phi), r, x, s)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    half_line = np.sqrt(0.5 * math.pi * r)     # int_0^inf e^{-z^2/2r} dz
    if phi.family == "uniform":
        A = phi.upper
        return np.where(s <= A, phi.scale * half_line * h_cdf(r, np.maximum(A - x, 0.0)), 0.0)
    if phi.family == "exponential":
        dlt = phi.rate
        sr = np.sqrt(r)
        # log-stable: C e^{-dlt x + dlt^2 r/2} sqrt(2 pi r) Q((s - x + dlt r)/sqrt(r))
        logtail = (math.log(phi.scale) - dlt * x + dlt * dlt * r / 2.0
                   + 0.5 * log_each(2.0 * math.pi * r)
                   + log_norm_sf((s - x + dlt * r) / sr))
        tail = np.exp(logtail)
        phi_s = phi.pdf(s)
    else:
        tail, phi_s = phi._table().gauss_tail(x, s, r)
    return phi_s * half_line * h_cdf(r, s - x) + tail


def _log_times(g, log_factor: float):
    """log(g) + log_factor, -inf where g <= 0."""
    out = np.full(np.shape(g), -np.inf)
    np.log(g, out=out, where=g > 0.0)
    out += log_factor     # a float, or one per horizon of a stack
    return out


def log_g_phi(x, s, r: float, phi: DensitySpec):
    """log E[phi(S_t) | X_u = x, S_u = s], r = t - u."""
    return _log_times(g_phi_hat(x, s, r, phi), 0.5 * log_each(2.0 / (math.pi * r)))


# ---------------------------------------------------------------------------
# exponential weights e^{lam S_t + mu X_t}
# ---------------------------------------------------------------------------

def _log_ndtr_diff(lo, hi):
    """log(Phi(hi) - Phi(lo)) for lo <= hi, without cancellation in either tail."""
    upper = lo + hi > 0.0
    a = np.where(upper, -hi, lo)     # on the upper tail, Q(lo) - Q(hi)
    b = np.where(upper, -lo, hi)
    lb = log_norm_cdf(b)
    with np.errstate(divide="ignore"):
        return lb + np.log1p(-np.exp(log_norm_cdf(a) - lb))


def _log_g1(lead, d, r: float, mu: float):
    """lead + log(Phi(a1) - e^{2 mu d} Q(a2)), a1 = (d - mu r)/sr and
    a2 = (d + mu r)/sr: the log of e^{lead - mu^2 r/2} G1(d) (see
    log_g_explinear), and log Q(a2), which G2 takes too.  G1 is one
    non-negative piece, log Phi(a1) + log(1 - e^{2 mu d} Q(a2)/Phi(a1)): its two
    terms cancel as d -> 0, and they do so before e^{lead} multiplies them."""
    sr = np.sqrt(r)
    log_q = log_norm_sf((d + mu * r) / sr)
    log_p = log_norm_cdf((d - mu * r) / sr)
    # e^{2 mu d} Q / Phi is at most 1, and 1 at d = 0, where G1 = 0 (log -inf);
    # the min keeps its rounding there from going past 1
    with np.errstate(divide="ignore"):
        return lead + log_p + np.log(-np.expm1(np.minimum(2.0 * mu * d + log_q - log_p, 0.0))), log_q


def log_g_explinear(x, s, r: float, lam: float, mu: float, cap: float = math.inf):
    """log E[e^{lam S_t + mu X_t} 1{S_t <= cap} | X_u = x, S_u = s], r = t - u.

    Assembled from signed log-pieces of the two closed forms

        G1(d) = E[e^{mu X_r} 1_{S_r < d}]
              = e^{mu^2 r/2} (Phi((d - mu r)/sr) - e^{2 mu d} Q((d + mu r)/sr)),
        G2(d) = E[e^{lam S_r + mu X_r} 1_{S_r >= d}]
              = 2 (lam+mu)/th e^{(lam+mu)^2 r/2} Q((d - (lam+mu) r)/sr)
                + 2 mu/th e^{th d + mu^2 r/2} Q((d + mu r)/sr),      th = lam + 2 mu,

    as  g = e^{lam s + mu x} G1(s - x) + e^{(lam+mu) x} (G2(s - x) - G2(cap - x));
    the th = 0 diagonal is handled by its analytic limit, and g = 0 (log -inf)
    where s > cap.  G1 is one non-negative piece (``_log_g1``).  In
    G2(s - x) - G2(cap - x) the (lam+mu) terms form one normal interval
    probability: G2(s - x) and G2(cap - x) can each exceed it by a factor
    e^{(lam+mu)^2 r/2}.  The G2 pieces and then G1 are summed after one shift
    by their largest finite log.
    """
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    d = s - x
    sr = np.sqrt(r)
    # log_q is the mu-piece's tail at d and, uncapped on the diagonal, where
    # nu = -mu exactly, the interval's
    g1, log_q = _log_g1(lam * s + mu * x + mu * mu * r / 2.0, d, r, mu)

    th = lam + 2.0 * mu
    nu = lam + mu
    # the capped pieces' upper end; uncapped, nothing reads it
    d_hi = np.maximum(cap - x, d) if math.isfinite(cap) else None
    pieces = []
    if th == 0.0 or nu != 0.0:
        # on the diagonal th = 0 (lam = -2 mu) the coefficient tends to 2
        coef, sign = (abs(2.0 * nu / th), math.copysign(1.0, nu / th)) if th != 0.0 else (2.0, 1.0)
        lo = (d - nu * r) / sr
        # uncapped, the interval is the upper tail from lo (no log Phi(-inf) to add)
        if math.isfinite(cap):
            log_interval = _log_ndtr_diff(lo, (d_hi - nu * r) / sr)
        else:
            log_interval = log_q if th == 0.0 else log_norm_sf(lo)
        pieces.append((nu * x + math.log(coef) + nu * nu * r / 2.0 + log_interval, sign))
    if mu != 0.0:
        for dd, tail, sign in (((d, log_q, 1.0), (d_hi, None, -1.0)) if math.isfinite(cap)
                               else ((d, log_q, 1.0),)):
            if th != 0.0:
                if tail is None:
                    tail = log_norm_sf((dd + mu * r) / sr)
                pieces.append((nu * x + math.log(abs(2.0 * mu / th)) + th * dd + mu * mu * r / 2.0
                               + tail, sign * math.copysign(1.0, mu / th)))
            else:
                pieces.append((nu * x + log_each(2.0 * abs(mu) * sr) + mu * mu * r / 2.0
                               + log_gauss_tail_e((dd + mu * r) / sr), sign * math.copysign(1.0, -mu)))
    pieces.append((g1, 1.0))

    shift = pieces[0][0]
    for lg, _ in pieces[1:]:
        shift = np.maximum(shift, lg)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    total = 0.0
    for lg, sg in pieces:
        total = total + np.exp(lg - shift) if sg > 0.0 else total - np.exp(lg - shift)
    # above the cap the G2 pieces cancel exactly (d_hi = d), leaving G1 >= 0;
    # an exact 0 (log -inf) is the value at x = s = cap
    if np.any(total < 0.0):
        raise FloatingPointError("conditional exponential weight lost positivity")
    with np.errstate(divide="ignore"):
        out = np.log(total) + shift
    return np.where(s > cap, -np.inf, out) if math.isfinite(cap) else out


# ---------------------------------------------------------------------------
# Kennedy weights psi(S_t) e^{lam (S_t - X_t)}
# ---------------------------------------------------------------------------

def log_g_kennedy(x, s, r: float, lam: float, psi: DensitySpec):
    """log E[psi(S_t) e^{lam (S_t - X_t)} | X_u = x, S_u = s], r = t - u.

    A uniform psi = C on [0, A] makes the weight C e^{lam S_t - lam X_t} 1{S_t <= A},
    and psi(y) = C e^{-rho y} makes it C e^{(lam - rho) S_t - lam X_t}: both are
    log C + ``log_g_explinear`` at (lam - rho, -lam), capped at psi's last kink
    (rho = 0 and cap A for the uniform, no cap for the exponential).  A
    tabulated psi splits at d = s - x into

        e^{lam^2 r/2} (psi(s) e^{lam d} int_0^d e^{-2 lam z} hbar(z) dz
                       + int_d^inf e^{-lam z} psi(x + z) hbar(z) dz),
        hbar(z) = 2 lam Q((z - lam r)/sr) + sqrt(2/(pi r)) e^{-(z - lam r)^2/2r}.

    The flat part is psi(s) e^{lam d} (Phi(a) - e^{-2 lam d} Phi(c)),
    a = (lam r + d)/sr and c = (lam r - d)/sr: ``log_g_explinear``'s G1 piece
    at mu = -lam.  The moving part is sqrt(2/(pi r)) times
    ``_LinearTable.gauss_tail`` at lam, joined to it with ``logaddexp``.
    """
    if psi.family != "tabulated":
        return math.log(psi.scale) + log_g_explinear(x, s, r, lam - psi.rate, -lam,
                                                     cap=max(psi.kinks, default=math.inf))
    if np.ndim(r):
        # the table's panel count depends on r
        return _per_horizon(lambda x, s, r: log_g_kennedy(x, s, r, lam, psi), r, x, s)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    tail, psi_s = psi._table().gauss_tail(x, s, r, lam)
    with np.errstate(divide="ignore"):
        flat, _ = _log_g1(np.log(psi_s) + lam * d, d, r, -lam)
    moving = _log_times(tail, 0.5 * math.log(2.0 / (math.pi * r)))
    return np.logaddexp(flat, moving) + lam * lam * r / 2.0


def g_kennedy_bar(x, s, r: float, lam: float, psi: DensitySpec):
    """gbar with E[psi(S_t) e^{lam (S_t - X_t)} | X_u, S_u] = e^{lam^2 r/2} gbar,
    from ``log_g_kennedy``."""
    return np.exp(log_g_kennedy(x, s, r, lam, psi) - lam * lam * r / 2.0)
