"""Penalty-weight kernels: terminal weights and their exact conditional
expectations given the state (X_u, S_u).

For a weight F_t = f(X_t, S_t) and r = t - u, the conditional kernel is

    g(x, s, r) = E[ f(X_t, S_t) | X_u = x, S_u = s ],

computed in closed form (exponential weights, and Kennedy weights with a
uniform or exponential psi, which are exponential weights), via error
functions (density weights with a uniform or exponential shape), or by the
exact Hermite expansion of ``exact_laws._LinearTable.gauss_tail`` (tabulated
phi and Kennedy psi).  Every ``log_g_*`` returns the full log g, so the exact
finite-horizon law integrates g(., r = t - u) / g(0, 0, t) for any weight;
the large factors (e.g. exp(mu^2 r / 2)) stay on the log scale.
``g_phi_hat`` is the linear-scale phi kernel without its known factor, and
``g_kennedy_bar`` the Kennedy kernel without e^{lam^2 r/2}, read back from
``log_g_kennedy``.
"""

from __future__ import annotations

import math

import numpy as np

from ._stable import (
    SQRT_2PI,
    log_gauss_tail_e,
    log_norm_cdf,
    log_norm_sf,
    norm_cdf,
    norm_sf,
)
from .exact_laws import DensitySpec

__all__ = [
    "g_phi_hat",
    "log_g_phi",
    "log_g_explinear",
    "g_kennedy_bar",
    "log_g_kennedy",
]

# ---------------------------------------------------------------------------
# phi(S_t) weights
# ---------------------------------------------------------------------------

def g_phi_hat(x, s, r: float, phi: DensitySpec):
    """ghat(x, s, r) with E[phi(S_t) | X_u, S_u] = sqrt(2/(pi r)) ghat.

    ghat = phi(s) * int_0^{s-x} e^{-z^2/2r} dz
           + int_s^inf e^{-(v-x)^2/2r} phi(v) dv.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    sr = math.sqrt(r)
    z = d / sr
    flat = phi.pdf(s) * sr * SQRT_2PI * (norm_cdf(z) - 0.5)

    if phi.family == "exponential":
        dlt = phi.rate
        # log-stable: C e^{-dlt x + dlt^2 r/2} sqrt(2 pi r) Q((s - x + dlt r)/sqrt(r))
        logtail = (math.log(phi.scale) - dlt * x + dlt * dlt * r / 2.0
                   + 0.5 * math.log(2.0 * math.pi * r)
                   + log_norm_sf((s - x + dlt * r) / sr))
        tail = np.exp(logtail)
    elif phi.family == "uniform":
        A = phi.upper
        tail = phi.scale * sr * SQRT_2PI * np.maximum(
            norm_sf(z) - norm_sf((A - x) / sr), 0.0)
        tail = np.where(s >= A, 0.0, tail)
    else:
        tail = phi._table().gauss_tail(x, s, r)
    return flat + tail


def _log_times(g, log_factor: float):
    """log(g) + log_factor, -inf where g <= 0."""
    out = np.full(np.shape(g), -np.inf)
    np.log(g, out=out, where=g > 0.0)
    out += log_factor
    return out


def log_g_phi(x, s, r: float, phi: DensitySpec):
    """log E[phi(S_t) | X_u = x, S_u = s], r = t - u."""
    return _log_times(g_phi_hat(x, s, r, phi), 0.5 * math.log(2.0 / (math.pi * r)))


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


def _g2_log_pieces(x, d, r: float, lam: float, mu: float, cap: float, log_q):
    """Signed log-pieces of e^{(lam+mu) x} (G2(d) - G2(cap - x)) (see
    log_g_explinear).  The (lam+mu) terms of the difference form one normal
    interval probability: G2(d) and G2(cap - x) can each exceed it by a factor
    e^{(lam+mu)^2 r/2}.  ``log_q`` is log Q((d + mu r)/sr), which G1 needs
    too; it is the mu-piece's tail at d and, uncapped on the diagonal, where
    nu = -mu exactly, the interval's."""
    sr = math.sqrt(r)
    th = lam + 2.0 * mu
    nu = lam + mu
    d_hi = np.maximum(cap - x, d)
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
                pieces.append((nu * x + math.log(2.0 * abs(mu) * sr) + mu * mu * r / 2.0
                               + log_gauss_tail_e((dd + mu * r) / sr), sign * math.copysign(1.0, -mu)))
    return pieces


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
    where s > cap.  G1 is one non-negative piece, log Phi + log(1 - e^{2 mu d} Q / Phi):
    its two terms cancel as d -> 0, and they do so before e^{lam s + mu x + mu^2 r/2}
    multiplies them.  The G2 pieces and then G1 are summed after one shift by
    their largest finite log.
    """
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    d = s - x
    sr = math.sqrt(r)

    log_q = log_norm_sf((d + mu * r) / sr)
    log_p = log_norm_cdf((d - mu * r) / sr)
    # e^{2 mu d} Q / Phi is at most 1, and 1 at d = 0, where G1 = 0 (log -inf);
    # the min keeps its rounding there from going past 1
    with np.errstate(divide="ignore"):
        g1 = (lam * s + mu * x + mu * mu * r / 2.0 + log_p
              + np.log(-np.expm1(np.minimum(2.0 * mu * d + log_q - log_p, 0.0))))
    pieces = _g2_log_pieces(x, d, r, lam, mu, cap, log_q) + [(g1, 1.0)]

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
    return np.where(s > cap, -np.inf, out)


# ---------------------------------------------------------------------------
# Kennedy weights psi(S_t) e^{lam (S_t - X_t)}
# ---------------------------------------------------------------------------

def log_g_kennedy(x, s, r: float, lam: float, psi: DensitySpec):
    """log E[psi(S_t) e^{lam (S_t - X_t)} | X_u = x, S_u = s], r = t - u.

    A uniform psi on [0, A] makes the weight C e^{lam S_t - lam X_t} 1{S_t <= A},
    and psi(y) = C e^{-rho y} makes it C e^{(lam - rho) S_t - lam X_t}: both are
    ``log_g_explinear``.  A tabulated psi splits at d = s - x into

        e^{lam^2 r/2} (psi(s) e^{lam d} int_0^d e^{-2 lam z} hbar(z) dz
                       + int_d^inf e^{-lam z} psi(x + z) hbar(z) dz),
        hbar(z) = 2 lam Q((z - lam r)/sr) + sqrt(2/(pi r)) e^{-(z - lam r)^2/2r}.

    The flat part is psi(s) e^{lam d} (Phi(a) - Phi(c) - expm1(-2 lam d) Phi(c)),
    a = (lam r + d)/sr and c = (lam r - d)/sr, two non-negative terms kept on
    the log scale with e^{lam d}.  The moving part is sqrt(2/(pi r)) times
    ``_LinearTable.gauss_tail`` at lam, joined to it with ``logaddexp``.
    """
    if psi.family == "uniform":
        return math.log(psi.scale) + log_g_explinear(x, s, r, lam, -lam, cap=psi.upper)
    if psi.family == "exponential":
        return math.log(psi.scale) + log_g_explinear(x, s, r, lam - psi.rate, -lam)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    sr = math.sqrt(r)
    cdf_c = norm_cdf((lam * r - d) / sr)
    interval = np.maximum(norm_cdf((lam * r + d) / sr) - cdf_c, 0.0)
    with np.errstate(divide="ignore"):
        flat = np.log(psi.pdf(s)) + lam * d + np.log(interval - np.expm1(-2.0 * lam * d) * cdf_c)
    moving = _log_times(psi._table().gauss_tail(x, s, r, lam), 0.5 * math.log(2.0 / (math.pi * r)))
    return np.logaddexp(flat, moving) + lam * lam * r / 2.0


def g_kennedy_bar(x, s, r: float, lam: float, psi: DensitySpec):
    """gbar with E[psi(S_t) e^{lam (S_t - X_t)} | X_u, S_u] = e^{lam^2 r/2} gbar,
    from ``log_g_kennedy``."""
    return np.exp(log_g_kennedy(x, s, r, lam, psi) - lam * lam * r / 2.0)
