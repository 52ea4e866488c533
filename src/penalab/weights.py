"""Penalty-weight kernels: terminal weights and their exact conditional
expectations given the state (X_u, S_u).

For a weight F_t = f(X_t, S_t) and r = t - u, the conditional kernel is

    g(x, s, r) = E[ f(X_t, S_t) | X_u = x, S_u = s ],

computed in closed form (exponential weights), via error functions (density
and Kennedy weights with a uniform or exponential shape), or by the exact
Hermite expansion of ``exact_laws._LinearTable.gauss_tail`` (tabulated phi
and Kennedy psi).  Every ``log_g_*`` returns the full log g, so the exact
finite-horizon law integrates g(., r = t - u) / g(0, 0, t) for any weight;
the large factors (e.g. exp(mu^2 r / 2)) stay on the log scale.
``g_phi_hat`` and ``g_kennedy_bar`` are the linear-scale kernels without
their known factor.
"""

from __future__ import annotations

import math

import numpy as np

from ._stable import (
    SQRT_2PI,
    log_gauss_tail_e,
    log_norm_cdf,
    log_norm_sf,
    logsumexp_signed,
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


def _g2_log_pieces(x, d, r: float, lam: float, mu: float, cap: float):
    """Signed log-pieces of e^{(lam+mu) x} (G2(d) - G2(cap - x)) (see
    log_g_explinear).  The (lam+mu) terms of the difference form one normal
    interval probability: G2(d) and G2(cap - x) can each exceed it by a factor
    e^{(lam+mu)^2 r/2}."""
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
        log_interval = (_log_ndtr_diff(lo, (d_hi - nu * r) / sr) if math.isfinite(cap)
                        else log_norm_sf(lo))
        pieces.append((nu * x + math.log(coef) + nu * nu * r / 2.0 + log_interval, sign))
    if mu != 0.0:
        for dd, sign in ((d, 1.0), (d_hi, -1.0)) if math.isfinite(cap) else ((d, 1.0),):
            if th != 0.0:
                pieces.append((nu * x + math.log(abs(2.0 * mu / th)) + th * dd + mu * mu * r / 2.0
                               + log_norm_sf((dd + mu * r) / sr), sign * math.copysign(1.0, mu / th)))
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
    where s > cap.
    """
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    d = s - x
    sr = math.sqrt(r)

    base1 = lam * s + mu * x + mu * mu * r / 2.0
    pieces = [(base1 + log_norm_cdf((d - mu * r) / sr), 1.0),
              (base1 + 2.0 * mu * d + log_norm_sf((d + mu * r) / sr), -1.0)]
    pieces += _g2_log_pieces(x, d, r, lam, mu, cap)

    logs = np.stack([np.broadcast_to(lg, d.shape) for lg, _ in pieces])
    signs = np.stack([np.full(d.shape, sg) for _, sg in pieces])
    out, sgn = logsumexp_signed(logs, signs, axis=0)
    above = s > cap
    # an exact 0 (log -inf) is the value at x = s = cap
    if np.any(sgn[~above] < 0.0):
        raise FloatingPointError("conditional exponential weight lost positivity")
    return np.where(above, -np.inf, out)


# ---------------------------------------------------------------------------
# Kennedy weights psi(S_t) e^{lam (S_t - X_t)}
# ---------------------------------------------------------------------------

def g_kennedy_bar(x, s, r: float, lam: float, psi: DensitySpec):
    """gbar with E[psi(S_t) e^{lam (S_t - X_t)} | X_u, S_u] = e^{lam^2 r/2} gbar.

    gbar(x, s, r) = psi(s) e^{lam d} int_0^d e^{-2 lam z} hbar(z) dz
                    + int_d^inf e^{-lam z} psi(x + z) hbar(z) dz,   d = s - x,
    hbar(z) = 2 lam Q((z - lam r)/sr) + sqrt(2/(pi r)) e^{-(z - lam r)^2/2r}.

    Both integrals are normal CDFs by parts (a = (lam r + d)/sr,
    c = (lam r - d)/sr, and kappa = lam + rho for psi(y) = C e^{-rho y}):

        int_0^d e^{-2 lam z} hbar dz = Phi(a) - e^{-2 lam d} Phi(c),
        e^{-lam z} hbar(z) = d/dz [-F(z)],   F(z) = 2 e^{-lam z} Q((z - lam r)/sr),
        int_d^inf e^{-kappa z} hbar dz = (2 lam/kappa) e^{-kappa d} Q(-c)
                                         + (2 rho/kappa) e^{(rho^2 - lam^2) r/2} Q((d + rho r)/sr).

    The flat part is summed as e^{lam d} (Phi(a) - Phi(c)) + 2 sinh(lam d) Phi(c),
    two non-negative terms, so it stays positive as d -> 0.  A tabulated psi's
    moving part is sqrt(2/(pi r)) times ``_LinearTable.gauss_tail`` at lam.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    sr = math.sqrt(r)
    cdf_c = norm_cdf((lam * r - d) / sr)
    interval = np.maximum(norm_cdf((lam * r + d) / sr) - cdf_c, 0.0)
    flat = psi.pdf(s) * (np.exp(lam * d) * interval + 2.0 * np.sinh(lam * d) * cdf_c)

    # Q((d - lam r)/sr) below is Phi(c), the same float, so it reuses cdf_c
    if psi.family == "uniform":
        # F(d) - F(max(A - x, d))
        z = np.maximum(psi.upper - x, d)
        f_top = 2.0 * np.exp(-lam * z) * norm_sf((z - lam * r) / sr)
        moving = psi.scale * np.maximum(2.0 * np.exp(-lam * d) * cdf_c - f_top, 0.0)
    elif psi.family == "exponential":
        rho = psi.rate
        kappa = lam + rho
        moving = psi.scale * np.exp(-rho * x) * (
            2.0 * lam / kappa * np.exp(-kappa * d) * cdf_c
            + np.exp(math.log(2.0 * rho / kappa) + (rho * rho - lam * lam) * r / 2.0
                     + log_norm_sf((d + rho * r) / sr)))
    else:
        moving = math.sqrt(2.0 / (math.pi * r)) * psi._table().gauss_tail(x, s, r, lam)
    return flat + moving


def log_g_kennedy(x, s, r: float, lam: float, psi: DensitySpec):
    """log E[psi(S_t) e^{lam (S_t - X_t)} | X_u = x, S_u = s], r = t - u."""
    return _log_times(g_kennedy_bar(x, s, r, lam, psi), lam * lam * r / 2.0)
