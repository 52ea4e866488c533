"""Weight-martingale evaluators at a path state (position, running max, time).

Each evaluator is a pure function of the state and its parameters, with unit
value at the origin state.  The kernels (suffix ``_xs``) take scalars or
arrays of states and back the quadrature and Monte Carlo modules.
``m_phi_from_f`` computes the bivariate-penalty martingale from f itself, in
closed form; it is kept apart from ``m_phi_xs(x, s, phi_from_f(f))`` on
purpose, as the other half of an oracle pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ._stable import SQRT_2PI, log_sinhc, sinhc
from .exact_laws import (
    BivariatePenalty,
    DensitySpec,
    ExponentialBivariate,
    Regime,
    TabulatedGrid,
    classify_region,
    fbar,
    kennedy_transforms,
)

__all__ = [
    "m_phi_xs",
    "m_mu_lambda_xs",
    "m_kennedy_xs",
    "m_bar_xs",
    "m_phi_from_f",
    "f1_phi_xs",
    "f1_lambda_phi_xs",
]


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def m_phi_xs(x, s, phi: DensitySpec):
    """phi(S)(S - X) + upper tail of phi at S."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    return phi.pdf(s) * (s - x) + phi.tail(s)


def m_mu_lambda_xs(x, s, u, lam: float, mu: float):
    """Exponential-weight martingale, dispatching on the (lam, mu) regime."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    region = classify_region(lam, mu)
    if region is Regime.R1:
        e = np.exp((lam + mu) * s)
        return -(lam + mu) * e * (s - x) + e
    if region is Regime.R2:
        return np.exp((lam + mu) * x - (lam + mu) ** 2 * u / 2.0)
    # R3: mu < 0 and lam + 2 mu < 0.  With d = s - x the value is
    # e^{(lam+mu) s - mu^2 u/2} ((lam + 2 mu) e^{-mu d} - lam e^{mu d}) / (2 mu),
    # summed without cancellation: for lam > 0 the two terms have one sign, and
    # for lam <= 0 the bracket is e^{-mu d} (1 - lam d exprel(2 mu d)), a sum
    # of nonnegative terms.  e^{-mu d} goes into the common exponent, so a large
    # d cannot overflow on its own.
    d = s - x
    if lam > 0.0:
        bracket = (lam + 2.0 * mu - lam * np.exp(2.0 * mu * d)) / (2.0 * mu)
    else:
        bracket = 1.0 - lam * d * special.exprel(2.0 * mu * d)
    return np.exp((lam + mu) * s - mu ** 2 * u / 2.0 - mu * d) * bracket


def m_kennedy_xs(x, s, u, lam: float, psi: DensitySpec):
    """Kennedy martingale for a shape psi, Laplace-normalized at lam."""
    psi.require_laplace_normalized(lam)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    term1 = psi.pdf(s) * d * sinhc(lam * d)
    term2 = np.exp(lam * x) * psi.laplace_tail(s, lam)
    return (term1 + term2) * np.exp(-(lam ** 2) * u / 2.0)


def m_bar_xs(x, u, lam: float, mu: float):
    """Limit martingale for Bessel(3) penalized by exp(mu X + lam J); x is the
    Bessel position."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("Bessel position must be nonnegative")
    if lam + mu < 0.0 and mu <= 0.0:
        return np.ones_like(x) if x.ndim else 1.0
    if lam >= 0.0 and lam + mu >= 0.0:
        c = lam + mu
    elif lam < 0.0 and mu > 0.0:
        c = mu
    else:
        raise ValueError(f"({lam}, {mu}) is outside the supported branches")
    out = np.exp(-(c ** 2) * u / 2.0 + log_sinhc(np.abs(c) * x))
    return out


def f1_phi_xs(x, s, u, phi: DensitySpec):
    """First-order expansion coefficient for a max-density weight.

    This is the martingale form from the expansion's derivation,
    ((u + m2)/2) M - A1/2 with A1(a, y) = phi(y)(y-a)^3/3 + tail second
    moment around a; it prices the exact 1/t coefficient of the penalized
    rectangle probabilities.  A circulating variant with a cubed tail
    integrand is not a martingale and is not this coefficient.
    """
    if not np.isfinite(phi.moment(5)):
        raise ValueError("f1_phi_xs requires a finite fifth moment of phi")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    m2 = phi.moment(2)
    d = s - x
    a1 = phi.pdf(s) * d ** 3 / 3.0 \
        + phi.tail_moment(2, s) - 2.0 * x * phi.tail_moment(1, s) + x * x * phi.tail_moment(0, s)
    return 0.5 * (u + m2) * m_phi_xs(x, s, phi) - 0.5 * a1


def f1_lambda_phi_xs(x, s, u, lam: float, psi: DensitySpec):
    """First discounted expansion coefficient for the Kennedy weight,
    c (M^{phi1} - M^kappa) / (lam^3 sqrt(2 pi)) with phi1 = (psi - lam T0) / c.

    In psi's tail moments T_k(s) = int_s^inf v^k psi(v) dv,
    c M^{phi1}(x, s) = psi(s)(s - x) + (1 + lam x) T0(s) - lam T1(s),
    exact for every family.
    """
    c = kennedy_transforms(psi, lam)[3]
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    c_m_phi1 = (psi.pdf(s) * (s - x) + (1.0 + lam * x) * psi.tail_moment(0, s)
                - lam * psi.tail_moment(1, s))
    return (c_m_phi1 - c * m_kennedy_xs(x, s, u, lam, psi)) / (lam ** 3 * SQRT_2PI)


# ---------------------------------------------------------------------------
# bivariate-penalty martingale (independent of the phi reduction)
# ---------------------------------------------------------------------------

def m_phi_from_f(x, s, f: BivariatePenalty):
    """Martingale of a bivariate penalty, computed from f itself: f* times the
    integral of (2y - a) f(a + x, s v (y + x)) over {y >= a+}.

    Must agree with m_phi_xs(x, s, phi_from_f(f)); the two routes are kept
    independent on purpose.  Both families integrate in closed form.  For
    f = e^{lam y + mu a} (mu > 0 > nu = lam + mu) and d = s - x, the region
    a <= d, where f is flat in y up to d, gives the first two terms of

        e^{nu s} [(2/lam^2 - d/lam)/mu + (d - 1/lam)/mu^2
                  + 2/(lam^2 |nu|) + (d/|nu| + 1/nu^2)/|lam|],

    and a > d the last two; every term is nonnegative.  A tabulated grid has
    no route of its own.
    """
    if isinstance(f, TabulatedGrid):
        raise TypeError("m_phi_from_f has no route for a TabulatedGrid; "
                        "use m_phi_xs(x, s, phi_from_f(f))")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    total = fbar(f)
    if not 0.0 < total < math.inf:
        raise ValueError("m_phi_from_f requires a finite, positive fbar(f)")
    if isinstance(f, ExponentialBivariate):
        lam, mu = f.lam, f.mu
        nu = lam + mu
        d = s - x
        bracket = ((2.0 / lam ** 2 - d / lam) / mu + (d - 1.0 / lam) / mu ** 2
                   + 2.0 / (lam ** 2 * -nu) + (d / -nu + 1.0 / nu ** 2) / -lam)
        out = np.exp(nu * s) * bracket / total
    else:
        A = f.cutoff
        # (A - x) * integral f1(b) (A - b) db, below the cutoff
        out = np.where(s > A, 0.0, (A - x) * (A * f._prefix(0, A) - f._prefix(1, A)) / total)
    return float(out) if out.ndim == 0 else out
