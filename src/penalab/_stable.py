"""Numerically hardened scalar/array helpers shared across the package.

Everything here is a thin wrapper over scipy.special written so that the
quantities stay finite in the regimes the estimators visit (exponents of
order lambda^2 * t / 2 with t up to ~10^3).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

# Gaussian factors below exp(-GAUSS_CUT^2/2) ~ 1e-19 of the peak are dropped
# when truncating improper integrals.
GAUSS_CUT = 9.3


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / SQRT_2PI


def norm_cdf(z):
    return special.ndtr(z)


def norm_sf(z):
    return special.ndtr(np.negative(z))


def log_norm_cdf(z):
    return special.log_ndtr(z)


def log_norm_sf(z):
    return special.log_ndtr(np.negative(z))


def sinhc(z):
    """sinh(z)/z with the removable singularity filled in.

    The direct quotient has no cancellation, so it is within an ulp of the
    exact value for every |z| below sinh's overflow, however small.
    """
    z = np.asarray(z, dtype=float)
    out = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0.0)
    return float(out) if out.ndim == 0 else out


def log_sinhc(z):
    """log(sinh(z)/z) for z >= 0, safe for very large z."""
    z = np.asarray(z, dtype=float)
    big = z > 30.0
    zb = np.where(big, 1.0, z)
    small_val = np.log(sinhc(zb))
    big_val = z - np.log(2.0 * np.where(big, z, 1.0))
    out = np.where(big, big_val, small_val)
    return float(out) if out.ndim == 0 else out


# Above this the six-term asymptotic series of gauss_tail_e is within 3e-13
# relative; below it the Mills-ratio form loses about alpha^2 ulps.
_TAIL_E_CUT = 30.0


def _tail_e_over_pdf(alpha):
    """(phi(alpha) - alpha Q(alpha)) / phi(alpha) for alpha >= 0.

    1 - alpha R(alpha) with R = Q/phi the Mills ratio (via erfcx, no
    underflow), or its asymptotic series 1/a^2 - 3/a^4 + 15/a^6 - ... beyond
    _TAIL_E_CUT, where the difference cancels; the series is built only
    when some alpha is past the cut.
    """
    big = alpha > _TAIL_E_CUT
    mills = 0.5 * SQRT_2PI * special.erfcx(np.where(big, 1.0, alpha) / np.sqrt(2.0))
    out = 1.0 - alpha * mills
    if not np.any(big):
        return out
    ab = np.where(big, alpha, 100.0)   # masked lanes still need a benign series argument
    inv2 = 1.0 / (ab * ab)
    series = inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2 * (1.0 - 7.0 * inv2 * (
        1.0 - 9.0 * inv2 * (1.0 - 11.0 * inv2)))))
    return np.where(big, series, out)


def gauss_tail_e(alpha):
    """phi(alpha) - alpha * Q(alpha) = integral of the normal survival from alpha.

    Direct evaluation cancels catastrophically for large alpha, so |alpha|
    goes through _tail_e_over_pdf and negative alpha adds -alpha, by the
    parity E(-a) = E(a) + a.
    """
    alpha = np.asarray(alpha, dtype=float)
    mag = np.abs(alpha)
    out = norm_pdf(mag) * _tail_e_over_pdf(mag) + np.maximum(-alpha, 0.0)
    return float(out) if out.ndim == 0 else out


def log_gauss_tail_e(alpha):
    """log(phi(alpha) - alpha*Q(alpha)), stable for alpha -> +inf.

    The two terms of gauss_tail_e are added on the log scale; going through
    the linear value would underflow once alpha^2/2 exceeds ~708.  The second,
    log max(-alpha, 0), is -inf unless some alpha is negative.
    """
    alpha = np.asarray(alpha, dtype=float)
    mag = np.abs(alpha)
    with np.errstate(divide="ignore"):
        out = -0.5 * mag * mag - np.log(SQRT_2PI) + np.log(_tail_e_over_pdf(mag))
        if np.any(alpha < 0.0):
            out = np.logaddexp(out, np.log(np.maximum(-alpha, 0.0)))
    return float(out) if out.ndim == 0 else out


def log_each(v):
    """math.log of a float, or of each element of a (small) array: the libm
    rounding a float gets, so a value stacked over horizons equals its
    float-horizon values bit for bit (np.log rounds a few values in 10^5
    differently)."""
    if np.ndim(v) == 0:
        return math.log(v)
    return np.array([math.log(e) for e in np.ravel(v)]).reshape(np.shape(v))


def two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's product via
    Veltkamp's split), for |a|, |b| below ~1e300 and no underflow."""
    def split(v):
        c = 134217729.0 * v        # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [0, 1]."""
    key = int(n)
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(key)
        _GL_CACHE[key] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[key]


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
