"""Numerically hardened scalar/array helpers shared across the package.

Everything here is a thin wrapper over scipy.special written so that the
quantities stay finite in the regimes the estimators visit (exponents of
order lambda^2 * t / 2 with t up to ~10^3).
"""

from __future__ import annotations

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

    Five-term Taylor series below |z| < 1e-4; cancellation-free there and
    accurate to ~1e-32 relative at the switch point.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, z, 0.0)
    z2 = zs * zs
    series = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0 * (1.0 + z2 / 72.0)))
    zb = np.where(small, 1.0, z)
    direct = np.sinh(zb) / zb
    out = np.where(small, series, direct)
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
    _TAIL_E_CUT, where the difference cancels.
    """
    big = alpha > _TAIL_E_CUT
    ab = np.where(big, alpha, 100.0)   # masked lanes still need a benign series argument
    inv2 = 1.0 / (ab * ab)
    series = inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2 * (1.0 - 7.0 * inv2 * (
        1.0 - 9.0 * inv2 * (1.0 - 11.0 * inv2)))))
    mills = 0.5 * SQRT_2PI * special.erfcx(np.where(big, 1.0, alpha) / np.sqrt(2.0))
    return np.where(big, series, 1.0 - alpha * mills)


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
    the linear value would underflow once alpha^2/2 exceeds ~708.
    """
    alpha = np.asarray(alpha, dtype=float)
    mag = np.abs(alpha)
    with np.errstate(divide="ignore"):
        out = np.logaddexp(-0.5 * mag * mag - np.log(SQRT_2PI) + np.log(_tail_e_over_pdf(mag)),
                           np.log(np.maximum(-alpha, 0.0)))
    return float(out) if out.ndim == 0 else out


def logsumexp_signed(logs, signs, axis=0):
    """Signed log-sum-exp; returns (log|sum|, sign(sum)).

    Hand-rolled (rather than scipy's) so that exactly canceling leading terms
    reduce cleanly instead of producing nan.
    """
    logs = np.asarray(logs, dtype=float)
    signs = np.asarray(signs, dtype=float)
    shift = np.max(logs, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    total = np.sum(signs * np.exp(logs - shift), axis=axis)
    sgn = np.sign(total)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(total)) + np.squeeze(shift, axis=axis)
    return out, sgn


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [0, 1]."""
    key = int(n)
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(key)
        _GL_CACHE[key] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[key]


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
