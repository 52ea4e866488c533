"""Closed-form densities, distribution functions and parameter transforms.

These are the scalar building blocks every other module leans on: the law of
the running maximum of Brownian motion, the joint law of (position, maximum),
the Bessel(3) marginal, the (lambda, mu) regime partition for exponential
weights, and the reductions that turn a bivariate penalty f(a, y) into an
equivalent one-sided-maximum density.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import special

from ._stable import SQRT_2_OVER_PI, SQRT_2PI, gauss_legendre, norm_sf, two_product

__all__ = [
    "DegeneracyError",
    "DensitySpec",
    "Regime",
    "ExponentialBivariate",
    "SeparableIndicator",
    "TabulatedGrid",
    "BivariatePenalty",
    "p_max",
    "h_cdf",
    "p_joint",
    "p_bessel3",
    "classify_region",
    "fbar",
    "phi_from_f",
    "kennedy_transforms",
]


class DegeneracyError(ValueError):
    """Raised when a transform is analytically undefined (e.g. c(lambda, psi) = 0)."""


# ---------------------------------------------------------------------------
# scalar densities
# ---------------------------------------------------------------------------

def p_max(r, z):
    """Density of the running maximum of driftless Brownian motion at time r."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("p_max requires r > 0")
    z = np.asarray(z, dtype=float)
    out = np.where(z > 0.0, SQRT_2_OVER_PI / np.sqrt(r) * np.exp(-z * z / (2.0 * r)), 0.0)
    return float(out) if out.ndim == 0 else out


def h_cdf(r, z):
    """P(S_r < z) for the running maximum; equals erf(z / sqrt(2 r))."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("h_cdf requires r > 0")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("h_cdf requires z >= 0")
    out = special.erf(z / np.sqrt(2.0 * r))
    return float(out) if np.ndim(out) == 0 else out


def p_joint(v, a, y):
    """Joint density of (X_v, S_v) at (a, y); supported on y > max(a, 0)."""
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError("p_joint requires v > 0")
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    w = 2.0 * y - a
    dens = SQRT_2_OVER_PI / v ** 1.5 * w * np.exp(-w * w / (2.0 * v))
    out = np.where(y > np.maximum(a, 0.0), dens, 0.0)
    return float(out) if out.ndim == 0 else out


def p_bessel3(r, z):
    """Marginal density of a Bessel(3) process started at 0, at time r."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("p_bessel3 requires r > 0")
    z = np.asarray(z, dtype=float)
    out = np.where(z > 0.0, SQRT_2_OVER_PI / r ** 1.5 * z * z * np.exp(-z * z / (2.0 * r)), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# regime partition for exponential weights
# ---------------------------------------------------------------------------

class Regime(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"


def classify_region(lam: float, mu: float) -> Regime:
    """Classify (lambda, mu) into the three-way partition of the plane.

    Boundary membership follows the literal inequalities; the three sets are
    disjoint and cover every input.
    """
    if lam + mu < 0.0 and mu >= 0.0:
        return Regime.R1
    if lam + 2.0 * mu >= 0.0 and lam + mu >= 0.0:
        return Regime.R2
    if lam + 2.0 * mu < 0.0 and mu < 0.0:
        return Regime.R3
    raise AssertionError(f"unclassifiable point ({lam}, {mu}); the partition should be exhaustive")


# ---------------------------------------------------------------------------
# densities on [0, inf)
# ---------------------------------------------------------------------------

# most terms of the Hermite expansion in ``_LinearTable.gauss_tail``, on
# panels at most sqrt(r / 2) wide (the truncation bound is in its docstring)
HERMITE_TERMS = 30


def _hermite_terms(sigma: float, lam_half: float = 0.0) -> int:
    """The fewest terms n of ``_hermite_sum`` whose first dropped term's bound
    is no larger than HERMITE_TERMS terms give at sigma = 1/4 and
    lam_half = 1: Cramer's 2^{n/2} sigma^n / sqrt(n!) for the Gaussian terms
    and, for lam > 0, lam_half^n / n! for the j terms (see
    ``_LinearTable.gauss_tail``), compared on the log scale."""
    def log_bound(n, base, root):
        return n * math.log(base) - root * math.lgamma(n + 1) if base > 0.0 else -math.inf

    cap_g = log_bound(HERMITE_TERMS, math.sqrt(2.0) / 4.0, 0.5)
    cap_j = log_bound(HERMITE_TERMS, 1.0, 1.0)
    for n in range(1, HERMITE_TERMS):
        if (log_bound(n, math.sqrt(2.0) * sigma, 0.5) <= cap_g
                and log_bound(n, lam_half, 1.0) <= cap_j):
            return n
    return HERMITE_TERMS


def _centred_moments(half, mean, slope, terms: int):
    """Integrals of (mean + slope u / half) u^n / n! over [-half, half] for
    n < terms: 2 half^{n+1} / n! times mean / (n + 1) for even n and
    slope / (n + 2) for odd n, so only the linear function's end values
    (mean +- slope) enter."""
    out = []
    power = 2.0 * half
    for n in range(terms):
        out.append(power * (mean / (n + 1) if n % 2 == 0 else slope / (n + 2)))
        power = power * (half / (n + 1))
    return out


def _hermite_sum(diff, coef, r: float, lam: float = 0.0):
    """Sum over n of coef[n] k_n, k_n the n-th derivative at z = -diff of
    k(z) = e^{-lam^2 r/2} e^{-z^2/2r} + j(z), j(z) = lam sqrt(2 pi r) e^{-lam z}
    Q((z - lam r)/sqrt(r)).  The Gaussian's are scale^n h_n(t), scale =
    (2r)^{-1/2} and t = diff scale, with the Hermite functions
    h_n(t) = (-d/dt)^n e^{-t^2} from h_{n+1} = 2t h_n - 2n h_{n-1}; and
    j' = -lam k gives j_{n+1} = -lam k_n."""
    scale = 1.0 / math.sqrt(2.0 * r)
    t = diff * scale
    a = 2.0 * scale * t
    b = 2.0 * scale * scale
    h_prev, h = 0.0, np.exp(-0.5 * lam * lam * r - t * t)
    if lam > 0.0:
        j = lam * SQRT_2PI * math.sqrt(r) * np.exp(lam * diff) * norm_sf((-diff - lam * r) / math.sqrt(r))
    acc = 0.0
    for n, c in enumerate(coef):
        if lam > 0.0:
            j += h              # k_n
            acc += c * j
            j *= -lam           # j_{n+1}
        else:
            acc += c * h
        h_prev, h = h, a * h - (b * n) * h_prev
    return acc


def _segment_integral(k: int, lam: float, lo, hi, f_lo, f_hi, centre=None):
    """Integral of v^k e^{-lam v} f(v) over [lo, hi], f linear from f_lo to
    f_hi (exact, vectorized; k = 0 when lam != 0), or of (v - centre)^k f(v)
    with a ``centre``.  Both end values get nonnegative weights, so no digits
    cancel however narrow the segment: Gauss-Legendre on (k + 3) // 2 nodes,
    or 1F1(1; 3; -c) / 2 and 1F1(2; 3; -c) / 2 at c = lam h.  The centre
    moves the nodes, not the ends, so a narrow segment keeps its width
    exactly.
    """
    h = hi - lo
    if lam == 0.0:
        start = lo if centre is None else lo - centre
        total = 0.0
        for t, w in zip(*gauss_legendre((k + 3) // 2)):
            total = total + w * (h * t + start) ** k * (f_lo * (1.0 - t) + f_hi * t)
        return h * total
    c = lam * h
    return 0.5 * h * np.exp(-lam * lo) * (f_lo * special.hyp1f1(1.0, 3.0, -c)
                                          + f_hi * special.hyp1f1(2.0, 3.0, -c))


class _KnotLocator:
    """np.searchsorted(knots, y, side="right") for every float y, in O(1)
    expected vector passes for a table's increasing knots.

    The span is cut into as many equal buckets as there are knots, and the
    bucket number b(y) = floor((y - knots[0]) n / span), y clipped to the
    span and b to the buckets (NaN to the last), is computed the same way
    for the knots and for y.  Floating-point subtraction and multiplication
    round monotonically, so b is non-decreasing in y whatever its rounding:
    every knot in an earlier bucket than y is <= y, every knot in a later
    one is > y, and the answer is the bucket's first knot index plus a count
    over the bucket's own knots.  That count is a branchless binary search,
    one vector pass per halving of the fullest bucket (1-2 on a uniform
    grid, log2 n on a grid that crowds into one bucket); past the last knot
    it reads +inf, which only y = +inf or NaN passes, and those clamp to n.

    Below about a thousand states np.searchsorted itself is the cheaper: the
    bucket search costs about 10 us a call whatever its size, and
    np.searchsorted about 10 ns a sorted state and 60 ns a random one on a
    301-knot table.  So a call with fewer than 1024 states goes to
    np.searchsorted, and the buckets are laid out on the first larger one.
    """

    def __init__(self, knots: np.ndarray):
        self.knots = knots
        self._lo, self._hi = knots[0], knots[-1]
        self._scale = knots.size / (knots[-1] - knots[0])

    def __call__(self, y):
        if np.size(y) < 1024:
            return np.searchsorted(self.knots, y, side="right")
        return self._search(y)

    @functools.cached_property
    def _layout(self):
        """Each bucket's first knot index (n at the end), the steps of the
        binary search and the knots padded with +inf for its overshoot."""
        start = np.searchsorted(self._bucket(self.knots), np.arange(self.knots.size + 1))
        depth = int(np.max(np.diff(start))).bit_length()
        return (start, [1 << k for k in reversed(range(depth))],
                np.concatenate((self.knots, np.full(1 << depth, np.inf))))

    def _bucket(self, y):
        # clipped first, so nothing overflows; fmin sends NaN to the last bucket
        return np.fmin((np.clip(y, self._lo, self._hi) - self._lo) * self._scale,
                       self.knots.size - 1).astype(np.intp)

    def _search(self, y):
        start, steps, padded = self._layout
        pos = start[self._bucket(y)]
        for step in steps:
            ahead = pos + step
            pos = np.where(y < padded[ahead - 1], pos, ahead)
        return np.minimum(pos, self.knots.size)


def _clip_to_segment(grid, values, y, locate):
    """y clipped to the table, the index j of the knot that ends its segment,
    and the table's value there from the distances to both knots (exact at a
    knot, accurate near a zero).  ``locate`` is the grid's ``_KnotLocator``."""
    yc = np.clip(y, grid[0], grid[-1])
    j = np.minimum(locate(yc), grid.size - 1)
    lo, hi = grid[j - 1], grid[j]
    return yc, j, values[j - 1] * ((hi - yc) / (hi - lo)) + values[j] * ((yc - lo) / (hi - lo))


class _LinearTable:
    """Exact integrals of the piecewise-linear t through (grid, values): that of
    v^k e^{-lam v} t(v) from y to the table's end is the partial segment at y
    plus a suffix sum over whole segments, cached per (k, lam).  The segment
    at y is found by a ``_KnotLocator``: one for the grid, and one with each
    ``_panels(count)`` for its knots."""

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        self.grid = grid
        self.values = values
        self._locate = _KnotLocator(grid)
        self._suffix = {}
        self._hermite = {}

    def suffix(self, k: int = 0, lam: float = 0.0) -> np.ndarray:
        """Integrals of v^k e^{-lam v} t(v) from each knot to the table's end."""
        key = (k, lam)
        if key not in self._suffix:
            g, v = self.grid, self.values
            seg = _segment_integral(k, lam, g[:-1], g[1:], v[:-1], v[1:])
            self._suffix[key] = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        return self._suffix[key]

    def tail(self, y, k: int = 0, lam: float = 0.0):
        """Integral of v^k e^{-lam v} t(v) over [y, grid end], y clipped to the table."""
        yc, j, t_y = _clip_to_segment(self.grid, self.values, y, self._locate)
        return (_segment_integral(k, lam, yc, self.grid[j], t_y, self.values[j])
                + self.suffix(k, lam)[j])

    def _panels(self, count: int):
        """The table cut into ``count`` equal panels, cached per count: the
        knots with the panel edges added, their values, the panel centres,
        the panel of the segment after each knot (count at the last knot),
        the moments of t(v) (v - c)^n / n! (n < HERMITE_TERMS) from each
        knot to the end of its panel, c that panel's centre, and the moments
        of whole panels."""
        if count not in self._hermite:
            edges = np.linspace(self.grid[0], self.grid[-1], count + 1)
            knots = np.union1d(self.grid, edges)
            vals = np.interp(knots, self.grid, self.values)
            centres = 0.5 * (edges[:-1] + edges[1:])
            pan = np.minimum(np.searchsorted(edges, knots, side="right") - 1, count)
            c = centres[pan[:-1]]
            seg = np.stack([_segment_integral(n, 0.0, knots[:-1], knots[1:], vals[:-1],
                                              vals[1:], c) / math.factorial(n)
                            for n in range(HERMITE_TERMS)], axis=1)
            mom = np.zeros((HERMITE_TERMS, knots.size))
            first = np.searchsorted(knots, edges)
            for k in range(count):
                a, b = first[k], first[k + 1]
                mom[:, a:b] = np.cumsum(seg[a:b][::-1], axis=0)[::-1].T
            self._hermite[count] = (knots, vals, centres, pan, mom, mom[:, first[:-1]],
                                    _KnotLocator(knots))
        return self._hermite[count]

    def gauss_tail(self, x, y, r: float, lam: float = 0.0):
        """Integral of t(v) k(v - x) over [y, grid end], y clipped to the
        table, for x <= y: k(z) = e^{-z^2/2r} at lam = 0, and for lam > 0 the
        Kennedy kernel of ``_hermite_sum``.  This is the Hermite expansion of
        the fast Gauss transform (Greengard & Strain, SIAM J. Sci. Stat.
        Comput. 12, 1991).

        The table is cut into P equal panels at most sqrt(r / 2) wide, and
        2 / lam for lam > 0.  With c a panel's centre, t = (x - c)/sqrt(2r)
        and sigma = (v - c)/sqrt(2r), so that |sigma| <= 1/4 on the panel,
        e^{-(v - x)^2 / 2r} = e^{-(t - sigma)^2} = sum_n h_n(t) sigma^n / n!,
        and a panel contributes the derivatives of k at c - x contracted with
        its exact moments of t(v) (v - c)^n / n!: from the first knot above y
        to the panel's end (cached per P), and for the segment at y, which
        lies in one panel, about its own midpoint (``_centred_moments``).
        Cramer's inequality |h_n(t)| <= 1.09 2^{n/2} sqrt(n!) e^{-t^2/2}
        bounds the n-th Gaussian term by 1.09 2^{n/2} sigma^n / sqrt(n!)
        e^{-t^2/2} times the mass expanded, sigma the largest |sigma|.  The
        segment at y and the panels each take the fewest terms N whose first
        dropped term's bound, and for lam > 0 that of the j terms below, is
        no larger than HERMITE_TERMS = 30 terms give at sigma = 1/4 and
        lam |v - c| = 1 (``_hermite_terms``): at r = 7 to 127, 8-9 on the
        segment of a 301-knot table 1.5 wide and 19-28 on its one panel.
        The Gaussian terms from n = N on then sum to under
        2.0e-30 e^{-t^2/2} times the mass expanded, which contributes at least
        e^{-(|t| + 1/4)^2} times itself: below 1e-13 relative wherever
        |t| <= 8.3 (the tail above ~2.5e-32 of the mass it comes from); past
        that, the far field, relative digits go.  For lam > 0, lam |v - c| <= 1,
        and unrolling j_{n+1} = -lam k_n bounds the j terms from n = N on by
        3.9e-33 j(c - x) plus 1.7e-24 e^{-lam^2 r/2} e^{-t^2/2} times the mass
        expanded, below 1e-13 of the Gaussian part wherever |t| <= 6.6.  As
        k(z) = e^{-lam z} (e^{-w^2/2} + lam sqrt(2 pi r) Q(w)), w = (z - lam r)
        / sqrt(r), panels past w = 38 (z from the first knot above y) add under
        e^{-700} e^{lam x} times the integral of t(v) e^{-lam v}, whatever t
        is: they are left out.  The sum is clamped at >= 0.

        Returns the integral and t(y), the table's value at y that the
        segment at y starts from (0 outside the table), in the shape of y:
        the kernels' flat parts take phi(s) or psi(s) from it.
        """
        if lam < 0.0:
            raise ValueError("the table kernels need lam >= 0")
        # not broadcast: an s-column y keeps the work in y alone once per row
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        width = min(math.sqrt(0.5 * r), 2.0 / lam if lam > 0.0 else math.inf)
        span = self.grid[-1] - self.grid[0]
        count = max(1, math.ceil(span / width))
        knots, vals, centres, pan, mom, whole, locate = self._panels(count)
        yc, j, t_y = _clip_to_segment(knots, vals, y, locate)
        if lam > 0.0:
            x = np.minimum(x, yc)   # the integral is empty past the end; e^{-lam (c - x)} <= e
        # the segment at y, expanded about its midpoint
        half = 0.5 * (knots[j] - yc)
        widest = float(np.max(half, initial=0.0))
        terms = _hermite_terms(widest / math.sqrt(2.0 * r), lam * widest)
        out = _hermite_sum(x - yc - half,
                           _centred_moments(half, 0.5 * (vals[j] + t_y), 0.5 * (vals[j] - t_y), terms),
                           r, lam)
        # from the next knot j: the rest of its panel, then whole panels up to
        # lam r + 55 sqrt(r / 2) above it (55 panels at lam = 0)
        half_panel = 0.5 * span / count
        terms = _hermite_terms(half_panel / math.sqrt(2.0 * r), lam * half_panel)
        own = np.minimum(pan[j], count - 1)
        out += _hermite_sum(x - centres[own], mom[:terms, j], r, lam)
        reach = 55 if lam == 0.0 else math.ceil((lam * r + 55.0 * math.sqrt(0.5 * r)) * count / span)
        for m in range(1, min(count, reach + 1)):
            k = np.minimum(pan[j] + m, count - 1)
            out += _hermite_sum(x - centres[k], whole[:terms, k] * (pan[j] + m < count), r, lam)
        return np.maximum(out, 0.0), np.where(yc == y, t_y, 0.0)


@dataclass
class DensitySpec:
    """A density on [0, inf) from a closed-form family or a tabulation.

    ``laplace_lambda is None`` means the usual unit-total-mass normalization.
    Otherwise the curve is scaled so that the integral of pdf(z) e^{-lambda z}
    equals one, the normalization the Kennedy-weight machinery expects (the
    shape is unchanged, only the prefactor moves).

    Instances are treated as immutable; nothing mutates them after
    construction apart from internal caches.
    """

    family: str
    rate: float = 0.0
    upper: float = 0.0
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    scale: float = 1.0
    laplace_lambda: float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exponential(rate: float, laplace_lambda: float | None = None) -> "DensitySpec":
        if rate <= 0.0:
            raise ValueError("exponential rate must be positive")
        if laplace_lambda is None:
            scale = rate
        else:
            if rate + laplace_lambda <= 0.0:
                raise ValueError("Laplace-weighted mass diverges for rate + lambda <= 0")
            scale = rate + laplace_lambda
        return DensitySpec("exponential", rate=rate, scale=scale, laplace_lambda=laplace_lambda)

    @staticmethod
    def uniform(upper: float, laplace_lambda: float | None = None) -> "DensitySpec":
        if upper <= 0.0:
            raise ValueError("uniform upper bound must be positive")
        if laplace_lambda is None or laplace_lambda == 0.0:
            scale = 1.0 / upper
        else:
            lam = laplace_lambda
            scale = lam / (1.0 - math.exp(-lam * upper))
        return DensitySpec("uniform", upper=upper, scale=scale, laplace_lambda=laplace_lambda)

    @staticmethod
    def tabulated(grid, values, laplace_lambda: float | None = None) -> "DensitySpec":
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("tabulated density needs matching 1-d grid/values with >= 2 knots")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("tabulated grid must be strictly increasing")
        if grid[0] < 0.0:
            raise ValueError("tabulated grid must live on [0, inf)")
        if np.any(values < 0.0):
            raise ValueError("tabulated density values must be nonnegative")
        mass = _LinearTable(grid, values).suffix(0, laplace_lambda or 0.0)[0]
        if mass <= 0.0:
            raise ValueError("tabulated density has zero mass")
        return DensitySpec("tabulated", grid=grid, values=values / mass,
                           upper=float(grid[-1]), laplace_lambda=laplace_lambda)

    def _table(self) -> _LinearTable:
        if "table" not in self._cache:
            self._cache["table"] = _LinearTable(self.grid, self.values)
        return self._cache["table"]

    # -- evaluation ----------------------------------------------------------

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        if self.family == "exponential":
            out = np.where(y >= 0.0, self.scale * np.exp(-self.rate * np.maximum(y, 0.0)), 0.0)
        elif self.family == "uniform":
            out = np.where((y >= 0.0) & (y <= self.upper), self.scale, 0.0)
        else:
            out = np.interp(y, self.grid, self.values, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    def mass(self) -> float:
        """Raw total mass (1 under the unit-mass normalization)."""
        if self.family == "exponential":
            return self.scale / self.rate
        if self.family == "uniform":
            return self.scale * self.upper
        return float(self._table().suffix()[0])

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = self.mass() - self.tail_moment(0, y)
        out = np.where(y < 0.0, 0.0, out)
        return float(out) if np.ndim(out) == 0 else out

    def tail(self, y):
        """Raw upper-tail mass from y."""
        return self.tail_moment(0, y)

    def moment(self, k: int) -> float:
        """Raw integral of y^k pdf(y)."""
        return float(self.tail_moment(k, 0.0))

    def tail_moment(self, k: int, y):
        """Integral of v^k pdf(v) over [max(y, 0), inf), exact per family."""
        y = np.asarray(y, dtype=float)
        yc = np.maximum(y, 0.0)
        if self.family == "exponential":
            # C e^{-rho y} sum_{i <= k} k!/i! y^i / rho^{k+1-i}, by Horner in y:
            # every term is positive, so nothing cancels
            rho = self.rate
            # e^{-rho y} underflows past rho y = 746, so clipping y there keeps
            # the moment 0 and y^k finite
            yc = np.minimum(yc, 746.0 / rho)
            poly = 1.0 / rho
            for i in range(k - 1, -1, -1):
                poly = poly * yc + math.factorial(k) // math.factorial(i) / rho ** (k + 1 - i)
            # e^{-rho y} = e^{-p} (1 - e) from rho y = p + e: e^{-p} alone is off
            # by rho y ulps
            prod, err = two_product(rho, yc)
            out = self.scale * np.exp(-prod) * (1.0 - err) * poly
        elif self.family == "uniform":
            yc2 = np.minimum(yc, self.upper)
            out = self.scale * (self.upper ** (k + 1) - yc2 ** (k + 1)) / (k + 1)
        else:
            out = self._table().tail(yc, k)
        return float(out) if np.ndim(out) == 0 else out

    def laplace_mass(self, lam: float) -> float:
        """Raw integral of pdf(z) e^{-lam z}."""
        return float(self.laplace_tail(0.0, lam))

    def require_laplace_normalized(self, lam: float) -> None:
        """Raise ValueError unless pdf(z) e^{-lam z} has unit mass within 1e-6."""
        norm = self.laplace_mass(lam)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"psi is not Laplace-normalized for lam={lam}: mass {norm}")

    def laplace_tail(self, y, lam: float):
        """Integral of pdf(z) e^{-lam z} over [max(y, 0), inf)."""
        y = np.asarray(y, dtype=float)
        yc = np.maximum(y, 0.0)
        if self.family == "exponential":
            d = self.rate + lam
            if d <= 0.0:
                raise ValueError("Laplace tail diverges: rate + lam <= 0")
            out = self.scale * np.exp(-d * yc) / d
        elif self.family == "uniform":
            yc2 = np.minimum(yc, self.upper)
            if lam == 0.0:
                out = self.scale * (self.upper - yc2)
            else:
                out = self.scale * (np.exp(-lam * yc2) - math.exp(-lam * self.upper)) / lam
        else:
            out = self._table().tail(yc, 0, lam)
        return float(out) if np.ndim(out) == 0 else out

    def ppf(self, q):
        """Inverse CDF under the unit-mass normalization, whose mass may be 1 + ulp."""
        if self.laplace_lambda is not None:
            raise ValueError("ppf requires the unit-mass normalization")
        q = np.asarray(q, dtype=float)
        if np.any((q < 0.0) | (q > max(1.0, self.mass()))):
            raise ValueError("quantile levels must lie in [0, 1]")
        if self.family == "exponential":
            out = -np.log1p(-np.minimum(q, 1.0 - 1e-16)) / self.rate
        elif self.family == "uniform":
            out = q * self.upper
        else:
            g = self.grid
            tails = self._table().suffix()
            kc = tails[0] - tails
            qc = np.clip(q, 0.0, kc[-1])
            idx = np.clip(np.searchsorted(kc, qc, side="right") - 1, 0, g.size - 2)
            v0 = self.values[idx]
            width = g[idx + 1] - g[idx]
            slope = (self.values[idx + 1] - v0) / width
            resid = qc - kc[idx]
            # the root of v0 s + slope s^2 / 2 = resid in its cancellation-free
            # form; only a zero-mass segment (v0 = disc = 0) maps to s = 0
            root = v0 + np.sqrt(np.maximum(v0 * v0 + 2.0 * slope * resid, 0.0))
            s = np.divide(2.0 * resid, root, out=np.zeros_like(root), where=root > 0.0)
            out = g[idx] + np.clip(s, 0.0, width)
        return float(out) if out.ndim == 0 else out

    @property
    def kinks(self):
        """Where pdf jumps or bends: a table's knots, a uniform's end, none
        for an exponential."""
        if self.family == "exponential":
            return ()
        if self.family == "uniform":
            return (self.upper,)
        return self.grid

    def effective_upper(self, eps: float = 1e-12) -> float:
        """Upper truncation point: tail mass beyond it is below eps."""
        if self.family == "exponential":
            return max(-math.log(eps / max(self.mass(), eps)) / self.rate, 1.0)
        return self.upper


# ---------------------------------------------------------------------------
# bivariate penalties f(a, y) on {y >= max(a, 0)}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialBivariate:
    """f(a, y) = exp(lam * y + mu * a)."""

    lam: float
    mu: float

    def evaluate(self, a, y):
        a = np.asarray(a, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < np.maximum(a, 0.0)):
            raise ValueError("f(a, y) evaluated outside {y >= max(a, 0)}")
        out = np.exp(self.lam * y + self.mu * a)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SeparableIndicator:
    """f(a, y) = f1(a) * 1_{[0, A]}(y), with f1 tabulated on (-inf, A].

    Construction builds the exact CDF of the a-marginal (A - a) f1(a) once,
    at 8193 points (``_a_cdf``, the points and the CDF, normalized when the
    mass is positive); the pair draws read it.
    """

    f1_grid: np.ndarray
    f1_values: np.ndarray
    cutoff: float

    def __post_init__(self):
        g = np.asarray(self.f1_grid, dtype=float)
        v = np.asarray(self.f1_values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("f1 needs matching 1-d grid/values")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("f1 grid must be strictly increasing")
        if np.any(v < 0.0):
            raise ValueError("f1 must be nonnegative")
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        if g[-1] > self.cutoff + 1e-12:
            raise ValueError("f1 is only defined on (-inf, cutoff]")
        object.__setattr__(self, "f1_grid", g)
        object.__setattr__(self, "f1_values", v)
        object.__setattr__(self, "_table", _LinearTable(g, v))
        fine = np.linspace(g[0], g[-1], 8193)
        cdf = self.cutoff * self._prefix(0, fine) - self._prefix(1, fine)
        if cdf[-1] > 0.0:
            cdf /= cdf[-1]
        object.__setattr__(self, "_a_cdf", (fine, cdf))

    def f1(self, a):
        return np.interp(a, self.f1_grid, self.f1_values, left=0.0, right=0.0)

    def _prefix(self, k: int, x):
        """Integral of a^k f1(a) over (-inf, min(x, grid end)], exact."""
        out = self._table.suffix(k)[0] - self._table.tail(x, k)
        return float(out) if np.ndim(out) == 0 else out

    def evaluate(self, a, y):
        a = np.asarray(a, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < np.maximum(a, 0.0)):
            raise ValueError("f(a, y) evaluated outside {y >= max(a, 0)}")
        out = np.where(y <= self.cutoff, self.f1(a), 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TabulatedGrid:
    """f tabulated on a rectangular (a, y) grid, bilinear inside, 0 outside.

    Construction builds the exact cell moments once (``_cells``, the tuple of
    ``_tabgrid_cell_moments``); ``fbar``, ``phi_from_f`` and the pair draws
    all read them.
    """

    a_grid: np.ndarray
    y_grid: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_grid, dtype=float)
        y = np.asarray(self.y_grid, dtype=float)
        t = np.asarray(self.table, dtype=float)
        if t.shape != (a.size, y.size):
            raise ValueError("table shape must be (len(a_grid), len(y_grid))")
        if np.any(np.diff(a) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grids must be strictly increasing")
        if np.any(t < 0.0):
            raise ValueError("f must be nonnegative")
        object.__setattr__(self, "a_grid", a)
        object.__setattr__(self, "y_grid", y)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "_cells", _tabgrid_cell_moments(self))

    def _bilinear(self, a, y):
        a = np.asarray(a, dtype=float)
        y = np.asarray(y, dtype=float)
        ai = np.clip(np.searchsorted(self.a_grid, a) - 1, 0, self.a_grid.size - 2)
        yi = np.clip(np.searchsorted(self.y_grid, y) - 1, 0, self.y_grid.size - 2)
        fa = np.clip((a - self.a_grid[ai]) / (self.a_grid[ai + 1] - self.a_grid[ai]), 0.0, 1.0)
        fy = np.clip((y - self.y_grid[yi]) / (self.y_grid[yi + 1] - self.y_grid[yi]), 0.0, 1.0)
        t = self.table
        val = ((1 - fa) * (1 - fy) * t[ai, yi] + fa * (1 - fy) * t[ai + 1, yi]
               + (1 - fa) * fy * t[ai, yi + 1] + fa * fy * t[ai + 1, yi + 1])
        inside = ((a >= self.a_grid[0]) & (a <= self.a_grid[-1])
                  & (y >= self.y_grid[0]) & (y <= self.y_grid[-1]))
        return np.where(inside, val, 0.0)

    def evaluate(self, a, y):
        a = np.asarray(a, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < np.maximum(a, 0.0)):
            raise ValueError("f(a, y) evaluated outside {y >= max(a, 0)}")
        out = self._bilinear(a, y)
        return float(out) if np.ndim(out) == 0 else out


BivariatePenalty = ExponentialBivariate | SeparableIndicator | TabulatedGrid


def fbar(f: BivariatePenalty) -> float:
    """Weighted total mass of f: integral of (2y - a) f(a, y) over {y >= a+}.

    Returns math.inf when the finiteness criterion fails.
    """
    if isinstance(f, ExponentialBivariate):
        if not (f.mu > 0.0 and f.lam + f.mu < 0.0):
            return math.inf
        beta = -(f.lam + f.mu)
        return (1.0 / f.mu ** 2) * (1.0 / beta) * (1.0 + f.mu / beta)
    if isinstance(f, SeparableIndicator):
        A = f.cutoff
        # A * integral (A - a) f1(a) da, exact on the tabulation
        return float(A * (A * f._prefix(0, A) - f._prefix(1, A)))
    if isinstance(f, TabulatedGrid):
        _, ma, my, _, _ = f._cells
        return float(np.sum(2.0 * my - ma))
    raise TypeError(f"unsupported penalty type {type(f)!r}")


# y-refinement of a TabulatedGrid: the cell moments are exact at any refinement
_Y_REFINE = 32


def _tabgrid_cell_moments(f: TabulatedGrid):
    """Per-cell integrals of f, a*f and eta*f over {eta >= max(a, 0)}.

    Exact for the bilinear interpolant on every cell.  On a cell that straddles
    the support boundary the eta-integrals run from the boundary, on the
    shared segment rule, and the a-integrals use 3-node Gauss-Legendre on the
    pieces where the boundary is linear, which is exact for the degree-4
    polynomials they integrate.  The y-grid is refined _Y_REFINE-fold,
    keeping the original knots (which reproduces the interpolant exactly), so
    downstream tabulations are dense.  ``TabulatedGrid`` runs this once, at
    construction; 2 my - ma is the exact mass of (2 eta - a) f on each refined
    cell, also on the cells the boundary cuts, and picks the cell of a pair
    draw.
    """
    a, y = f.a_grid, f.y_grid
    yr = np.unique(np.concatenate([
        np.linspace(y[j], y[j + 1], _Y_REFINE + 1) for j in range(y.size - 1)]))
    table = np.vstack([np.interp(yr, y, f.table[i]) for i in range(a.size)])

    a0 = a[:-1][:, None]
    da = np.diff(a)[:, None]
    y0 = yr[:-1][None, :]
    dy = np.diff(yr)[None, :]
    F00 = table[:-1, :-1]
    F10 = table[1:, :-1]
    F01 = table[:-1, 1:]
    F11 = table[1:, 1:]

    area = da * dy
    m0 = area * (F00 + F10 + F01 + F11) / 4.0
    alpha0 = a0 / 2.0 + da / 6.0
    alpha1 = a0 / 2.0 + da / 3.0
    ma = area * (alpha0 * (F00 + F01) + alpha1 * (F10 + F11)) / 2.0
    beta0 = y0 / 2.0 + dy / 6.0
    beta1 = y0 / 2.0 + dy / 3.0
    my = area * (beta0 * (F00 + F10) + beta1 * (F01 + F11)) / 2.0

    a_hi = a[1:][:, None]
    y_hi = yr[1:][None, :]
    supported = y0 >= np.maximum(a_hi, 0.0)
    empty = y_hi <= np.maximum(a0, 0.0)
    ii, jj = np.nonzero(~supported & ~empty)
    if ii.size:
        lo_a, hi_a, lo_y, hi_y = a[ii], a[ii + 1], yr[jj], yr[jj + 1]
        # the boundary eta = max(a, 0), clipped to the cell, bends at a = 0, y0, y1
        cuts = np.sort(np.clip(np.stack([lo_a, np.zeros_like(lo_a), lo_y, hi_y, hi_a], axis=1),
                               lo_a[:, None], hi_a[:, None]), axis=1)
        nodes, wts = gauss_legendre(3)
        width = np.diff(cuts, axis=1)[:, :, None]
        pa = cuts[:, :-1, None] + width * nodes
        wa = width * wts

        def cell(v):
            return v[:, None, None]

        p = (pa - cell(lo_a)) / cell(hi_a - lo_a)
        f_lo = cell(F00[ii, jj]) + cell(F10[ii, jj] - F00[ii, jj]) * p
        f_hi = cell(F01[ii, jj]) + cell(F11[ii, jj] - F01[ii, jj]) * p
        # on each a-node f is linear in eta; its eta-integrals run from the boundary
        lo_eta = np.clip(np.maximum(pa, 0.0), cell(lo_y), cell(hi_y))
        q = (lo_eta - cell(lo_y)) / cell(hi_y - lo_y)
        f_eta = f_lo * (1.0 - q) + f_hi * q
        i0 = _segment_integral(0, 0.0, lo_eta, cell(hi_y), f_eta, f_hi)
        i1 = _segment_integral(1, 0.0, lo_eta, cell(hi_y), f_eta, f_hi)
        m0[ii, jj] = np.sum(wa * i0, axis=(1, 2))
        ma[ii, jj] = np.sum(wa * pa * i0, axis=(1, 2))
        my[ii, jj] = np.sum(wa * i1, axis=(1, 2))
    m0 = np.where(empty, 0.0, m0)
    ma = np.where(empty, 0.0, ma)
    my = np.where(empty, 0.0, my)
    return m0, ma, my, yr, table


def _tabgrid_wedge(a, grid, table):
    """Integral of (y - a) f(a, y) over a < y at every knot y of ``grid``, f
    linear in a between the rows of ``table`` (row i at a[i]); 0 at y <= a[0].

    The knots are sorted, so they fall into contiguous blocks by K, the
    number of a-segments wholly below y (a_K <= y < a_{K+1}).  On a block the
    whole segments give (y - a_K) (w_K @ table) + v_K @ table, weights from
    the a-grid alone: by y - a = (y - a_K) + (a_K - a_{i+1}) + (a_{i+1} - a),
    segment i puts h_i / 2 on each of its two rows in w_K, and
    (a_K - a_{i+1}) h_i / 2 plus h_i^2 / 3 on row i and h_i^2 / 6 on row
    i + 1 in v_K.  Every weight is nonnegative, so no digits cancel.  The
    segment K that y cuts goes to the segment rule in v = y - a, at all such
    knots at once.
    """
    h = np.diff(a)
    # block K holds the knots edge[K]:edge[K + 1]; below edge[0], y < a[0]
    edge = np.append(np.searchsorted(grid, a), grid.size)
    blocks = np.flatnonzero(np.diff(edge))
    # one (w_K, v_K) pair per block; segment i is whole below a_K when i < K
    half = np.where(np.arange(h.size) < blocks[:, None], 0.5 * h, 0.0)
    gap = (a[blocks, None] - a[1:]) * half
    square = half * h
    weights = np.zeros((blocks.size, 2, a.size))
    weights[:, 0, :-1] = half
    weights[:, 0, 1:] += half
    weights[:, 1, :-1] = gap + square * (2.0 / 3.0)
    weights[:, 1, 1:] += gap + square / 3.0
    wedge = np.zeros_like(grid)
    for b, k in enumerate(blocks):
        lo, hi = edge[k], edge[k + 1]
        whole, shifted = weights[b, :, :k + 1] @ table[:k + 1, lo:hi]
        wedge[lo:hi] = (grid[lo:hi] - a[k]) * whole + shifted
    # the segment K that a knot a_0 <= y < a_{n-1} cuts (0 wide at y = a_K)
    lo, hi = edge[0], edge[-2]
    if hi > lo:
        y = grid[lo:hi]
        k = np.searchsorted(a, y, side="right") - 1
        cols = np.arange(lo, hi)
        f_k = table[k, cols]
        q = (y - a[k]) / h[k]
        f_y = f_k * (1.0 - q) + table[k + 1, cols] * q
        wedge[lo:hi] += _segment_integral(1, 0.0, 0.0, y - a[k], f_y, f_k)
    return wedge


def phi_from_f(f: BivariatePenalty) -> DensitySpec:
    """Reduce a bivariate penalty to its equivalent max-density.

    phi(y) = f* [ integral of f(a, eta) over {eta > y v a+}
                  + integral of f(a, y) (y - a) over a < y ].

    The two closed-form families reduce exactly: for the exponential family
    both terms are multiples of e^{(lam + mu) y}, so phi is exponential with
    rate -(lam + mu); for the separable indicator the bracket is the integral
    of (A - a) f1(a) over a < A for every y in [0, A], so phi is uniform on
    [0, A].  A tabulated grid is returned as a tabulated density at the
    refined knots of its cells: the first term is a suffix sum of the cell
    masses and the second ``_tabgrid_wedge``, summed in blocks of knots with
    nonnegative weights.  Its mass is checked to be 1 within 1e-6 before the
    (exact) renormalization that tabulation applies.
    """
    total = fbar(f)
    if not 0.0 < total < math.inf:
        raise ValueError("phi_from_f requires a finite, positive fbar(f)")
    if isinstance(f, ExponentialBivariate):
        return DensitySpec.exponential(-(f.lam + f.mu))
    if isinstance(f, SeparableIndicator):
        return DensitySpec.uniform(f.cutoff)
    m0, _, _, grid, table = f._cells
    # upper-tail mass of f above each refined knot (exact cell suffix sums)
    col = np.sum(m0, axis=0)
    tail = np.concatenate((np.cumsum(col[::-1])[::-1], [0.0]))
    raw = (tail + _tabgrid_wedge(f.a_grid, grid, table)) / total
    if grid[0] > 1e-8:
        # below the table's y-floor the upper tail is flat and the wedge
        # vanishes: the reduced density is constant there, with a genuine
        # jump at the floor (where the table switches on) pinned by an
        # epsilon knot
        head = np.array([0.0, grid[0] - 1e-9 * max(grid[0], 1.0)])
        grid = np.concatenate((head, grid))
        raw = np.concatenate((np.full(head.size, tail[0] / total), raw))
    raw = np.maximum(raw, 0.0)
    mass = float(np.trapezoid(raw, grid))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"phi_from_f mass {mass} deviates from 1 beyond 1e-6")
    return DensitySpec.tabulated(grid, raw)


# ---------------------------------------------------------------------------
# Kennedy-normalized transforms
# ---------------------------------------------------------------------------

def kennedy_transforms(psi: DensitySpec, lam: float):
    """Derive (Phi, varphi, phi1, c) from a Laplace-normalized shape psi.

    All three functions are closed forms in psi's tails, for y >= 0:
    Phi(y) = 1 - e^{lam y} int_y^inf psi(z) e^{-lam z} dz, varphi = Phi' and
    phi1(y) = (psi(y) - lam T0(y)) / c with T0(y) = int_y^inf psi.  Requires
    integral psi(z) e^{-lam z} dz = 1 within 1e-6.  Raises DegeneracyError
    when c = integral psi(x)(1 - lam x) dx vanishes.
    """
    if lam <= 0.0:
        raise ValueError("kennedy_transforms requires lam > 0")
    psi.require_laplace_normalized(lam)
    c = psi.mass() - lam * psi.moment(1)
    if abs(c) < 1e-12:
        raise DegeneracyError("expansion coefficient undefined: c(lambda, psi) = 0")

    def Phi(y):
        y = np.asarray(y, dtype=float)
        out = 1.0 - np.exp(lam * y) * psi.laplace_tail(y, lam)
        return float(out) if out.ndim == 0 else out

    def varphi(y):
        y = np.asarray(y, dtype=float)
        out = psi.pdf(y) - lam * np.exp(lam * y) * psi.laplace_tail(y, lam)
        return float(out) if out.ndim == 0 else out

    def phi1(y):
        return (psi.pdf(y) - lam * psi.tail(y)) / c

    return Phi, varphi, phi1, c
