"""Seeded exact samplers for Brownian states and the limit laws.

The state samplers (``exact_bm_state``, ``exact_two_time_state``,
``q_level_terminal_batch``) draw the time-u state in one shot from its
closed-form law and have no time grid at all:

* (X_t, S_t) of Brownian motion with drift nu: X_t = sqrt(t) Z + nu t, and
  S_t is the maximum of the bridge from 0 to X_t over time t,
  P(S_t >= m | X_t = x) = exp(-2 m (m - x) / t), whatever the drift;
* the limit law pinned at terminal maximum y (Brownian motion up to the
  first passage T_y = y^2 / Z^2, then y minus a Bessel(3) process): on
  {T_y <= u}, X_u = y - sqrt(u - T_y) chi_3; on {T_y > u}, S_u is half-normal
  truncated to [0, y) and, given S_u = s, 2 s - X_u = sqrt(s^2 - 2 u log U).

A level of any limit law comes from ``mixture_levels``, ``DensitySpec.ppf``
or ``draw_penalty_pairs``.  The one path sampler, ``sample_Q_y``, stores a
level-pinned trajectory on a uniform grid for the CSV dumps of ``limit
--dump-paths``; it builds the path from the exact first-passage time, so the
grid only stores it.

Streams are counter-based (Philox keyed by seed and stream id): identical
(seed, stream_id) reproduce identical paths bit for bit, distinct stream ids
are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exact_laws import BivariatePenalty, ExponentialBivariate, SeparableIndicator, TabulatedGrid, fbar
from .quadrature import RectEvent, _check_bridge_point

__all__ = [
    "RngStream",
    "Path",
    "sample_Q_y",
    "draw_penalty_pairs",
    "exact_bm_state",
    "exact_two_time_state",
    "q_level_terminal_batch",
    "mixture_levels",
    "level_event_frequency",
]


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *extra))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, k: int) -> "RngStream":
        # flat id arithmetic keeps the (seed, stream_id) contract intact
        return RngStream(self.seed, (self.stream_id << 20) ^ (k + 1))


@dataclass
class Path:
    """A discretely sampled trajectory on the uniform grid 0, step, 2*step, ...

    ``runmax`` is the running maximum of the stored values, and the level
    itself from its first passage on.  ``hit_time`` is the
    exact first-passage time of the designated level and may exceed the
    window.
    """

    step: float
    values: np.ndarray
    runmax: np.ndarray
    hit_time: float | None = None

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.size)

    def write_csv(self, fh) -> None:
        """Dump the trajectory as CSV rows (t, x, s)."""
        fh.write("t,x,s\n")
        for t, x, s in zip(self.times, self.values, self.runmax):
            fh.write(f"{t},{x},{s}\n")


def _check_grid(horizon: float, step: float) -> int:
    if horizon <= 0.0 or step <= 0.0 or step > horizon + 1e-15:
        raise ValueError("need 0 < step <= horizon")
    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    return n


# ---------------------------------------------------------------------------
# exact state sampling, one draw per path and no time grid
# ---------------------------------------------------------------------------

def exact_bm_state(t: float, n: int, gen: np.random.Generator, drift: float = 0.0):
    """n exact draws of (X_t, S_t) for Brownian motion with the stated drift.

    One bridge step: S_t = (X_t + sqrt(X_t^2 - 2 t log U)) / 2 is the maximum
    of the bridge from 0 to X_t, and the drift moves X_t but not the law of
    the bridge maximum given X_t.
    """
    x = gen.standard_normal(n) * math.sqrt(t) + drift * t
    s = 0.5 * (x + np.sqrt(x * x - 2.0 * t * np.log(gen.random(n))))
    return x, s


def exact_two_time_state(u: float, t: float, n: int, gen: np.random.Generator):
    """n exact draws of (X_u, S_u, X_t, S_t) for 0 < u < t."""
    if not 0.0 < u < t:
        raise ValueError("need 0 < u < t")
    xu, su = exact_bm_state(u, n, gen)
    x2, s2 = exact_bm_state(t - u, n, gen)
    xt = xu + x2
    st = np.maximum(su, xu + s2)
    return xu, su, xt, st


# ---------------------------------------------------------------------------
# limit-law samplers
# ---------------------------------------------------------------------------

def sample_Q_y(y: float, horizon: float, step: float, gen: np.random.Generator) -> Path:
    """One path of the limit law pinned at terminal maximum y, exact at the
    grid times.

    Brownian motion up to its first passage T = y^2 / Z^2 of y, then y minus
    an independent Bessel(3) process.  Given T, y - X on [0, T] is a Bessel(3)
    bridge from y to 0 (Williams' path decomposition), the norm of a 3-d
    Brownian bridge, and after T it is the norm of B_t - B_T.  So one 3-d
    Brownian motion B on the grid builds the whole path:

        X_t = y - |y e_1 (1 - t/T)^+ + B_t - min(t/T, 1) B_T|,

    with B_T drawn from the Brownian bridge across the step that holds T, or
    past the window as B_horizon + sqrt(T - horizon) Z'.  ``hit_time`` is T.
    """
    if y <= 0.0:
        raise ValueError("sample_Q_y requires y > 0")
    n = _check_grid(horizon, step)
    z = gen.standard_normal()
    passage = y * y / (z * z if z != 0.0 else 1.0)
    coords = np.zeros((3, n + 1))
    np.cumsum(gen.standard_normal((3, n)) * math.sqrt(step), axis=1, out=coords[:, 1:])
    extra = gen.standard_normal(3)
    pos = passage / step
    k = int(pos)
    if k < n:
        frac = pos - k
        b_T = (coords[:, k] + frac * (coords[:, k + 1] - coords[:, k])
               + math.sqrt(step * frac * (1.0 - frac)) * extra)
    else:
        b_T = coords[:, n] + math.sqrt(passage - horizon) * extra
    times = step * np.arange(n + 1)
    w = np.minimum(times / passage, 1.0)
    bridge = coords - w * b_T[:, None]
    bridge[0] += y * (1.0 - w)
    values = y - np.sqrt(np.sum(bridge * bridge, axis=0))
    runmax = np.maximum.accumulate(values)
    runmax[times >= passage] = y
    return Path(step=step, values=values, runmax=runmax, hit_time=passage)


def draw_penalty_pairs(f: BivariatePenalty, n: int, gen: np.random.Generator):
    """n draws of (a, y) from the normalized density (2y - a) f(a, y).

    Every family is drawn as whole arrays from the exact integrals of
    ``exact_laws``.  The exponential family uses exact Exp/Gamma(2) mixtures.
    The separable indicator inverts the exact CDF of the a-marginal
    (A - a) f1(a), built at construction and interpolated between 8193
    points, then the conditional level exactly.  A tabulated grid picks a
    refined cell of its cell table by its exact mass, then a point in the cell's supported part: y uniform
    above max(a_lo, 0), then a uniform below y; on a cell the boundary does
    not cut the point is uniform, which ignores the bilinear shape inside
    the cell.  In the two table families row k of the uniforms holds the
    uniforms of draw k, in order, so splitting n across calls does not
    change the draws.
    """
    if isinstance(f, ExponentialBivariate):
        if not math.isfinite(fbar(f)):
            raise ValueError("penalty has infinite weighted mass")
        mu = f.mu
        beta = -(f.lam + f.mu)
        # terminal level: density (1 + mu y) e^{-beta y} -> Exp/Gamma(2) mixture
        e1 = gen.exponential(1.0 / beta, size=n)
        e2 = gen.exponential(1.0 / beta, size=n)
        y = np.where(gen.random(n) < beta / (beta + mu), e1, e1 + e2)
        # endpoint offset s = y - a: density (y + s) e^{-mu s}
        g1 = gen.exponential(1.0 / mu, size=n)
        g2 = gen.exponential(1.0 / mu, size=n)
        s = np.where(gen.random(n) < y * mu / (y * mu + 1.0), g1, g1 + g2)
        return y - s, y
    if isinstance(f, SeparableIndicator):
        A = f.cutoff
        fine, cdf = f._a_cdf
        if cdf[-1] <= 0.0:
            raise ValueError("penalty carries no mass")
        u = gen.random((n, 2))
        a = np.interp(u[:, 0], cdf, fine)
        # conditional level: CDF y(y - a) / (A (A - a)) on (a+, A]
        y = 0.5 * (a + np.sqrt(a * a + 4.0 * u[:, 1] * A * (A - a)))
        return a, np.minimum(y, A)
    if isinstance(f, TabulatedGrid):
        _, ma, my, yr, _ = f._cells
        a = f.a_grid
        cdf = np.cumsum(2.0 * my - ma)
        if cdf[-1] <= 0.0:
            raise ValueError("penalty table carries no mass")
        u = gen.random((n, 3))
        ia, iy = np.unravel_index(np.searchsorted(cdf, u[:, 0] * cdf[-1]), my.shape)
        y_lo = np.maximum(yr[iy], np.maximum(a[ia], 0.0))
        yv = y_lo + u[:, 2] * (yr[iy + 1] - y_lo)
        av = a[ia] + u[:, 1] * (np.minimum(a[ia + 1], yv) - a[ia])
        return av, yv
    raise TypeError(f"unsupported penalty type {type(f)!r}")


# ---------------------------------------------------------------------------
# batched limit-law terminal states (the engine behind the oracle tests)
# ---------------------------------------------------------------------------

def q_level_terminal_batch(levels, horizon: float, gen: np.random.Generator):
    """Exact time-u states of n level-pinned paths, u = ``horizon``.

    Path i is Brownian motion up to its first passage T = y_i^2 / Z^2 of
    y_i = levels[i], then y_i minus a Bessel(3) process.  The state is drawn
    from its closed-form law: on {T <= u}, S_u = y_i and X_u = y_i -
    sqrt(u - T) chi_3; on {T > u}, S_u is half-normal truncated to [0, y_i)
    and X_u = 2 S_u - sqrt(S_u^2 - 2 u log U).  Every array is drawn for all
    n paths, so the draws do not depend on which paths hit.

    Returns the positions x and the running maxima s; a path has hit its
    level by time u exactly where s equals it.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0):
        raise ValueError("levels must be positive")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    n = levels.size
    u = horizon
    z = gen.standard_normal(n)
    z[z == 0.0] = 1.0
    passage = levels ** 2 / (z * z)
    hit = passage <= u
    chi3 = np.sqrt(gen.chisquare(3, n))
    root_2u = math.sqrt(2.0 * u)
    s_free = root_2u * special.erfinv(gen.random(n) * special.erf(levels / root_2u))
    s_free = np.minimum(s_free, np.nextafter(levels, 0.0))
    # 1 - U lies in (0, 1], so its log is finite
    x_free = 2.0 * s_free - np.sqrt(s_free * s_free - 2.0 * u * np.log(1.0 - gen.random(n)))
    x = np.where(hit, levels - np.sqrt(np.maximum(u - passage, 0.0)) * chi3, x_free)
    return x, np.where(hit, levels, s_free)


def mixture_levels(a, y, n: int, gen: np.random.Generator) -> np.ndarray:
    """n terminal maxima of the limiting bridge law Q^(a,y): the level y with
    the atom weight (y - a) / (2y - a), else uniform on (0, y].  ``a`` and
    ``y`` may be arrays of n endpoints, one pair per draw, such as the pairs
    of ``draw_penalty_pairs``."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_bridge_point(a, y)
    pick = gen.random(n) < (y - a) / (2.0 * y - a)
    z = y * (1.0 - gen.random(n))
    return np.where(pick, y, z)


def level_event_frequency(levels, ev: RectEvent, gen: np.random.Generator):
    """(p, stderr): the frequency of ``ev`` among level-pinned paths and its
    binomial standard error."""
    x, s = q_level_terminal_batch(levels, ev.u, gen)
    p = float(np.mean(ev.indicator(x, s)))
    return p, math.sqrt(max(p * (1.0 - p), 1e-12) / x.size)
