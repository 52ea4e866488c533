import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from penalab import quadrature
from penalab.exact_laws import DensitySpec, p_joint, p_max
from penalab.expansion import phi_series_value
from penalab._stable import GAUSS_CUT, gauss_legendre
from penalab.martingales import f1_phi_xs, m_bar_xs, m_kennedy_xs, m_mu_lambda_xs, m_phi_xs
from penalab.penalized_mc import ExpLinear, KennedyWeight, PhiOfMax, finite_t_value
from penalab.quadrature import (
    RectEvent,
    atom_weight,
    expect_on_event,
    q_a_phi_limit,
    q_ay_finite,
    q_ay_limit,
    q_phi_finite,
    q_phi_limit,
    q_y_finite,
    q_y_limit,
    rect_prob,
)
from penalab.weights import log_g_kennedy

UNIFORM = DensitySpec.uniform(1.0)
EXP1 = DensitySpec.exponential(1.0)
FULL = RectEvent(1.0)
EV = RectEvent(1.0, b=0.0, c=0.5)
_TAB_GRID = np.linspace(0.0, 1.5, 301)
TABULATED = DensitySpec.tabulated(_TAB_GRID, 0.3 + _TAB_GRID ** 2)
SPIKE = DensitySpec.tabulated([0.0, 0.999, 0.9995, 1.0005, 1.001, 1.5],
                              [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])

EVENT_B = st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-math.inf, math.inf]))
EVENT_C = st.one_of(st.floats(0.05, 4.0), st.just(math.inf))


def reflection_rect_prob(u, b, c):
    """Independent oracle for P(X_u <= b, S_u <= c) via the reflection principle."""
    if c == math.inf:
        return stats.norm.cdf(b / math.sqrt(u)) if b != math.inf else 1.0
    bb = min(b, c)
    return stats.norm.cdf(bb / math.sqrt(u)) - stats.norm.cdf((bb - 2 * c) / math.sqrt(u))


class TestRectEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            RectEvent(0.0)
        with pytest.raises(ValueError):
            RectEvent(1.0, c=0.0)

    @pytest.mark.parametrize("u,b,c", [(math.nan, 0.0, 1.0), (1.0, math.nan, 1.0),
                                       (1.0, 0.0, math.nan)])
    def test_nan_bounds_are_rejected(self, u, b, c):
        # a NaN bound used to pass through and give a silent nan probability
        with pytest.raises(ValueError):
            RectEvent(u, b, c)


class TestRectProb:
    def test_marginal_consistency(self):
        assert rect_prob(RectEvent(1.0, c=1.0)) == pytest.approx(0.6826894921370859, abs=1e-9)
        assert rect_prob(FULL) == pytest.approx(1.0, abs=1e-10)
        assert rect_prob(RectEvent(1.0, b=0.0)) == pytest.approx(0.5, abs=1e-10)

    @given(b=st.floats(-2, 3), c=st.floats(0.1, 4), u=st.floats(0.2, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_reflection_oracle(self, b, c, u):
        assert rect_prob(RectEvent(u, b, c)) == pytest.approx(
            reflection_rect_prob(u, b, c), abs=1e-9)

    @given(u=st.floats(0.05, 20.0),
           b=st.one_of(st.floats(-6.0, 8.0), st.sampled_from([-math.inf, math.inf])),
           c=st.one_of(st.floats(1e-3, 8.0), st.just(math.inf)))
    @example(u=0.0546875, b=2.5087322480572646e-306, c=math.inf)  # a breakpoint near 0
    @settings(max_examples=60, deadline=None)
    def test_matches_integrated_joint_density(self, u, b, c):
        # the closed form against quadrature of the joint density: an
        # independent oracle pair
        ev = RectEvent(u, b, c)
        assert rect_prob(ev) == pytest.approx(
            expect_on_event(ev, lambda x, s: np.ones_like(x)), abs=1e-9)

    def test_monotone_in_bounds(self):
        bs = [-1.0, -0.2, 0.5, 1.5, math.inf]
        vals = [rect_prob(RectEvent(1.0, b, 0.8)) for b in bs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        cs = [0.2, 0.6, 1.4, 3.0, math.inf]
        vals = [rect_prob(RectEvent(1.0, 0.3, c)) for c in cs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestQyLimit:
    def test_total_mass(self):
        for y in (0.3, 1.0, 2.5):
            assert q_y_limit(y, FULL) == pytest.approx(1.0, abs=1e-7)

    def test_small_c_drops_pinned_term(self):
        ev = RectEvent(1.0, c=0.5)
        assert q_y_limit(1.0, ev) == pytest.approx(rect_prob(ev), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            q_y_limit(0.0, FULL)


class TestQyFinite:
    def test_total_mass(self):
        for t in (2.0, 8.0, 64.0):
            assert q_y_finite(1.0, FULL, t) == pytest.approx(1.0, abs=1e-7)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            q_y_finite(1.0, EV, 0.5)

    def test_conditioning_tightens_near_u(self):
        # conditioning on S_t = y with t just past u forces S_u close to y
        ev = RectEvent(1.0, c=0.5)
        assert q_y_finite(1.0, ev, 1.0 + 1e-4) < 1e-6

    def test_converges_to_limit_at_rate(self):
        lim = q_y_limit(1.0, EV)
        gaps = [abs(q_y_finite(1.0, EV, t) - lim) for t in (16.0, 64.0, 256.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.35)

    @given(u=st.floats(0.1, 4.0), r=st.floats(0.02, 50.0), y=st.floats(0.02, 4.0),
           b=EVENT_B, c=EVENT_C)
    @example(u=0.5, r=38.0625, y=3.0, b=np.finfo(float).tiny, c=math.inf)
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_quadrature(self, u, r, y, b, c):
        # P(G, S_t in dy) / p_max(t, y) by nested quad in the reflected level
        # w = 2 S_u - X_u: the pinned part {S_u = y} is P(S_r < w - y), the
        # free part {S_u = s < y} runs the maximum up from X_u = 2s - w
        t = u + r
        assert q_y_finite(y, RectEvent(u, b, c), t) == pytest.approx(
            _q_y_finite_nested(y, u, b, c, t), abs=1e-10)

    def test_vectorized_in_y(self):
        ys = np.array([0.1, 0.5, 0.9, 1.7])
        assert np.array_equal(q_y_finite(ys, EV, 4.0), [q_y_finite(y, EV, 4.0) for y in ys])
        assert np.array_equal(q_y_limit(ys, EV), [q_y_limit(y, EV) for y in ys])
        assert np.array_equal(q_ay_limit(-0.3, ys, EV), [q_ay_limit(-0.3, y, EV) for y in ys])
        assert np.array_equal(q_ay_finite(-0.3, ys, EV, 4.0),
                              [q_ay_finite(-0.3, y, EV, 4.0) for y in ys])

    def test_tower_property(self):
        # integrating the conditional against the max density recovers the base law
        t = 4.0
        val, _ = integrate.quad(lambda y: q_y_finite(y, EV, t) * p_max(t, y),
                                1e-9, 9.3 * math.sqrt(t), limit=300)
        assert val == pytest.approx(rect_prob(EV), abs=1e-6)


def _q_y_finite_nested(y, u, b, c, t):
    if b == -math.inf:
        return 0.0
    r = t - u
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    log_den = -y * y / (2.0 * t) + 0.5 * math.log(2.0 / (math.pi * t))

    def joint(w):
        # p_joint(u, x, s) at w = 2s - x, over the terminal density p_max(t, y)
        return math.sqrt(2.0 / math.pi) * u ** -1.5 * w * math.exp(-w * w / (2.0 * u) - log_den)

    total = 0.0
    if y <= c:
        total += integrate.quad(lambda w: joint(w) * math.erf((w - y) / math.sqrt(2.0 * r)),
                                2.0 * y - min(b, y), math.inf, **opts)[0]

    def free(s):
        def f(w):
            return joint(w) * math.sqrt(2.0 / (math.pi * r)) * math.exp(-(y - 2.0 * s + w) ** 2
                                                                         / (2.0 * r))
        return integrate.quad(f, 2.0 * s - min(b, s), math.inf, **opts)[0]

    cprime = min(c, y)
    # quad warns of bad behaviour on a break at the smallest normal float, so a
    # break at or below it is dropped, as _checked_rule drops such a cut
    total += integrate.quad(free, 0.0, cprime,
                            points=[b] if np.finfo(float).tiny < b < cprime else None, **opts)[0]
    return total


class TestQayLimit:
    def test_total_mass_both_routes(self):
        assert q_ay_limit(0.0, 1.0, FULL) == pytest.approx(1.0, abs=1e-7)
        assert q_ay_limit(0.0, 1.0, FULL, route="mixture") == pytest.approx(1.0, abs=1e-7)

    def test_routes_agree(self):
        for a, y in [(0.0, 1.0), (-1.5, 0.7), (0.4, 1.3)]:
            d = q_ay_limit(a, y, EV)
            m = q_ay_limit(a, y, EV, route="mixture")
            assert d == pytest.approx(m, abs=1e-7)

    @given(a=st.floats(-3.0, 2.0), gap=st.floats(0.0, 3.0), u=st.floats(0.1, 5.0),
           b=EVENT_B, c=EVENT_C)
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_everywhere(self, a, gap, u, b, c):
        y = max(a, 0.0) + gap + 1e-3
        ev = RectEvent(u, b, c)
        assert q_ay_limit(a, y, ev) == pytest.approx(q_ay_limit(a, y, ev, route="mixture"),
                                                     abs=1e-9)

    def test_atom_weight_example(self):
        assert atom_weight(0.0, 1.0) == 0.5
        assert atom_weight(1.0, 1.0) == 0.0

    def test_boundary_a_equals_y(self):
        # the pinned component has weight 0; the value is the uniform mixture
        val = q_ay_limit(1.0, 1.0, EV)
        mix, _ = integrate.quad(lambda z: q_y_limit(z, EV), 0.0, 1.0, limit=200)
        assert val == pytest.approx(mix, abs=1e-7)

    def test_continuity_in_parameters(self):
        base = q_ay_limit(0.0, 1.0, EV)
        d = 1e-4
        assert abs(q_ay_limit(d, 1.0, EV) - base) < 10 * d
        assert abs(q_ay_limit(0.0, 1.0 + d, EV) - base) < 10 * d

    def test_domain(self):
        with pytest.raises(ValueError):
            q_ay_limit(2.0, 1.0, EV)


class TestQayFinite:
    def test_total_mass(self):
        for t in (4.0, 32.0):
            assert q_ay_finite(0.0, 1.0, FULL, t) == pytest.approx(1.0, abs=1e-7)

    def test_continuity_in_conditioning_point(self):
        base = q_ay_finite(0.0, 1.0, EV, 16.0)
        d = 1e-4
        assert abs(q_ay_finite(d, 1.0, EV, 16.0) - base) < 10 * d
        assert abs(q_ay_finite(0.0, 1.0 + d, EV, 16.0) - base) < 10 * d

    def test_domain(self):
        # at a = y the terminal density p_joint(t, a, y) vanishes
        for a, y in ((1.0, 1.0), (2.0, 1.0), (-1.0, 0.0)):
            with pytest.raises(ValueError):
                q_ay_finite(a, y, EV, 4.0)

    def test_monotone_convergence_to_limit(self):
        lim = q_ay_limit(0.0, 1.0, EV)
        gaps = [abs(q_ay_finite(0.0, 1.0, EV, t) - lim) for t in (4.0, 16.0, 64.0, 256.0)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    @given(a=st.floats(-10.0, 5.0), gap=st.floats(1e-3, 16.0), u=st.floats(0.01, 10.0),
           log_r=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_full_event_mass(self, a, gap, u, log_r):
        t = u + 10.0 ** log_r
        assert q_ay_finite(a, max(a, 0.0) + gap, RectEvent(u), t) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a,y,u,t", [(-1.436, 3.510, 0.291, 0.631), (-1.0, 5.0, 0.1, 0.2),
                                         (-3.0, 3.0, 1.0, 1.0 + 1e-6), (-10.0, 10.0, 1.0, 1.01),
                                         (-20.0, 20.0, 1.0, 1.001)])
    def test_full_event_mass_near_the_bridge_end(self, a, y, u, t):
        # small t - u pins X_u near a, far from the peak of p_joint(u, ., y)
        assert q_ay_finite(a, y, RectEvent(u), t) == pytest.approx(1.0, abs=1e-9)

    @given(a=st.floats(-3.0, 2.0), gap=st.floats(0.02, 4.0), u=st.floats(0.1, 4.0),
           log_r=st.floats(-3.0, 1.7), b=EVENT_B, c=EVENT_C)
    @example(a=-0.5, gap=2.0, u=1.0, log_r=0.3, b=math.inf, c=1.0)   # c < y < b
    @example(a=-1.2899689501842968e-306, gap=1.0, u=1.0, log_r=0.0, b=0.0, c=math.inf)
    @example(a=0.0, gap=2.0, u=0.109375, log_r=1.0, b=1.1125369292536007e-308, c=math.inf)
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_quadrature(self, a, gap, u, log_r, b, c):
        y, r = max(a, 0.0) + gap, 10.0 ** log_r
        assert q_ay_finite(a, y, RectEvent(u, b, c), u + r) == pytest.approx(
            _q_ay_finite_nested(a, y, u, b, c, u + r), abs=1e-10)

    def test_unpenalized_bridge_recovers_wiener(self):
        # integrating over the conditional law of S_t given X_t = a undoes the
        # conditioning; as t grows the bridge forgets its endpoint
        a = 0.3
        for t, tol in ((16.0, 0.05), (256.0, 4e-3)):
            gauss = math.exp(-a * a / (2 * t)) / math.sqrt(2 * math.pi * t)

            def integrand(y):
                return q_ay_finite(a, y, EV, t) * p_joint(t, a, y) / gauss

            val, _ = integrate.quad(integrand, max(a, 0.0) + 1e-12,
                                    max(a, 0.0) + 9.5 * math.sqrt(t), limit=300)
            assert val == pytest.approx(rect_prob(EV), abs=tol)


def _q_ay_finite_nested(a, y, u, b, c, t):
    # P(G, X_t in da, S_t in dy) / p_joint(t, a, y) by quad over the full
    # range of X_u = x, split at x = a where the bridge factor peaks: the
    # pinned part {S_u = y} keeps the rest of the path below y, the free part
    # {S_u = s < y}, nested in s, runs the maximum up to y from x
    if b == -math.inf:
        return 0.0
    r = t - u
    m = 2.0 * y - a
    log_den = math.log(math.sqrt(2.0 / math.pi) * t ** -1.5 * m) - m * m / (2.0 * t)
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)

    def over_x(f, hi):
        # a piece above a narrower than roundoff (a = -1e-306, hi = 0) is
        # left inside the one integral up to hi: quad cannot integrate it alone
        if hi - a > 1e-12 * max(1.0, abs(a)):
            return (integrate.quad(f, -math.inf, a, **opts)[0]
                    + integrate.quad(f, a, hi, **opts)[0])
        return integrate.quad(f, -math.inf, hi, **opts)[0]

    def pinned(x):
        w = 2.0 * y - x
        return (math.sqrt(2.0 / math.pi) * u ** -1.5 * w / math.sqrt(2.0 * math.pi * r)
                * (math.exp(-w * w / (2.0 * u) - (a - x) ** 2 / (2.0 * r) - log_den)
                   - math.exp(-w * w / (2.0 * u) - (m - x) ** 2 / (2.0 * r) - log_den)))

    def free(s):
        def f(x):
            w_u, w_r = 2.0 * s - x, m - x
            return (2.0 / math.pi * (u * r) ** -1.5 * w_u * w_r
                    * math.exp(-w_u * w_u / (2.0 * u) - w_r * w_r / (2.0 * r) - log_den))
        return over_x(f, min(b, s))

    total = over_x(pinned, min(b, y)) if y <= c else 0.0
    # likewise the split at s = b is dropped when either piece is narrower
    # than roundoff (b = 1e-308): the integrand is continuous there
    cprime = min(c, y)
    split = 0.0 < b < cprime and min(b, cprime - b) > 1e-12 * cprime
    return total + integrate.quad(free, 0.0, cprime, points=[b] if split else None, **opts)[0]


PHI_WITH_TOP = st.one_of(st.floats(0.2, 4.0).map(lambda top: (DensitySpec.uniform(top), top)),
                         st.floats(0.3, 3.0).map(lambda k: (DensitySpec.exponential(k), 3.0 / k)),
                         st.just((TABULATED, 1.5)))


class TestQaPhiLimit:
    def test_total_mass(self):
        assert q_a_phi_limit(0.0, UNIFORM, FULL) == pytest.approx(1.0, abs=1e-7)
        assert q_a_phi_limit(-1.0, EXP1, FULL) == pytest.approx(1.0, abs=1e-7)

    def test_denominator_normalization_example(self):
        # a = 0, uniform phi: the weight integral is 2 int_0^1 y dy = 1
        d = 2 * UNIFORM.tail_moment(1, 0.0) - 0.0 * UNIFORM.tail_moment(0, 0.0)
        assert d == pytest.approx(1.0, abs=1e-14)

    def test_a_past_the_support_end_is_a_domain_error(self):
        for a in (1.0, 1.5):
            with pytest.raises(ValueError, match="support"):
                q_a_phi_limit(a, UNIFORM, FULL)

    def test_routes_agree(self):
        for a in (-0.8, 0.0, 0.4):
            s = q_a_phi_limit(a, UNIFORM, EV, route="single")
            b = q_a_phi_limit(a, UNIFORM, EV, route="bridge")
            assert s == pytest.approx(b, abs=1e-6)

    @given(phi_top=PHI_WITH_TOP, frac=st.floats(-2.0, 0.9), u=st.floats(0.1, 5.0),
           b=EVENT_B, c=EVENT_C)
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_everywhere(self, phi_top, frac, u, b, c):
        phi, top = phi_top
        ev = RectEvent(u, b, c)
        assert q_a_phi_limit(frac * top, phi, ev) == pytest.approx(
            q_a_phi_limit(frac * top, phi, ev, route="bridge"), abs=1e-9)

    @given(top=st.floats(0.2, 4.0), frac=st.floats(-3.0, 0.99), u=st.floats(0.1, 5.0),
           b=st.one_of(st.floats(-3.0, 5.0), st.sampled_from([-math.inf, math.inf])),
           c=st.one_of(st.floats(0.05, 5.0), st.just(math.inf)))
    # a subnormal a+ must not cut a first piece whose nodes round to y = 0
    @example(top=1.0, frac=5e-324, u=1.0, b=0.0, c=math.inf)
    @settings(max_examples=40, deadline=None)
    def test_uniform_phi_bridge_identity(self, top, frac, u, b, c):
        # for phi uniform on [0, A] the bridge endpoint a < A drops out of the limit law
        phi = DensitySpec.uniform(top)
        ev = RectEvent(u, b, c)
        assert q_a_phi_limit(frac * top, phi, ev) == pytest.approx(q_phi_limit(phi, ev), abs=1e-9)


class TestSupportEndBreakpoints:
    # phi with compact support jumps to 0 at its end; these missed that jump
    def test_q_phi_limit_mass_small_uniform_support(self):
        phi, full = DensitySpec.uniform(0.50263), RectEvent(1.93542)
        assert q_phi_limit(phi, full) == pytest.approx(1.0, abs=1e-9)
        assert q_phi_limit(phi, full, route="martingale") == pytest.approx(1.0, abs=1e-9)

    def test_q_ay_limit_mixture_breaks_at_event_bounds(self):
        ev = RectEvent(1.032, 0.1440, 0.7963)
        assert q_ay_limit(0.3523, 1.5919, ev, route="mixture") == pytest.approx(
            q_ay_limit(0.3523, 1.5919, ev), abs=1e-9)

    def test_expect_on_event_extra_points(self):
        val = expect_on_event(FULL, lambda x, s: np.where(s <= 0.5, 1.0, 0.0), points=(0.5,))
        assert val == pytest.approx(rect_prob(RectEvent(1.0, c=0.5)), abs=1e-10)

    def test_expect_on_event_reflected_cap(self):
        # {2S - X <= w} has the chi(3) law of the reflected path
        for w in (0.8, 1.6, 3.0):
            val = expect_on_event(FULL, lambda x, s: np.ones_like(x), w_max=w)
            assert val == pytest.approx(stats.chi(3).cdf(w), abs=1e-10)


class TestQphiLimit:
    def test_total_mass(self):
        assert q_phi_limit(UNIFORM, FULL) == pytest.approx(1.0, abs=1e-7)
        assert q_phi_limit(EXP1, FULL) == pytest.approx(1.0, abs=1e-7)

    def test_martingale_route_agrees(self):
        for phi in (UNIFORM, EXP1):
            mix = q_phi_limit(phi, EV)
            mart = q_phi_limit(phi, EV, route="martingale")
            assert mix == pytest.approx(mart, abs=1e-6)

    def test_tabulated_routes_agree(self):
        # with the knots declared as cuts, the martingale route resolves the table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ev in (EV, FULL, RectEvent(0.7, 0.9, 1.2)):
                assert q_phi_limit(TABULATED, ev) == pytest.approx(
                    q_phi_limit(TABULATED, ev, route="martingale"), abs=1e-12)

    def test_uniform_phi_is_average_of_pinned_laws(self):
        val, _ = integrate.quad(lambda z: q_y_limit(z, EV), 0.0, 1.0, limit=200)
        assert q_phi_limit(UNIFORM, EV) == pytest.approx(val, abs=1e-7)


class TestQphiFinite:
    # q_phi_finite mixes the closed-form q_y_finite over the maximum;
    # finite_t_value(PhiOfMax) integrates the g_phi_hat kernel over the time-u
    # state: a deliberate oracle pair
    @given(phi=st.one_of(st.floats(0.2, 4.0).map(DensitySpec.uniform),
                         st.floats(0.3, 3.0).map(DensitySpec.exponential)),
           u=st.floats(0.1, 5.0), r=st.floats(0.05, 500.0), b=EVENT_B, c=EVENT_C)
    @settings(max_examples=40, deadline=None)
    def test_matches_kernel_route(self, phi, u, r, b, c):
        ev = RectEvent(u, b, c)
        assert q_phi_finite(phi, ev, u + r) == pytest.approx(
            finite_t_value(PhiOfMax(phi), ev, u + r), abs=1e-10)

    def test_tabulated_matches_kernel_route(self):
        # both routes are exact on the tables.  While the kernel ran a fixed
        # Gauss-Legendre rule across the knots they were a few 1e-7 apart, and
        # below the spike, narrower than the rule's node spacing, the kernel
        # was 0 and the kernel route raised FloatingPointError
        for phi, ev, t in ((TABULATED, EV, 8.0), (TABULATED, RectEvent(0.7, 0.9, 1.2), 33.0),
                           (SPIKE, EV, 8.0)):
            assert q_phi_finite(phi, ev, t) == pytest.approx(
                finite_t_value(PhiOfMax(phi), ev, t), abs=1e-12)

    @pytest.mark.parametrize("u,t", [(1.0, 8.0), (0.3, 0.35), (2.0, 500.0)])
    def test_tabulated_full_event_mass(self, u, t):
        assert q_phi_finite(TABULATED, RectEvent(u), t) == pytest.approx(1.0, abs=1e-13)

    def test_no_integration_warning_on_tabulated_phi(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            assert 0.0 < phi_series_value(TABULATED, EV, 8.0) < 1.0
            assert 0.0 < q_phi_limit(TABULATED, EV) < 1.0
            assert q_phi_limit(TABULATED, FULL) == pytest.approx(1.0, abs=1e-13)
            assert q_a_phi_limit(-0.5, TABULATED, FULL) == pytest.approx(1.0, abs=1e-13)
            assert 0.0 < q_a_phi_limit(-0.5, TABULATED, EV, route="bridge") < 1.0

    def test_short_horizon_mixture_ends_where_the_weight_is_spent(self, monkeypatch):
        # exponential(0.2) ends at 150, but at t - u = 1e-3 the weight phi(y)
        # p_max(t, y) is spent by y ~ 10: the mixture stops at sqrt(y0^2 + 80 t),
        # y0 = 2 E[Y] = 10, where the uncut rule made about 19 000 pieces
        phi, t = DensitySpec.exponential(0.2), 1.001
        for ev in (EV, RectEvent(1.0, 0.3, 0.8), RectEvent(1.0, 1.5), RectEvent(1.0, 3.0, 4.0)):
            uncut = quadrature._level_mixture(
                ev, lambda y: q_y_finite(y, ev, t),
                lambda y: quadrature._log(phi.pdf(y)) - y * y / (2.0 * t),
                phi.effective_upper(1e-13), phi.kinks, t)
            assert q_phi_finite(phi, ev, t) == pytest.approx(uncut, abs=1e-15)
        ends = []
        mixture = quadrature._level_mixture
        monkeypatch.setattr(quadrature, "_level_mixture",
                            lambda *args: ends.append(args[3]) or mixture(*args))
        q_phi_finite(phi, EV, t)
        q_phi_finite(UNIFORM, EV, t)    # the window reaches past phi's end
        assert ends == [pytest.approx(math.sqrt(100.0 + 80.0 * t), rel=1e-14), 1.0]

    def test_unresolved_rule_raises(self, monkeypatch):
        # one node against two per piece cannot resolve the mixture to 1e-10
        monkeypatch.setattr(quadrature, "MIX_NODES", 1)
        with pytest.raises(FloatingPointError):
            q_phi_finite(UNIFORM, EV, 4.0)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            q_phi_finite(UNIFORM, EV, 1.0)


class TestMonotonicity:
    def test_limit_laws_nondecreasing_in_bounds(self):
        bs = [-1.0, 0.0, 0.7, math.inf]
        cs = [0.3, 0.8, 1.5, math.inf]
        for fn in (lambda ev: q_y_limit(1.0, ev), lambda ev: q_ay_limit(0.0, 1.0, ev)):
            vals = [fn(RectEvent(1.0, b, 0.8)) for b in bs]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))
            vals = [fn(RectEvent(1.0, 0.2, c)) for c in cs]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))


KENNEDY_LAM2 = KennedyWeight(2.0, DensitySpec.exponential(0.5, laplace_lambda=2.0))


KENNEDY_PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)


def _kennedy_kernel(r):
    """The lam = 1 Kennedy weight's conditional kernel at r over its value at
    the origin with horizon 1 + r: the integrand of its finite-t value at u = 1."""
    log_den = float(log_g_kennedy(np.zeros(1), np.zeros(1), 1.0 + r, 1.0, KENNEDY_PSI)[0])
    return lambda x, s: np.exp(log_g_kennedy(x, s, r, 1.0, KENNEDY_PSI) - log_den)


def _dense_event_rule(ev, g, points=(), reach=12.0):
    """Integral of g p_joint over the event by one fixed rule: 32 s-nodes by
    192 w-nodes (w = 2s - x) per s-piece at most sqrt(u) wide, cut at b and
    at ``points``, over the window w <= reach sqrt(u)."""
    u, b, c = ev.u, ev.b, ev.c
    root_u = math.sqrt(u)
    top = reach * root_u
    s_hi = min(c, (max(b, 0.0) + top) / 2.0 if math.isfinite(b) else top)
    cuts = np.unique([0.0, s_hi, *(p for p in (b, *points) if 0.0 < p < s_hi)])
    edges = np.concatenate([np.linspace(lo, up, math.ceil((up - lo) / root_u), endpoint=False)
                            for lo, up in zip(cuts[:-1], cuts[1:])] + [cuts[-1:]])
    s_nodes, s_wts = np.polynomial.legendre.leggauss(32)
    w_nodes, w_wts = np.polynomial.legendre.leggauss(192)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (s_nodes + 1.0)).ravel()
    w0 = 2.0 * s - np.minimum(b, s)
    w_half = np.maximum(top - w0, 0.0)[:, None] / 2.0
    w = w0[:, None] + w_half * (w_nodes + 1.0)
    ss = np.broadcast_to(s[:, None], w.shape)
    f = g(2.0 * ss - w, ss) * p_joint(u, 2.0 * ss - w, ss) * w_half * w_wts
    return float(np.dot(np.sum(f, axis=1), (half * s_wts).ravel()))


class TestExpectOnEvent:
    def test_full_space_unit_weight(self):
        assert expect_on_event(FULL, lambda x, s: np.ones_like(x)) == pytest.approx(1.0, abs=1e-9)

    def test_recovers_rect_prob(self):
        for ev in (EV, RectEvent(0.7, 0.4, 1.1)):
            val = expect_on_event(ev, lambda x, s: np.ones_like(x))
            assert val == pytest.approx(rect_prob(ev), abs=1e-9)

    def test_martingale_unit_mean(self):
        val = expect_on_event(FULL, lambda x, s: m_phi_xs(x, s, UNIFORM), points=(1.0,))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nan_gap_raises(self):
        # a NaN integrand gives a NaN gap, which must not pass the MIX_TOL check
        with pytest.raises(FloatingPointError):
            expect_on_event(EV, lambda x, s: np.full_like(x, np.nan))

    def test_undeclared_jump_raises(self):
        # a jump of g in s that is not among the points defeats the fixed rule
        with pytest.raises(FloatingPointError):
            expect_on_event(FULL, lambda x, s: np.where(s <= 0.5, 1.0, 0.0))

    def test_window_limit_raises(self, monkeypatch):
        # the R2 tilt at u = 4 needs a wider window than GAUSS_CUT sqrt(u)
        monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 0)
        with pytest.raises(FloatingPointError):
            finite_t_value(ExpLinear(1.0, 1.0), RectEvent(4.0), 5.0)

    def test_inner_rule_is_checked(self, monkeypatch):
        # with as many w-nodes as s-nodes the inner rule is too coarse; the gap
        # between levels must see it (6 fixed w-nodes gave 0.87 silently)
        monkeypatch.setattr(quadrature, "W_PER_S", 1)
        with pytest.raises(FloatingPointError):
            finite_t_value(KENNEDY_LAM2, RectEvent(4.13), 4.13 + 0.053)

    def test_one_refinement_resolves_a_late_gap(self, monkeypatch):
        # the first two levels of this R2 call differ by 3.8e-8; the third settles it
        pen, ev, t = ExpLinear(1.0, 1.0), RectEvent(4.1046), 4.1046 + 0.0577
        assert finite_t_value(pen, ev, t) == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(quadrature, "MAX_REFINE", 0)
        with pytest.raises(FloatingPointError):
            finite_t_value(pen, ev, t)

    @pytest.mark.parametrize("ev", [EV, FULL], ids=["EV", "FULL"])
    @pytest.mark.parametrize("g,points", [
        pytest.param(lambda x, s: np.ones_like(x), (), id="unit"),
        pytest.param(lambda x, s: m_phi_xs(x, s, UNIFORM), (1.0,), id="m_phi[uniform]"),
        pytest.param(lambda x, s: m_mu_lambda_xs(x, s, 1.0, -2.0, 1.0), (), id="R1(-2,1)"),
        pytest.param(lambda x, s: m_mu_lambda_xs(x, s, 1.0, 1.0, 1.0), (), id="R2(1,1)"),
        pytest.param(lambda x, s: m_mu_lambda_xs(x, s, 1.0, 0.0, -1.0), (), id="R3(0,-1)"),
    ] + [pytest.param(_kennedy_kernel(r), (1.0,), id=f"kennedy[r={r}]")
         for r in (0.05, 5.0, 500.0)])
    def test_matches_a_dense_fixed_rule(self, ev, g, points):
        # the ladder stops at the first two levels that agree; its value must
        # be the one of a rule with more nodes than any of its levels
        assert expect_on_event(ev, g, points=points) == pytest.approx(
            _dense_event_rule(ev, g, points), abs=1e-12)


def _unit_mass(value, raises):
    """value() is a full-event mass: 1 within 1e-10, or FloatingPointError
    where the window cannot reach the tilted mass (nu sqrt(u) = 20 today;
    step 2 of ROADMAP item 22 should turn those raises into values)."""
    if raises:
        with pytest.raises(FloatingPointError):
            value()
    else:
        assert value() == pytest.approx(1.0, abs=1e-10)


class TestTiltedMassFoundOrRaises:
    # a tilt nu puts the mass near w = nu u, past the first window GAUSS_CUT sqrt(u);
    # a band check absolute in MIX_TOL passed windows that held 3.2e-27 of it

    @pytest.mark.parametrize("u", [1.0, 4.0])
    @pytest.mark.parametrize("tilt,raises", [(1.0, False), (2.0, False), (4.0, False),
                                             (8.0, False), (10.0, False), (12.0, False),
                                             (16.0, False), (20.0, True)])
    def test_r2_unit_mean(self, tilt, raises, u):
        # tilt = nu sqrt(u), nu = lam + mu
        lam = mu = tilt / math.sqrt(u) / 2.0
        _unit_mass(lambda: expect_on_event(
            RectEvent(u), lambda x, s: m_mu_lambda_xs(x, s, u, lam, mu)), raises)

    @pytest.mark.parametrize("lam", [5.0, 6.0])
    def test_r2_mass_past_the_window_raises(self, lam):
        # returned 3.2e-27 at (5, 5) and 1.8e-49 at (6, 6)
        with pytest.raises(FloatingPointError):
            expect_on_event(RectEvent(4.0), lambda x, s: m_mu_lambda_xs(x, s, 4.0, lam, lam))

    def test_r2_mass_found_by_a_wider_window(self):
        # returned 7.6e-12
        val = expect_on_event(FULL, lambda x, s: m_mu_lambda_xs(x, s, 1.0, 8.0, 8.0))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("u,t", [(4.0, 8.0), (16.0, 32.0)])
    @pytest.mark.parametrize("tilt,raises", [(2.0, False), (5.0, False), (10.0, False),
                                             (15.0, False), (20.0, True)])
    def test_explinear_finite_t_mass(self, tilt, raises, u, t):
        lam = mu = tilt / math.sqrt(u) / 2.0
        _unit_mass(lambda: finite_t_value(ExpLinear(lam, mu), RectEvent(u), t), raises)

    @pytest.mark.parametrize("u,t", [(1.0, 2.0), (4.0, 8.0), (4.0, 64.0)])
    @pytest.mark.parametrize("tilt", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("shape", ["uniform", "exponential"])
    def test_kennedy_finite_t_mass(self, shape, tilt, u, t):
        # tilt = lam sqrt(u); at lam sqrt(u) = 20 and u = 4 this returned 0
        lam = tilt / math.sqrt(u)
        psi = (DensitySpec.uniform(1.0, laplace_lambda=lam) if shape == "uniform"
               else DensitySpec.exponential(0.5, laplace_lambda=lam))
        _unit_mass(lambda: finite_t_value(KennedyWeight(lam, psi), RectEvent(u), t), False)

    def test_tabulated_kennedy_finite_t_mass(self):
        grid = np.linspace(0.0, 2.0, 41)
        psi = DensitySpec.tabulated(grid, np.exp(-grid), laplace_lambda=5.0)
        _unit_mass(lambda: finite_t_value(KennedyWeight(5.0, psi), RectEvent(4.0), 8.0), False)


def reference_rule_nodes(hi, cuts, width, n):
    """The nodes and weights of ``_checked_rule``'s first level with one
    np.finfo test per cut and one np.linspace per cut interval: the loop the
    array-built edges replaced, kept as their reference."""
    cuts = np.unique([0.0, hi, *(p for p in cuts if np.finfo(float).tiny < p < hi)])
    pieces = np.ceil(np.diff(cuts) / width).astype(int)
    edges = np.concatenate([np.linspace(lo, up, k, endpoint=False)
                            for lo, up, k in zip(cuts[:-1], cuts[1:], pieces)] + [cuts[-1:]])
    lo, span = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = gauss_legendre(n)
    return (lo + span * nodes).ravel(), (span * weights).ravel()


def rule_nodes(hi, cuts, width, n):
    """The nodes and weights ``_checked_rule`` hands its integral at its first level."""
    seen = []

    def integral(levels):
        seen.extend((y, wts) for y, wts, _k in levels)
        return [0.0] * len(levels)

    quadrature._checked_rule("nodes", hi, cuts, width, n, integral)
    return seen[0]


def reference_expect_on_event(ev, g, w_max=math.inf, points=()):
    """``expect_on_event`` with g called on flat arrays, s repeated once per
    w-node (np.repeat, ravel): the loop the s-column integrands replaced,
    kept as their reference."""
    u, b, c = ev.u, ev.b, ev.c
    if b == -math.inf:
        return 0.0
    root_u = math.sqrt(u)
    pref = math.sqrt(2.0 / (math.pi * u ** 3))
    reach = GAUSS_CUT * root_u
    band = []

    def integral(s_all, s_wts, n):
        total = band_mass = abs_mass = 0.0
        n_w = quadrature.W_PER_S * n
        w_nodes, w_weights = gauss_legendre(n_w)
        step = quadrature.EVENT_BLOCK // n_w
        for i in range(0, s_all.size, step):
            s = s_all[i:i + step]
            w0 = 2.0 * s - np.minimum(b, s)
            span = np.maximum(np.minimum(w0 + reach, w_max) - w0, 0.0)
            w = (w0[:, None] + span[:, None] * w_nodes).ravel()
            ss = np.repeat(s, n_w)
            f = (g(2.0 * ss - w, ss) * pref * w * np.exp(-w * w / (2.0 * u))
                 * np.outer(span * s_wts[i:i + step], w_weights).ravel())
            total += float(np.sum(f))
            abs_mass += float(np.sum(np.abs(f)))
            band_mass += float(np.sum(np.abs(f[w > reach - root_u])))
        band.append((band_mass, abs_mass))
        return total

    for _ in range(quadrature.MAX_DOUBLINGS + 1):
        s_hi = min(c, w_max, (w_max + b) / 2.0,
                   (max(b, 0.0) + reach) / 2.0 if math.isfinite(b) else reach)
        if s_hi <= 0.0:
            return 0.0
        val = quadrature._checked_rule(
            "event", s_hi, (b, *points, w_max - reach, (w_max - reach + b) / 2.0),
            root_u, quadrature.EVENT_NODES, lambda levels: [integral(*lev) for lev in levels])
        band_mass, abs_mass = band[-1]
        if band_mass <= quadrature.MIX_TOL * min(1.0, abs_mass):
            return val
        reach *= 2.0
    raise FloatingPointError("event window unresolved")


def _random_cuts(gen, hi):
    """Up to 301 cuts around [0, hi], with duplicates, +-inf, NaN, hi itself
    and cuts at or below the smallest normal float."""
    cuts = list(gen.uniform(-0.2 * hi, 1.2 * hi, gen.integers(0, 302)))
    cuts += list(gen.choice(cuts, gen.integers(0, 4))) if cuts else []
    odd = [math.inf, -math.inf, math.nan, hi, 0.0, -0.0, 5e-324, 1e-310,
           np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 1.0)]
    cuts += list(gen.choice(odd, gen.integers(0, 5)))
    gen.shuffle(cuts)
    return tuple(cuts)


class TestBitIdenticalRules:
    # the array-built rule pieces and the s-column integrands reproduce the
    # parent's floats exactly, so no verdict or value moves

    @pytest.mark.parametrize("seed", range(8))
    def test_rule_edges_match_per_interval_linspace(self, seed):
        gen = np.random.default_rng(seed)
        for _ in range(50):
            hi = float(gen.choice([gen.uniform(1e-3, 1.0), gen.uniform(1.0, 150.0)]))
            width = float(gen.uniform(1e-3, 2.0))
            cuts = _random_cuts(gen, hi)
            n = int(gen.choice([1, 8, 16]))
            y, wts = rule_nodes(hi, cuts, width, n)
            y_ref, wts_ref = reference_rule_nodes(hi, cuts, width, n)
            assert np.array_equal(y, y_ref) and np.array_equal(wts, wts_ref)

    def test_rule_edges_match_on_a_table_grid(self):
        # a tabulated phi's 301 knots are 301 cuts, as q_phi_limit passes them
        for width in (0.25, 0.005, 0.0049):
            cuts = (0.0, math.inf, *TABULATED.kinks, 1.5)
            y, wts = rule_nodes(1.5, cuts, width, 8)
            y_ref, wts_ref = reference_rule_nodes(1.5, cuts, width, 8)
            assert np.array_equal(y, y_ref) and np.array_equal(wts, wts_ref)

    @pytest.mark.parametrize("ev", [EV, FULL, RectEvent(0.7, 0.9, 1.2)], ids=["EV", "FULL", "ev2"])
    @pytest.mark.parametrize("g,points", [
        pytest.param(lambda x, s: m_phi_xs(x, s, TABULATED), (1.5, *TABULATED.kinks),
                     id="m_phi[tabulated]"),
        pytest.param(lambda x, s: m_kennedy_xs(x, s, 1.0, 1.0, KENNEDY_PSI), (1.0,),
                     id="m_kennedy[uniform]"),
        pytest.param(lambda x, s: f1_phi_xs(x, s, 1.0, EXP1), (), id="f1_phi[exp]"),
        pytest.param(lambda x, s: f1_phi_xs(x, s, 1.0, TABULATED), TABULATED.kinks,
                     id="f1_phi[tabulated]"),
        pytest.param(_kennedy_kernel(5.0), (1.0,), id="kennedy-kernel"),
    ])
    def test_expect_on_event_matches_the_flat_integrand_loop(self, ev, g, points):
        assert expect_on_event(ev, g, points=points) == reference_expect_on_event(ev, g, points=points)

    def test_kernel_route_matches_the_flat_integrand_loop(self):
        # the finite_t_value integrand of a tabulated phi, through the Hermite engine
        kernel = PhiOfMax(TABULATED).log_kernel
        for ev, t in ((EV, 8.0), (RectEvent(0.7, 0.9, 1.2), 33.0)):
            log_den = float(kernel(np.zeros(1), np.zeros(1), t)[0])
            g = lambda x, s: np.exp(kernel(x, s, t - ev.u) - log_den)
            assert (expect_on_event(ev, g, points=TABULATED.kinks)
                    == reference_expect_on_event(ev, g, points=TABULATED.kinks))


class TestIntegrandContract:
    # g gets the x block as an (m, k) array and s as its (m, 1) column

    def test_integrand_gets_a_block_and_its_s_column(self):
        shapes = []

        def g(x, s):
            shapes.append((x.shape, s.shape))
            return np.ones_like(x)

        expect_on_event(EV, g)
        assert shapes
        for (m, k), s_shape in shapes:
            assert s_shape == (m, 1)
            assert k % (quadrature.W_PER_S * quadrature.EVENT_NODES) == 0

    @pytest.mark.parametrize("ev", [EV, RectEvent(0.7, 0.4, 1.1), FULL], ids=["EV", "ev2", "FULL"])
    @pytest.mark.parametrize("g", [lambda x, s: np.ones_like(s), lambda x, s: 1.0],
                             ids=["s-column", "scalar"])
    def test_s_only_and_scalar_integrands(self, ev, g):
        val = expect_on_event(ev, g)
        assert val == pytest.approx(rect_prob(ev), abs=1e-9)
        # broadcasting an s-only value is exact: the full block gives the same float
        assert val == expect_on_event(ev, lambda x, s: np.ones_like(x))

    def test_s_only_jump_at_a_declared_point(self):
        step = lambda x, s: np.where(s <= 0.5, 1.0, 0.0)
        val = expect_on_event(FULL, step, points=(0.5,))
        assert val == pytest.approx(rect_prob(RectEvent(1.0, c=0.5)), abs=1e-10)
        assert val == expect_on_event(FULL, lambda x, s: step(x, s) * np.ones_like(x),
                                      points=(0.5,))


def reference_checked_rule(name, hi, cuts, width, n, integral):
    """``_checked_rule`` as one call per node level, n, 2n and then 4n only
    after a failed gap, each level handed to the integral alone: the loop
    the paired first call replaced, kept as its reference."""
    def level(k):
        y, wts = reference_rule_nodes(hi, cuts, width, k)
        (value,) = integral([(y, wts, k)])
        return value

    k, value = n, level(n)
    for _ in range(quadrature.MAX_REFINE + 1):
        k, last = 2 * k, value
        value = level(k)
        gap = abs(value - last)
        if gap <= quadrature.MIX_TOL:
            return value
    raise FloatingPointError(f"{name} rule unresolved: {k // 2} and {k} "
                             f"nodes per piece differ by {gap:.2e}")


def _per_level(monkeypatch, value):
    """value() with every checked rule run by ``reference_checked_rule``."""
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_checked_rule", reference_checked_rule)
        return value()


def _random_event(gen):
    u = float(gen.uniform(0.5, 2.0))
    b = float(gen.choice([gen.uniform(-0.5, 1.5), math.inf, -math.inf], p=[0.7, 0.25, 0.05]))
    c = float(gen.choice([gen.uniform(0.3, 2.0), math.inf], p=[0.7, 0.3]))
    return RectEvent(u, b, c)


_TAB201_GRID = np.linspace(0.0, 1.5, 201)
TABULATED_201 = DensitySpec.tabulated(_TAB201_GRID, 0.2 + 1.3 * _TAB201_GRID ** 2)
EV_STEEP = RectEvent(1.0, 0.0, 0.5)


def _bump(sd):
    """The log of a Gaussian weight of standard deviation sd about y = 0.37,
    narrower than the mixtures' pieces (0.25 wide at u = 1) and not cut: on
    EV_STEEP the first two levels differ by more than MIX_TOL, and at sd =
    0.04 the third level settles them, at sd = 0.02 it does not."""
    return lambda y: -0.5 * ((y - 0.37) / sd) ** 2


def _bump_mixture(route, sd):
    """The level mixture of q_y_limit (route "limit") or q_y_finite at t = 2
    (route "finite") over (0, 1] on EV_STEEP, with the weight ``_bump(sd)``."""
    if route == "limit":
        return quadrature._level_mixture(EV_STEEP, lambda y: q_y_limit(y, EV_STEEP), _bump(sd), 1.0)
    return quadrature._level_mixture(EV_STEEP, lambda y: q_y_finite(y, EV_STEEP, 2.0), _bump(sd),
                                     1.0, (), 2.0)


class TestPairedLevels:
    # levels n and 2n reach the integrand in one call; every level mixture
    # must still equal the per-level loop bit for bit

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("phi", [UNIFORM, EXP1, TABULATED_201],
                             ids=["uniform", "exponential", "tabulated-201"])
    def test_every_mixture_route_matches_the_per_level_loop(self, monkeypatch, phi, seed):
        gen = np.random.default_rng(seed)
        for _ in range(3):
            ev = _random_event(gen)
            a, y = float(gen.uniform(-1.0, 0.5)), float(gen.uniform(0.3, 2.0))
            t = ev.u + float(gen.uniform(0.05, 30.0))
            for value in (lambda: q_phi_limit(phi, ev),
                          lambda: q_a_phi_limit(a, phi, ev),
                          lambda: q_a_phi_limit(a, phi, ev, route="bridge"),
                          lambda: q_ay_limit(min(a, y), y, ev, route="mixture"),
                          lambda: q_phi_finite(phi, ev, t)):
                assert value() == _per_level(monkeypatch, value)

    @pytest.mark.parametrize("route", ["limit", "finite"])
    def test_a_late_gap_takes_the_4n_level(self, monkeypatch, route):
        value = lambda: _bump_mixture(route, 0.04)
        handed = []
        rule = quadrature._checked_rule

        def recording_rule(name, hi, cuts, width, n, integral):
            def recording(levels):
                handed.append([k for _, _, k in levels])
                return integral(levels)
            return rule(name, hi, cuts, width, n, recording)

        with monkeypatch.context() as m:
            m.setattr(quadrature, "_checked_rule", recording_rule)
            paired = value()
        assert handed == [[8, 16], [32]]
        assert paired == _per_level(monkeypatch, value)

    def test_an_unresolved_mixture_raises_the_per_level_message(self, monkeypatch):
        # 16 and 32 nodes per piece still differ by 2.6e-7 on so narrow a weight
        with pytest.raises(FloatingPointError) as paired:
            _bump_mixture("limit", 0.02)
        with pytest.raises(FloatingPointError) as per_level:
            _per_level(monkeypatch, lambda: _bump_mixture("limit", 0.02))
        assert str(paired.value) == str(per_level.value)
        assert str(paired.value).startswith("level-mixture rule unresolved: 16 and 32 nodes")


def _counting(f, sizes):
    def counted(y):
        sizes.append(np.size(y))
        return f(y)
    return counted


class TestIntegrandCalls:
    # each check reaches its integrand in as few calls as its levels allow

    @pytest.mark.parametrize("log_weight,kinks,hi,ev,late", [
        (lambda y: quadrature._log(UNIFORM.pdf(y)), UNIFORM.kinks, 1.0, EV, False),
        (lambda y: quadrature._log(TABULATED_201.pdf(y)), TABULATED_201.kinks, 1.5, FULL, False),
        (_bump(0.04), (), 1.0, EV_STEEP, True)], ids=["uniform", "tabulated-201", "late-gap"])
    def test_mixture_evaluates_both_first_levels_in_one_call(self, log_weight, kinks, hi, ev, late):
        q_sizes, w_sizes = [], []
        quadrature._level_mixture(ev, _counting(lambda y: q_y_limit(y, ev), q_sizes),
                                  _counting(log_weight, w_sizes), hi, kinks)
        # m nodes at level n: n and 2n together, then 4n only after a failed gap
        m = rule_nodes(hi, (ev.b, ev.c, *kinks), 0.25 * math.sqrt(ev.u),
                       quadrature.MIX_NODES)[0].size
        assert q_sizes == w_sizes == ([3 * m, 4 * m] if late else [3 * m])

    @pytest.mark.parametrize("ev,g,points", [
        pytest.param(FULL, lambda x, s: np.ones_like(x), (), id="unit-FULL"),
        pytest.param(EV, lambda x, s: np.ones_like(x), (), id="unit-EV"),
        pytest.param(FULL, lambda x, s: m_phi_xs(x, s, TABULATED), (1.5, *TABULATED.kinks),
                     id="m_phi[tabulated]-FULL"),
    ])
    def test_event_calls_g_once_per_block_of_a_level(self, monkeypatch, ev, g, points):
        rows, blocks = [], []
        rule = quadrature._checked_rule

        def recording_rule(name, hi, cuts, width, n, integral):
            def recording(levels):
                rows.extend(y.size for y, _, _ in levels)
                return integral(levels)
            return rule(name, hi, cuts, width, n, recording)

        def counted_g(x, s):
            blocks.append(x.shape)
            return g(x, s)

        monkeypatch.setattr(quadrature, "_checked_rule", recording_rule)
        expect_on_event(ev, counted_g, points=points)
        i = 0
        for level_rows in rows:
            n_w = blocks[i][1]
            calls = math.ceil(level_rows / (quadrature.EVENT_BLOCK // n_w))
            assert [k for _, k in blocks[i:i + calls]] == [n_w] * calls
            assert sum(m for m, _ in blocks[i:i + calls]) == level_rows
            i += calls
        assert i == len(blocks)
        if ev == FULL and not points:
            # a full event at u = 1, 16 x 96 states on 160 rows, is one call a level
            assert len(blocks) == len(rows) == 2

    def test_peak_memory_of_the_larger_block(self):
        # the bounds, set before the block grew from 4096 to 16384 states:
        # 1.5 MiB for the 301-knot martingale route (0.3 MiB at 4096 states,
        # 1.1 at 16384) and 3 MiB for the tabulated Kennedy finite-t value
        # (0.5 and 2.2 MiB)
        # a ladder of 7 horizons, whose closed-form kernel stacks its
        # temporaries over the horizons, keeps the Kennedy bound (1.5 MiB;
        # 1.9 MiB for one horizon, and 0.6 MiB for the tabulated psi's ladder)
        grid = np.linspace(0.0, 2.0, 41)
        psi = DensitySpec.tabulated(grid, np.exp(-grid), laplace_lambda=5.0)
        ladder = np.array([5.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0])
        stacked = KennedyWeight(5.0, DensitySpec.exponential(0.5, laplace_lambda=5.0))
        for value, bound in ((lambda: q_phi_limit(TABULATED, FULL, route="martingale"), 1.5),
                             (lambda: finite_t_value(KennedyWeight(5.0, psi), RectEvent(4.0), 8.0),
                              3.0),
                             (lambda: finite_t_value(stacked, RectEvent(4.0), ladder), 3.0)):
            value()     # tables and node caches built outside the measure
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                value()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                if started:
                    tracemalloc.stop()
            assert peak - before < bound * 2 ** 20


def _dense_mixture(phi, ev, rate_pieces=8, nodes=32):
    """q_phi_limit's mixture by one fixed composite Gauss-Legendre rule: pieces
    1/(rate_pieces rate) wide over [0, 40/rate], cut at b and c, with ``nodes``
    nodes each."""
    top = 40.0 / phi.rate
    cuts = np.unique([0.0, top, *(p for p in (ev.b, ev.c) if 0.0 < p < top)])
    edges = np.unique(np.concatenate([np.linspace(lo, up, 1 + math.ceil((up - lo) * rate_pieces * phi.rate))
                                      for lo, up in zip(cuts[:-1], cuts[1:])]))
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = np.diff(edges)[:, None] / 2.0
    y = (edges[:-1, None] + half * (x + 1.0)).ravel()
    wts = (half * w).ravel() * phi.pdf(y)
    return float(np.dot(wts, q_y_limit(y, ev)) / np.sum(wts))


class TestSteepPhiPieces:
    # an exponential phi's mixture pieces are at most 1/rate wide: at rate 300
    # on EV_STEEP the pieces sqrt(u)/4 wide raised FloatingPointError (16 and
    # 32 nodes differed by 3.6e-10), and so did the bridge route at a = -0.3

    @pytest.mark.parametrize("rate", [300.0, 1000.0, 3000.0])
    def test_steep_exponential_phi_is_resolved(self, rate):
        phi = DensitySpec.exponential(rate)
        limit = q_phi_limit(phi, EV_STEEP)
        assert limit == pytest.approx(_dense_mixture(phi, EV_STEEP), abs=1e-14)
        assert q_a_phi_limit(-0.3, phi, EV_STEEP, route="bridge") == pytest.approx(
            q_a_phi_limit(-0.3, phi, EV_STEEP), abs=1e-14)
        # 1.2e-13 from the limit at rate 300
        assert q_phi_finite(phi, EV_STEEP, 1e6) == pytest.approx(limit, abs=1e-12)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_gentle_rates_keep_their_pieces(self, monkeypatch, rate, u):
        # where 1/rate is at least sqrt(min(u, t - u))/4 the cap leaves every
        # piece, and so every value, as it was
        phi, ev = DensitySpec.exponential(rate), RectEvent(u, 0.3, 1.1)
        values = (lambda: q_phi_limit(phi, ev), lambda: q_a_phi_limit(-0.2, phi, ev),
                  lambda: q_a_phi_limit(-0.2, phi, ev, route="bridge"),
                  lambda: q_phi_finite(phi, ev, u + 3.0))
        capped = [value() for value in values]
        monkeypatch.setattr(quadrature, "_length_scale", lambda phi: math.inf)
        assert capped == [value() for value in values]


def _ladder_ts(u):
    return np.array([u + 0.05, u + 0.7, u + 3.0, 32.0, 512.0, 2048.0])


class TestHorizonLadders:
    # an array of horizons is one ladder: closed forms elementwise, mixtures
    # as one checked rule on shared nodes

    @pytest.mark.parametrize("ev", [EV, RectEvent(0.7, 0.3, 1.4), FULL, RectEvent(2.0, -0.4)],
                             ids=["EV", "ev2", "FULL", "ev3"])
    def test_closed_forms_stack_bit_for_bit(self, ev):
        ts = _ladder_ts(ev.u)
        y = np.array([0.3, 0.5, 1.2, 2.5])
        assert np.array_equal(q_y_finite(y, ev, ts[:, None]),
                              np.stack([q_y_finite(y, ev, t) for t in ts]))
        assert np.array_equal(q_ay_finite(-0.2, y, ev, ts[:, None]),
                              np.stack([q_ay_finite(-0.2, y, ev, t) for t in ts]))
        assert np.array_equal(q_y_finite(1.0, ev, ts), [q_y_finite(1.0, ev, t) for t in ts])
        assert np.array_equal(q_ay_finite(0.0, 1.0, ev, ts), [q_ay_finite(0.0, 1.0, ev, t) for t in ts])

    def test_closed_forms_reject_a_horizon_at_u(self):
        ts = np.array([4.0, EV.u])
        for value in (lambda: q_y_finite(1.0, EV, ts), lambda: q_ay_finite(0.0, 1.0, EV, ts),
                      lambda: q_phi_finite(UNIFORM, EV, ts)):
            with pytest.raises(ValueError):
                value()

    @pytest.mark.parametrize("phi", [UNIFORM, EXP1, TABULATED_201, DensitySpec.exponential(5.0)],
                             ids=["uniform", "exponential", "tabulated-201", "exponential-5"])
    @pytest.mark.parametrize("ev", [EV, RectEvent(0.7, 0.3, 1.4), RectEvent(1.5), RectEvent(2.0, 1.0)],
                             ids=["EV", "ev2", "full-1.5", "ev3"])
    def test_phi_mixture_ladder_matches_its_horizons(self, phi, ev):
        # one mixture cut for the smallest horizon and reaching the largest's end
        ts = _ladder_ts(ev.u)
        assert np.max(np.abs(q_phi_finite(phi, ev, ts)
                             - [q_phi_finite(phi, ev, t) for t in ts])) <= 1e-13

    def test_a_stack_takes_a_level_only_when_every_entry_does(self, monkeypatch):
        # entry 1 is the late-gap mixture, entry 0 settles at the first two levels
        handed = []
        rule = quadrature._checked_rule

        def recording_rule(name, hi, cuts, width, n, integral):
            def recording(levels):
                handed.append([k for _, _, k in levels])
                return integral(levels)
            return rule(name, hi, cuts, width, n, recording)

        stack = lambda y: np.stack([_bump(0.2)(y), _bump(0.04)(y)])
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_checked_rule", recording_rule)
            both = quadrature._level_mixture(EV_STEEP, lambda y: q_y_limit(y, EV_STEEP), stack, 1.0)
        assert handed == [[8, 16], [32]]
        assert both[1] == _bump_mixture("limit", 0.04)
        assert both[0] == pytest.approx(quadrature._level_mixture(
            EV_STEEP, lambda y: q_y_limit(y, EV_STEEP), _bump(0.2), 1.0), abs=quadrature.MIX_TOL)

    def test_an_unresolved_stack_names_its_worst_entry(self):
        stack = lambda y: np.stack([_bump(0.2)(y), _bump(0.02)(y), _bump(0.04)(y)])
        with pytest.raises(FloatingPointError, match=r"^level-mixture rule unresolved: 16 and 32 "
                                                     r"nodes per piece differ by .* at component 1$"):
            quadrature._level_mixture(EV_STEEP, lambda y: q_y_limit(y, EV_STEEP), stack, 1.0)

    @pytest.mark.parametrize("ev", [EV, FULL, RectEvent(0.7, 0.9, 1.2)], ids=["EV", "FULL", "ev2"])
    def test_event_stack_matches_its_integrands(self, ev):
        gs = [lambda x, s: m_phi_xs(x, s, UNIFORM), lambda x, s: m_mu_lambda_xs(x, s, ev.u, -2.0, 1.0),
              lambda x, s: np.ones_like(s)]
        stack = expect_on_event(ev, lambda x, s: np.stack(np.broadcast_arrays(*(g(x, s) for g in gs))),
                                points=(1.0,))
        assert np.max(np.abs(stack - [expect_on_event(ev, g, points=(1.0,)) for g in gs])) <= 1e-14

    def test_a_declared_height_bounds_every_block(self):
        # a block holds at most EVENT_BLOCK states across the stack; without a
        # height attribute the first block is sized for one integrand
        height, states = 7, []

        def g(x, s):
            states.append(height * x.size)
            return np.stack([np.ones_like(x)] * height)

        undeclared = expect_on_event(FULL, g)
        assert states[0] > quadrature.EVENT_BLOCK >= max(states[1:])
        states.clear()
        g.height = height
        assert np.array_equal(expect_on_event(FULL, g), undeclared)
        assert max(states) <= quadrature.EVENT_BLOCK

    def test_one_tilted_integrand_widens_the_window_for_the_stack(self, monkeypatch):
        # the R2 tilt at lam = mu = 4 needs a wider window than GAUSS_CUT sqrt(u)
        stack = lambda x, s: np.stack([np.ones_like(x), m_mu_lambda_xs(x, s, 1.0, 4.0, 4.0)])
        assert expect_on_event(FULL, stack) == pytest.approx([1.0, 1.0], abs=1e-10)
        monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 0)
        with pytest.raises(FloatingPointError, match=r"^event window unresolved: .* at component 1$"):
            expect_on_event(FULL, stack)


def _bessel_ratio(pen, t):
    """finite_t_value's integrand for ``pen`` at u = 1 and horizon t."""
    log_den = float(pen.log_kernel(np.zeros(1), np.zeros(1), t)[0])
    return lambda x, s: np.exp(pen.log_kernel(x, s, t - 1.0) - log_den)


class TestCappedWindowDensity:
    # a window that w_max cuts to L < reach has max(n, ceil(W_PER_S n L / reach))
    # w-nodes, the density of a full window

    @pytest.mark.parametrize("b", [0.8, 1.6, 3.0])
    @pytest.mark.parametrize("pen", [ExpLinear(-3.0, 1.0), ExpLinear(-2.0, 1.0, cap=1.0)],
                             ids=["branch1", "trivial"])
    def test_capped_values_match_the_full_density(self, pen, b):
        # criterion 11's weights and horizons, against the rule at W_PER_S n
        # nodes on every window; the largest move is 3.7e-11, at b = 1.6 and
        # t = 2048.  At b = 3.0 and t = 2048 the branch-1 kernel's own noise
        # (a full-event mass of 1 - 2.6e-9, levels that jitter by 1e-10)
        # makes either rule raise or pass by chance, so that pair stops at 1024
        top = 1024.0 if b == 3.0 and pen.cap == math.inf else 2048.0
        for t in (32.0, 256.0, top):
            g = _bessel_ratio(pen, t)
            ref = reference_expect_on_event(RectEvent(1.0, c=pen.cap), g, w_max=b, points=pen.kinks)
            assert finite_t_value(pen, FULL, t, w_max=b) == pytest.approx(ref, abs=quadrature.MIX_TOL)
        limit = lambda x, s: m_bar_xs(2.0 * s - x, 1.0, -1.0, -1.0)
        assert expect_on_event(FULL, limit, w_max=b) == pytest.approx(
            reference_expect_on_event(FULL, limit, w_max=b), abs=quadrature.MIX_TOL)

    @pytest.mark.parametrize("ev,w_max,k", [(FULL, 0.8, [8, 16]), (FULL, 1.6, [9, 17]),
                                            (FULL, 3.0, [16, 31]), (RectEvent(1.0, -0.5), 2.0, [8, 16]),
                                            (FULL, 20.0, [48, 96]), (FULL, math.inf, [48, 96])])
    def test_w_nodes_per_level(self, ev, w_max, k):
        blocks = []

        def g(x, s):
            blocks.append(x.shape[1])
            return np.ones_like(x)

        expect_on_event(ev, g, w_max=w_max)
        assert sorted(set(blocks)) == k

    def test_a_window_the_cap_leaves_is_bit_identical(self):
        g = lambda x, s: m_mu_lambda_xs(x, s, 1.0, -2.0, 1.0)
        assert expect_on_event(FULL, g, w_max=20.0) == reference_expect_on_event(FULL, g, w_max=20.0)
