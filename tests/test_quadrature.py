import math
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
from penalab.martingales import f1_phi_xs, m_kennedy_xs, m_mu_lambda_xs, m_phi_xs
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
    total += integrate.quad(free, 0.0, cprime, points=[b] if 0.0 < b < cprime else None,
                            **opts)[0]
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

    def integral(y, wts, _k):
        seen.append((y, wts))
        return 0.0

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
        total = band_mass = 0.0
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
            band_mass += float(np.sum(np.abs(f[w > reach - root_u])))
        band.append(band_mass)
        return total

    for _ in range(quadrature.MAX_DOUBLINGS + 1):
        s_hi = min(c, w_max, (w_max + b) / 2.0,
                   (max(b, 0.0) + reach) / 2.0 if math.isfinite(b) else reach)
        if s_hi <= 0.0:
            return 0.0
        val = quadrature._checked_rule(
            "event", s_hi, (b, *points, w_max - reach, (w_max - reach + b) / 2.0),
            root_u, quadrature.EVENT_NODES, integral)
        if band[-1] <= quadrature.MIX_TOL:
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
