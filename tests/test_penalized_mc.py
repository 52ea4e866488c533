import math

import numpy as np
import pytest
from scipy import integrate

from hypothesis import given, settings
from hypothesis import strategies as st

from penalab.exact_laws import DensitySpec, ExponentialBivariate, h_cdf, p_bessel3, p_joint, p_max
from penalab.expansion import phi_series_value
from penalab.martingales import m_kennedy_xs, m_mu_lambda_xs, m_phi_xs
from penalab.penalized_mc import (
    BivariateF,
    ExpLinear,
    KennedyWeight,
    PhiOfMax,
    bessel_penalization_check,
    bessel_weight,
    finite_t_value,
    max_conditional,
    penalized_estimate,
    terminal_conditional,
)
from penalab.quadrature import RectEvent, expect_on_event, q_ay_finite, q_y_finite
from penalab.samplers import RngStream

UNIFORM = DensitySpec.uniform(1.0)
PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)
EV = RectEvent(1.0, b=0.0, c=0.5)
FULL = RectEvent(1.0)


class TestRatioEstimator:
    @pytest.mark.parametrize("pen", [
        PhiOfMax(UNIFORM),
        ExpLinear(-2.0, 1.0),
        ExpLinear(0.0, -1.0),
        KennedyWeight(1.0, PSI),
    ])
    def test_full_space_is_exactly_one(self, pen):
        est = penalized_estimate(pen, FULL, 8.0, 4000, RngStream(1))
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_phi_estimate_matches_weighted_expectation(self):
        t = 100.0
        target = phi_series_value(UNIFORM, EV, t)
        est = penalized_estimate(PhiOfMax(UNIFORM), EV, t, 60000, RngStream(2))
        assert abs(est.value - target) <= 3 * est.stderr

    def test_terminal_and_conditional_agree(self):
        t = 16.0
        a = penalized_estimate(ExpLinear(-2.0, 1.0), EV, t, 60000, RngStream(3), mode="terminal")
        b = penalized_estimate(ExpLinear(-2.0, 1.0), EV, t, 60000, RngStream(4), mode="conditional")
        assert abs(a.value - b.value) <= 3.5 * math.hypot(a.stderr, b.stderr)

    def test_r2_estimate_is_drifted_wiener(self):
        # (1, 1): the limit law is Brownian motion with drift 2
        t = 256.0
        est = penalized_estimate(ExpLinear(1.0, 1.0), EV, t, 100000, RngStream(5))
        drift = 2.0
        # P^drift(X_1 <= 0, S_1 <= 0.5) by 2-d quadrature of the tilted joint density
        def tilted(x, s):
            return np.exp(drift * x - drift * drift / 2.0) * p_joint(1.0, x, s)

        inner = lambda s: integrate.quad(lambda x: tilted(x, s), s - 10, min(0.0, s), limit=200)[0]
        target, _ = integrate.quad(inner, 0.0, 0.5, limit=200)
        assert abs(est.value - target) <= 3 * est.stderr + 4.0 / t

    def test_kennedy_large_t(self):
        target = expect_on_event(EV, lambda x, s: m_kennedy_xs(x, s, 1.0, 1.0, PSI))
        est = penalized_estimate(KennedyWeight(1.0, PSI), EV, 24.0, 80000, RngStream(6))
        assert abs(est.value - target) <= 3 * est.stderr + 1e-3

    def test_functional_interface(self):
        # weighted mean of X_u under the R3 tilt: target E[X e^{-X}] / E[e^{-X}] = -u
        t = 64.0
        est = penalized_estimate(ExpLinear(0.0, -1.0), (1.0, lambda x, s: x), t, 80000,
                                 RngStream(7))
        assert abs(est.value - (-1.0)) <= 3 * est.stderr + 4.0 / t

    def test_r2_functional_drifts_at_rate_lam_plus_mu(self):
        # in R2 the limit is Brownian motion with drift lam + mu, so the
        # weighted mean of X_u tends to (lam + mu) u
        t = 256.0
        est = penalized_estimate(ExpLinear(1.0, 1.0), (1.0, lambda x, s: x), t, 100000,
                                 RngStream(30))
        assert abs(est.value - 2.0) <= 3 * est.stderr + 8.0 / t

    def test_variance_scales_inversely_with_n(self):
        e1 = penalized_estimate(PhiOfMax(UNIFORM), EV, 32.0, 20000, RngStream(8))
        e2 = penalized_estimate(PhiOfMax(UNIFORM), EV, 32.0, 80000, RngStream(9))
        assert e2.stderr == pytest.approx(e1.stderr / 2.0, rel=0.25)

    def test_exponential_bivariate_delegates(self):
        est1 = penalized_estimate(BivariateF(ExponentialBivariate(-2.0, 1.0)), EV, 64.0,
                                  20000, RngStream(10))
        est2 = penalized_estimate(ExpLinear(-2.0, 1.0), EV, 64.0, 20000, RngStream(10))
        assert est1.value == est2.value

    def test_ess_is_n_for_flat_weights(self):
        est = penalized_estimate(ExpLinear(0.0, 0.0), EV, 8.0, 3000, RngStream(31),
                                 mode="terminal")
        assert est.ess == pytest.approx(3000.0, rel=1e-12)

    def test_ess_is_kish_of_the_weights(self):
        from penalab.samplers import exact_two_time_state

        # n below one chunk: the estimator draws from generator(0)
        est = penalized_estimate(ExpLinear(-2.0, 1.0), EV, 16.0, 4000, RngStream(32),
                                 mode="terminal")
        _, _, xt, st = exact_two_time_state(1.0, 16.0, 4000, RngStream(32).generator(0))
        w = np.exp(-2.0 * st + xt)
        assert est.ess == pytest.approx(w.sum() ** 2 / np.sum(w * w), rel=1e-9)

    def test_degenerate_weights_raise(self):
        narrow = DensitySpec.uniform(1e-9)
        with pytest.raises(ValueError):
            penalized_estimate(PhiOfMax(narrow), EV, 4.0, 2000, RngStream(11))


class TestUnitMeanInvariant:
    def test_phi_unit_mean_across_times(self):
        from penalab.samplers import exact_bm_state

        for k, u in enumerate((0.5, 1.0, 2.0)):
            x, s = exact_bm_state(u, 100000, RngStream(12).generator(k))
            vals = m_phi_xs(x, s, UNIFORM)
            se = float(np.std(vals)) / math.sqrt(vals.size)
            assert abs(float(np.mean(vals)) - 1.0) <= 4 * se


class TestMaxConditional:
    def test_unit_functional(self):
        est = max_conditional(lambda x, s: np.ones_like(x), 1.0, 1.0, 20000, RngStream(13))
        assert est.value == 1.0 and est.stderr == 0.0

    def test_against_density_ratio_oracle(self):
        num, _ = integrate.quad(lambda a: (1.0 - a) * p_joint(1.0, a, 1.0), -12, 1.0, limit=200)
        oracle = num / p_max(1.0, 1.0)
        est = max_conditional(lambda x, s: 1.0 - x, 1.0, 1.0, 400000, RngStream(14))
        assert abs(est.value - oracle) <= 4 * est.stderr

    def test_nonpositive_level_is_a_domain_error(self):
        for y in (0.0, -1.0):
            with pytest.raises(ValueError):
                max_conditional(lambda x, s: x, y, 1.0, 2000, RngStream(17))


class TestFiniteTValue:
    @given(pen=st.sampled_from([PhiOfMax(UNIFORM), PhiOfMax(DensitySpec.exponential(1.5)),
                                KennedyWeight(1.0, PSI),
                                KennedyWeight(1.0, DensitySpec.exponential(1.5, laplace_lambda=1.0)),
                                KennedyWeight(2.0, DensitySpec.exponential(0.5, laplace_lambda=2.0)),
                                ExpLinear(0.0, -1.0), ExpLinear(1.0, 1.0),
                                ExpLinear(-2.0, 1.0), ExpLinear(-2.0, 1.0, cap=1.0),
                                ExpLinear(0.5, 0.25, cap=1.2)]),
           u=st.floats(0.1, 5.0), r=st.floats(0.05, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_full_event_has_unit_mass(self, pen, u, r):
        # ExpLinear(-2, 1) sits on the lam + 2 mu = 0 diagonal
        assert finite_t_value(pen, RectEvent(u), u + r) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_kennedy_mass_at_small_r(self):
        # 1 - 9.0e-6 when the kernel ran a fixed Gauss-Legendre rule at r = 0.05
        pen = KennedyWeight(2.0, DensitySpec.exponential(0.5, laplace_lambda=2.0))
        assert finite_t_value(pen, RectEvent(0.3), 0.35) == pytest.approx(1.0, abs=1e-14)

    def test_lam2_kennedy_full_event_mass_at_large_u(self):
        # 1 - 7.7e-7 at u = 5 when the window was a fixed GAUSS_CUT sqrt(u)
        pen = KennedyWeight(2.0, DensitySpec.exponential(0.5, laplace_lambda=2.0))
        assert finite_t_value(pen, RectEvent(5.0), 6.0) == pytest.approx(1.0, abs=1e-8)

    def test_r2_full_event_mass_at_large_u(self):
        # 1 - 8.1e-8 at u = 4 when the window was a fixed GAUSS_CUT sqrt(u)
        assert finite_t_value(ExpLinear(1.0, 1.0), RectEvent(4.0), 5.0) == pytest.approx(
            1.0, abs=1e-8)

    def test_horizon_must_exceed_the_event_time(self):
        with pytest.raises(ValueError):
            finite_t_value(PhiOfMax(UNIFORM), EV, 1.0)

    def test_exponential_bivariate_is_the_exponential_weight(self):
        f = BivariateF(ExponentialBivariate(-2.0, 1.0))
        assert finite_t_value(f, EV, 16.0) == finite_t_value(ExpLinear(-2.0, 1.0), EV, 16.0)

    def test_needs_a_conditional_kernel(self):
        from penalab.exact_laws import SeparableIndicator

        g = np.linspace(-3.0, 1.0, 41)
        with pytest.raises(TypeError):
            finite_t_value(BivariateF(SeparableIndicator(g, np.exp(g), 1.0)), EV, 16.0)


class TestRegimeCheck:
    def test_r1_reduces_to_density_weight(self):
        # R1 target equals the reduced-density martingale expectation
        from penalab.exact_laws import phi_from_f

        phi = phi_from_f(ExponentialBivariate(-2.0, 1.0))
        t1 = expect_on_event(EV, lambda x, s: m_mu_lambda_xs(x, s, 1.0, -2.0, 1.0))
        t2 = expect_on_event(EV, lambda x, s: m_phi_xs(x, s, phi))
        assert t1 == pytest.approx(t2, abs=1e-6)


class TestBesselPenalization:
    def test_branch1_returns_plain_bessel(self):
        rep = bessel_penalization_check(-1.0, -1.0, 1.0, [16.0], 20000, RngStream(19))
        assert rep["all_pass"], rep["rows"]
        for row in rep["rows"]:
            assert row["ess"] > 0.3 * row["n"]

    def test_trivial_family_returns_plain_bessel(self):
        rep = bessel_penalization_check(0.0, 0.0, 1.0, [16.0], 20000, RngStream(20),
                                        trivial=True)
        assert rep["all_pass"], rep["rows"]
        for row in rep["rows"]:
            assert row["ess"] > 0.3 * row["n"]

    def test_limits_are_the_plain_bessel_law(self):
        rep = bessel_penalization_check(-1.0, -1.0, 1.0, [4.0], 2000, RngStream(22))
        for row in rep["rows"]:
            law, _ = integrate.quad(lambda r: p_bessel3(1.0, r), 0.0, row["b"])
            assert row["limit"] == pytest.approx(law, abs=1e-10)
            # at t = 4 the finite-t law is far from its limit
            assert abs(row["target"] - row["limit"]) > 0.01

    @given(u=st.floats(0.1, 5.0), b=st.floats(0.05, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_pitman_cross_oracle(self, u, b):
        # with R = 2S - X, m_mu_lambda(-3, 1) on {R_u <= b} prices the plain
        # Bessel(3) law: S | R = r is uniform on (0, r)
        val = expect_on_event(RectEvent(u), lambda x, s: m_mu_lambda_xs(x, s, u, -3.0, 1.0),
                              w_max=b)
        law, _ = integrate.quad(lambda r: p_bessel3(u, r), 0.0, b, epsabs=1e-13)
        assert val == pytest.approx(law, abs=1e-10)

    @pytest.mark.parametrize("lam,mu", [(1.0, 0.5), (-1.0, 2.0)])
    def test_limits_match_the_bessel_marginal_integral(self, lam, mu):
        # the limits run over the Brownian state; the oracle integrates
        # m_bar against the Bessel(3) marginal directly
        from penalab.martingales import m_bar_xs

        u = 0.7
        rep = bessel_penalization_check(lam, mu, u, [4.0], 100, RngStream(27),
                                        b_levels=(0.8, 1.6, 3.0))
        for row in rep["rows"]:
            law, _ = integrate.quad(lambda r: m_bar_xs(r, u, lam, mu) * p_bessel3(u, r),
                                    0.0, row["b"], epsabs=1e-13, epsrel=1e-12, limit=200)
            assert row["limit"] == pytest.approx(law, abs=1e-12)

    def test_terminal_mode_honours_the_cap(self):
        # raw terminal weights e^{-R_t} 1{J_t <= 1} against the exact finite-t
        # value, an independent check of the capped conditional kernel
        pen = bessel_weight(0.0, 0.0, trivial=True)
        t, b = 4.0, 0.8
        est = penalized_estimate(pen, (1.0, lambda x, s: 2.0 * s - x <= b), t, 200000,
                                 RngStream(23), mode="terminal")
        exact = finite_t_value(pen, RectEvent(1.0), t, w_max=b)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_unsupported_branch_configuration(self):
        # every (lam, mu) is covered by a branch, so the guard only trips on
        # inconsistent manual use of the kernel
        from penalab.martingales import m_bar_xs

        for lam, mu in [(-3.0, 1.0), (2.0, -1.0), (0.5, 0.5)]:
            assert np.all(np.asarray(m_bar_xs(np.array([0.5]), 0.3, lam, mu)) > 0)

    def test_branch2_weight_at_origin_state(self):
        from penalab.martingales import m_bar_xs

        assert m_bar_xs(np.array([1e-12]), 0.0, 1.0, -0.5)[0] == pytest.approx(1.0, abs=1e-10)


class TestTerminalConditional:
    @pytest.mark.parametrize("k, t", [(0, 4.0), (1, 16.0), (2, 64.0)])
    def test_doubly_pinned_matches_finite_t_closed_form(self, k, t):
        est = terminal_conditional(EV, t, 1.0, 200000, RngStream(21).substream(8000 + k), a=0.0)
        assert abs(est.value - q_ay_finite(0.0, 1.0, EV, t)) <= 4 * est.stderr

    @pytest.mark.parametrize("ev", [EV, RectEvent(1.0, b=0.25, c=1.5)])
    def test_max_pinned_matches_finite_t_quadrature(self, ev):
        # with c >= y the atom {S_u = y} (part B) contributes
        for k, t in enumerate([2.0, 16.0]):
            est = terminal_conditional(ev, t, 1.0, 200000, RngStream(24, k))
            assert abs(est.value - q_y_finite(1.0, ev, t)) <= 4 * est.stderr

    def test_functional_form_matches_event_form(self):
        rng = RngStream(25)
        a = terminal_conditional(EV, 4.0, 1.0, 1000, rng, a=0.3)
        b = terminal_conditional((EV.u, EV.indicator), 4.0, 1.0, 1000, rng, a=0.3)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_full_space_is_one_in_mean(self):
        est = terminal_conditional(RectEvent(1.0), 8.0, 0.7, 200000, RngStream(26), a=-0.5)
        assert abs(est.value - 1.0) <= 4 * est.stderr
        assert 0.0 < est.ess <= est.n

    @pytest.mark.parametrize("t,y,a", [(1.0, 1.0, None), (0.5, 1.0, 0.0), (4.0, 0.0, None),
                                       (4.0, -1.0, None), (4.0, 0.5, 1.0), (4.0, 0.5, 0.5)])
    def test_domain(self, t, y, a):
        with pytest.raises(ValueError):
            terminal_conditional(EV, t, y, 100, RngStream(0), a=a)


class TestConditionalWeightKernels:
    def test_explinear_kernel_vs_martingale_limit_far_horizon(self):
        # the normalized conditional weight converges pointwise to the regime
        # martingale; this used to underflow beyond r ~ 1400 in the theta = 0
        # branch
        import numpy as np
        from penalab.weights import log_g_explinear
        from penalab.martingales import m_mu_lambda_xs

        xs = np.array([0.3, 1.2, -1.5])
        ss = np.array([0.9, 2.0, 0.2])
        for lam, mu in [(-2.0, 1.0), (0.0, -1.0), (-1.0, -1.0)]:
            lg = log_g_explinear(xs, ss, 20000.0, lam, mu)
            l0 = float(log_g_explinear(np.array([0.0]), np.array([0.0]), 20000.0, lam, mu)[0])
            mm = m_mu_lambda_xs(xs, ss, 0.0, lam, mu)
            assert np.max(np.abs(np.exp(lg - l0) - mm) / mm) < 1e-3

    @staticmethod
    def _brute_capped(x, s, r, lam, mu, cap):
        # E[e^{lam max(s, x + M) + mu (x + B)} 1{max(s, x + M) <= cap}] over the
        # joint law of (B, M), the endpoint and maximum of a Brownian motion on [0, r]
        def inner(m):
            sv = max(s, x + m)
            lo = m - 30.0 * math.sqrt(r) - 4.0 * abs(mu) * r
            v, _ = integrate.quad(lambda b: math.exp(lam * sv + mu * (x + b)) * p_joint(r, b, m),
                                  lo, m, epsabs=0.0, epsrel=1e-12, limit=200)
            return v

        d = s - x
        pts = [d] if 0.0 < d < cap - x else None
        v, _ = integrate.quad(inner, 0.0, cap - x, points=pts, epsabs=0.0, epsrel=1e-12,
                              limit=200)
        return v

    @pytest.mark.parametrize("lam,mu,cap", [(-2.0, 1.0, 1.0), (-3.0, 1.0, 1.5),
                                            (1.0, -0.5, 2.0), (0.5, 0.25, 1.2)])
    def test_capped_kernel_vs_brute_force(self, lam, mu, cap):
        from penalab.weights import log_g_explinear

        for x, s, r in [(-0.5, 0.3, 2.0), (0.9, 1.0, 3.0)]:
            g = float(np.exp(log_g_explinear(np.array([x]), np.array([s]), r, lam, mu, cap))[0])
            assert g == pytest.approx(self._brute_capped(x, s, r, lam, mu, cap), rel=1e-9)

    @pytest.mark.parametrize("lam,mu,cap", [(-2.0, 1.0, 1.0), (-3.0, 1.0, 1.5),
                                            (1.0, -0.5, 2.0), (0.5, 0.25, 1.2)])
    def test_capped_kernel_positive_below_cap_and_zero_at_or_above_it(self, lam, mu, cap):
        from penalab.weights import log_g_explinear

        gen = RngStream(40).generator()
        s = cap * gen.random(200000) ** 0.25     # crowd the states near the cap
        x = s - gen.exponential(0.5, s.size) * gen.random(s.size)
        for r in (0.5, 31.0, 2000.0):
            assert np.all(np.isfinite(log_g_explinear(x, s, r, lam, mu, cap)))
        zero = log_g_explinear(np.array([0.0, 1.0, cap]), np.array([cap + 0.1, cap + 2.0, cap]),
                               4.0, lam, mu, cap)
        assert np.all(zero == -np.inf)

    TABULATED = DensitySpec.tabulated(np.linspace(0.0, 2.0, 41),
                                      np.exp(-np.linspace(0.0, 2.0, 41)))

    # fixed 96-node Gauss-Legendre across the kinks of a piecewise-linear phi
    # is good to 1.8e-6 relative on these states
    @pytest.mark.parametrize("phi,rel", [(UNIFORM, 1e-9), (DensitySpec.exponential(1.5), 1e-9),
                                         (TABULATED, 5e-6)],
                             ids=["uniform", "exponential", "tabulated"])
    def test_phi_kernel_is_the_conditional_expectation(self, phi, rel):
        # phi(s) P(S_r < s - x) + int_{s-x}^inf phi(x + m) p_max(r, m) dm
        from penalab.weights import log_g_phi

        for x, s, r in [(-0.5, 0.3, 2.0), (0.9, 1.0, 0.7), (-1.2, 0.0, 30.0)]:
            d, top = s - x, phi.effective_upper(1e-16) - x
            kinks = [k - x for k in (phi.grid if phi.grid is not None else ()) if d < k - x < top]
            tail, _ = integrate.quad(lambda m: phi.pdf(x + m) * p_max(r, m), d, top,
                                     points=kinks or None, epsabs=0.0, epsrel=1e-12, limit=200)
            exact = phi.pdf(s) * h_cdf(r, d) + tail
            got = float(np.exp(log_g_phi(np.array([x]), np.array([s]), r, phi))[0])
            assert got == pytest.approx(exact, rel=rel)

    # psi = e^{-y} on 41 knots of [0, 2], Laplace-normalized at lam = 1; the
    # fixed 96-node Gauss-Legendre of its moving part runs across the kinks and
    # is good to 1.0e-6 relative on these states
    TABULATED_PSI = DensitySpec.tabulated(np.linspace(0.0, 2.0, 41),
                                          np.exp(-np.linspace(0.0, 2.0, 41)), laplace_lambda=1.0)

    @pytest.mark.parametrize("psi,rel", [(PSI, 1e-12),
                                         (DensitySpec.exponential(1.5, laplace_lambda=1.0), 1e-12),
                                         (TABULATED_PSI, 2e-6)],
                             ids=["uniform", "exponential", "tabulated"])
    def test_kennedy_kernel_is_the_conditional_expectation(self, psi, rel):
        # psi(max(s, x + m)) e^{lam (max(s, x + m) - x - z)} against p_joint(r, z, m),
        # the law of the increment and maximum of a Brownian motion over [0, r]
        from penalab.weights import log_g_kennedy

        lam = 1.0
        for x, s, r in [(-0.5, 0.3, 2.0), (0.2, 0.6, 5.0), (0.9, 1.0, 0.05)]:
            def inner(m):
                top = max(s, x + m)
                lo = 2.0 * m - lam * r - 40.0 * math.sqrt(r)
                v, _ = integrate.quad(lambda z: math.exp(lam * (top - x - z)) * p_joint(r, z, m),
                                      lo, m, epsabs=0.0, epsrel=1e-13, limit=200)
                return psi.pdf(top) * v

            d, top = s - x, psi.effective_upper(1e-16) - x
            kinks = [k - x for k in (psi.grid if psi.grid is not None else ()) if d < k - x < top]
            # psi(x + m) vanishes past the end of its support
            exact, _ = integrate.quad(inner, 0.0, top, points=[d] + kinks, epsabs=0.0,
                                      epsrel=1e-13, limit=200)
            got = float(np.exp(log_g_kennedy(np.array([x]), np.array([s]), r, lam, psi))[0])
            assert got == pytest.approx(exact, rel=rel)

    @pytest.mark.parametrize("x,s,r", [(0.0, 0.2, 0.3), (-0.5, 0.1, 2.0)])
    def test_kennedy_kernel_starts_where_a_late_table_switches_on(self, x, s, r):
        # psi = e^{-y} on 41 knots of [0.5, 2] and s below its first knot:
        # psi(x + z) is 0 for z < 0.5 - x, and a rule from z = d would run
        # across the jump there; from 0.5 - x it is at the knot-crossing level
        from penalab.weights import _h_bar, g_kennedy_bar

        lam = 1.0
        grid = np.linspace(0.5, 2.0, 41)
        psi = DensitySpec.tabulated(grid, np.exp(-grid), laplace_lambda=lam)
        moving, _ = integrate.quad(lambda z: math.exp(-lam * z) * psi.pdf(x + z) * _h_bar(z, r, lam),
                                   s - x, 2.0 - x, points=list(grid - x), epsabs=0.0,
                                   epsrel=1e-13, limit=200)
        # psi(s) = 0, so the flat part vanishes; the 96-node rule is good to
        # 1.1e-6 relative here
        got = float(g_kennedy_bar(np.array([x]), np.array([s]), r, lam, psi)[0])
        assert got == pytest.approx(moving, rel=2e-6)

    def test_kennedy_kernel_is_nonnegative_as_d_vanishes(self):
        # at s = A the moving part is empty and the flat part is
        # psi(A) d hbar(0) (1 + O(d)), hbar(0) = 2 lam Phi(lam sr) + sqrt(2/(pi r)) e^{-lam^2 r/2}
        from penalab.weights import g_kennedy_bar, log_g_kennedy

        lam, top = 1.0, PSI.effective_upper()
        for r in (0.05, 2.0, 500.0):
            x = top - np.array([0.0, 1e-15, 1e-9])
            d = top - x
            g = g_kennedy_bar(x, np.full(3, top), r, lam, PSI)
            hbar0 = (2.0 * lam * 0.5 * math.erfc(-lam * math.sqrt(r / 2.0))
                     + math.sqrt(2.0 / (math.pi * r)) * math.exp(-lam * lam * r / 2.0))
            assert g[0] == 0.0
            # the normal interval probability in the flat part carries ~1e-17 of roundoff
            assert g[1:] == pytest.approx(PSI.pdf(top) * d[1:] * hbar0, rel=0.05)

        # log g is -inf exactly where the moving part is empty (s >= A) and the
        # flat part psi(s) int_0^d ... vanishes (psi(s) = 0 or d = 0)
        gen = RngStream(41).generator()
        s = np.concatenate((gen.uniform(0.0, 2.0, 400), np.full(40, top)))
        d = gen.exponential(0.5, s.size) * (gen.random(s.size) < 0.7)
        lg = log_g_kennedy(s - d, s, 0.3, lam, PSI)
        assert not np.any(np.isnan(lg))
        assert np.array_equal(np.isneginf(lg), (s >= top) & ((PSI.pdf(s) == 0.0) | (d == 0.0)))

    @pytest.mark.xfail(strict=True, reason="near the diagonal the 1/theta pieces of "
                       "log_g_explinear cancel; a divided-difference evaluator would mend it")
    @pytest.mark.parametrize("theta", [1e-9, -1e-9])
    def test_explinear_kernel_is_continuous_across_the_diagonal(self, theta):
        # theta = lam + 2 mu: log g moves by about 1.7 theta here, yet the
        # pieces 2 (lam + mu)/theta and 2 mu/theta cancel to 1.1e-4 (theta = 1e-9)
        # and 4.0e-5 (theta = -1e-9) off
        from penalab.weights import log_g_explinear

        x, s, r, mu = np.array([0.2]), np.array([0.6]), 50.0, 1.0
        on = float(log_g_explinear(x, s, r, -2.0 * mu, mu)[0])
        near = float(log_g_explinear(x, s, r, -2.0 * mu + theta, mu)[0])
        assert near == pytest.approx(on, abs=1e-6)

    def test_uncapped_kernel_is_smooth_on_the_diagonal(self):
        # lam + 2 mu = 0 goes through the integrated normal tail, whose
        # evaluation used to jump by ~5e-5 relative at argument 8
        from penalab.weights import log_g_explinear

        x = np.linspace(-0.3, 0.3, 61)
        lg = log_g_explinear(x, np.full_like(x, 0.5), 63.0, -2.0, 1.0)
        assert np.max(np.abs(np.diff(lg, 3))) < 1e-5     # 2e-3 with the jump
