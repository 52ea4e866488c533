import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from hypothesis import given, settings
from hypothesis import strategies as st

from penalab.exact_laws import (
    DensitySpec,
    ExponentialBivariate,
    SeparableIndicator,
    h_cdf,
    p_bessel3,
    p_joint,
    p_max,
)
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
from penalab import weights
from penalab._stable import log_gauss_tail_e, log_norm_sf, norm_cdf, norm_sf
from penalab.samplers import RngStream
from penalab.weights import g_kennedy_bar, log_g_explinear, log_g_kennedy

UNIFORM = DensitySpec.uniform(1.0)
# a table with a feature narrower than its other segments
SPIKE = DensitySpec.tabulated([0.0, 0.999, 0.9995, 1.0005, 1.001, 1.5],
                              [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)
# psi = e^{-y} on 41 knots of [0, 2], Laplace-normalized at lam = 1
TABULATED_PSI = DensitySpec.tabulated(np.linspace(0.0, 2.0, 41),
                                      np.exp(-np.linspace(0.0, 2.0, 41)), laplace_lambda=1.0)
EV = RectEvent(1.0, b=0.0, c=0.5)
FULL = RectEvent(1.0)
# psi on 301 knots of [0, 30], Laplace-normalized at lam = 5, so that the
# table engine cuts it into 75 panels of 2 / lam: e^{5y}, whose Laplace weight
# is flat, and a table that is 0 on [0, 25]; at x = 0 a quarter of the
# first's Laplace weight and all of the second's lie more than 55 panels up
WIDE_GRID = np.linspace(0.0, 30.0, 301)
WIDE_TABLES = pytest.mark.parametrize("values", [np.exp(5.0 * WIDE_GRID),
                                                 np.where(WIDE_GRID > 25.0, 1.0, 0.0)],
                                      ids=["e^5y", "late"])


# tables of test_tabulated_*_kernel_matches_segment_closed_forms, and states:
# s a fraction of the way from -0.5 to 0.2 past the table's end, and the depth
# of x below s in units of sqrt(r)
SPIKED_TABLE_CASES = dict(
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
    values=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=9, max_size=9),
    spike=st.tuples(st.floats(0.0, 1.0), st.floats(1e-6, 1e-2), st.floats(1e-3, 100.0)),
    log_r=st.floats(math.log(0.05), math.log(500.0)),
    states=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 12.0)), min_size=1, max_size=6))


def _h_bar(z, r, lam):
    # the Kennedy moving-part kernel without its e^{-lam z}:
    # 2 lam Q((z - lam r)/sqrt(r)) + sqrt(2/(pi r)) e^{-(z - lam r)^2/2r}
    a = (z - lam * r) / math.sqrt(r)
    return lam * math.erfc(a / math.sqrt(2.0)) + math.sqrt(2.0 / (math.pi * r)) * math.exp(-0.5 * a * a)


@dataclass(frozen=True)
class TerminalOnly:
    """A kind's view without its kernel: the estimator weights by F_t itself,
    at an exact draw of (X_t, S_t)."""

    pen: object
    log_kernel = None

    def log_terminal(self, xt, st):
        return self.pen.log_terminal(xt, st)


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
        a = penalized_estimate(TerminalOnly(ExpLinear(-2.0, 1.0)), EV, t, 60000, RngStream(3))
        b = penalized_estimate(ExpLinear(-2.0, 1.0), EV, t, 60000, RngStream(4))
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
        est = penalized_estimate(TerminalOnly(ExpLinear(0.0, 0.0)), EV, 8.0, 3000, RngStream(31))
        assert est.ess == pytest.approx(3000.0, rel=1e-12)

    def test_ess_is_kish_of_the_weights(self):
        from penalab.samplers import exact_two_time_state

        # n below one chunk: the estimator draws from generator(0)
        est = penalized_estimate(TerminalOnly(ExpLinear(-2.0, 1.0)), EV, 16.0, 4000,
                                 RngStream(32))
        _, _, xt, st = exact_two_time_state(1.0, 16.0, 4000, RngStream(32).generator(0))
        w = np.exp(-2.0 * st + xt)
        assert est.ess == pytest.approx(w.sum() ** 2 / np.sum(w * w), rel=1e-9)

    def test_degenerate_weights_raise(self):
        narrow = DensitySpec.uniform(1e-9)
        with pytest.raises(ValueError):
            penalized_estimate(PhiOfMax(narrow), EV, 4.0, 2000, RngStream(11))


def _one_shot_ratio(vals, logw):
    """The self-normalized ratio, its delta-method stderr and Kish ESS from
    whole arrays, one shift by the global maximum log-weight."""
    n = logw.size
    w = np.exp(logw - np.max(logw))
    vw = vals * w
    r = vw.sum() / w.sum()
    wbar, w2bar, vwbar = w.mean(), np.mean(w * w), vw.mean()
    var_vw = np.mean(vw * vw) - vwbar ** 2
    var_w = w2bar - wbar ** 2
    cov = np.mean(vw * w) - vwbar * wbar
    var_r = (var_vw - 2.0 * r * cov + r * r * var_w) / (n * wbar * wbar)
    return r, math.sqrt(max(var_r, 0.0)), n * wbar * wbar / w2bar


class TestSharedDraws:
    EV2 = RectEvent(1.0, b=0.25, c=1.0)
    TABULATED = DensitySpec.tabulated(np.linspace(0.0, 1.5, 61),
                                      0.3 + np.linspace(0.0, 1.5, 61) ** 2)

    @pytest.mark.parametrize("pen", [PhiOfMax(TABULATED), ExpLinear(1.0, 1.0),
                                     KennedyWeight(1.0, PSI)],
                             ids=["tabulated-phi", "R2(1,1)", "kennedy"])
    def test_vector_functional_is_the_scalar_calls(self, pen):
        # three functionals from one kernel pass equal three scalar estimates
        # on the same stream; n spans three chunks
        rng = RngStream(40)
        fns = [EV.indicator, self.EV2.indicator, lambda x, s: s]
        both = penalized_estimate(pen, (1.0, lambda x, s: np.stack([f(x, s) for f in fns])),
                                  32.0, 10000, rng)
        assert both.value.shape == both.stderr.shape == (3,)
        for j, f in enumerate(fns):
            one = penalized_estimate(pen, (1.0, f), 32.0, 10000, rng)
            assert both.value[j] == pytest.approx(one.value, rel=1e-12)
            assert both.stderr[j] == pytest.approx(one.stderr, rel=1e-12)
            assert (both.n, both.seed, both.ess) == (one.n, one.seed, one.ess)

    @staticmethod
    def _raised_states(monkeypatch, offset):
        """Patch the state sampler so chunk k has its running max raised by
        offset(k), which keeps s >= x; return the list the draws go to."""
        from penalab import penalized_mc

        drawn = []
        real = penalized_mc.exact_bm_state

        def raised(u, m, gen):
            x, s = real(u, m, gen)
            s = s + offset(len(drawn))
            drawn.append((x, s))
            return x, s

        monkeypatch.setattr(penalized_mc, "exact_bm_state", raised)
        return drawn

    def test_streamed_sums_match_the_one_shot_ratio(self, monkeypatch):
        # with e^{S_t} weights the largest log-weight sits in the last of four
        # chunks, so the running shift rises and rescales the sums
        from penalab.penalized_mc import CHUNK

        drawn = self._raised_states(monkeypatch, lambda k: 3.0 * k)
        pen, t, n = ExpLinear(1.0, 0.0), 8.0, 3 * CHUNK + 500
        est = penalized_estimate(pen, (1.0, lambda x, s: np.stack([x, s])), t, n,
                                 RngStream(41))
        x, s = (np.concatenate(a) for a in zip(*drawn))
        logw = log_g_explinear(x, s, t - 1.0, 1.0, 0.0)
        assert len(drawn) == 4 and np.argmax(logw) >= 3 * CHUNK
        for j, vals in enumerate((x, s)):
            r, se, ess = _one_shot_ratio(vals, logw)
            assert est.value[j] == pytest.approx(r, rel=1e-12)
            assert est.stderr[j] == pytest.approx(se, rel=1e-12)
            assert est.ess == pytest.approx(ess, rel=1e-12)

    def test_a_chunk_of_vanished_weights_adds_nothing(self, monkeypatch):
        # capped at 1.5: the first chunk's states all have s >= 2 (log-weight
        # -inf), the later ones mostly lie below the cap
        from penalab.penalized_mc import CHUNK

        drawn = self._raised_states(monkeypatch, lambda k: 2.0 if k == 0 else 0.0)
        pen, n = ExpLinear(0.0, -1.0, cap=1.5), 3 * CHUNK
        est = penalized_estimate(pen, EV, 8.0, n, RngStream(42))
        x, s = (np.concatenate(a) for a in zip(*drawn))
        logw = log_g_explinear(x, s, 7.0, 0.0, -1.0, 1.5)
        assert np.all(logw[:CHUNK] == -np.inf) and np.isfinite(est.value)
        r, se, ess = _one_shot_ratio(EV.indicator(x, s).astype(float), logw)
        assert (est.value, est.stderr, est.ess) == pytest.approx((r, se, ess), rel=1e-12)

    def test_all_vanished_weights_still_raise(self):
        # every state above the cap: log-weight -inf in every chunk
        from penalab.penalized_mc import CHUNK

        with pytest.raises(ValueError, match="degenerate"):
            penalized_estimate(ExpLinear(0.0, -1.0, cap=-1.0), EV, 8.0, 2 * CHUNK + 1,
                               RngStream(43))

    def test_criterion_6_runs_one_kernel_pass_per_regime(self, monkeypatch):
        # 3 regimes x n states, where one estimate per event took 6 n
        from penalab import acceptance, penalized_mc

        counts = self._count_kernel_states(monkeypatch, acceptance)
        acceptance.criterion_6_regime_table(12345, scale=0.001)
        assert counts == {"calls": 3, "states": 3 * 10000}

    def test_bessel_check_runs_one_kernel_pass_per_horizon(self, monkeypatch):
        from penalab import penalized_mc

        counts = self._count_kernel_states(monkeypatch, penalized_mc)
        rep = penalized_mc.bessel_penalization_check(-1.0, -1.0, 1.0, [8.0, 16.0], 3000,
                                                     RngStream(44), b_levels=(0.8, 1.6))
        assert len(rep["rows"]) == 4
        assert counts == {"calls": 2, "states": 2 * 3000}

    @staticmethod
    def _count_kernel_states(monkeypatch, caller):
        """Count penalized_estimate calls made through ``caller`` and the
        log_g_explinear states evaluated inside them."""
        from penalab import penalized_mc

        counts = {"calls": 0, "states": 0}
        inside = []
        real_estimate, real_kernel = penalized_mc.penalized_estimate, penalized_mc.log_g_explinear

        def estimate(*args, **kwargs):
            counts["calls"] += 1
            inside.append(True)
            try:
                return real_estimate(*args, **kwargs)
            finally:
                inside.pop()

        def kernel(x, s, *args):
            if inside:
                counts["states"] += np.size(x)
            return real_kernel(x, s, *args)

        monkeypatch.setattr(caller, "penalized_estimate", estimate)
        monkeypatch.setattr(penalized_mc, "log_g_explinear", kernel)
        return counts


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

    def test_stacked_functionals_are_the_scalar_calls(self):
        # a (2, n) functional gives two means, not the mean of the two
        both = max_conditional(lambda x, s: np.stack([x, s]), 1.0, 1.0, 20000, RngStream(5))
        assert both.value.shape == both.stderr.shape == (2,)
        for j, g in enumerate((lambda x, s: x, lambda x, s: s)):
            one = max_conditional(g, 1.0, 1.0, 20000, RngStream(5))
            assert both.value[j] == pytest.approx(one.value, abs=1e-12)
            assert both.stderr[j] == pytest.approx(one.stderr, abs=1e-12)


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

    @pytest.mark.parametrize("t", [4.0, 32.0])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("grid,values", [(np.linspace(0.0, 2.0, 41),
                                              np.exp(-np.linspace(0.0, 2.0, 41))),
                                             (SPIKE.grid, SPIKE.values)], ids=["e^-y", "spike"])
    def test_tabulated_kennedy_full_event_has_unit_mass(self, grid, values, lam, t):
        # a Gauss-Legendre moving part across the knots made this raise
        # FloatingPointError on e^-y and give NaN on the spike
        pen = KennedyWeight(lam, DensitySpec.tabulated(grid, values, laplace_lambda=lam))
        assert finite_t_value(pen, FULL, t) == pytest.approx(1.0, abs=1e-12)

    @WIDE_TABLES
    def test_wide_tabulated_kennedy_full_event_has_unit_mass(self, values):
        # a panel sum cut 55 panels of 2 / lam above x made this 0.22 too high
        # on e^5y, and a normaliser of 0 made it raise on the late table
        lam = 5.0
        pen = KennedyWeight(lam, DensitySpec.tabulated(WIDE_GRID, values, laplace_lambda=lam))
        assert finite_t_value(pen, FULL, 32.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pen", [
        PhiOfMax(UNIFORM), PhiOfMax(SPIKE), KennedyWeight(1.0, PSI), KennedyWeight(1.0, TABULATED_PSI),
        ExpLinear(-2.0, 1.0, cap=1.0), ExpLinear(0.5, 0.25, cap=1.2)],
        ids=["phi-uniform", "phi-spike", "kennedy-uniform", "kennedy-tabulated",
             "capped-R1", "capped-R2"])
    def test_weights_vanish_past_their_last_kink(self, pen):
        # finite_t_value stops the s-integral at the last kink, which is sound
        # only if F_t, and so the kernel (S_u <= S_t), is 0 for S above it
        top = max(pen.kinks)
        gen = RngStream(49).generator()
        s = np.append(np.nextafter(top, math.inf), top + gen.exponential(1.0, 200))
        x = s - gen.exponential(2.0, s.size)
        for r in (0.05, 2.0, 500.0):
            assert np.all(np.isneginf(pen.log_kernel(x, s, r)))
        with np.errstate(divide="ignore"):
            assert np.all(np.isneginf(pen.log_terminal(x, s)))

    def test_horizon_must_exceed_the_event_time(self):
        with pytest.raises(ValueError):
            finite_t_value(PhiOfMax(UNIFORM), EV, 1.0)

    def test_exponential_bivariate_is_the_exponential_weight(self):
        f = BivariateF(ExponentialBivariate(-2.0, 1.0))
        assert finite_t_value(f, EV, 16.0) == finite_t_value(ExpLinear(-2.0, 1.0), EV, 16.0)

    def test_needs_a_conditional_kernel(self):
        g = np.linspace(-3.0, 1.0, 41)
        with pytest.raises(TypeError):
            finite_t_value(BivariateF(SeparableIndicator(g, np.exp(g), 1.0)), EV, 16.0)


def _separable_value(f, ev, t, nodes):
    """E[1_G f(X_t, S_t)] / E[f(X_t, S_t)] for f = f1(a) 1{y <= A}: q_ay_finite
    mixed with weight f1(a) p_joint(t, a, y) over max(a, 0) < y <= A, by a
    fixed Gauss-Legendre product rule cut at f1's knots, at a = 0 and at y = c."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0
    a_cuts = np.union1d(f.f1_grid, [0.0])
    num = den = 0.0
    for a0, a1 in zip(a_cuts[:-1], a_cuts[1:]):
        for a, wa in zip(a0 + (a1 - a0) * x, (a1 - a0) * w):
            lo = max(a, 0.0)
            y_cuts = [lo] + ([ev.c] if lo < ev.c < f.cutoff else []) + [f.cutoff]
            for y0, y1 in zip(y_cuts[:-1], y_cuts[1:]):
                y = y0 + (y1 - y0) * x
                dens = wa * (y1 - y0) * w * f.f1(a) * p_joint(t, a, y)
                num += float(np.sum(dens * q_ay_finite(a, y, ev, t)))
                den += float(np.sum(dens))
    return num / den


@dataclass(frozen=True)
class ShiftedKernel:
    """A kind whose log-kernel is another kind's plus a constant."""

    pen: object
    shift: float

    def log_kernel(self, x, s, r):
        return self.pen.log_kernel(x, s, r) + self.shift

    kinks = property(lambda self: self.pen.kinks)


class TestKernelFreeRoute:
    F = SeparableIndicator(np.linspace(-3.0, 1.0, 41), np.exp(np.linspace(-3.0, 1.0, 41)), 1.0)

    def test_reference_rule_is_converged(self):
        assert _separable_value(self.F, EV, 4.0, 8) == pytest.approx(
            _separable_value(self.F, EV, 4.0, 16), abs=1e-13)

    def test_separable_indicator_matches_the_exact_value(self):
        # f1 = e^a on 41 knots of [-3, 1], A = 1: no kernel, so terminal weights
        pen = BivariateF(self.F)
        assert pen.log_kernel is None
        est = penalized_estimate(pen, EV, 4.0, 200000, RngStream(45))
        exact = _separable_value(self.F, EV, 4.0, 8)
        assert abs(est.value - exact) <= 3.5 * est.stderr

    def test_a_constant_in_the_log_kernel_cancels(self):
        pen = ExpLinear(-2.0, 1.0)
        assert finite_t_value(ShiftedKernel(pen, 7.5), EV, 16.0) == pytest.approx(
            finite_t_value(pen, EV, 16.0), abs=1e-12)


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

    def test_terminal_route_honours_the_cap(self):
        # raw terminal weights e^{-R_t} 1{J_t <= 1} against the exact finite-t
        # value, an independent check of the capped conditional kernel
        pen = bessel_weight(0.0, 0.0, trivial=True)
        t, b = 4.0, 0.8
        est = penalized_estimate(TerminalOnly(pen), (1.0, lambda x, s: 2.0 * s - x <= b), t,
                                 200000, RngStream(23))
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

    @pytest.mark.parametrize("a", [None, 0.3])
    def test_stacked_events_are_the_scalar_calls(self, a):
        # EVENT and EVENT2 of criterion 6, stacked: two values from one call
        events = (EV, RectEvent(1.0, b=0.25, c=1.0))
        both = terminal_conditional(
            (1.0, lambda x, s: np.stack([ev.indicator(x, s) for ev in events])), 4.0, 1.0,
            20000, RngStream(5), a=a)
        assert both.value.shape == both.stderr.shape == (2,)
        for j, ev in enumerate(events):
            one = terminal_conditional(ev, 4.0, 1.0, 20000, RngStream(5), a=a)
            assert both.value[j] == pytest.approx(one.value, abs=1e-12)
            assert both.stderr[j] == pytest.approx(one.stderr, abs=1e-12)
            assert both.ess == one.ess

    @pytest.mark.parametrize("t,y,a", [(1.0, 1.0, None), (0.5, 1.0, 0.0), (4.0, 0.0, None),
                                       (4.0, -1.0, None), (4.0, 0.5, 1.0), (4.0, 0.5, 0.5)])
    def test_domain(self, t, y, a):
        with pytest.raises(ValueError):
            terminal_conditional(EV, t, y, 100, RngStream(0), a=a)


def closed_form_log_g_explinear(x, s, r, lam, mu, cap=math.inf):
    """log g = log(e^{lam s + mu x} G1(s - x) + e^{(lam+mu) x} (G2(s - x) - G2(cap - x)))
    from the closed forms of ``log_g_explinear``'s docstring at 400 digits, with
    no cancellation handling; the diagonal th = 0 is taken at lam + 1e-150."""
    with mpmath.workdps(400):
        x, s, r, lam, mu = map(mpmath.mpf, (x, s, r, lam, mu))
        if lam + 2 * mu == 0:
            lam += mpmath.mpf(10) ** -150
        sr = mpmath.sqrt(r)
        th, nu = lam + 2 * mu, lam + mu

        def q(z):
            return mpmath.erfc(z / mpmath.sqrt(2)) / 2

        def g2(d):
            return (2 * nu / th * mpmath.exp(nu * nu * r / 2) * q((d - nu * r) / sr)
                    + 2 * mu / th * mpmath.exp(th * d + mu * mu * r / 2) * q((d + mu * r) / sr))

        d = s - x
        g1 = mpmath.exp(mu * mu * r / 2) * (1 - q((d - mu * r) / sr)
                                            - mpmath.exp(2 * mu * d) * q((d + mu * r) / sr))
        top = g2(mpmath.mpf(cap) - x) if math.isfinite(cap) else 0
        return float(mpmath.log(mpmath.exp(lam * s + mu * x) * g1 + mpmath.exp(nu * x) * (g2(d) - top)))


class TestExplinearAgainstItsClosedForm:
    # the R1 cases lose digits as r grows, in the closed forms' cancelling
    # pieces: the worst gap in log g over these states is 6.0e-13 at (-3, 1),
    # r = 31, so 5e-12 leaves a factor 8.  At r = 511 R1 off the diagonal
    # loses more (CHANGES.md)
    @pytest.mark.parametrize("r", [0.05, 1.0, 7.0, 31.0])
    @pytest.mark.parametrize("lam,mu,cap", [
        (-2.0, 1.0, math.inf), (-3.0, 1.0, math.inf), (-2.5, 1.0, math.inf),    # R1
        (0.5, 0.25, math.inf), (1.0, 1.0, math.inf),                            # R2
        (0.0, -1.0, math.inf), (1.0, -1.0, math.inf),                           # R3
        (-2.0, 1.0, 1.0), (0.5, 0.25, 1.2), (-2.0, 1.0, 1.1537)])
    def test_matches_400_digits(self, lam, mu, cap, r):
        gen = RngStream(50).generator()
        s = gen.uniform(0.0, min(cap, 4.0), 30)
        x = s - gen.exponential(1.0, 30) * math.sqrt(r) * gen.uniform(0.0, 3.0, 30)
        ref = [closed_form_log_g_explinear(a, b, r, lam, mu, cap) for a, b in zip(x, s)]
        assert np.max(np.abs(log_g_explinear(x, s, r, lam, mu, cap) - ref)) <= 5e-12

    @pytest.mark.parametrize("r", [63.0, 500.0])
    @pytest.mark.parametrize("d", [1e-15, 1e-12, 1e-9, 1e-6])
    def test_uniform_kennedy_weight_at_its_cap(self, d, r):
        # the uniform Kennedy weight's kernel at s = cap, where G1 is O(d): its two
        # terms each carry e^{mu^2 r/2}, about e^{250} at r = 500, so summed as
        # two pieces they were 0.58 off (r = 63, d = 1e-15), -inf (r = 500,
        # d = 1e-15) and 5.2e-3 off (r = 500, d = 1e-12); the worst gap is 2.8e-14
        x = 1.0 - d
        got = float(log_g_explinear(np.array([x]), np.array([1.0]), r, 1.0, -1.0, 1.0)[0])
        assert abs(got - closed_form_log_g_explinear(x, 1.0, r, 1.0, -1.0, 1.0)) <= 1e-13


def kennedy_flat_part(psi_s, x, s, r, lam):
    """psi(s) e^{lam d} (Phi(a) - e^{-2 lam d} Phi(c)), the Kennedy kernel's flat
    part without e^{lam^2 r/2}, at 50 digits."""
    with mpmath.workdps(50):
        x, s, r, lam = map(mpmath.mpf, (x, s, r, lam))
        d, sr = s - x, mpmath.sqrt(r)
        a, c = (lam * r + d) / sr, (lam * r - d) / sr
        return psi_s * mpmath.exp(lam * d) * (mpmath.ncdf(a) - mpmath.exp(-2 * lam * d) * mpmath.ncdf(c))


class TestKennedyKernelPastOverflow:
    # e^{lam d} or e^{-rho x} is past 709.8 at these states, and log g about
    # lam d: summed on the linear scale the kernel overflowed and log g was -inf

    @pytest.mark.parametrize("d,r", [(720.0, 2.0), (800.0, 2.0), (800.0, 500.0)])
    @pytest.mark.parametrize("psi", [PSI, TABULATED_PSI], ids=["uniform", "tabulated"])
    def test_flat_part(self, psi, d, r):
        # uniform psi at r = 2 gives 721.45867515 and 801.45867515
        lam, s = 1.0, 0.5
        x = s - d
        grid, values = ((psi.grid, psi.values) if psi.grid is not None
                        else ([0.0, psi.upper], [psi.scale, psi.scale]))
        moving = TestConditionalWeightKernels._kennedy_moving(grid, values, x, s, r, lam)
        with mpmath.workdps(50):
            exact = float(mpmath.log(kennedy_flat_part(psi.pdf(s), x, s, r, lam) + moving)
                          + lam * lam * r / 2)
        got = float(log_g_kennedy(np.array([x]), np.array([s]), r, lam, psi)[0])
        assert got == pytest.approx(exact, rel=1e-14)

    def test_exponential_psi(self):
        # e^{-rho x} = e^{720} at x = -480; log g is 730.76629073
        psi = DensitySpec.exponential(1.5, laplace_lambda=1.0)
        exact = math.log(psi.scale) + closed_form_log_g_explinear(-480.0, 0.3, 500.0, 1.0 - 1.5, -1.0)
        got = float(log_g_kennedy(np.array([-480.0]), np.array([0.3]), 500.0, 1.0, psi)[0])
        assert got == pytest.approx(exact, rel=1e-14)


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

    # the spike is narrower than the old 96-node rule's spacing, which
    # returned 0 on it; the exact tables are good to 1e-12 relative
    @pytest.mark.parametrize("phi,rel", [(UNIFORM, 1e-9), (DensitySpec.exponential(1.5), 1e-9),
                                         (TABULATED, 1e-12), (SPIKE, 1e-12)],
                             ids=["uniform", "exponential", "tabulated", "spike"])
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

    @pytest.mark.parametrize("psi,rel", [(PSI, 1e-12),
                                         (DensitySpec.exponential(1.5, laplace_lambda=1.0), 1e-12),
                                         (TABULATED_PSI, 1e-12)],
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
        # psi(x + z) is 0 for z < 0.5 - x, and jumps to e^{-0.5} there
        from penalab.weights import g_kennedy_bar

        lam = 1.0
        grid = np.linspace(0.5, 2.0, 41)
        psi = DensitySpec.tabulated(grid, np.exp(-grid), laplace_lambda=lam)
        moving, _ = integrate.quad(lambda z: math.exp(-lam * z) * psi.pdf(x + z) * _h_bar(z, r, lam),
                                   s - x, 2.0 - x, points=list(grid - x), epsabs=0.0,
                                   epsrel=1e-13, limit=200)
        # psi(s) = 0, so the flat part vanishes
        got = float(g_kennedy_bar(np.array([x]), np.array([s]), r, lam, psi)[0])
        assert got == pytest.approx(moving, rel=1e-12)

    @pytest.mark.parametrize("x,s,r", [(-0.5, 0.3, 2.0), (0.0, 0.0, 2.0)])
    def test_kennedy_kernel_sees_a_narrow_table(self, x, s, r):
        # psi(s) = 0 below the spike, so the kernel is its moving part alone;
        # a 96-node Gauss-Legendre rule returned exactly 0 at these states
        from penalab.weights import g_kennedy_bar

        lam = 1.0
        psi = DensitySpec.tabulated(SPIKE.grid, SPIKE.values, laplace_lambda=lam)
        moving, _ = integrate.quad(
            lambda z: math.exp(-lam * z) * psi.pdf(x + z) * _h_bar(z, r, lam), s - x, 1.5 - x,
            points=list(psi.grid[1:-1] - x), epsabs=0.0, epsrel=1e-13, limit=200)
        got = float(g_kennedy_bar(np.array([x]), np.array([s]), r, lam, psi)[0])
        assert got == pytest.approx(moving, rel=1e-12)

    @staticmethod
    def _segment_tail(grid, values, x, lo, r):
        # int_lo^end t(v) e^{-(v - x)^2/2r} dv for the piecewise-linear t, one
        # segment at a time in closed form: with t = alpha + beta v on it and
        # z = (v - x)/sqrt(r), sqrt(r) [t(x) sqrt(2 pi) (Phi(z1) - Phi(z0))
        # + beta sqrt(r) (e^{-z0^2/2} - e^{-z1^2/2})], in 50-digit arithmetic
        with mpmath.workdps(50):
            x, r = mpmath.mpf(x), mpmath.mpf(r)
            sr, total = mpmath.sqrt(r), mpmath.mpf(0)
            for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
                if b <= lo:
                    continue
                a, b, fa, fb = map(mpmath.mpf, (a, b, fa, fb))
                beta = (fb - fa) / (b - a)
                z0, z1 = (max(a, mpmath.mpf(lo)) - x) / sr, (b - x) / sr
                band = (mpmath.erfc(z0 / mpmath.sqrt(2)) - mpmath.erfc(z1 / mpmath.sqrt(2))) / 2
                total += sr * ((fa + beta * (x - a)) * mpmath.sqrt(2 * mpmath.pi) * band
                               + beta * sr * (mpmath.exp(-z0 * z0 / 2) - mpmath.exp(-z1 * z1 / 2)))
            return total

    @staticmethod
    def _spiked_table(gaps, values, spike):
        # a table of 2-9 knots with a spike at a sub-spacing width inserted in
        # one of its segments
        grid = np.concatenate(([0.2], 0.2 + np.cumsum(gaps)))
        vals = np.array(values[:grid.size])
        where, width, peak = spike
        seg = min(int(where * (grid.size - 1)), grid.size - 2)
        mid = grid[seg] + (grid[seg + 1] - grid[seg]) * (0.25 + 0.5 * where)
        half = width * (grid[seg + 1] - grid[seg]) / 4.0
        knots = np.array([mid - half, mid, mid + half])
        grid, vals = (np.concatenate((grid, knots)),
                      np.concatenate((vals, np.interp(knots, grid, vals) + [0.0, peak, 0.0])))
        order = np.argsort(grid)
        return grid[order], vals[order]

    @given(**SPIKED_TABLE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_tabulated_phi_kernel_matches_segment_closed_forms(self, gaps, values, spike,
                                                               log_r, states):
        # states from below the table to past its end, x down to 12 sqrt(r)
        # below s (far below the mass)
        from penalab.weights import g_phi_hat

        phi = DensitySpec.tabulated(*self._spiked_table(gaps, values, spike))
        r = math.exp(log_r)
        for frac, depth in states:
            s = -0.5 + (phi.upper + 0.7) * frac
            x = s - depth * math.sqrt(r)
            with mpmath.workdps(50):
                flat = phi.pdf(s) * mpmath.sqrt(mpmath.pi * r / 2) * mpmath.erf(
                    depth / mpmath.sqrt(2))
                exact = float(flat + self._segment_tail(phi.grid, phi.values, x, s, r))
            got = float(g_phi_hat(np.array([x]), np.array([s]), r, phi)[0])
            if exact > 1e-30:      # the tables have unit mass
                assert got == pytest.approx(exact, rel=1e-12)

    @staticmethod
    def _kennedy_moving(grid, values, x, s, r, lam):
        # int_{z0}^{zE} psi(x + z) e^{-lam z} hbar(z) dz, z0 = max(s, grid[0]) - x
        # and zE = grid[-1] - x, by parts in 50-digit arithmetic: e^{-lam z} hbar
        # = -F' with F(z) = 2 e^{-lam z} Q((z - lam r)/sqrt(r)), and F = H' with
        # H = -F/lam + (2/lam) e^{-lam^2 r/2} Q(z/sqrt(r)), so with beta_j the
        # slope of segment j and z_j its knots minus x, clipped to [z0, zE],
        # psi(x + z0) F(z0) - psi(end) F(zE) + sum_j beta_j (H(z_{j+1}) - H(z_j))
        with mpmath.workdps(50):
            x, r, lam = mpmath.mpf(x), mpmath.mpf(r), mpmath.mpf(lam)
            sr = mpmath.sqrt(r)
            q = lambda a: mpmath.erfc(a / mpmath.sqrt(2)) / 2
            f = lambda z: 2 * mpmath.exp(-lam * z) * q((z - lam * r) / sr)
            h = lambda z: -f(z) / lam + 2 / lam * mpmath.exp(-lam * lam * r / 2) * q(z / sr)
            grid, values = [mpmath.mpf(g) for g in grid], [mpmath.mpf(v) for v in values]
            lo = max(mpmath.mpf(s), grid[0])
            if lo >= grid[-1]:
                return mpmath.mpf(0)
            z0, z_end = lo - x, grid[-1] - x
            segments = list(zip(grid[:-1], grid[1:], values[:-1], values[1:]))
            start = next(fa + (fb - fa) * (lo - a) / (b - a)
                         for a, b, fa, fb in segments if a <= lo <= b)
            total = start * f(z0) - values[-1] * f(z_end)
            for a, b, fa, fb in segments:
                beta = (fb - fa) / (b - a)
                za, zb = min(max(a - x, z0), z_end), min(max(b - x, z0), z_end)
                total += beta * (h(zb) - h(za))
            return total

    @given(lam=st.floats(0.05, 5.0), **SPIKED_TABLE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_tabulated_kennedy_kernel_matches_segment_closed_forms(self, gaps, values, spike,
                                                                  lam, log_r, states):
        # the tables and states of the phi property, Laplace-normalized at
        # lam.  The moving part is the table engine's integral, which
        # g_kennedy_bar adds to its flat part: subtracting a float flat part
        # from g_kennedy_bar would lose the digits checked wherever the flat
        # part is the larger
        psi = DensitySpec.tabulated(*self._spiked_table(gaps, values, spike), laplace_lambda=lam)
        r = math.exp(log_r)
        for frac, depth in states:
            s = -0.5 + (psi.upper + 0.7) * frac
            x = s - depth * math.sqrt(r)
            exact = float(self._kennedy_moving(psi.grid, psi.values, x, s, r, lam))
            got = math.sqrt(2.0 / (math.pi * r)) * float(
                psi._table().gauss_tail(np.array([x]), np.array([s]), r, lam)[0])
            if exact > 1e-30:
                assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("r", [32.0, 500.0])
    @WIDE_TABLES
    def test_tabulated_kennedy_kernel_sums_every_panel_it_needs(self, values, r):
        # lam r is past the table's end, so Q((z - lam r)/sqrt(r)) is about 1
        # on it and each panel adds about its Laplace weight: a sum cut where
        # e^{-lam z} has fallen by e^{-110} was 25% low on e^5y and 0 on the
        # late table
        lam = 5.0
        psi = DensitySpec.tabulated(WIDE_GRID, values, laplace_lambda=lam)
        exact = float(self._kennedy_moving(psi.grid, psi.values, 0.0, 0.0, r, lam))
        got = math.sqrt(2.0 / (math.pi * r)) * float(
            psi._table().gauss_tail(np.zeros(1), np.zeros(1), r, lam)[0])
        assert got == pytest.approx(exact, rel=1e-12)

    def test_table_kernels_need_a_nonnegative_lambda(self):
        # for lam < 0 the Kennedy kernel grows with z, and panels of 2 / lam
        # would be negative
        with pytest.raises(ValueError):
            SPIKE._table().gauss_tail(np.zeros(1), np.zeros(1), 1.0, -1.0)

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


def reference_closed_form_kennedy_bar(x, s, r, lam, psi):
    """The closed-form Kennedy kernel gbar of a uniform or exponential psi, as
    ``g_kennedy_bar`` summed it on the linear scale before ``log_g_kennedy``
    took these psi to ``log_g_explinear``, with the moving part's
    Q((d - lam r)/sr) evaluated on its own: kept as their reference."""
    d = s - x
    sr = math.sqrt(r)
    cdf_c = norm_cdf((lam * r - d) / sr)
    interval = np.maximum(norm_cdf((lam * r + d) / sr) - cdf_c, 0.0)
    flat = psi.pdf(s) * (np.exp(lam * d) * interval + 2.0 * np.sinh(lam * d) * cdf_c)
    if psi.family == "uniform":
        z = np.stack((d, np.maximum(psi.upper - x, d)))
        f = 2.0 * np.exp(-lam * z) * norm_sf((z - lam * r) / sr)
        return flat + psi.scale * np.maximum(f[0] - f[1], 0.0)
    rho = psi.rate
    kappa = lam + rho
    return flat + psi.scale * np.exp(-rho * x) * (
        2.0 * lam / kappa * np.exp(-kappa * d) * norm_sf((d - lam * r) / sr)
        + np.exp(math.log(2.0 * rho / kappa) + (rho * rho - lam * lam) * r / 2.0
                 + log_norm_sf((d + rho * r) / sr)))


def reference_log_g_explinear(x, s, r, lam, mu, cap=math.inf):
    """``weights.log_g_explinear`` as it was before it shared log Q((d + mu r)/sr)
    between its pieces and summed them in a loop: each piece's normal tail
    evaluated on its own, and the signed log-sum-exp over stacked pieces,
    kept as its reference."""
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    d = s - x
    sr = math.sqrt(r)
    base1 = lam * s + mu * x + mu * mu * r / 2.0
    pieces = [(base1 + special.log_ndtr((d - mu * r) / sr), 1.0),
              (base1 + 2.0 * mu * d + log_norm_sf((d + mu * r) / sr), -1.0)]
    th = lam + 2.0 * mu
    nu = lam + mu
    d_hi = np.maximum(cap - x, d)
    if th == 0.0 or nu != 0.0:
        coef, sign = (abs(2.0 * nu / th), math.copysign(1.0, nu / th)) if th != 0.0 else (2.0, 1.0)
        lo = (d - nu * r) / sr
        log_interval = (weights._log_ndtr_diff(lo, (d_hi - nu * r) / sr) if math.isfinite(cap)
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
    logs = np.stack([np.broadcast_to(lg, d.shape) for lg, _ in pieces])
    signs = np.stack([np.full(d.shape, sg) for _, sg in pieces])
    shift = np.max(logs, axis=0, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    total = np.sum(signs * np.exp(logs - shift), axis=0)
    sgn = np.sign(total)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(total)) + np.squeeze(shift, axis=0)
    above = s > cap
    if np.any(sgn[~above] < 0.0):
        raise FloatingPointError("conditional exponential weight lost positivity")
    return np.where(above, -np.inf, out)


def _random_states(seed, r, top, n=4000):
    gen = RngStream(seed).generator()
    s = gen.uniform(0.0, top, n)
    return s - gen.exponential(1.0, n) * math.sqrt(r) * gen.uniform(0.0, 3.0, n), s


def assert_explinear_close(got, ref, r):
    # G1 is summed as one non-negative piece, so log g moves by a few ulps:
    # at most 5.2e-14 over these states at r <= 1.  At large r the R1 pieces
    # cancel, the gap reaches 4.3e-12 at r = 500, and both forms are about
    # 1e-10 off the 400-digit form there (CHANGES.md)
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= (1e-13 if r <= 1.0 else 1e-11))


class TestKernelFormsAreBitIdentical:
    # the kernels share their normal CDFs and tails, skip log Phi(-inf) and sum their
    # log-pieces in a loop; against the forms they replaced they are bit-identical
    # or, where a bound is stated, within it

    @pytest.mark.parametrize("r", [0.05, 1.0, 31.0, 500.0])
    @pytest.mark.parametrize("psi,lam", [(PSI, 1.0), (DensitySpec.uniform(2.0, laplace_lambda=0.5), 0.5),
                                         (DensitySpec.exponential(1.5, laplace_lambda=1.0), 1.0),
                                         (DensitySpec.exponential(0.5, laplace_lambda=2.0), 2.0)],
                             ids=["uniform-1", "uniform-0.5", "exponential-1", "exponential-2"])
    def test_closed_form_kennedy_kernels(self, psi, lam, r):
        x, s = _random_states(44, r, 1.3 * psi.upper if psi.family == "uniform" else 4.0)
        # d = lam r exactly, where Q and Phi meet at 0; e^{lam d} and e^{-rho x}
        # overflow past 709 in both forms alike (ROADMAP item 19)
        x, s = np.append(x, 0.3 - lam * r), np.append(s, 0.3)
        keep = (lam * (s - x) < 700.0) & (x > -300.0)
        x, s = x[keep], s[keep]
        # log_g_kennedy goes through log_g_explinear: the worst gap is 3.7e-13,
        # at uniform psi, lam = 1 and r = 500, where log g is about 250
        got = log_g_kennedy(x, s, r, lam, psi)
        with np.errstate(divide="ignore"):
            ref = np.log(reference_closed_form_kennedy_bar(x, s, r, lam, psi)) + lam * lam * r / 2.0
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        finite = np.isfinite(ref)
        assert np.max(np.abs(got[finite] - ref[finite])) <= 1e-12

    @pytest.mark.parametrize("r", [0.05, 1.0, 31.0, 500.0])
    @pytest.mark.parametrize("lam,mu", [(-2.0, 1.0), (-3.0, 1.0), (1.0, 1.0), (0.0, -1.0),
                                        (1.0, -0.5), (1.0, -1.0), (0.5, 0.25), (-1.0, -1.0)])
    def test_uncapped_explinear_kernel(self, lam, mu, r):
        x, s = _random_states(45, r, 4.0)
        assert_explinear_close(log_g_explinear(x, s, r, lam, mu),
                               reference_log_g_explinear(x, s, r, lam, mu), r)

    @pytest.mark.parametrize("r", [0.05, 1.0, 31.0, 63.0, 500.0])
    @pytest.mark.parametrize("lam,mu,cap", [(-2.0, 1.0, 1.0), (0.5, 0.25, 1.2), (-2.0, 1.0, 1.1537)],
                             ids=["trivial-bessel", "R2-1.2", "R1-1.1537"])
    def test_capped_explinear_kernel(self, lam, mu, cap, r):
        # s up to 1.3 cap, so that some states lie above the cap (log g = -inf)
        x, s = _random_states(47, r, 1.3 * cap)
        got = log_g_explinear(x, s, r, lam, mu, cap)
        assert np.isneginf(got[s > cap]).all() and np.isfinite(got[s < cap]).any()
        assert_explinear_close(got, reference_log_g_explinear(x, s, r, lam, mu, cap), r)

    @pytest.mark.parametrize("lam,mu,cap", [(-2.0, 1.0, math.inf), (1.0, 1.0, math.inf),
                                            (-2.0, 1.0, 1.0)])
    def test_explinear_kernel_on_scalars_and_columns(self, lam, mu, cap):
        scalar = log_g_explinear(0.1, 0.5, 3.0, lam, mu, cap)
        assert np.ndim(scalar) == 0
        assert_explinear_close(np.atleast_1d(scalar), np.atleast_1d(
            reference_log_g_explinear(0.1, 0.5, 3.0, lam, mu, cap)), 3.0)
        gen = RngStream(48).generator()
        column = gen.uniform(0.0, 1.3, (40, 1))
        x = column - gen.exponential(1.0, (40, 100)) * math.sqrt(7.0)
        got = log_g_explinear(x, column, 7.0, lam, mu, cap)
        assert got.shape == x.shape
        assert_explinear_close(got, reference_log_g_explinear(x, column, 7.0, lam, mu, cap), 7.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("values", [np.exp(-WIDE_GRID / 3.0), np.where(WIDE_GRID > 25.0, 1.0, 0.0)],
                             ids=["e^-y/3", "late"])
    def test_table_engine_on_an_s_column(self, values, lam):
        # expect_on_event hands the kernels s as an (m, 1) column; the engine's
        # work in y alone then runs once a row, with the floats of the full block
        table = DensitySpec.tabulated(WIDE_GRID, values)._table()
        gen = RngStream(46).generator()
        for r in (0.05, 8.0, 500.0):
            s = gen.uniform(-1.0, 31.0, (40, 1))
            x = s - gen.exponential(1.0, (40, 48)) * math.sqrt(r)
            column = table.gauss_tail(x, s, r, lam)
            assert column.shape == x.shape
            assert np.array_equal(column, table.gauss_tail(x, np.repeat(s, 48, axis=1), r, lam))
