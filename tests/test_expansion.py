import math

import numpy as np
import pytest

from penalab.exact_laws import DensitySpec
from penalab.expansion import (
    f1_coefficient_check,
    f1_kennedy_check,
    fit_rate,
    kennedy_series_value,
    phi_series_value,
)
from penalab.martingales import f1_phi_xs, m_mu_lambda_xs
from penalab.penalized_mc import ExpLinear, bessel_weight, finite_t_value
from penalab.quadrature import RectEvent, expect_on_event

UNIFORM = DensitySpec.uniform(1.0)
PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)
EV = RectEvent(1.0, b=0.0, c=0.5)
FULL = RectEvent(1.0)


class TestFitRate:
    def test_exact_model_recovery(self):
        fit = fit_rate([(t, 0.3 + 1.0 / t) for t in (8, 16, 32, 64, 128)])
        assert fit.q_limit == pytest.approx(0.3, abs=1e-12)
        assert fit.c1 == pytest.approx(1.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_window_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, 1.0), (32, 1.0)])           # too few points
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, 1.0), (24, 1.0), (32, 1.0)])  # span < 8
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (8, 1.0), (16, 1.0), (64, 1.0)])   # not increasing

    def test_discounted_needs_lambda(self):
        with pytest.raises(ValueError):
            fit_rate([(t, 1.0) for t in (4, 8, 16, 32)], model="discounted")


class TestPolySeries:
    def test_series_decays_like_one_over_t(self):
        from penalab.quadrature import q_phi_limit

        lim = q_phi_limit(UNIFORM, EV)
        ts = np.array([32.0, 128.0, 512.0])
        gaps = np.array([abs(phi_series_value(UNIFORM, EV, t) - lim) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        assert -1.2 < slope < -0.8

    def test_coefficient_check(self):
        rep = f1_coefficient_check(UNIFORM, EV)
        assert rep["rel_err"] < 0.10
        assert rep["residual_half_ratio"] >= 3.0

    def test_full_space_coefficients_vanish(self):
        # the full-space series is identically 1; both the fitted slope and
        # the martingale-form target are zero
        rep = f1_coefficient_check(UNIFORM, FULL)
        assert abs(rep["fit"].c1) < 1e-9
        assert abs(rep["target"]) < 1e-9

    def test_target_is_time_independent(self):
        vals = [expect_on_event(RectEvent(u), lambda x, s, _u=u: f1_phi_xs(x, s, _u, UNIFORM),
                                points=(1.0,))
                for u in (0.5, 1.0, 2.0)]
        assert max(abs(v) for v in vals) < 1e-6


class TestKennedySeries:
    def test_coefficient_check(self):
        rep = f1_kennedy_check(1.0, PSI, EV)
        assert rep["rel_err"] < 0.15

    def test_builds_no_tabulated_density(self, monkeypatch):
        # the coefficient target evaluates f1_lambda_phi_xs at every rule
        # node, in closed form in psi's tail moments
        tabulated = DensitySpec.tabulated
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return tabulated(*args, **kwargs)

        monkeypatch.setattr(DensitySpec, "tabulated", staticmethod(counted))
        f1_kennedy_check(1.0, DensitySpec.uniform(1.0, laplace_lambda=1.0), EV)
        assert calls == []

    def test_scaled_residuals_approach_target(self):
        rep = f1_kennedy_check(1.0, PSI, EV)
        t_last, scaled_last = rep["scaled_coefficients"][-1]
        assert scaled_last == pytest.approx(rep["target"], rel=0.05)

    def test_sign_agreement(self):
        rep = f1_kennedy_check(1.0, PSI, EV)
        assert math.copysign(1.0, rep["fit"].c1) == math.copysign(1.0, rep["target"])

    def test_full_space_leading_term_is_one(self):
        rep = f1_kennedy_check(1.0, PSI, FULL)
        assert rep["limit"] == pytest.approx(1.0, abs=1e-8)
        assert abs(rep["target"]) < 1e-9

    def test_model_distinguishability(self):
        rep = f1_kennedy_check(1.0, PSI, EV)
        disc = rep["fit"]
        poly = fit_rate(rep["series"], model="poly")
        assert poly.residual >= 10.0 * disc.residual


class TestSupportEndMass:
    # the series integrands jump at the end of phi's (psi's) support
    def test_kennedy_series_mass(self):
        assert kennedy_series_value(1.0, PSI, RectEvent(1.895), 31.257) == pytest.approx(
            1.0, abs=1e-9)

    def test_phi_series_mass(self):
        phi = DensitySpec.uniform(0.9566)
        assert phi_series_value(phi, RectEvent(0.8849), 33.06) == pytest.approx(1.0, abs=1e-12)

    def test_phi_series_probability_at_most_one(self):
        ev = RectEvent(1.9191246750423718, 0.920085388703157, 1.3288443666972185)
        val = phi_series_value(DensitySpec.uniform(0.814056221931829), ev, 10.360615078967678)
        assert val <= 1.0 + 1e-12


class TestExpLinearSeries:
    @pytest.mark.parametrize("pen", [ExpLinear(-3.0, 1.0), ExpLinear(-2.0, 1.0, cap=1.0),
                                     ExpLinear(0.5, 0.25, cap=1.2)])
    def test_full_space_mass(self, pen):
        assert finite_t_value(pen, FULL, 16.0) == pytest.approx(1.0, abs=1e-9)

    def test_approaches_regime_limit_at_rate_one_over_t(self):
        lim = expect_on_event(EV, lambda x, s: m_mu_lambda_xs(x, s, 1.0, -3.0, 1.0))
        ts = np.array([32.0, 128.0, 512.0, 2048.0])
        gaps = [abs(finite_t_value(ExpLinear(-3.0, 1.0), EV, t) - lim) for t in ts]
        assert np.polyfit(np.log(ts), np.log(gaps), 1)[0] == pytest.approx(-1.0, abs=0.1)

    def test_bessel_finite_t_values(self):
        # branch (-1, -1) and the trivial family at t = 32 against their
        # common limit P(R_1 <= b): 0.112783 (b = 0.8), 0.535455 (b = 1.6)
        vals = {(trivial, b): finite_t_value(bessel_weight(-1.0, -1.0, trivial), FULL, 32.0,
                                             w_max=b)
                for trivial in (False, True) for b in (0.8, 1.6)}
        assert vals[False, 0.8] == pytest.approx(0.117257, abs=1e-6)
        assert vals[False, 1.6] == pytest.approx(0.548964, abs=1e-6)
        assert vals[True, 0.8] == pytest.approx(0.117293, abs=1e-6)
        assert vals[True, 1.6] == pytest.approx(0.549070, abs=1e-6)
