import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from penalab.exact_laws import (
    DensitySpec,
    ExponentialBivariate,
    SeparableIndicator,
    TabulatedGrid,
    fbar,
)
from penalab.martingales import (
    f1_lambda_phi_xs,
    f1_phi_xs,
    m_bar_xs,
    m_kennedy_xs,
    m_mu_lambda_xs,
    m_phi_from_f,
    m_phi_xs,
)
from penalab.exact_laws import phi_from_f
from penalab.samplers import RngStream, exact_two_time_state

UNIFORM = DensitySpec.uniform(1.0)
EXP1 = DensitySpec.exponential(1.0)
PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)
C0 = 1.0 / (1.0 - math.exp(-1.0))


class TestUnitInitialValues:
    def test_all_evaluators_start_at_one(self):
        assert m_phi_xs(0.0, 0.0, UNIFORM) == 1.0
        assert m_phi_xs(0.0, 0.0, EXP1) == 1.0
        for lam, mu in [(-2.0, 1.0), (1.0, 1.0), (0.0, -1.0), (-1.0, -1.0)]:
            assert m_mu_lambda_xs(0.0, 0.0, 0.0, lam, mu) == pytest.approx(1.0, abs=1e-14)
        assert m_kennedy_xs(0.0, 0.0, 0.0, 1.0, PSI) == pytest.approx(1.0, abs=1e-14)
        assert m_bar_xs(0.0, 0.0, -1.0, -1.0) == 1.0
        assert m_bar_xs(0.0, 0.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert m_phi_from_f(0.0, 0.0, ExponentialBivariate(-2.0, 1.0)) == pytest.approx(1.0, abs=1e-9)


class TestMPhi:
    def test_examples(self):
        assert m_phi_xs(0.5, 0.8, UNIFORM) == pytest.approx(0.5, abs=1e-14)
        assert m_phi_xs(-1.0, 2.0, UNIFORM) == 0.0


class TestMMuLambda:
    def test_r1_example(self):
        val = m_mu_lambda_xs(0.5, 0.8, 0.0, -2.0, 1.0)
        assert val == pytest.approx(1.3 * math.exp(-0.8), abs=1e-14)

    def test_r3_collapses_to_drift_tilt(self):
        # (0, -1): cosh + sinh collapse to e^{-x - u/2}
        assert m_mu_lambda_xs(0.3, 0.9, 2.0, 0.0, -1.0) == pytest.approx(math.exp(-0.3 - 1.0),
                                                                          rel=1e-12)

    def test_r3_continuity_at_mu_zero(self):
        r1 = m_mu_lambda_xs(-0.4, 1.1, 0.7, -1.0, 0.0)
        assert abs(m_mu_lambda_xs(-0.4, 1.1, 0.7, -1.0, -1e-6) - r1) < 1e-6

    def test_r3_large_argument_stable(self):
        val = m_mu_lambda_xs(-40.0, 2.0, 1.0, -1.0, -3.0)
        assert np.isfinite(val) and val > 0.0

    @staticmethod
    def _r3_reference(x, s, u, lam, mu):
        """e^{(lam+mu) s - mu^2 u/2} ((lam + 2 mu) e^{-mu d} - lam e^{mu d}) / (2 mu) at 40 digits."""
        with mpmath.workdps(40):
            x, s, u, lam, mu = (mpmath.mpf(v) for v in (x, s, u, lam, mu))
            d = s - x
            return float(mpmath.exp((lam + mu) * s - mu * mu * u / 2)
                         * ((lam + 2 * mu) * mpmath.exp(-mu * d) - lam * mpmath.exp(mu * d)) / (2 * mu))

    # the former masked series, switched at |mu| d = 1e-4, was 4.3e-13 relative off here
    @example(x=-2.5072487696008494, s=0.0006253533711912697, u=3.81654046138603,
             lam=-0.4233076839820036, mu=-5.1206204554727815e-05)
    @given(x=st.floats(-5.0, 3.0), s=st.floats(0.0, 3.0), u=st.floats(0.0, 5.0),
           lam=st.floats(-4.0, 4.0), mu=st.floats(-4.0, -1e-12))
    @settings(max_examples=200, deadline=None)
    def test_r3_matches_a_40_digit_reference(self, x, s, u, lam, mu):
        assume(x <= s and lam + 2.0 * mu < 0.0)
        ref = self._r3_reference(x, s, u, lam, mu)
        assert m_mu_lambda_xs(x, s, u, lam, mu) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_r3_at_subnormal_mu(self):
        # at mu = -5e-324 the value is e^{lam s} (1 - lam d) to roundoff
        x, s = np.array([-1.0, 0.0, 0.4]), np.array([0.5, 0.0, 0.4])
        for lam in (0.0, -0.5):
            got = m_mu_lambda_xs(x, s, 1.0, lam, -5e-324)
            assert np.all(np.isfinite(got))
            assert got == pytest.approx(np.exp(lam * s) * (1.0 - lam * (s - x)), rel=1e-15)

    @given(x=st.floats(-5, 5), d=st.floats(0, 5), lam=st.floats(-4, 4), mu=st.floats(-4, 4))
    @settings(max_examples=200)
    def test_positivity(self, x, d, lam, mu):
        s = max(x, 0.0) + d
        assert m_mu_lambda_xs(x, s, 0.5, lam, mu) > 0.0


class TestMKennedy:
    def test_closed_form_example(self):
        val = m_kennedy_xs(0.0, 1.0, 0.0, 1.0, PSI)
        assert val == pytest.approx(C0 * math.sinh(1.0), rel=1e-12)

    def test_time_decay(self):
        v1 = m_kennedy_xs(0.0, 0.5, 1.0, 1.0, PSI)
        v2 = m_kennedy_xs(0.0, 0.5, 50.0, 1.0, PSI)
        assert v2 < v1 * 1e-9

    def test_absorbs_beyond_support(self):
        assert m_kennedy_xs(0.0, 1.5, 0.2, 1.0, PSI) == 0.0

    def test_normalization_checked(self):
        with pytest.raises(ValueError):
            m_kennedy_xs(0.0, 0.0, 0.0, 1.0, DensitySpec.uniform(1.0))


class TestMBar:
    def test_branch_values(self):
        assert m_bar_xs(1.0, 3.0, -1.0, -1.0) == 1.0
        assert m_bar_xs(1.0, 0.0, -1.0, 2.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-12)
        v = m_bar_xs(0.7, 1.0, 1.0, -0.5)
        assert v == pytest.approx(math.exp(-0.125) * math.sinh(0.35) / 0.35, rel=1e-12)

    def test_validation(self):
        # the Bessel position is a norm, so a negative state is rejected
        with pytest.raises(ValueError):
            m_bar_xs(-0.1, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            m_bar_xs(np.array([0.3, -1e-12]), 1.0, -1.0, -1.0)

    def test_small_argument_limit(self):
        assert m_bar_xs(np.array([1e-10]), 0.0, 1.0, 0.5)[0] == pytest.approx(1.0, abs=1e-12)

    @given(lam=st.floats(-5, 5), mu=st.floats(-5, 5))
    @settings(max_examples=200)
    def test_branches_cover_the_plane(self, lam, mu):
        # every (lam, mu) lands in a branch and yields a positive value
        assert m_bar_xs(0.8, 0.6, lam, mu) > 0.0


class TestFReduction:
    F = ExponentialBivariate(-2.0, 1.0)

    def test_example_value(self):
        val = m_phi_from_f(0.5, 0.8, self.F)
        assert val == pytest.approx(1.3 * math.exp(-0.8), abs=1e-6)

    def test_consistency_with_phi_route(self):
        for f in (self.F, ExponentialBivariate(-3.0, 1.0), ExponentialBivariate(-1.5, 0.5)):
            phi = phi_from_f(f)
            gen = RngStream(7).generator()
            for _ in range(25):
                x = gen.normal()
                s = max(x, 0.0) + abs(gen.normal())
                assert m_phi_from_f(x, s, f) == pytest.approx(m_phi_xs(x, s, phi), abs=1e-12)

    def test_separable_indicator_reduction(self):
        g = np.linspace(-12.0, 1.0, 2000)
        f = SeparableIndicator(g, np.exp(g), 1.0)
        # reduces to the uniform-phi martingale: (A - x)/A below the cutoff, 0 above
        assert m_phi_from_f(0.2, 0.6, f) == pytest.approx(0.8, abs=1e-4)
        assert m_phi_from_f(0.2, 1.5, f) == 0.0

    def test_infinite_mass_rejected(self):
        with pytest.raises(ValueError):
            m_phi_from_f(0.0, 0.0, ExponentialBivariate(0.0, -1.0))

    @given(mu=st.floats(0.2, 3.0), beta=st.floats(0.2, 3.0), x=st.floats(-3.0, 3.0),
           z=st.floats(0.0, 3.0))
    @example(mu=0.25, beta=1.0, x=0.0, z=2.2250738585072014e-308)   # d of 1e-308
    @example(mu=1.0, beta=2.0, x=0.0, z=5.288274714900729e-307)
    @settings(max_examples=40, deadline=None)
    def test_exponential_closed_form_vs_nested_quadrature(self, mu, beta, x, z):
        # f* times the integral of (2y - a) f(a + x, s v (y + x)) over {y >= a+}:
        # f is flat in y up to d = s - x, and the a-range is cut at 0 and d and
        # ends where e^{mu a} or e^{-beta (a - d)} falls below e^{-40}
        lam = -(mu + beta)
        f = ExponentialBivariate(lam, mu)
        s = max(x, 0.0) + z
        d = s - x

        def inner(a):
            lo = max(a, 0.0)
            hi = max(d, lo)
            # the flat part in closed form: quad warns on a width d - lo of 1e-308
            flat = (hi - lo) * (hi + lo - a) * math.exp(mu * (a + x) + lam * s)
            grow = integrate.quad(lambda y: (2.0 * y - a) * math.exp(mu * (a + x) + lam * (y + x)),
                                  hi, math.inf, epsabs=0.0, epsrel=1e-13)[0]
            return flat + grow

        # a piece [0, d] narrower than 1e-300 holds under 1e-299 of the mass, and
        # quad cannot subdivide it (it fails on d = 5.3e-307): it is left out
        cuts = (-40.0 / mu, 0.0, d, d + 40.0 / beta)
        ref = sum(integrate.quad(inner, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                  for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1e-300) / fbar(f)
        assert m_phi_from_f(x, s, f) == pytest.approx(ref, rel=1e-10)

    def test_array_call_equals_scalar_calls(self):
        g = np.linspace(-12.0, 1.0, 2000)
        gen = RngStream(11).generator()
        x = gen.normal(size=50)
        s = np.maximum(x, 0.0) + np.abs(gen.normal(size=50))
        for f in (self.F, ExponentialBivariate(-1.5, 0.5), SeparableIndicator(g, np.exp(g), 1.0)):
            vals = m_phi_from_f(x, s, f)
            assert isinstance(vals, np.ndarray) and vals.shape == x.shape
            assert np.array_equal(vals, [m_phi_from_f(xi, si, f) for xi, si in zip(x, s)])
            assert isinstance(m_phi_from_f(float(x[0]), float(s[0]), f), float)

    def test_tabulated_grid_has_no_route(self):
        a = np.linspace(-3.0, -0.5, 11)
        y = np.linspace(0.5, 3.0, 11)
        f = TabulatedGrid(a, y, np.exp(a[:, None] - y[None, :]))
        with pytest.raises(TypeError, match=r"m_phi_xs\(x, s, phi_from_f\(f\)\)"):
            m_phi_from_f(0.0, 1.0, f)


class TestExpansionCoefficients:
    def test_f1_phi_origin_is_zero(self):
        # the coefficient martingale starts at 0 (the full-space series is flat)
        assert f1_phi_xs(0.0, 0.0, 0.0, UNIFORM) == pytest.approx(0.0, abs=1e-14)

    def test_f1_phi_vanishes_beyond_support(self):
        assert f1_phi_xs(0.2, 1.2, 3.0, UNIFORM) == 0.0

    def test_f1_phi_takes_negative_values(self):
        vals = f1_phi_xs(np.array([-0.5]), np.array([0.2]), 0.0, UNIFORM)
        assert vals[0] < 0.0

    def test_cubic_tail_variant_differs(self):
        # the circulating variant (cubed tail integrand, undivided prefactor)
        # evaluates to 5/24 at the origin for the uniform weight and is *not*
        # the series coefficient; the martingale form is
        m2 = UNIFORM.moment(2)
        variant = -(0.5 * UNIFORM.tail_moment(3, 0.0)) + (0.0 + m2) * 1.0
        assert variant == pytest.approx(5.0 / 24.0, abs=1e-12)
        assert f1_phi_xs(0.0, 0.0, 0.0, UNIFORM) != pytest.approx(variant, abs=1e-3)

    def test_f1_lambda_phi_origin_is_zero(self):
        assert f1_lambda_phi_xs(0.0, 0.0, 0.0, 1.0, PSI) == pytest.approx(0.0, abs=1e-12)

    def test_f1_lambda_phi_composition(self):
        # equals the prefactor times the difference of the two martingales;
        # for the uniform psi, phi1 = 2y on [0, 1] is an exact 2-knot table
        from penalab.exact_laws import kennedy_transforms

        c = kennedy_transforms(PSI, 1.0)[3]
        phi1 = DensitySpec.tabulated([0.0, 1.0], [0.0, 2.0])
        expected = c / math.sqrt(2 * math.pi) * (m_phi_xs(0.0, 0.5, phi1)
                                                 - m_kennedy_xs(0.0, 0.5, 0.0, 1.0, PSI))
        assert f1_lambda_phi_xs(0.0, 0.5, 0.0, 1.0, PSI) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("psi,lam", [
        (DensitySpec.exponential(2.0, laplace_lambda=1.0), 1.0),
        (DensitySpec.exponential(0.5, laplace_lambda=1.0), 1.0),
        (DensitySpec.exponential(3.0, laplace_lambda=2.0), 2.0),
        (DensitySpec.tabulated(np.linspace(0.0, 2.0, 41), np.exp(-np.linspace(0.0, 2.0, 41)),
                               laplace_lambda=1.0), 1.0),
    ], ids=["exp-2-1", "exp-0.5-1", "exp-3-2", "tabulated"])
    def test_f1_lambda_phi_matches_quadrature_of_phi1(self, psi, lam):
        # c M^{phi1}(x, s) = c phi1(s)(s - x) + int_s^inf c phi1, with
        # c phi1 = psi - lam T0, by quad against the closed form in T0 and T1
        from penalab.exact_laws import kennedy_transforms

        c = kennedy_transforms(psi, lam)[3]

        def c_phi1(y):
            return psi.pdf(y) - lam * psi.tail(y)

        top = psi.upper if psi.family == "tabulated" else math.inf
        for x, s, u in [(-0.5, 0.3, 1.0), (0.2, 0.6, 0.5), (0.0, 1.5, 2.0), (-1.0, 0.0, 0.1)]:
            kinks = [k for k in psi.kinks if s < k < top]
            tail, _ = integrate.quad(c_phi1, s, top, points=kinks or None,
                                     epsabs=0.0, epsrel=1e-13, limit=200)
            expected = (c_phi1(s) * (s - x) + tail
                        - c * m_kennedy_xs(x, s, u, lam, psi)) / (lam ** 3 * math.sqrt(2 * math.pi))
            assert f1_lambda_phi_xs(x, s, u, lam, psi) == pytest.approx(expected, rel=1e-12)


N_MART = 100000


def _martingale_gap(weight_fn, s_time, t_time, seed):
    """max over test functions of |E[M_t g] - E[M_s g]| in stderr units."""
    gen = RngStream(seed).generator()
    xs, ss, xt, st_ = exact_two_time_state(s_time, t_time, N_MART, gen)
    ms = np.asarray(weight_fn(xs, ss, s_time), dtype=float)
    mt = np.asarray(weight_fn(xt, st_, t_time), dtype=float)
    worst = 0.0
    for g in (np.ones(N_MART), (xs <= 0.0).astype(float), (ss <= 1.0).astype(float)):
        d = mt * g - ms * g
        se = float(np.std(d)) / math.sqrt(N_MART)
        worst = max(worst, abs(float(np.mean(d))) / max(se, 1e-300))
    return worst


@pytest.mark.parametrize("tag,fn,seed", [
    ("m_phi", lambda x, s, u: m_phi_xs(x, s, UNIFORM), 101),
    ("m_mu_lambda_r1", lambda x, s, u: m_mu_lambda_xs(x, s, u, -2.0, 1.0), 102),
    ("m_mu_lambda_r3", lambda x, s, u: m_mu_lambda_xs(x, s, u, 0.0, -1.0), 103),
    ("m_kennedy", lambda x, s, u: m_kennedy_xs(x, s, u, 1.0, PSI), 104),
    ("f1_phi", lambda x, s, u: f1_phi_xs(x, s, u, UNIFORM), 105),
])
def test_empirical_martingale_property(tag, fn, seed):
    gap = _martingale_gap(fn, 0.5, 2.0, seed)
    assert gap <= 4.0, f"{tag}: martingale increment {gap:.2f} stderr from zero"
