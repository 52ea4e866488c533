import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from penalab import exact_laws
from penalab.exact_laws import (
    DegeneracyError,
    DensitySpec,
    ExponentialBivariate,
    Regime,
    SeparableIndicator,
    TabulatedGrid,
    _tabgrid_cell_moments,
    classify_region,
    fbar,
    h_cdf,
    kennedy_transforms,
    p_bessel3,
    p_joint,
    p_max,
    phi_from_f,
)
from penalab.martingales import m_kennedy_xs, m_phi_from_f
from penalab.penalized_mc import KennedyWeight
from penalab.samplers import RngStream, draw_penalty_pairs

QUAD_TOL = 1e-8


class TestScalarDensities:
    def test_p_max_values(self):
        assert p_max(1.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * math.exp(-0.5), abs=1e-12)
        assert p_max(1.0, -0.5) == 0.0
        assert p_max(4.0, 0.001) == pytest.approx(math.sqrt(2 / (4 * math.pi)), rel=1e-5)

    def test_p_max_domain(self):
        with pytest.raises(ValueError):
            p_max(0.0, 1.0)

    def test_p_max_normalizes(self):
        for r in (0.25, 1.0, 7.0):
            val, _ = integrate.quad(lambda z: p_max(r, z), 0, 50 * math.sqrt(r))
            assert val == pytest.approx(1.0, abs=QUAD_TOL)

    def test_h_cdf_matches_normal_oracle(self):
        # reflection: P(S_1 < 1) = P(|N(0,1)| <= 1)
        assert h_cdf(1.0, 1.0) == pytest.approx(2 * stats.norm.cdf(1.0) - 1.0, abs=1e-12)
        assert h_cdf(3.0, 0.0) == 0.0
        assert h_cdf(1.0, math.inf) == 1.0

    def test_h_cdf_is_integral_of_p_max(self):
        for z in (0.3, 1.0, 2.5):
            val, _ = integrate.quad(lambda x: p_max(1.7, x), 0, z)
            assert h_cdf(1.7, z) == pytest.approx(val, abs=QUAD_TOL)

    def test_h_cdf_domain(self):
        with pytest.raises(ValueError):
            h_cdf(1.0, -0.1)
        with pytest.raises(ValueError):
            h_cdf(-1.0, 0.5)

    def test_p_joint_values(self):
        assert p_joint(1.0, 0.0, 1.0) == pytest.approx(2 * math.sqrt(2 / math.pi) * math.exp(-2), abs=1e-12)
        assert p_joint(1.0, 2.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            p_joint(0.0, 0.0, 1.0)

    def test_p_joint_normalizes(self):
        inner = lambda y: integrate.quad(lambda a: p_joint(1.0, a, y), y - 12, y)[0]
        val, _ = integrate.quad(inner, 0, 12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_p_joint_y_marginal_recovers_p_max(self):
        for y in (0.4, 1.0, 2.2):
            val, _ = integrate.quad(lambda a: p_joint(1.3, a, y), y - 14, y, limit=200)
            assert val == pytest.approx(p_max(1.3, y), abs=QUAD_TOL)

    def test_p_bessel3(self):
        assert p_bessel3(1.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * math.exp(-0.5), abs=1e-12)
        assert p_bessel3(1.0, -1.0) == 0.0
        val, _ = integrate.quad(lambda z: p_bessel3(1.0, z), 0, 40)
        assert val == pytest.approx(1.0, abs=QUAD_TOL)


class TestRegimes:
    def test_examples(self):
        assert classify_region(-1.0, 0.5) is Regime.R1
        assert classify_region(1.0, 1.0) is Regime.R2
        assert classify_region(0.0, -1.0) is Regime.R3

    @given(lam=st.floats(-50, 50), mu=st.floats(-50, 50))
    @settings(max_examples=400)
    def test_partition(self, lam, mu):
        in_r1 = lam + mu < 0 and mu >= 0
        in_r2 = lam + 2 * mu >= 0 and lam + mu >= 0
        in_r3 = lam + 2 * mu < 0 and mu < 0
        assert in_r1 + in_r2 + in_r3 == 1
        assert classify_region(lam, mu).value == {0: "R1", 1: "R2", 2: "R3"}[
            [in_r1, in_r2, in_r3].index(True)]

    def test_boundaries_literal(self):
        # boundary points resolve by the literal inequalities
        assert classify_region(0.0, 0.0) is Regime.R2
        assert classify_region(-1.0, 0.0) is Regime.R1
        assert classify_region(2.0, -1.0) is Regime.R2
        assert classify_region(2.0 - 1e-12, -1.0) is Regime.R3


class TestDensitySpec:
    def test_uniform_basics(self):
        u = DensitySpec.uniform(2.0)
        assert u.pdf(1.0) == 0.5
        assert u.cdf(1.0) == 0.5
        assert u.moment(2) == pytest.approx(8 / 6, abs=1e-14)
        assert u.ppf(0.25) == 0.5

    def test_exponential_basics(self):
        e = DensitySpec.exponential(2.0)
        assert e.pdf(0.0) == 2.0
        assert e.tail(1.0) == pytest.approx(math.exp(-2.0), abs=1e-14)
        assert e.moment(1) == pytest.approx(0.5, abs=1e-14)
        assert e.ppf(1 - math.exp(-2)) == pytest.approx(1.0, abs=1e-12)

    def test_kinks(self):
        # where the pdf jumps or bends: none for an exponential
        assert tuple(DensitySpec.exponential(2.0).kinks) == ()
        assert tuple(DensitySpec.uniform(2.0, laplace_lambda=1.0).kinks) == (2.0,)
        grid = np.array([0.0, 0.5, 1.5])
        assert np.array_equal(DensitySpec.tabulated(grid, [1.0, 2.0, 0.0]).kinks, grid)

    @staticmethod
    def _dense_oracle(spec, weight, lo, hi):
        # knot-aligned refinement keeps the trapezoid rule exact up to the
        # weight's own smoothness
        fine = np.union1d(np.linspace(lo, hi, 20001), spec.grid)
        fine = fine[(fine >= lo) & (fine <= hi)]
        return np.trapezoid(spec.pdf(fine) * weight(fine), fine)

    def test_tabulated_renormalizes_and_interpolates(self):
        grid = np.linspace(0, 3, 400)
        spec = DensitySpec.tabulated(grid, 5.0 * np.exp(-grid))
        assert spec.mass() == pytest.approx(1.0, abs=1e-12)
        assert spec.cdf(1.3) == pytest.approx(
            self._dense_oracle(spec, lambda v: 1.0, 0.0, 1.3), abs=1e-9)
        assert spec.tail_moment(2, 0.7) == pytest.approx(
            self._dense_oracle(spec, lambda v: v ** 2, 0.7, 3.0), abs=1e-7)
        assert spec.laplace_tail(0.4, 0.8) == pytest.approx(
            self._dense_oracle(spec, lambda v: np.exp(-0.8 * v), 0.4, 3.0), abs=1e-7)

    @given(q=st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=100)
    def test_tabulated_ppf_roundtrip(self, q):
        grid = np.linspace(0, 2, 300)
        spec = DensitySpec.tabulated(grid, 0.3 + grid ** 2)
        y = spec.ppf(q)
        assert spec.cdf(y) == pytest.approx(q, abs=1e-9)

    def test_tabulated_ppf_roundtrip_on_a_nearly_flat_table(self):
        # the root (disc - v0) / slope cancelled here: 6.5e-8 off on these levels
        grid = np.linspace(0.0, 2.0, 21)
        spec = DensitySpec.tabulated(grid, 1.0 + 1e-9 * np.sin(7.0 * grid))
        q = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(spec.cdf(spec.ppf(q)) - q)) <= 1e-14

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            DensitySpec.tabulated([0.0, 1.0], [1.0, -0.2])
        with pytest.raises(ValueError):
            DensitySpec.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_laplace_normalization(self):
        psi = DensitySpec.uniform(1.0, laplace_lambda=1.0)
        assert psi.laplace_mass(1.0) == pytest.approx(1.0, abs=1e-14)
        assert psi.scale == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-14)
        with pytest.raises(ValueError):
            psi.ppf(0.5)


@st.composite
def _tables(draw):
    """2-40 knots at random spacings from a random start in [0, 1.5] to 3, and
    nonnegative values, not all zero."""
    n = draw(st.integers(2, 40))
    widths = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    start = draw(st.floats(0.0, 1.5))
    grid = start + (3.0 - start) * np.concatenate(([0.0], np.cumsum(widths))) / widths.sum()
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n)
                  .filter(lambda v: max(v) > 0.0))
    return grid, np.array(values)


def _quad(fn, lo, hi, knots):
    """Adaptive quadrature with the knots as breakpoints: exact on every
    polynomial piece up to roundoff.  An interval a few ulps wide, on which
    quad reports bad integrand behaviour, takes the midpoint rule."""
    if lo >= hi:
        return 0.0
    if hi - lo <= 1e-12 * max(1.0, abs(hi)):
        return (hi - lo) * fn(0.5 * (lo + hi))
    pts = [p for p in knots if lo < p < hi] or None
    return integrate.quad(fn, lo, hi, points=pts, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestLinearTableEngine:
    # every tabulated integral runs on one engine; the cdf and the prefix are
    # differences of totals and tails, so they hold to 1e-12 absolute
    # the strategy's grids can end an ulp or two past y = 3: there the table's
    # cdf is 1 + 2.2e-16, and the reference integrates over a sliver
    @given(table=_tables(), y=st.floats(-0.5, 3.5))
    @example(table=(np.array([0.0, 1.6875, 3.0000000000000004]), np.array([1.0, 1.0, 0.0])),
             y=3.0)
    @example(table=(np.array([0.0, 2.9, 3.000000000000001]), np.array([0.0, 1.0, 0.0])), y=3.0)
    @settings(max_examples=60, deadline=None)
    def test_density_integrals_match_quad(self, table, y):
        grid, values = table
        spec = DensitySpec.tabulated(grid, values)
        lo = max(y, grid[0])
        for k in range(4):
            ref = _quad(lambda v: v ** k * spec.pdf(v), lo, grid[-1], grid)
            assert spec.tail_moment(k, y) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        for lam in (0.0, 0.7, 2.0):
            ref = _quad(lambda v: math.exp(-lam * v) * spec.pdf(v), lo, grid[-1], grid)
            assert spec.laplace_tail(y, lam) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        ref = _quad(spec.pdf, 0.0, min(y, grid[-1]), grid)
        assert spec.cdf(y) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        if spec.pdf(y) > 0.0:
            # the inverse is conditioned by 1 / pdf(y)
            assert spec.ppf(spec.cdf(y)) == pytest.approx(y, rel=0.0, abs=1e-12 / spec.pdf(y))

    @given(table=_tables(), x=st.floats(-3.5, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_separable_prefix_matches_quad(self, table, x):
        grid, values = table
        f = SeparableIndicator(grid - 3.0, values, 1.0)     # f1 on negative a
        g = f.f1_grid
        for k in range(4):
            ref = _quad(lambda a: a ** k * f.f1(a), g[0], min(x, g[-1]), g)
            assert f._prefix(k, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestBivariatePenalties:
    def test_fbar_exponential(self):
        assert fbar(ExponentialBivariate(-2.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
        assert fbar(ExponentialBivariate(0.0, -1.0)) == math.inf
        assert fbar(ExponentialBivariate(-1.0, 2.0)) == math.inf  # lam + mu >= 0

    def test_fbar_separable_matches_quadrature(self):
        g = np.linspace(-12.0, 1.0, 3000)
        f = SeparableIndicator(g, np.exp(g), 1.0)
        oracle, _ = integrate.quad(lambda a: (1.0 - a) * f.f1(a), -12.0, 1.0, limit=300)
        assert fbar(f) == pytest.approx(oracle, rel=1e-6)

    def test_evaluate_outside_support_raises(self):
        f = ExponentialBivariate(-2.0, 1.0)
        with pytest.raises(ValueError):
            f.evaluate(1.0, 0.5)

    def test_phi_from_f_exponential_closed_form(self):
        phi = phi_from_f(ExponentialBivariate(-2.0, 1.0))
        ys = np.linspace(0, 20, 2001)
        assert np.max(np.abs(phi.pdf(ys) - np.exp(-ys))) < 1e-6
        # the reduction is exponential with rate -(lam + mu)
        assert (phi.family, phi.rate) == ("exponential", 1.0)
        phi = phi_from_f(ExponentialBivariate(-3.0, 1.0))
        assert (phi.family, phi.rate) == ("exponential", 2.0)

    def test_phi_from_f_separable_is_uniform(self):
        g = np.linspace(-12.0, 1.0, 3000)
        f = SeparableIndicator(g, np.exp(g), 1.0)
        phi = phi_from_f(f)
        ys = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(phi.pdf(ys) - 1.0)) < 1e-6
        assert (phi.family, phi.upper) == ("uniform", 1.0)

    def test_phi_from_f_infinite_mass_rejected(self):
        with pytest.raises(ValueError):
            phi_from_f(ExponentialBivariate(0.0, -1.0))

    def test_zero_mass_penalty_rejected(self):
        # f1 = 0 has no reduced density, martingale or pair law
        g = np.linspace(-2.0, 1.0, 10)
        f = SeparableIndicator(g, np.zeros(10), 1.0)
        with pytest.raises(ValueError):
            phi_from_f(f)
        with pytest.raises(ValueError):
            m_phi_from_f(0.0, 0.5, f)
        with pytest.raises(ValueError):
            draw_penalty_pairs(f, 3, RngStream(0).generator())

    def test_phi_from_f_tabulated_grid_mass(self):
        # support kept away from the diagonal so the bilinear cell integrals are exact
        a = np.linspace(-3.0, -0.5, 41)
        y = np.linspace(0.5, 3.0, 41)
        aa, yy = np.meshgrid(a, y, indexing="ij")
        tab = TabulatedGrid(a, y, np.exp(aa - yy))
        phi = phi_from_f(tab)
        assert phi.mass() == pytest.approx(1.0, abs=1e-12)

    def test_phi_from_f_tabulated_matches_per_knot_loop(self):
        # the table reaches past the diagonal but vanishes within 0.5 of it,
        # so the support mask and the a < y cut both act
        a = np.linspace(-2.0, 1.0, 31)
        y = np.linspace(0.0, 3.0, 31)
        aa, yy = np.meshgrid(a, y, indexing="ij")
        tab = TabulatedGrid(a, y, np.where(yy - aa >= 0.5, np.exp(aa - yy), 0.0))
        m0, _, _, yr, table = _tabgrid_cell_moments(tab)
        col = np.sum(m0, axis=0)
        tail = np.concatenate((np.cumsum(col[::-1])[::-1], [0.0]))
        ref = np.empty_like(yr)

        def power_difference(k, alpha, beta, lo, hi):
            # integral of v^k (alpha + beta v) over [lo, hi]
            return (alpha * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                    + beta * (hi ** (k + 2) - lo ** (k + 2)) / (k + 2))

        for j, yv in enumerate(yr):
            row = np.where(yv >= np.maximum(a, 0.0), table[:, j], 0.0)
            slope = np.diff(row) / np.diff(a)
            alpha = row[:-1] - a[:-1] * slope
            hi = np.minimum(a[1:], yv)
            lo = np.minimum(a[:-1], yv)
            wedge = yv * power_difference(0, alpha, slope, lo, hi) \
                - power_difference(1, alpha, slope, lo, hi)
            ref[j] = tail[j] + float(np.sum(wedge))
        phi = phi_from_f(tab)
        assert np.array_equal(phi.grid, yr)
        # the segment rule and the power differences agree to roundoff
        assert np.max(np.abs(phi.values - ref / np.trapezoid(ref, yr))) < 1e-14

    def test_floor_above_zero_gets_a_two_knot_head(self):
        # below the y-floor the reduced density is the constant upper-tail
        # mass of f over fbar(f), with its jump at the floor pinned by one
        # epsilon knot
        a = np.linspace(-3.0, -0.5, 41)
        y = np.linspace(0.5, 3.0, 41)
        aa, yy = np.meshgrid(a, y, indexing="ij")
        tab = TabulatedGrid(a, y, np.exp(aa - yy))
        m0, _, _, yr, _ = _tabgrid_cell_moments(tab)
        phi = phi_from_f(tab)
        eps = 1e-9 * max(y[0], 1.0)
        assert np.array_equal(phi.grid[:2], [0.0, y[0] - eps])
        assert np.array_equal(phi.grid[2:], yr)
        level = phi.values[0]
        # up to the tabulation's renormalization, checked to 1e-6
        assert level == pytest.approx(float(np.sum(m0)) / fbar(tab), rel=1e-6)
        ys = np.linspace(0.0, y[0] - eps, 101)
        assert np.all(phi.pdf(ys) == level)
        assert np.max(np.abs(phi.cdf(ys) - level * ys)) < 1e-15
        # across the epsilon knot the cdf climbs by the trapezoid to pdf(y0)
        jump = 0.5 * eps * (level + phi.pdf(y[0]))
        assert phi.cdf(y[0]) == pytest.approx(level * (y[0] - eps) + jump, abs=1e-15)


def _diagonal_table():
    # nonzero on both sides of the diagonal y = a
    a = np.linspace(-1.0, 2.0, 31)
    y = np.linspace(0.0, 3.0, 31)
    aa, yy = np.meshgrid(a, y, indexing="ij")
    return TabulatedGrid(a, y, np.exp(-aa ** 2 - yy))


def _brute_tail(tab, g, floor, n=2001):
    """Trapezoid integral of g(a, eta) f(a, eta) over eta >= max(a, 0, floor),
    on n a-nodes and n eta-nodes per a."""
    top = tab.y_grid[-1]
    av = np.linspace(tab.a_grid[0], tab.a_grid[-1], n)
    lo = np.minimum(np.maximum(np.maximum(av, 0.0), floor), top)
    eta = lo[:, None] + (top - lo)[:, None] * np.linspace(0.0, 1.0, n)
    aa = np.broadcast_to(av[:, None], eta.shape)
    inner = np.trapezoid(g(aa, eta) * tab._bilinear(aa, eta), eta, axis=1)
    return float(np.trapezoid(inner, av))


class TestTabulatedAcrossTheDiagonal:
    def test_fbar_matches_brute_force(self):
        tab = _diagonal_table()
        brute = _brute_tail(tab, lambda a, e: 2.0 * e - a, 0.0)
        assert fbar(tab) == pytest.approx(brute, rel=1e-6)     # 2.3e-6 off with the 8 x 8 rule

    def test_reduces_and_matches_brute_force_density(self):
        tab = _diagonal_table()
        phi = phi_from_f(tab)      # rejected with mass 0.999916 before
        assert phi.mass() == pytest.approx(1.0, abs=1e-12)
        total = fbar(tab)
        for yv in (0.3, 0.95, 1.6, 2.4):
            av = np.linspace(-1.0, min(yv, 2.0), 20001)
            wedge = np.trapezoid((yv - av) * tab._bilinear(av, np.full_like(av, yv)), av)
            tail = _brute_tail(tab, lambda a, e: np.ones_like(e), yv, n=801)
            assert float(phi.pdf(yv)) == pytest.approx((tail + wedge) / total, rel=1e-5)


class TestOneCellMomentPass:
    def test_one_pass_serves_phi_from_f_fbar_and_the_draws(self, monkeypatch):
        passes = []
        inner = exact_laws._tabgrid_cell_moments

        def counted(f):
            passes.append(inner(f))
            return passes[-1]

        monkeypatch.setattr(exact_laws, "_tabgrid_cell_moments", counted)
        tab = _diagonal_table()
        phi_from_f(tab)
        total = fbar(tab)
        draw_penalty_pairs(tab, 10, RngStream(0).generator())
        assert len(passes) == 1
        _, ma, my, _, _ = passes[0]
        assert float(np.sum(2.0 * my - ma)) == pytest.approx(total, rel=1e-12)


class TestKennedyTransforms:
    LAM = 1.0
    PSI = DensitySpec.uniform(1.0, laplace_lambda=1.0)

    def test_c_and_phi1_closed_forms(self):
        Phi, varphi, phi1, c = kennedy_transforms(self.PSI, self.LAM)
        c0 = self.LAM / (1.0 - math.exp(-self.LAM))
        assert c == pytest.approx(c0 / 2.0, abs=1e-12)
        ys = np.linspace(0, 1, 501)
        assert np.max(np.abs(phi1(ys) - 2.0 * ys)) < 1e-12
        assert integrate.quad(phi1, 0.0, 1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_phi_at_zero(self):
        Phi, _, _, _ = kennedy_transforms(self.PSI, self.LAM)
        assert Phi(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_varphi_is_derivative_of_phi(self):
        Phi, varphi, _, _ = kennedy_transforms(self.PSI, self.LAM)
        for y in (0.1, 0.45, 0.8):
            h = 1e-6
            numeric = (Phi(y + h) - Phi(y - h)) / (2 * h)
            assert varphi(y) == pytest.approx(numeric, abs=1e-5)

    def test_exponential_shapes_reduce_to_exponential_phi1(self):
        # for psi = (d + lam) e^{-d z}, phi1 is d e^{-d z} whatever the sign of c
        for rate, lam in [(2.0, 1.0), (0.5, 1.0), (3.0, 2.0)]:
            psi = DensitySpec.exponential(rate, laplace_lambda=lam)
            _, _, phi1, c = kennedy_transforms(psi, lam)
            assert c == pytest.approx((rate + lam) * (rate - lam) / rate ** 2, rel=1e-12)
            for y in (0.0, 0.5, 2.0):
                assert phi1(y) == pytest.approx(rate * math.exp(-rate * y), abs=1e-12)

    def test_degenerate_c_rejected(self):
        psi = DensitySpec.exponential(self.LAM, laplace_lambda=self.LAM)  # psi = 2 lam e^{-lam z}
        with pytest.raises(DegeneracyError):
            kennedy_transforms(psi, self.LAM)

    def test_normalization_enforced(self):
        bad = DensitySpec.uniform(1.0)  # unit mass, not Laplace-normalized
        messages = set()
        for build in (lambda: kennedy_transforms(bad, self.LAM),
                      lambda: KennedyWeight(self.LAM, bad),
                      lambda: m_kennedy_xs(0.0, 0.5, 1.0, self.LAM, bad)):
            with pytest.raises(ValueError, match="not Laplace-normalized") as err:
                build()
            messages.add(str(err.value))
        assert len(messages) == 1
