import math

import numpy as np
import pytest
from scipy import special, stats

from penalab.exact_laws import (
    DensitySpec,
    ExponentialBivariate,
    SeparableIndicator,
    TabulatedGrid,
    h_cdf,
    phi_from_f,
)
from penalab.quadrature import RectEvent, _cond_mean_block, q_ay_limit, q_phi_limit, q_y_limit
from penalab.report import ks_test
from penalab.samplers import (
    CHUNK,
    Path,
    RngStream,
    draw_penalty_pairs,
    exact_bm_state,
    exact_bm_state_blocks,
    exact_two_time_state,
    level_event_frequency,
    mixture_levels,
    q_level_terminal_batch,
    sample_Q_y,
)

EV = RectEvent(1.0, b=0.0, c=0.5)
KS_LEVEL = 0.01


def chi3_cdf(z):
    return stats.chi(3).cdf(np.maximum(z, 0.0))


class TestReproducibility:
    def test_identical_streams_identical_paths(self):
        r = RngStream(99, 3)
        p1 = sample_Q_y(1.0, 1.0, 1e-3, gen=r.generator())
        p2 = sample_Q_y(1.0, 1.0, 1e-3, gen=r.generator())
        assert np.array_equal(p1.values, p2.values) and p1.hit_time == p2.hit_time
        x1, s1 = exact_bm_state(1.0, 100, r.generator())
        x2, s2 = exact_bm_state(1.0, 100, r.generator())
        assert np.array_equal(x1, x2) and np.array_equal(s1, s2)

    def test_distinct_streams_differ(self):
        p1 = sample_Q_y(1.0, 1.0, 1e-3, gen=RngStream(99, 3).generator())
        p2 = sample_Q_y(1.0, 1.0, 1e-3, gen=RngStream(99, 4).generator())
        assert not np.array_equal(p1.values, p2.values)

    def test_batch_reproducible(self):
        x1, s1 = q_level_terminal_batch(np.full(100, 1.0), 0.5, RngStream(5).generator())
        x2, s2 = q_level_terminal_batch(np.full(100, 1.0), 0.5, RngStream(5).generator())
        assert np.array_equal(x1, x2) and np.array_equal(s1, s2)


class TestPathInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_runmax(self, seed):
        p = sample_Q_y(0.5, 1.0, 1e-3, gen=RngStream(seed).generator())
        assert np.all(np.diff(p.runmax) >= 0.0)
        assert np.all(p.runmax >= p.values)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sample_Q_y(1.0, 1.0, 0.0, gen=RngStream(0).generator())
        with pytest.raises(ValueError):
            sample_Q_y(1.0, 1.0, 0.3, gen=RngStream(0).generator())  # not an integer number of steps


class TestExactBmState:
    def test_drift_mean(self):
        n = 20000
        gen = RngStream(2).generator()
        x, _ = exact_bm_state(1.0, n, gen, drift=0.7)
        se = float(np.std(x)) / math.sqrt(n)
        assert abs(float(np.mean(x)) - 0.7) <= 4 * se

    def test_bridge_max_matches_analytic_law(self):
        n = 40000
        x, s = exact_bm_state(1.0, n, RngStream(3).generator())
        v = ks_test(np.sort(s), lambda z: h_cdf(1.0, np.maximum(z, 0.0)), level=KS_LEVEL)
        assert v.passed, v.provenance

    @pytest.mark.parametrize("nu", [0.7, -0.5])
    def test_drifted_max_matches_analytic_law(self, nu):
        # P(S_t <= m) = Phi((m - nu t)/sqrt(t)) - e^{2 nu m} Phi((-m - nu t)/sqrt(t))
        t, n = 2.0, 40000
        _, s = exact_bm_state(t, n, RngStream(27).generator(), drift=nu)
        rt = math.sqrt(t)

        def cdf(m):
            m = np.maximum(m, 0.0)
            return special.ndtr((m - nu * t) / rt) - np.exp(2.0 * nu * m) * special.ndtr(
                (-m - nu * t) / rt)

        v = ks_test(np.sort(s), cdf, level=KS_LEVEL)
        assert v.passed, v.provenance

    def test_joint_law_matches_reflection_principle(self):
        # P(X_t <= b, S_t <= c) = Phi(b/sqrt t) - Phi((b - 2c)/sqrt t) for b <= c,
        # and P(S_t <= c) for b > c
        t, n = 1.5, 50000
        x, s = exact_bm_state(t, n, RngStream(50).generator())
        rt = math.sqrt(t)
        for b, c in [(-0.5, 0.3), (0.0, 0.5), (0.4, 1.0), (1.0, 0.7)]:
            bb = min(b, c)
            target = float(special.ndtr(bb / rt) - special.ndtr((bb - 2.0 * c) / rt))
            se = math.sqrt(target * (1 - target) / n)
            assert abs(float(np.mean((x <= b) & (s <= c))) - target) <= 4 * se

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 17])
    def test_blocks_are_the_one_shot_draw_bit_for_bit(self, n):
        one, blocked = RngStream(61).generator(), RngStream(61).generator()
        x, s = exact_bm_state(1.7, n, one)
        blocks = list(exact_bm_state_blocks(1.7, n, blocked))
        assert [b[0].size for b in blocks] == [min(CHUNK, n - i) for i in range(0, n, CHUNK)]
        assert np.concatenate([b[0] for b in blocks]).tobytes() == x.tobytes()
        assert np.concatenate([b[1] for b in blocks]).tobytes() == s.tobytes()
        # the stream leaves the generator where the one-shot draw leaves it
        assert blocked.random() == one.random()

    def test_gap_has_levy_law(self):
        # Levy: S - X is reflected Brownian motion, so S_t - X_t ~ sqrt(t) |N(0,1)|
        t = 2.0
        x, s = exact_bm_state(t, 40000, RngStream(51).generator())
        gap = np.sort((s - x) / math.sqrt(t))
        assert ks_test(gap, lambda z: 2 * special.ndtr(np.maximum(z, 0.0)) - 1,
                       level=KS_LEVEL).passed


class TestSampleQy:
    def test_path_caps_at_level_exactly(self):
        hits = 0
        for seed in range(10):
            p = sample_Q_y(1.0, 3.0, 1e-3, gen=RngStream(seed).generator())
            after = p.times >= p.hit_time
            assert p.values[0] == 0.0 and np.all(p.values < 1.0)
            assert np.all(p.runmax[after] == 1.0)
            assert np.array_equal(p.runmax[~after], np.maximum.accumulate(p.values)[~after])
            hits += bool(after.any())
        # both branches, a passage inside the window and one beyond it, occur
        assert 0 < hits < 10

    def test_path_law_at_coarse_step(self):
        # the path is exact at the grid times whatever the step: X_1 against
        # the limit law and the passage times against P(T <= t) = 2 Q(1/sqrt t)
        n = 10000
        gen = RngStream(34).generator()
        paths = [sample_Q_y(1.0, 2.0, 1 / 8, gen=gen) for _ in range(n)]
        x1 = np.array([p.values[8] for p in paths])
        for b in (-0.5, 0.0, 0.5):
            target = q_y_limit(1.0, RectEvent(1.0, b))
            se = math.sqrt(target * (1 - target) / n)
            assert abs(float(np.mean(x1 <= b)) - target) <= 4 * se
        ht = np.sort([p.hit_time for p in paths])
        cdf = lambda t: 2 * special.ndtr(-1.0 / np.sqrt(np.maximum(t, 1e-300)))
        assert ks_test(ht, cdf, level=KS_LEVEL).passed

    def test_event_frequency_matches_quadrature(self):
        n = 30000
        x, s = q_level_terminal_batch(np.full(n, 1.0), 1.0, RngStream(12).generator())
        p = float(np.mean((x <= EV.b) & (s <= EV.c)))
        target = q_y_limit(1.0, EV)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) <= 3 * se

    def test_hit_branch_is_level_minus_bessel3(self):
        # on {S_u = y}, X_u is y minus a Bessel(3) run since the passage: the
        # pinned block of q_y_limit, int_{a <= b} (y - a) p_joint(u, a, y) da,
        # over its total P(T_y <= u)
        u = 2.0
        x, s = q_level_terminal_batch(np.full(40000, 1.0), u, RngStream(29).generator())
        block = np.vectorize(lambda b: _cond_mean_block(u, 1.0, b))
        cdf = lambda b: block(b) / block(1.0)
        assert ks_test(np.sort(x[s == 1.0]), cdf, level=KS_LEVEL).passed

    def test_batch_state_invariants(self):
        levels = RngStream(30).generator().exponential(1.0, 20000) + 1e-3
        x, s = q_level_terminal_batch(levels, 1.5, RngStream(31).generator())
        assert np.all(x <= s) and np.all(s >= 0.0) and np.all(s <= levels)
        # a path has hit by time u with probability P(T_y <= u) = 2 Q(y / sqrt(u))
        p_hit = 2.0 * special.ndtr(-levels / math.sqrt(1.5))
        se = math.sqrt(np.sum(p_hit * (1.0 - p_hit))) / levels.size
        assert abs(np.mean(s == levels) - np.mean(p_hit)) <= 3 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_Q_y(-1.0, 1.0, 1e-3, gen=RngStream(0).generator())


class TestSampleQay:
    def test_atom_fraction(self):
        n = 20000
        levels = mixture_levels(0.0, 1.0, n, RngStream(15).generator())
        frac = float(np.mean(levels == 1.0))
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)
        assert np.all((levels > 0.0) & (levels <= 1.0))

    def test_boundary_atom_probability_zero(self):
        levels = mixture_levels(1.0, 1.0, 500, RngStream(16).generator())
        assert np.all(levels < 1.0)

    def test_array_endpoints(self):
        # one (a, y) pair per draw; constant arrays draw what the scalars draw
        stream = RngStream(35)
        ref = mixture_levels(0.3, 1.2, 50, stream.generator())
        arr = mixture_levels(np.full(50, 0.3), np.full(50, 1.2), 50, stream.generator())
        assert np.array_equal(ref, arr)
        with pytest.raises(ValueError):
            mixture_levels(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 2, stream.generator())

    def test_event_frequency(self):
        n = 30000
        gen = RngStream(17).generator()
        levels = mixture_levels(0.0, 1.0, n, gen)
        x, s = q_level_terminal_batch(levels, 1.0, gen)
        p = float(np.mean((x <= EV.b) & (s <= EV.c)))
        target = q_ay_limit(0.0, 1.0, EV)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) <= 3 * se


class TestLevelEventFrequency:
    # level_event_frequency against the limit laws it samples, at 4 of its
    # own binomial standard errors
    N = 100000

    def _check(self, levels, target, gen):
        p, se = level_event_frequency(levels, EV, gen)
        assert se == math.sqrt(p * (1.0 - p) / self.N)
        assert abs(p - target) <= 4.0 * se

    def test_level_one_is_q_y_limit(self):
        self._check(np.full(self.N, 1.0), q_y_limit(1.0, EV), RngStream(53).generator())

    def test_mixture_levels_are_q_ay_limit(self):
        stream = RngStream(54)
        levels = mixture_levels(0.0, 1.0, self.N, stream.generator(0))
        self._check(levels, q_ay_limit(0.0, 1.0, EV), stream.generator(1))


class TestSampleQphi:
    PHI = DensitySpec.uniform(1.0)

    def test_max_distribution(self):
        levels = np.sort(self.PHI.ppf(RngStream(18).generator().random(5000)))
        assert ks_test(levels, self.PHI.cdf, level=KS_LEVEL).passed

    def test_narrow_density_degenerates_to_pinned_level(self):
        narrow = DensitySpec.tabulated([0.0, 0.999, 0.9995, 1.0005, 1.001, 1.5],
                                       [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        levels = narrow.ppf(RngStream(28).generator().random(200))
        assert np.all(np.abs(levels - 1.0) < 2e-3)

    def test_event_frequency(self):
        n = 30000
        gen = RngStream(19).generator()
        levels = np.maximum(self.PHI.ppf(gen.random(n)), 1e-9)
        x, s = q_level_terminal_batch(levels, 1.0, gen)
        p = float(np.mean((x <= EV.b) & (s <= EV.c)))
        target = q_phi_limit(self.PHI, EV)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) <= 3 * se


class TestSampleQf:
    F = ExponentialBivariate(-2.0, 1.0)

    def test_pair_density_moments(self):
        # terminal-level marginal is (1 + y) e^{-y} / 2: E[y] = 3/2, E[y^2] = 4
        a, y = draw_penalty_pairs(self.F, 200000, RngStream(20).generator())
        assert float(np.mean(y)) == pytest.approx(1.5, abs=0.02)
        assert float(np.mean(y * y)) == pytest.approx(4.0, abs=0.1)
        assert np.all(y >= np.maximum(a, 0.0))

    def test_max_distribution_matches_reduced_density(self):
        gen = RngStream(21).generator()
        levels = np.sort(mixture_levels(*draw_penalty_pairs(self.F, 4000, gen), 4000, gen))
        assert ks_test(levels, lambda v: 1.0 - np.exp(-np.maximum(v, 0.0)), level=KS_LEVEL).passed

    def test_infinite_mass_rejected(self):
        with pytest.raises(ValueError):
            draw_penalty_pairs(ExponentialBivariate(0.0, -1.0), 1, RngStream(0).generator())


def separable_penalty():
    g = np.linspace(-12.0, 1.0, 3000)
    return SeparableIndicator(g, np.exp(g), 1.0)


def tabulated_penalty():
    # support kept off the diagonal, as in the reduction tests
    a = np.linspace(-3.0, -0.5, 41)
    y = np.linspace(0.5, 3.0, 41)
    aa, yy = np.meshgrid(a, y, indexing="ij")
    return TabulatedGrid(a, y, np.exp(aa - yy))


def diagonal_penalty():
    # nonzero on both sides of the diagonal y = a
    a = np.linspace(-1.0, 2.0, 31)
    y = np.linspace(0.0, 3.0, 31)
    aa, yy = np.meshgrid(a, y, indexing="ij")
    return TabulatedGrid(a, y, np.exp(-aa ** 2 - yy))


TABLE_PENALTIES = [pytest.param(separable_penalty(), id="separable"),
                   pytest.param(tabulated_penalty(), id="tabulated"),
                   pytest.param(diagonal_penalty(), id="diagonal")]


def reference_penalty_pair(f, gen):
    """One (a, y) draw per call, rebuilding the CDF each time: the scalar
    form of the table-family draws, kept as the reference for the batched
    sampler."""
    if isinstance(f, SeparableIndicator):
        A = f.cutoff
        g = f.f1_grid
        fine = np.linspace(g[0], g[-1], 8193)
        cdf = A * f._prefix(0, fine) - f._prefix(1, fine)
        cdf /= cdf[-1]
        av = float(np.interp(gen.random(), cdf, fine))
        q = gen.random()
        yv = 0.5 * (av + math.sqrt(av * av + 4.0 * q * A * (A - av)))
        return av, min(yv, A)
    _, ma, my, yr, _ = f._cells
    a = f.a_grid
    cdf = np.cumsum(2.0 * my - ma)
    idx = int(np.searchsorted(cdf, gen.random() * cdf[-1]))
    ia, iy = np.unravel_index(idx, my.shape)
    ua, uy = gen.random(), gen.random()
    y_lo = max(yr[iy], a[ia], 0.0)
    yv = y_lo + uy * (yr[iy + 1] - y_lo)
    return a[ia] + ua * (min(a[ia + 1], yv) - a[ia]), yv


def brute_cell_masses(f, n=3000):
    """Normalized masses of (2y - a) f(a, y) over {y >= max(a, 0)} on the
    table's cells, by a masked midpoint rule on n x n points per cell."""
    a, y, t = f.a_grid, f.y_grid, f.table
    w = (np.arange(n) + 0.5) / n
    mass = np.zeros((a.size - 1, y.size - 1))
    for i in range(a.size - 1):
        for j in range(y.size - 1):
            yv = y[j] + w * (y[j + 1] - y[j])
            for p in np.array_split(w, 10):
                av = (a[i] + p * (a[i + 1] - a[i]))[:, None]
                # bilinear f: linear in a on both y-edges, then linear in y
                lo = (t[i, j] + p * (t[i + 1, j] - t[i, j]))[:, None]
                hi = (t[i, j + 1] + p * (t[i + 1, j + 1] - t[i, j + 1]))[:, None]
                dens = (2.0 * yv - av) * (lo + w * (hi - lo))
                mass[i, j] += float(np.sum(np.where(yv >= np.maximum(av, 0.0), dens, 0.0)))
    mass *= np.outer(np.diff(a), np.diff(y))
    return mass / mass.sum()


class TestTablePenaltyDraws:
    @pytest.mark.parametrize("f", TABLE_PENALTIES)
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_batch_matches_per_draw_reference_bit_for_bit(self, f, n):
        stream = RngStream(12345, 800).substream(0)
        gen_ref, gen = stream.generator(), stream.generator()
        ref = [reference_penalty_pair(f, gen_ref) for _ in range(n)]
        a, y = draw_penalty_pairs(f, n, gen)
        assert np.array_equal(a, [p[0] for p in ref])
        assert np.array_equal(y, [p[1] for p in ref])
        # both consumed the same uniforms
        assert np.array_equal(gen.random(4), gen_ref.random(4))

    @pytest.mark.parametrize("f", TABLE_PENALTIES)
    def test_levels_follow_reduced_density(self, f):
        n = 100000
        gen = RngStream(33).generator()
        a, y = draw_penalty_pairs(f, n, gen)
        assert np.all(y >= np.maximum(a, 0.0))
        levels = mixture_levels(a, y, n, gen)
        assert ks_test(np.sort(levels), phi_from_f(f).cdf, level=KS_LEVEL).passed

    def test_cells_cut_by_the_diagonal_get_their_exact_mass(self):
        # coarse cells cut by y = a and y = 0; cell (1, 0) holds only the
        # triangle 0.5 <= a <= y <= 1
        f = TabulatedGrid(np.array([-1.0, 0.5, 2.0]), np.array([0.0, 1.0, 3.0]),
                          np.array([[1.0, 4.0, 0.5], [0.2, 3.0, 1.0], [2.0, 0.1, 3.0]]))
        p = brute_cell_masses(f)
        assert p == pytest.approx(np.array([[0.10719, 0.55378], [0.00659, 0.33243]]), abs=1e-5)
        n = 400000
        a, y = draw_penalty_pairs(f, n, RngStream(7).generator())
        assert np.all(y >= np.maximum(a, 0.0))
        ia = np.minimum(np.searchsorted(f.a_grid, a, side="right") - 1, 1)
        iy = np.minimum(np.searchsorted(f.y_grid, y, side="right") - 1, 1)
        counts = np.zeros((2, 2))
        np.add.at(counts, (ia, iy), 1.0)
        z = (counts - n * p) / np.sqrt(n * p * (1.0 - p))
        assert np.all(np.abs(z) <= 4.0), z

    def test_unsupported_penalty_rejected(self):
        with pytest.raises(TypeError):
            draw_penalty_pairs(DensitySpec.uniform(1.0), 3, RngStream(0).generator())


class TestPitman:
    def test_marginal_is_bessel3(self):
        n = 30000
        x, s = exact_bm_state(1.0, n, RngStream(23).generator())
        assert ks_test(np.sort(2 * s - x), chi3_cdf, level=KS_LEVEL).passed

    def test_conditional_mean_of_max_given_reflected_level(self):
        n = 400000
        x, s = exact_bm_state(1.0, n, RngStream(24).generator())
        r = 2 * s - x
        mask = np.abs(r - 2.0) < 0.05
        assert float(np.mean(s[mask])) == pytest.approx(1.0, rel=0.03)

    def test_reflected_level_dominates_max(self):
        # 2S - X >= S >= max(X, 0) on every draw, at one time and at two
        x, s = exact_bm_state(1.0, 20000, RngStream(52).generator())
        assert np.all(s >= np.maximum(x, 0.0)) and np.all(2 * s - x >= s)
        xu, su, xt, st_ = exact_two_time_state(0.5, 2.0, 20000, RngStream(53).generator())
        assert np.all(su >= 0.0) and np.all(2 * su - xu >= su) and np.all(2 * st_ - xt >= st_)

    def test_max_given_reflected_level_is_uniform(self):
        # given 2S_t - X_t = r, S_t is uniform on [0, r], so S / (2S - X) ~ U(0, 1)
        x, s = exact_bm_state(1.0, 40000, RngStream(54).generator())
        ratio = np.sort(s / (2 * s - x))
        assert ks_test(ratio, lambda v: np.clip(v, 0.0, 1.0), level=KS_LEVEL).passed

    def test_two_time_reflected_level_is_bessel3(self):
        # R = 2S - X is Bessel(3): R_t / sqrt(t) ~ chi_3, and R^2 - 3 t is a
        # martingale, so E[(R_t^2 - R_u^2 - 3 (t - u)) R_u] = 0
        u, t, n = 0.5, 2.0, 200000
        xu, su, xt, st_ = exact_two_time_state(u, t, n, RngStream(55).generator())
        ru, rt = 2 * su - xu, 2 * st_ - xt
        assert ks_test(np.sort(rt / math.sqrt(t)), chi3_cdf, level=KS_LEVEL).passed
        prod = (rt * rt - ru * ru - 3.0 * (t - u)) * ru
        assert abs(float(np.mean(prod))) <= 4 * float(np.std(prod)) / math.sqrt(n)


class TestTwoTimeStates:
    def test_marginals_consistent(self):
        xu, su, xt, st_ = exact_two_time_state(0.5, 2.0, 50000, RngStream(25).generator())
        assert np.all(st_ >= su) and np.all(su >= xu) and np.all(st_ >= xt)
        assert ks_test(np.sort(st_ / math.sqrt(2.0)),
                       lambda z: h_cdf(1.0, np.maximum(z, 0.0)), level=KS_LEVEL).passed


class TestDriftedGapLaw:
    def test_s_minus_x_reaches_reflected_stationary_law(self):
        # under drift nu the gap S - X has the law of the reflected bang-bang
        # diffusion; by t = 8 it is indistinguishable from its stationary
        # exponential law with rate 2 nu
        nu = 1.0
        x, s = exact_bm_state(8.0, 30000, RngStream(26).generator(), drift=nu)
        gap = np.sort(s - x)
        assert ks_test(gap, lambda d: 1.0 - np.exp(-2.0 * nu * np.maximum(d, 0.0)),
                       level=KS_LEVEL).passed
