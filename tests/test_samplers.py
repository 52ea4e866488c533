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
from penalab.quadrature import RectEvent, q_ay_limit, q_phi_limit, q_y_limit
from penalab.report import ks_test
from penalab.samplers import (
    Path,
    RngStream,
    draw_penalty_pairs,
    exact_bm_state,
    exact_two_time_state,
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
        o1 = q_level_terminal_batch(np.full(100, 1.0), 0.5, RngStream(5).generator())
        o2 = q_level_terminal_batch(np.full(100, 1.0), 0.5, RngStream(5).generator())
        assert np.array_equal(o1["x"], o2["x"]) and np.array_equal(o1["hit_time"], o2["hit_time"])


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
            assert p.sup_total == 1.0
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

    def test_hit_time_law_conditioned_on_window(self):
        W = 4.0
        out = q_level_terminal_batch(np.full(20000, 1.0), W, RngStream(11).generator())
        ht = np.sort(out["hit_time"][out["hit"]])
        fw = 2 * special.ndtr(-1.0 / math.sqrt(W))
        cdf = lambda t: 2 * special.ndtr(-1.0 / np.sqrt(np.maximum(t, 1e-12))) / fw
        assert ks_test(ht, cdf, level=KS_LEVEL).passed

    def test_event_frequency_matches_quadrature(self):
        n = 30000
        out = q_level_terminal_batch(np.full(n, 1.0), 1.0, RngStream(12).generator())
        p = float(np.mean((out["x"] <= EV.b) & (out["s"] <= EV.c)))
        target = q_y_limit(1.0, EV)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) <= 3 * se

    def test_hit_branch_is_level_minus_bessel3(self):
        # after the passage at T <= u, (y - X_u) / sqrt(u - T) is chi_3
        u = 2.0
        out = q_level_terminal_batch(np.full(40000, 1.0), u, RngStream(29).generator())
        h = out["hit"]
        scaled = (1.0 - out["x"][h]) / np.sqrt(u - out["hit_time"][h])
        assert ks_test(np.sort(scaled), chi3_cdf, level=KS_LEVEL).passed

    def test_batch_state_invariants(self):
        levels = RngStream(30).generator().exponential(1.0, 20000) + 1e-3
        out = q_level_terminal_batch(levels, 1.5, RngStream(31).generator())
        x, s, hit = out["x"], out["s"], out["hit"]
        assert np.all(x <= s) and np.all(s >= 0.0) and np.all(s <= levels)
        assert np.all(s[hit] == levels[hit]) and np.all(s[~hit] < levels[~hit])
        assert np.all(out["hit_time"][hit] <= 1.5) and np.all(out["hit_time"][~hit] > 1.5)
        assert np.array_equal(out["sup_total"], levels)

    def test_exact_tail_passage_law(self):
        # beyond-window hit times follow the residual first-passage law
        gen = RngStream(13).generator()
        out = q_level_terminal_batch(np.full(30000, 2.5), 1.0, gen)
        m = ~out["hit"]
        t_rem = out["hit_time"][m] - 1.0
        d = 2.5 - out["x"][m]
        z = d / np.sqrt(t_rem)
        # d/sqrt(T) ~ |N(0,1)| by construction
        assert ks_test(np.sort(z), lambda v: 2 * stats.norm.cdf(v) - 1, level=KS_LEVEL).passed

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
        out = q_level_terminal_batch(levels, 1.0, gen)
        p = float(np.mean((out["x"] <= EV.b) & (out["s"] <= EV.c)))
        target = q_ay_limit(0.0, 1.0, EV)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) <= 3 * se


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
        out = q_level_terminal_batch(levels, 1.0, gen)
        p = float(np.mean((out["x"] <= EV.b) & (out["s"] <= EV.c)))
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


TABLE_PENALTIES = [pytest.param(separable_penalty(), id="separable"),
                   pytest.param(tabulated_penalty(), id="tabulated")]


def reference_penalty_pair(f, gen):
    """One (a, y) draw per call, rebuilding the table each time: the scalar
    form of the table-family draws, kept as the reference for the batched
    sampler."""
    if isinstance(f, SeparableIndicator):
        A = f.cutoff
        g = f.f1_grid
        fine = np.linspace(g[0], g[-1], 8193)
        dens = (A - fine) * f.f1(fine)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))))
        cdf /= cdf[-1]
        av = float(np.interp(gen.random(), cdf, fine))
        q = gen.random()
        yv = 0.5 * (av + math.sqrt(av * av + 4.0 * q * A * (A - av)))
        return av, min(yv, A)
    a, yg = f.a_grid, f.y_grid
    aa, yy = np.meshgrid(0.5 * (a[:-1] + a[1:]), 0.5 * (yg[:-1] + yg[1:]), indexing="ij")
    da = np.diff(a)[:, None]
    dy = np.diff(yg)[None, :]
    supported = yy >= np.maximum(aa, 0.0)
    mass = np.where(supported, (2.0 * yy - aa) * f._bilinear(aa, yy) * da * dy, 0.0)
    flat = mass.ravel()
    idx = int(np.searchsorted(np.cumsum(flat) / flat.sum(), gen.random()))
    ia, iy = np.unravel_index(min(idx, flat.size - 1), mass.shape)
    av = a[ia] + gen.random() * (a[ia + 1] - a[ia])
    yv = yg[iy] + gen.random() * (yg[iy + 1] - yg[iy])
    return av, max(yv, max(av, 0.0) + 1e-12)


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
