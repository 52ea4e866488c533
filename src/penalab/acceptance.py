"""The acceptance battery: one function per criterion, each returning verdicts.

Sample counts and tolerances are pinned here; ``scale`` (< 1) shrinks the
Monte Carlo sizes proportionally for smoke runs, leaving the deterministic
checks untouched.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .exact_laws import (
    DensitySpec,
    ExponentialBivariate,
    h_cdf,
    kennedy_transforms,
    phi_from_f,
)
from .expansion import f1_coefficient_check, f1_kennedy_check
from .martingales import m_kennedy_xs, m_mu_lambda_xs, m_phi_from_f, m_phi_xs
from .penalized_mc import (
    ExpLinear,
    bessel_penalization_check,
    bessel_weight,
    finite_t_value,
    penalized_estimate,
)
from .quadrature import (
    RectEvent,
    expect_on_event,
    q_a_phi_limit,
    q_ay_finite,
    q_ay_limit,
    q_phi_limit,
    q_y_finite,
    q_y_limit,
)
from .report import Verdict, abs_verdict, ks_test
from .samplers import (
    RngStream,
    draw_penalty_pairs,
    exact_bm_state,
    exact_two_time_state,
    level_event_frequency,
    mixture_levels,
)

EVENT = RectEvent(1.0, b=0.0, c=0.5)
EVENT2 = RectEvent(1.0, b=0.25, c=1.0)
PHI_UNIFORM = DensitySpec.uniform(1.0)
PHI_EXP = DensitySpec.exponential(1.0)
PSI_KENNEDY = DensitySpec.uniform(1.0, laplace_lambda=1.0)


def _chi3_cdf(z):
    """CDF of the chi law with 3 degrees of freedom, the Bessel(3) marginal at t=1."""
    z = np.maximum(np.asarray(z, dtype=float), 0.0)
    return special.gammainc(1.5, z * z / 2.0)


def criterion_1_density_oracles(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Simulated max, Bessel(3) and reflected-path marginals vs closed forms."""
    n = max(int(100000 * scale), 1000)
    rng = RngStream(seed, 1)
    x, s = exact_bm_state(1.0, n, rng.generator(0))
    v1 = ks_test(np.sort(s), lambda z: h_cdf(1.0, np.maximum(z, 0.0)),
                 name="ks-running-max", provenance="max law at t=1")
    _, _, xt, st = exact_two_time_state(0.5, 1.0, n, rng.generator(1))
    v2 = ks_test(np.sort(2.0 * st - xt), _chi3_cdf, name="ks-bessel3",
                 provenance="Bessel(3) marginal at t=1, two-time draw from u=0.5")
    v3 = ks_test(np.sort(2.0 * s - x), _chi3_cdf, name="ks-pitman-2s-x",
                 provenance="reflected path marginal at t=1")
    return [v1, v2, v3]


def criterion_2_unit_means(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Every weight martingale has empirical mean 1 within 4 stderr."""
    n = max(int(100000 * scale), 1000)
    rng = RngStream(seed, 2)
    cases = [
        ("m_phi[exp(1)]", lambda x, s, u: m_phi_xs(x, s, PHI_EXP)),
        ("m_phi[uniform(1)]", lambda x, s, u: m_phi_xs(x, s, PHI_UNIFORM)),
        ("m_kennedy[lam=1]", lambda x, s, u: m_kennedy_xs(x, s, u, 1.0, PSI_KENNEDY)),
        ("m_mu_lambda[R1(-2.5,1)]", lambda x, s, u: m_mu_lambda_xs(x, s, u, -2.5, 1.0)),
        ("m_mu_lambda[R2(0.5,0.25)]", lambda x, s, u: m_mu_lambda_xs(x, s, u, 0.5, 0.25)),
        ("m_mu_lambda[R3(0,-1)]", lambda x, s, u: m_mu_lambda_xs(x, s, u, 0.0, -1.0)),
    ]
    verdicts = []
    for k, u in enumerate((0.5, 1.0, 2.0)):
        x, s = exact_bm_state(u, n, rng.generator(k))
        for tag, fn in cases:
            vals = np.asarray(fn(x, s, u), dtype=float)
            se = float(np.std(vals)) / math.sqrt(n)
            verdicts.append(abs_verdict(f"{tag}@u={u}", float(np.mean(vals)), 1.0,
                                        4.0 * se, "unit martingale mean"))
    return verdicts


def criterion_3_limit_cross_oracle(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Sampler frequencies vs quadrature limit laws; total-mass self-checks."""
    n = max(int(100000 * scale), 2000)
    rng = RngStream(seed, 3)
    verdicts = []

    p, se = level_event_frequency(np.full(n, 1.0), EVENT, rng.generator(0))
    verdicts.append(abs_verdict("sampler-vs-q_y_limit", p, q_y_limit(1.0, EVENT),
                                3.0 * se, "mc-oracle"))

    levels = mixture_levels(0.0, 1.0, n, rng.generator(1))
    p, se = level_event_frequency(levels, EVENT, rng.generator(2))
    verdicts.append(abs_verdict("sampler-vs-q_ay_limit", p, q_ay_limit(0.0, 1.0, EVENT),
                                3.0 * se, "mc-oracle"))

    levels = PHI_UNIFORM.ppf(rng.generator(3).random(n))
    levels = np.maximum(levels, 1e-9)
    p, se = level_event_frequency(levels, EVENT, rng.generator(4))
    verdicts.append(abs_verdict("sampler-vs-q_phi_limit", p, q_phi_limit(PHI_UNIFORM, EVENT),
                                3.0 * se, "mc-oracle"))

    full = RectEvent(1.0)
    for name, val in [
        ("q_y_limit-total-mass", q_y_limit(1.0, full)),
        ("q_ay_limit-total-mass", q_ay_limit(0.0, 1.0, full)),
        ("q_phi_limit-total-mass", q_phi_limit(PHI_UNIFORM, full)),
        ("q_a_phi_limit-total-mass", q_a_phi_limit(0.0, PHI_UNIFORM, full)),
    ]:
        verdicts.append(abs_verdict(name, val, 1.0, 1e-7, "quadrature"))
    return verdicts


def criterion_4_atom_weight(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Fraction of bridge-law levels at the pinned level, the supremum's atom."""
    n = max(int(100000 * scale), 2000)
    rng = RngStream(seed, 4)
    levels = mixture_levels(0.0, 1.0, n, rng.generator(0))
    frac = float(np.mean(np.abs(levels - 1.0) <= 1e-9))
    se = math.sqrt(0.25 / n)
    return [abs_verdict("atom-weight(0,1)", frac, 0.5, 3.0 * se, "mc vs closed form 1/2")]


def criterion_5_finite_t_convergence(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Finite-horizon laws approach their limits at a 1/t rate."""
    ts = np.array([32.0, 64.0, 128.0, 256.0, 512.0, 1024.0])
    verdicts = []
    for name, limit, fn in [
        ("q_y_finite-rate", q_y_limit(1.0, EVENT), lambda t: q_y_finite(1.0, EVENT, t)),
        ("q_ay_finite-rate", q_ay_limit(0.0, 1.0, EVENT), lambda t: q_ay_finite(0.0, 1.0, EVENT, t)),
    ]:
        gaps = np.array([abs(fn(t) - limit) for t in ts])
        slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
        verdicts.append(abs_verdict(name, -slope, 1.0, 0.2, "log-log decay exponent"))
    return verdicts


def criterion_6_regime_table(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Exponential-weight estimates at t=512 vs the exact finite-t law, which
    lies within 2/t of the regime limit."""
    n = max(int(1000000 * scale), 10000)
    t = 512.0
    rng = RngStream(seed, 6)
    verdicts = []
    events = (EVENT, EVENT2)     # both at u = 1: one estimate on the same draws
    both = (EVENT.u, lambda x, s: np.stack([ev.indicator(x, s) for ev in events]))
    for i, (lam, mu) in enumerate([(-2.0, 1.0), (1.0, 1.0), (0.0, -1.0)]):
        pen = ExpLinear(lam, mu)
        est = penalized_estimate(pen, both, t, n, rng.substream(10 * i))
        for j, ev in enumerate(events):
            target = finite_t_value(pen, ev, t)
            limit = expect_on_event(ev, lambda x, s: m_mu_lambda_xs(x, s, ev.u, lam, mu))
            value, stderr = est.value[j], est.stderr[j]
            verdicts.append(abs_verdict(
                f"regime({lam},{mu})-ev{j}", value, target, 3.0 * stderr,
                f"mc vs exact finite-t, stderr {stderr:.2e}, ess {est.ess:.0f} of {est.n}, "
                f"limit {limit:.6f}"))
            verdicts.append(abs_verdict(
                f"finite-t-regime({lam},{mu})-ev{j}-gap", abs(target - limit), 0.0, 2.0 / t,
                "exact finite-t law vs the regime limit"))
    return verdicts


def criterion_7_f_reduction(seed: int, scale: float = 1.0) -> list[Verdict]:
    """The bivariate penalty reduces to its max-density consistently."""
    n = max(int(100000 * scale), 2000)
    rng = RngStream(seed, 7)
    f = ExponentialBivariate(-2.0, 1.0)
    phi = phi_from_f(f)
    ys = np.linspace(0.0, 20.0, 4001)
    dev = float(np.max(np.abs(phi.pdf(ys) - np.exp(-ys))))
    verdicts = [abs_verdict("phi_from_f-pointwise", dev, 0.0, 1e-6, "closed form exp(-y)")]

    x, z = rng.generator(0).normal(size=(100, 2)).T
    s = np.maximum(x, 0.0) + np.abs(z)
    b_vals = m_phi_xs(x, s, phi)
    worst = float(np.max(np.abs(m_phi_from_f(x, s, f) - b_vals)))
    verdicts.append(abs_verdict("m_phi_from_f-consistency", worst, 0.0, 1e-5,
                                "dual route, 100 random states"))

    gen = rng.generator(1)
    levels = np.maximum(mixture_levels(*draw_penalty_pairs(f, n, gen), n, gen), 1e-9)
    p, se = level_event_frequency(levels, EVENT, rng.generator(2))
    verdicts.append(abs_verdict("sample_Q_f-vs-q_phi_limit", p, q_phi_limit(phi, EVENT),
                                3.0 * se, "mc-oracle"))
    return verdicts


def criterion_8_expansion_coefficient(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Fitted 1/t coefficient matches the quadrature target within 10%."""
    rep = f1_coefficient_check(PHI_UNIFORM, EVENT)
    ratio = rep["residual_half_ratio"]
    return [
        abs_verdict("f1-coefficient-rel-err", rep["rel_err"], 0.0, 0.10,
                    f"fit {rep['fit'].c1:.6f} vs target {rep['target']:.6f}"),
        Verdict("f1-residual-decay", float(ratio), 3.0, math.inf, bool(ratio >= 3.0),
                "max residual in early half over late half (1/t^2 remainder)"),
    ]


def criterion_9_kennedy_expansion(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Discounted-model fit, phi1 and c against the closed forms."""
    lam = 1.0
    c0 = lam / (1.0 - math.exp(-lam))
    rep = f1_kennedy_check(lam, PSI_KENNEDY, EVENT)
    _, _, phi1, c = kennedy_transforms(PSI_KENNEDY, lam)
    ys = np.linspace(0.0, 1.0, 1001)
    dev = float(np.max(np.abs(phi1(ys) - 2.0 * ys)))
    return [
        abs_verdict("kennedy-coefficient-rel-err", rep["rel_err"], 0.0, 0.15,
                    f"fit {rep['fit'].c1:.6f} vs target {rep['target']:.6f}"),
        abs_verdict("kennedy-phi1-pointwise", dev, 0.0, 1e-8, "closed form 2y on [0,1]"),
        abs_verdict("kennedy-c-value", c, c0 / 2.0, 1e-10, "closed form c0/2"),
    ]


def criterion_10_pitman_regression(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Binned regression of the max on the reflected level: E[S | R=r] = r/2."""
    n = max(int(1000000 * scale), 10000)
    rng = RngStream(seed, 10)
    x, s = exact_bm_state(1.0, n, rng.generator(0))
    r = 2.0 * s - x
    verdicts = []
    for r0 in (1.0, 2.0, 3.0):
        mask = np.abs(r - r0) <= 0.05
        est = float(np.mean(s[mask]))
        verdicts.append(abs_verdict(f"pitman-cond-mean-r={r0}", est, r0 / 2.0,
                                    0.05 * (r0 / 2.0),
                                    f"binned regression, {int(mask.sum())} samples"))
    return verdicts


def criterion_11_bessel_penalization(seed: int, scale: float = 1.0) -> list[Verdict]:
    """Bessel(3) penalizations whose limit is the plain Bessel(3) law: Monte
    Carlo at t=32 vs the exact finite-t law, which approaches the limit at 1/t."""
    n = max(int(50000 * scale), 3000)
    rng = RngStream(seed, 11)
    ts = np.array([32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0])
    verdicts = []
    for tag, lam, mu, trivial, stream in (("branch1", -1.0, -1.0, False, rng),
                                          ("trivial-f", 0.0, 0.0, True, rng.substream(1))):
        rep = bessel_penalization_check(lam, mu, 1.0, [32.0], n, stream, trivial=trivial)
        pen = bessel_weight(lam, mu, trivial)
        for row in rep["rows"]:
            verdicts.append(abs_verdict(
                f"bessel-{tag}-b={row['b']}", row["value"], row["target"], row["tol"],
                f"{row['penalty']} weight at t={row['t']} vs exact finite-t, stderr "
                f"{row['stderr']:.2e}, ess {row['ess']:.0f} of {row['n']}"))
            # the row's target is the exact value at t = ts[0] = 32
            gaps = [abs(v - row["limit"]) for v in [row["target"]] + [
                finite_t_value(pen, RectEvent(1.0), t, w_max=row["b"]) for t in ts[1:]]]
            slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
            verdicts.append(abs_verdict(f"finite-t-bessel-{tag}-b={row['b']}-rate", -slope, 1.0,
                                        0.2, "log-log decay exponent of the exact finite-t law"))
    return verdicts


CRITERIA = [
    ("1 density oracles", criterion_1_density_oracles),
    ("2 martingale unit means", criterion_2_unit_means),
    ("3 limit-law cross-oracle", criterion_3_limit_cross_oracle),
    ("4 atom weight", criterion_4_atom_weight),
    ("5 finite-t convergence", criterion_5_finite_t_convergence),
    ("6 regime table", criterion_6_regime_table),
    ("7 f-reduction", criterion_7_f_reduction),
    ("8 expansion coefficient", criterion_8_expansion_coefficient),
    ("9 kennedy expansion", criterion_9_kennedy_expansion),
    ("10 pitman conditional law", criterion_10_pitman_regression),
    ("11 bessel penalization", criterion_11_bessel_penalization),
]


def run_suite(seed: int = 12345, scale: float = 1.0, which=None):
    """Run the acceptance criteria; returns their verdicts."""
    verdicts = []
    for idx, (label, fn) in enumerate(CRITERIA, start=1):
        if which is not None and idx not in which:
            continue
        verdicts.extend(fn(seed, scale))
    return verdicts
