"""Command-line front door.

Verdicts stream to stdout as JSON lines (one object per check); series data
goes to CSV files under ``--out`` when requested.  The exit status is 0 iff
every verdict passed.  ``--config`` names a plain key=value file supplying
defaults for the chosen subcommand's options; explicit flags override it.
The default seed comes from the PENALAB_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .exact_laws import DensitySpec, classify_region, h_cdf, p_bessel3, p_joint, p_max
from .expansion import f1_coefficient_check, f1_kennedy_check, fit_rate
from .martingales import m_kennedy_xs, m_mu_lambda_xs, m_phi_xs
from .penalized_mc import bessel_penalization_check
from .quadrature import RectEvent, q_ay_finite, q_ay_limit, q_phi_limit, q_y_finite, q_y_limit
from .report import Verdict, abs_verdict
from .samplers import RngStream, exact_bm_state, level_event_frequency, mixture_levels, sample_Q_y

__all__ = ["main"]

# The _parse_* functions are argparse types: a ValueError becomes a usage error.


def _parse_event(text: str) -> RectEvent:
    """u=<time>[,b=<x bound>][,c=<max bound>]."""
    vals = {}
    for part in text.split(","):
        key, _, raw = part.partition("=")
        if key.strip() not in ("u", "b", "c"):
            raise ValueError(f"unknown event key {key!r} (expected u=,b=,c=)")
        vals[key.strip()] = float(raw)
    if "u" not in vals:
        raise ValueError("event needs u=<time>")
    return RectEvent(vals["u"], vals.get("b", math.inf), vals.get("c", math.inf))


def _parse_density(text: str, laplace_lambda: float | None = None) -> DensitySpec:
    """uniform:A or exp:RATE, with an optional phi: prefix."""
    family, _, raw = text.removeprefix("phi:").partition(":")
    if family in ("uniform", "uni"):
        return DensitySpec.uniform(float(raw), laplace_lambda=laplace_lambda)
    if family in ("exp", "exponential"):
        return DensitySpec.exponential(float(raw), laplace_lambda=laplace_lambda)
    raise ValueError(f"unsupported density spec {text!r} (use uniform:A or exp:RATE)")


def _parse_family(text: str):
    """(text, m(x, s, u)) for phi:SPEC, explinear:LAM:MU or kennedy:LAM:SPEC."""
    kind, _, rest = text.partition(":")
    if kind == "phi":
        phi = _parse_density(rest)
        return text, lambda x, s, u: m_phi_xs(x, s, phi)
    if kind == "explinear":
        lam, mu = map(float, rest.split(":"))
        return text, lambda x, s, u: m_mu_lambda_xs(x, s, u, lam, mu)
    if kind == "kennedy":
        raw_lam, _, spec = rest.partition(":")
        lam = float(raw_lam)
        psi = _parse_density(spec, lam)
        return text, lambda x, s, u: m_kennedy_xs(x, s, u, lam, psi)
    raise ValueError(f"unknown martingale family {text!r}")


def _emit(verdicts, out: "list[Verdict]"):
    for v in verdicts:
        print(v.to_json())
        sys.stdout.flush()
        out.append(v)


def _write_csv(out_dir: str | None, name: str, header, rows):
    if not out_dir:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / name, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_density(args, verdicts):
    fns = {"max": p_max, "max-cdf": h_cdf, "bessel3": p_bessel3}
    if args.law == "joint":
        val = p_joint(args.r, args.a, args.z)
    else:
        val = fns[args.law](args.r, args.z)
    print(json.dumps({"law": args.law, "r": args.r, "value": val}))


def _cmd_classify(args, verdicts):
    print(json.dumps({"region": classify_region(args.lam, args.mu).value}))


def _cmd_martingale_check(args, verdicts):
    rng = RngStream(args.seed)
    gen = rng.generator(0)
    x, s = exact_bm_state(args.u, args.n, gen)
    family, m = args.family
    vals = np.asarray(m(x, s, args.u), dtype=float)
    se = float(np.std(vals)) / math.sqrt(args.n)
    _emit([abs_verdict(f"unit-mean[{family}]@u={args.u}",
                       float(np.mean(vals)), 1.0, 4.0 * se, "mc-oracle")], verdicts)


def _cmd_limit(args, verdicts):
    ev = args.event
    rng = RngStream(args.seed)
    if args.phi is not None:
        phi = args.phi
        levels = phi.ppf(rng.generator(0).random(args.n))
        levels = np.maximum(levels, 1e-9)
        target = q_phi_limit(phi, ev)
        tag = f"phi:{phi.family}:{phi.upper or phi.rate:g}"
    elif args.a is not None:
        levels = mixture_levels(args.a, args.y, args.n, rng.generator(0))
        target = q_ay_limit(args.a, args.y, ev)
        tag = f"a={args.a},y={args.y}"
    else:
        levels = np.full(args.n, args.y)
        target = q_y_limit(args.y, ev)
        tag = f"y={args.y}"
    p, se = level_event_frequency(levels, ev, rng.generator(1))
    _emit([abs_verdict(f"limit[{tag}]", p, target, 3.0 * se, "sampler vs quadrature")],
          verdicts)
    if args.dump_paths:
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        gen = rng.generator(2)
        for k in range(args.dump_paths):
            path = sample_Q_y(float(levels[k % levels.size]), ev.u, args.step, gen=gen)
            with open(out_dir / f"path_{k:04d}.csv", "w") as fh:
                path.write_csv(fh)


def _cmd_converge(args, verdicts):
    ev = args.event
    ts = [float(t) for t in args.t.split(",")]
    if args.a is not None:
        limit = q_ay_limit(args.a, args.y, ev)
        series = [(t, q_ay_finite(args.a, args.y, ev, t)) for t in ts]
        tag = f"ay({args.a},{args.y})"
    else:
        limit = q_y_limit(args.y, ev)
        series = [(t, q_y_finite(args.y, ev, t)) for t in ts]
        tag = f"y({args.y})"
    fit = fit_rate(series, model="poly")
    gaps = [abs(v - limit) for _, v in series]
    slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    print(json.dumps({"fit": {"q_limit": fit.q_limit, "c1": fit.c1,
                              "residual": fit.residual, "window": list(fit.window)},
                      "limit": limit}))
    _emit([abs_verdict(f"converge[{tag}]-decay-exponent", -slope, 1.0, 0.2,
                       "log-log slope of the gap")], verdicts)
    _write_csv(args.out, f"converge_{tag}.csv", ["t", "value", "gap"],
               [(t, v, abs(v - limit)) for t, v in series])


def _cmd_expansion(args, verdicts):
    ev = args.event
    if args.mode == "poly":
        rep = f1_coefficient_check(args.phi, ev)
        _emit([abs_verdict("expansion-poly-rel-err", rep["rel_err"], 0.0, 0.10,
                           f"fit {rep['fit'].c1:.6g} target {rep['target']:.6g}")], verdicts)
    else:
        lam = args.lam
        # --psi names the shape; the Kennedy weight needs it Laplace-normalized at --lam
        psi = getattr(DensitySpec, args.psi.family)(args.psi.upper or args.psi.rate,
                                                     laplace_lambda=lam)
        rep = f1_kennedy_check(lam, psi, ev)
        _emit([abs_verdict("expansion-kennedy-rel-err", rep["rel_err"], 0.0, 0.15,
                           f"fit {rep['fit'].c1:.6g} target {rep['target']:.6g}")], verdicts)
    fit = rep["fit"]
    if args.mode == "poly":
        model = lambda t: fit.q_limit + fit.c1 / t
    else:
        model = lambda t: fit.q_limit + fit.c1 * math.exp(-args.lam ** 2 * t / 2.0) / t ** 1.5
    _write_csv(args.out, f"expansion_{args.mode}.csv", ["t", "value", "model_value"],
               [(t, v, model(t)) for t, v in rep["series"]])


def _cmd_bessel(args, verdicts):
    rng = RngStream(args.seed)
    ts = [float(t) for t in args.t.split(",")]
    rep = bessel_penalization_check(args.lam, args.mu, args.u, ts, args.n, rng,
                                    trivial=args.trivial)
    vs = []
    for row in rep["rows"]:
        where = f"t={row['t']},b={row['b']}"
        vs.append(abs_verdict(f"bessel[{where}]", row["value"], row["target"], row["tol"],
                              f"penalized Bessel(3) vs exact finite-t, ess {row['ess']:.0f}"))
        vs.append(abs_verdict(f"bessel-limit[{where}]", row["value"], row["limit"], row["tol"],
                              "penalized Bessel(3) vs the t -> inf limit"))
    _emit(vs, verdicts)
    _write_csv(args.out, "bessel.csv",
               ["penalty", "t", "b", "value", "stderr", "n", "ess", "target", "target_source",
                "limit"],
               [(r["penalty"], r["t"], r["b"], r["value"], r["stderr"], r["n"], r["ess"],
                 r["target"], r["target_source"], r["limit"]) for r in rep["rows"]])


def _cmd_verify(args, verdicts):
    which = None
    if args.only:
        which = {int(k) for k in args.only.split(",")}
    _emit(acceptance.run_suite(seed=args.seed, scale=args.scale, which=which), verdicts)


# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    seed_default = int(os.environ.get("PENALAB_SEED", "12345"))
    top = argparse.ArgumentParser(prog="penalab",
                                  description="penalized-Brownian-motion laboratory")
    top.add_argument("--config", help="key=value file with option defaults")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--out", help="directory for CSV output")

    p = sub.add_parser("density", help="evaluate a closed-form density/CDF")
    p.add_argument("--law", choices=["max", "max-cdf", "joint", "bessel3"], required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    common(p)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("classify", help="regime of (lambda, mu)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("martingale-check", help="empirical unit-mean check")
    p.add_argument("--family", required=True, type=_parse_family,
                   help="phi:uniform:A | phi:exp:RATE | explinear:LAM:MU | kennedy:LAM:uniform:A")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100000)
    common(p)
    p.set_defaults(fn=_cmd_martingale_check)

    p = sub.add_parser("limit", help="sampler vs quadrature limit law")
    p.add_argument("--y", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--phi", type=_parse_density, help="uniform:A or exp:RATE")
    p.add_argument("--event", required=True, type=_parse_event,
                   help="u=1,b=0,c=0.5 (b,c optional)")
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--step", type=float, default=1e-3,
                   help="grid step of the --dump-paths trajectories; the verdict "
                        "samples the time-u state exactly, with no grid")
    p.add_argument("--dump-paths", type=int, default=0,
                   help="also write this many sample paths as CSV (t, x, s)")
    common(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("converge", help="finite-horizon convergence and rate fit")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--event", required=True, type=_parse_event)
    p.add_argument("--t", default="32,64,128,256,512,1024")
    common(p)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("expansion", help="first-order expansion coefficient check")
    p.add_argument("--mode", choices=["poly", "kennedy"], default="poly")
    p.add_argument("--phi", type=_parse_density, default="uniform:1")
    p.add_argument("--psi", type=_parse_density, default="uniform:1")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--event", type=_parse_event, default="u=1,b=0,c=0.5")
    common(p)
    p.set_defaults(fn=_cmd_expansion)

    p = sub.add_parser("bessel", help="penalized Bessel(3) checks")
    p.add_argument("--lambda", dest="lam", type=float, default=-1.0)
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--t", default="128")
    p.add_argument("--n", type=int, default=30000)
    p.add_argument("--trivial", action="store_true",
                   help="use the trivial-limit weight e^{-R_t} 1{J_t <= 1} instead")
    common(p)
    p.set_defaults(fn=_cmd_bessel)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--only", help="comma-separated criterion numbers")
    common(p)
    p.set_defaults(fn=_cmd_verify)
    return top, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    chosen = commands[args.command]
    if args.config:
        known = set(vars(args)) - {"config", "command", "fn"}
        defaults = {}
        for line in Path(args.config).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            dest = key.strip().replace("-", "_")
            if dest not in known:
                chosen.error(f"unknown config key {key.strip()!r}")
            defaults[dest] = val.strip()
        # a subparser's own defaults win over the top parser's, and its option
        # types convert (and check) string defaults
        chosen.set_defaults(**defaults)
        args = parser.parse_args(argv)
    if args.command == "limit" and args.y is None and args.phi is None:
        chosen.error("one of --y and --phi is required")
    if args.command == "expansion" and args.mode == "kennedy" and args.lam <= 0.0:
        chosen.error("--mode kennedy needs --lam > 0")
    verdicts: list[Verdict] = []
    args.fn(args, verdicts)
    return 0 if all(v.passed for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
