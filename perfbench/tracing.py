"""Span tracing of penalab's public layer functions, installed from outside.

A ``Tracer`` wraps each listed function and patches the wrapper into every
``penalab`` module namespace that holds the original (so calls through
``from .samplers import exact_bm_state`` are seen too), and restores the
originals on exit.  Spans (name, start, end, parent) stay in memory; self
time is a span's duration minus the time its child spans cover.  Hot scalar
helpers (``p_joint``, ``h_cdf``, ``DensitySpec.pdf``, ``_stable``) are not
wrapped, so their time counts as their caller's self time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

_MARK = "_perfbench_wrapped"


def _size(v) -> int:
    return int(np.size(v))


def _pair_size(x, s) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(s)).size)


@dataclass(frozen=True)
class Target:
    """One public function to trace, with the work count its arguments give.

    ``work`` names the count; ``count(args, kwargs)`` reads it from the call.
    """

    module: str
    name: str
    work: str | None = None
    count: object = None


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _xs_evals(args, kwargs):
    return _pair_size(_arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "s"))


TARGETS = [
    Target("samplers", "q_level_terminal_batch", "paths",
           lambda a, k: _size(_arg(a, k, 0, "levels"))),
    Target("samplers", "exact_bm_state", "states", lambda a, k: int(_arg(a, k, 1, "n"))),
    Target("samplers", "draw_penalty_pairs", "draws", lambda a, k: int(_arg(a, k, 1, "n"))),
    Target("weights", "log_g_explinear", "evals", _xs_evals),
    Target("weights", "g_phi_hat", "evals", _xs_evals),
    Target("weights", "g_kennedy_bar", "evals", _xs_evals),
    Target("penalized_mc", "penalized_estimate", "samples", lambda a, k: int(_arg(a, k, 3, "n"))),
    Target("penalized_mc", "bessel_penalization_check", "samples",
           lambda a, k: int(_arg(a, k, 4, "n")) * len(_arg(a, k, 3, "t_list"))),
    Target("quadrature", "q_y_limit"),
    Target("quadrature", "q_y_finite"),
    Target("quadrature", "q_ay_limit"),
    Target("quadrature", "q_ay_finite"),
    Target("quadrature", "q_phi_limit"),
    Target("quadrature", "q_a_phi_limit"),
    Target("quadrature", "expect_on_event"),
    Target("quadrature", "rect_prob"),
    Target("exact_laws", "phi_from_f"),
    Target("exact_laws", "kennedy_transforms"),
    Target("exact_laws", "fbar"),
    Target("martingales", "m_phi_xs", "evals", _xs_evals),
    Target("martingales", "m_mu_lambda_xs", "evals", _xs_evals),
    Target("martingales", "m_kennedy_xs", "evals", _xs_evals),
    Target("martingales", "m_bar_xs", "evals", lambda a, k: _size(_arg(a, k, 0, "x"))),
    Target("martingales", "m_phi_from_f"),
    Target("expansion", "phi_series_value"),
    Target("expansion", "kennedy_series_value"),
    Target("expansion", "f1_coefficient_check"),
    Target("expansion", "f1_kennedy_check"),
    Target("expansion", "fit_rate"),
    Target("report", "ks_test", "samples", lambda a, k: _size(_arg(a, k, 0, "samples"))),
]

# IntegrationWarnings are recorded around calls into this layer
WARNING_LAYER = "quadrature"


def _penalab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "penalab" or n.startswith("penalab."))]


def installed_wrappers() -> list[str]:
    """Names of traced wrappers currently bound in any penalab namespace."""
    return sorted(f"{m.__name__}.{attr}" for m in _penalab_modules()
                  for attr, v in vars(m).items() if getattr(v, _MARK, False))


class Tracer:
    """Context manager: wraps TARGETS while active and records spans."""

    def __init__(self):
        from scipy.integrate import IntegrationWarning

        self._warning_cls = IntegrationWarning
        self.names: list[str] = []          # span name table
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name_id, start, end, parent, child_time]
        self.work: dict[str, int] = {}
        self.integration_warnings: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a top-level check)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, target: Target, orig):
        key = f"{target.module}.{target.name}"
        name_id = self._name_id(key)
        record = target.module == WARNING_LAYER
        count = target.count
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.work[key] = tracer.work.get(key, 0) + count(args, kwargs)
            idx = tracer._open(name_id)
            try:
                if not record:
                    return orig(*args, **kwargs)
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always", tracer._warning_cls)
                    out = orig(*args, **kwargs)
                hits = sum(issubclass(w.category, tracer._warning_cls) for w in rec)
                if hits:
                    tracer.integration_warnings[key] = \
                        tracer.integration_warnings.get(key, 0) + hits
                return out
            finally:
                tracer._close(idx)

        wrapper.__name__ = orig.__name__
        wrapper.__doc__ = orig.__doc__
        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self):
        import importlib

        modules = _penalab_modules()
        for target in TARGETS:
            home = importlib.import_module(f"penalab.{target.module}")
            orig = getattr(home, target.name)
            wrapper = self._wrap(target, orig)
            for m in modules:
                for attr, v in list(vars(m).items()):
                    if v is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()
        return False

    # -- summaries -------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time."""
        out: dict[str, dict[str, float]] = {}
        for name_id, start, end, _, child in self.spans:
            row = out.setdefault(self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write every span as (name, start, end, parent) rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans]}, fh)
