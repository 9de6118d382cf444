"""Span tracing of privest from outside the library.

The tracer replaces public functions of the privest modules with wrappers
that record one span per call: name, start, end, parent span and operation
id, plus an optional per-call count.  A function that another module bound
with ``from .x import y`` lives under several names, so installing a wrapper
rebinds every module attribute that holds the original function object.
Spans stay in memory until the run writes them out.

``install()`` and ``uninstall()`` swap the wrappers in and out, so untraced
operations run the library's own functions untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# Span record fields, stored as lists for speed.
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _rows(args, kwargs, result):
    data = args[0] if args else kwargs.get("data")
    return len(data)


def _second_moment(args, kwargs, result):
    n, d = args[0].shape
    return (n, n * d * d)


def _draws(args, kwargs, result):
    return int(np.size(result))


def _sweep_hit(args, kwargs, result):
    return result is not None


def _aborted(args, kwargs, result):
    return bool(result.aborted)


def _attack_failures(args, kwargs, result):
    return int(result.failures)


def _report_bytes(args, kwargs, result):
    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _p_in_unit_cube(args, kwargs, result):
    p = result.p
    return bool(np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1)))


# (module, attribute, span name, per-call count).  Attributes with a dot are
# methods of a class defined in that module.
TARGETS = [
    ("noise", "NoiseSource.gaussian", "noise", _draws),
    ("noise", "NoiseSource.laplace", "noise", _draws),
    ("noise", "NoiseSource.uniform", "noise", _draws),
    ("noise", "NoiseSource.integers", "noise", _draws),
    ("privacy", "gaussian_mechanism_symmetric", "privacy.sym_noise", None),
    ("privacy", "sample_gue", "privacy.sym_noise", None),
    ("histogram", "histogram_zcdp", "histogram", _rows),
    ("histogram", "stable_histogram_approx_dp", "histogram", _rows),
    ("linalg", "project_psd", "linalg.project_psd", None),
    ("linalg", "sample_gaussian", "linalg.sample_gaussian", None),
    ("covariance", "clamped_covariance", "covariance.second_moment", _second_moment),
    ("covariance", "naive_pce", "covariance.naive_pce", None),
    ("covariance", "weak_ppc", "covariance.round", None),
    ("covariance", "ppc", "covariance.ppc", None),
    ("covariance", "pgce", "covariance.pgce", None),
    ("covariance_unbounded", "p_estimate_trace", "covariance_unbounded.trace_vote", None),
    ("covariance_unbounded", "weak_ppc_no_bound", "covariance_unbounded.sweep", _sweep_hit),
    ("covariance_unbounded", "ppc_range", "covariance_unbounded.ppc_range", None),
    ("covariance_unbounded", "pgce_no_bound", "covariance_unbounded.pgce_no_bound", None),
    ("mean", "univariate_mean", "mean.univariate", _aborted),
    ("mean", "naive_pme", "mean.naive_pme", None),
    ("mean", "pme", "mean.pme", None),
    ("mean", "learn_gaussian", "mean.learn_gaussian", None),
    ("product", "ppde", "product.ppde", _p_in_unit_cube),
    ("product", "tmean", "product.tmean", None),
    ("harness", "learn_product_flip_heavy", "harness.flip_vote", None),
    ("harness", "write_report", "harness.write_report", _report_bytes),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("attacks", "run_tracing_attack", "attacks.run_tracing_attack", _attack_failures),
    ("metrics", "tv_gaussian_same_cov", "metrics", None),
    ("metrics", "tv_gaussian_mc", "metrics", None),
    ("metrics", "tv_product_exact", "metrics", None),
    ("metrics", "tv_product_mc", "metrics", None),
    ("metrics", "chi2_kl_bernoulli", "metrics", None),
    ("metrics", "product_sd_upper", "metrics", None),
    ("metrics", "gaussian_param_error", "metrics", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans for calls into privest while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._build()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                rec[EXTRA] = count(args, kwargs, result)
            return result

        return wrapper

    def _trace_mechanism(self, fn):
        """The attack's mechanism is a closure built by the harness; wrap it
        per call so that each mechanism invocation is a span too."""

        @functools.wraps(fn)
        def call(mechanism, *args, **kwargs):
            return fn(self.span("attacks.mechanism", mechanism), *args, **kwargs)

        return call

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation as a root span, tracing installed."""
        self.op = op_id
        self.install()
        try:
            return self.span("op", fn)(*args)
        finally:
            self.uninstall()

    # -- installing --------------------------------------------------------

    def _build(self):
        """Make one wrapper per target and find every name bound to it."""
        import privest.cli  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "privest" or k.startswith("privest.")) and m is not None]
        for mod_name, attr, span_name, count in TARGETS:
            mod = sys.modules[f"privest.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original,
                                      self.span(span_name, original, count)))
                continue
            original = getattr(mod, attr)
            inner = (self._trace_mechanism(original)
                     if span_name == "attacks.run_tracing_attack" else original)
            wrapper = self.span(span_name, inner, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def bindings(self) -> set[str]:
        """Every ``module.name`` the tracer rebinds, for the self-test."""
        return {f"{getattr(o, '__name__', o)}.{k}" for o, k, _, _ in self._patches}

    # -- output ------------------------------------------------------------

    def write(self, path: Path):
        """Write the spans as JSON lines, times in ms from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "op": s[OP], "parent": s[PARENT],
                    "start_ms": 1000.0 * (s[START] - t0),
                    "end_ms": 1000.0 * (s[END] - t0), "count": s[EXTRA],
                }) + "\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics, each averaged per traced operation.

    ``ms`` is a span's whole duration; ``self_ms`` subtracts the time its
    traced children cover (calls are nested, never overlapping).
    """
    dur = [1000.0 * (s[END] - s[START]) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def pick(name, where=lambda i: True):
        return [i for i, s in enumerate(spans) if s[NAME] == name and where(i)]

    def calls(name):
        return float(len(pick(name)))

    def ms(name):
        return sum(dur[i] for i in pick(name))

    def self_ms(name):
        return sum(dur[i] - child[i] for i in pick(name))

    def total(name, field=None):
        vals = [spans[i][EXTRA] for i in pick(name)]
        return float(sum(v if field is None else v[field] for v in vals))

    sym = pick("privacy.sym_noise", lambda i: parent_name(i) != "privacy.sym_noise")
    sweep_attempts = len(pick("privacy.sym_noise",
                              lambda i: parent_name(i) == "covariance_unbounded.sweep"))
    sweep_hits = sum(1 for i in pick("covariance_unbounded.sweep") if spans[i][EXTRA])
    hist_draws = sum(spans[i][EXTRA] for i in
                     pick("noise", lambda i: parent_name(i) == "histogram"))
    out = {
        "noise.calls": calls("noise"),
        "noise.draws": total("noise"),
        "noise.ms": ms("noise"),
        "privacy.sym_noise.calls": float(len(sym)),
        "privacy.sym_noise.ms": sum(dur[i] for i in sym),
        "histogram.calls": calls("histogram"),
        "histogram.rows": total("histogram"),
        "histogram.buckets": float(hist_draws),
        "histogram.ms": ms("histogram"),
        "covariance.rounds": calls("covariance.round"),
        "covariance.second_moment.calls": calls("covariance.second_moment"),
        "covariance.second_moment.rows": total("covariance.second_moment", 0),
        "covariance.second_moment.ms": ms("covariance.second_moment"),
        "covariance.second_moment.flop_computed": total("covariance.second_moment", 1),
        "covariance.round.ms": ms("covariance.round"),
        "covariance.ppc.self_ms": self_ms("covariance.ppc"),
        "covariance.pgce.self_ms": self_ms("covariance.pgce"),
        "linalg.project_psd.ms": ms("linalg.project_psd"),
        "covariance_unbounded.trace_vote.calls": calls("covariance_unbounded.trace_vote"),
        "covariance_unbounded.trace_vote.ms": ms("covariance_unbounded.trace_vote"),
        "covariance_unbounded.trace_vote.self_ms": self_ms("covariance_unbounded.trace_vote"),
        "covariance_unbounded.sweep.calls": calls("covariance_unbounded.sweep"),
        "covariance_unbounded.sweep.attempts": float(sweep_attempts),
        "covariance_unbounded.sweep.ms": ms("covariance_unbounded.sweep"),
        "covariance_unbounded.ppc_range.self_ms": self_ms("covariance_unbounded.ppc_range"),
        "mean.univariate.calls": calls("mean.univariate"),
        "mean.univariate.ms": ms("mean.univariate"),
        "mean.univariate.self_ms": self_ms("mean.univariate"),
        "mean.aborts": total("mean.univariate"),
        "mean.pme.self_ms": self_ms("mean.pme"),
        "product.ppde.ms": ms("product.ppde"),
        "product.tmean.calls": calls("product.tmean"),
        "product.tmean.ms": ms("product.tmean"),
        "harness.flip_vote.self_ms": self_ms("harness.flip_vote"),
        "harness.write_report.ms": ms("harness.write_report"),
        "harness.report_bytes": total("harness.write_report"),
        "harness.self_ms": self_ms("harness.run_experiment"),
        "attacks.mechanism_calls": calls("attacks.mechanism"),
        "attacks.failures": total("attacks.run_tracing_attack"),
        "attacks.self_ms": self_ms("attacks.run_tracing_attack"),
        "metrics.calls": calls("metrics"),
        "metrics.ms": ms("metrics"),
        "cli.self_ms": self_ms("cli.main"),
    }
    out = {k: v / n_ops for k, v in out.items()}
    # A ratio of two per-op averages is the ratio of the totals.
    out["covariance_unbounded.sweep.hit_ratio"] = (
        sweep_hits / sweep_attempts if sweep_attempts else 0.0)
    return out


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of all root-span time spent inside each top-level module."""
    dur = [s[END] - s[START] for s in spans]
    op_total = sum(dur[i] for i, s in enumerate(spans) if s[NAME] == "op")
    inside: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = s[NAME].split(".")[0]
        # Count a span only where its parent is in another layer, so nested
        # calls within one layer are not counted twice.
        p = s[PARENT]
        if s[NAME] == "op" or (p >= 0 and spans[p][NAME].split(".")[0] == layer):
            continue
        inside[layer] = inside.get(layer, 0.0) + dur[i]
    return {k: v / op_total for k, v in sorted(inside.items())} if op_total else {}
