"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the tracer rebinds every name bound with ``from .x import y``,
that traced counts match what the code does (20 ``weak_ppc`` rounds per
``cov-precond`` operation, 16 ``histogram_zcdp`` votes per
``learn-gaussian`` operation), and that on every workload a traced
operation's output is bit-identical to an untraced one for the same seed.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import RESULTS, ROOT, cap_blas_threads

# Names other modules bound with ``from .x import y``; a call through any of
# them would be missed if the tracer patched only the defining module.
REBOUND = {
    "privest.covariance_unbounded.sample_gue",
    "privest.covariance_unbounded.stable_histogram_approx_dp",
    "privest.covariance_unbounded.pgce",
    "privest.mean.ppc",
    "privest.mean.pgce",
    "privest.mean.histogram_zcdp",
    "privest.harness.histogram_zcdp",
    "privest.harness.run_tracing_attack",
    "privest.harness.sample_gaussian",
}

# (workload, per-layer metric, value per operation the code implies)
EXPECTED_COUNTS = [
    ("cov-precond", "covariance.rounds", 20.0),
    ("cov-precond", "histogram.calls", 0.0),
    ("learn-gaussian", "histogram.calls", 16.0),
    ("learn-gaussian", "covariance.rounds", 0.0),
]


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(exist_ok=True)
    import workloads
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    missing = REBOUND - tracer.bindings()
    check(not missing, f"tracer rebinds every imported name (missing: {sorted(missing)})")

    seed = 7
    per_op = {}
    for name, wl in workloads.WORKLOADS.items():
        data_seed, noise_seed = workloads.plan(seed, 1)[0]
        inp = wl.make_input(data_seed)
        snapshots = []
        for traced in (False, True):
            with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
                if traced:
                    tracer.spans = []
                    result = tracer.run_op(0, wl.run, inp, noise_seed, Path(tmp))
                    per_op[name] = layer_metrics(tracer.spans, 1)
                else:
                    result = wl.run(inp, noise_seed, Path(tmp))
                snapshots.append(wl.outcome(inp, result, Path(tmp)).snapshot)
        check(snapshots[0] == snapshots[1] and snapshots[0] != (),
              f"{name}: traced output is bit-identical to untraced")

    for name, metric, want in EXPECTED_COUNTS:
        got = per_op[name][metric]
        check(got == want, f"{name}: {metric} = {got}, expected {want}")
    print("self-test passed")


if __name__ == "__main__":
    main()
