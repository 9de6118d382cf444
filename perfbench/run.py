"""Benchmark of the privest estimators, end to end or traced per layer.

    python3 perfbench/run.py --workload cov-precond --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports privest from ``src/``.  One
process runs one workload as a closed loop: a single client starts the next
operation when the previous one ends.  BLAS is capped at ``nproc`` threads.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
three set-ups, two of them in fresh processes), wall time per operation over
about ``--seconds`` of operations (in windows spread over the run, the
fingerprint operations among them), tracemalloc peak of one untimed
operation, and the accuracy fingerprint and budget ratio over a fixed list
of seeds.  ``--seconds`` counts the timed operations only: the set-ups, the
memory pass and the fingerprint inputs come on top.  ``--trace 1``
alternates untraced and traced runs of a fixed list of operations for
``--seconds`` and reports per-layer metrics averaged per traced operation.

Every operation's output is checked; failures are counted, not raised.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Results, with the environment, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3
PLAN_LENGTH = 64
workloads = None  # imported by set_up, after the BLAS thread cap is set


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        want = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(want)
    return nproc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # time one set-up and exit
    return ap.parse_args(argv)


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.plan = workloads.plan(seed, PLAN_LENGTH)
        self.inputs = [wl.make_input(ds) for ds, _ in self.plan[:wl.pool]]
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, i: int, call=None):
        """Run operation i of the plan; returns (seconds, Outcome or None)."""
        _, noise_seed = self.plan[i % len(self.plan)]
        return self.run(self.inputs[i % self.wl.pool], noise_seed, call)

    def run(self, inp, noise_seed, call=None):
        call = call or self.wl.run
        self.attempted += 1
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            tmp = Path(tmp)
            t0 = time.perf_counter()
            try:
                result = call(inp, noise_seed, tmp)
            except Exception as exc:  # an estimator abort counts as a failure
                dt = time.perf_counter() - t0
                self.failures.append(f"raised {type(exc).__name__}: {exc}")
                return dt, None
            dt = time.perf_counter() - t0
            outcome = self.wl.outcome(inp, result, tmp)
        if outcome.failures:
            self.failures.append("; ".join(outcome.failures))
        return dt, outcome


def set_up(name: str, seed: int):
    """Import, generate inputs and run one warm-up operation, timed."""
    t0 = time.perf_counter()
    global workloads
    import workloads  # numpy and privest load here
    import privest
    if not Path(privest.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: privest imported from {privest.__file__}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    runner = Runner(workloads.WORKLOADS[name], seed)
    runner.op(0)
    return runner, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so the import is counted."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it, and
    which percentile that is.  Below 40 samples that percentile would fall
    under the upper quartile; the tail is then p75, with fewer than ten
    operations beyond it."""
    s = sorted(times_ms)
    n = len(s)
    if n >= 40:
        return s[n - 11], 100.0 * (n - 10) / n
    if n < 2:
        return s[-1], 100.0
    return statistics.quantiles(s, n=4)[2], 75.0


def end_to_end(runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Timed operations in windows, with the untimed passes between them.

    The host's speed drifts over seconds, so spreading the timed windows
    over the whole run makes one slow spell weigh less in the median.
    """
    wl = runner.wl
    times: list[float] = []
    setup_samples = [setup_s]
    peak: list[int] = []
    errors: dict[str, list] = {}
    ratios: list[float] = []

    def probe():
        setup_samples.append(probe_setup(wl.name, runner.seed))

    def peak_pass():
        import tracemalloc
        gc.collect()
        tracemalloc.start()
        try:
            runner.op(0)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    def fingerprint_pass():
        # These operations are timed like the others; only their input
        # generation is not.
        for data_seed, noise_seed in workloads.plan(workloads.FINGERPRINT_SEED,
                                                    workloads.FINGERPRINT_OPS):
            dt, outcome = runner.run(wl.make_input(data_seed), noise_seed)
            times.append(1000.0 * dt)
            if outcome is None:
                continue
            for k, v in outcome.errors.items():
                errors.setdefault(k, []).append(v)
            if outcome.budget_ratio is not None:
                ratios.append(outcome.budget_ratio)

    passes = [probe] * (SETUP_SAMPLES - 1) + [peak_pass, fingerprint_pass]
    for k, untimed in enumerate([None] + passes):
        if untimed is not None:
            untimed()
        gc.collect()
        # Share what is left of --seconds among the remaining windows.
        window = (seconds - sum(times) / 1000.0) / (len(passes) + 1 - k)
        t_end = time.perf_counter() + window
        while True:
            dt, _ = runner.op(len(times) + 1)  # operation 0 was the warm-up
            times.append(1000.0 * dt)
            if time.perf_counter() >= t_end:
                break
    fingerprints = {k: statistics.median(v) for k, v in sorted(errors.items())}

    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": tail_ms,
        "rows_per_s": wl.rows * len(times) / (sum(times) / 1000.0),
        "peak_mem_mib": peak[0] / 2**20,
        "budget_ratio": max(ratios) if ratios else None,
        "err_fp": fingerprints.get(wl.fingerprint),
    }
    details = {
        "setup_samples_s": setup_samples,
        "op_ms": times,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": sum(t > tail_ms for t in times),
        "timed_ops": len(times),
        "fingerprints": fingerprints,
        "fingerprint_metric": wl.fingerprint,
        "budget_ratios": ratios,
    }
    return metrics, details


def traced(runner, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics, layer_shares, NAME, OP, EXTRA

    tracer = Tracer()
    plain, traced_ms = [], []
    t_end = time.perf_counter() + seconds
    cycle = 0
    while True:
        for j in range(runner.wl.trace_ops):
            op_id = len(traced_ms)
            run_traced = (lambda *a: tracer.run_op(op_id, runner.wl.run, *a))
            order = [None, run_traced] if cycle % 2 == 0 else [run_traced, None]
            outs = {}
            for call in order:
                dt, outcome = runner.op(j, call)
                (plain if call is None else traced_ms).append(1000.0 * dt)
                outs[call is None] = outcome
            if None not in outs.values() and outs[True].snapshot != outs[False].snapshot:
                runner.failures.append(f"traced output of op {j} differs from untraced")
        cycle += 1
        if time.perf_counter() >= t_end:
            break
    bad_p = sorted({s[OP] for s in tracer.spans
                    if s[NAME] == "product.ppde" and s[EXTRA] is False})
    runner.failures += [f"ppde returned p outside [0, 1] in traced op {op}" for op in bad_p]

    metrics = layer_metrics(tracer.spans, len(traced_ms))
    metrics["trace.op_p50_ms"] = statistics.median(traced_ms)
    metrics["trace.untraced_op_p50_ms"] = statistics.median(plain)
    metrics["trace.overhead"] = metrics["trace.op_p50_ms"] / metrics["trace.untraced_op_p50_ms"]
    metrics["trace.ops"] = float(len(traced_ms))
    span_file = RESULTS / f"spans-{runner.wl.name}-seed{runner.seed}.jsonl"
    tracer.write(span_file)
    details = {"cycles": cycle, "traced_ms": traced_ms, "untraced_ms": plain,
               "shares": layer_shares(tracer.spans), "spans_file": str(span_file.name)}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "privest" / "__init__.py").is_file():
        print(f"error: no privest sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(exist_ok=True)

    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner, setup_s = set_up(args.workload, args.seed)
    from envinfo import environment
    env = environment(nproc)
    print("env: " + json.dumps(env))
    if args.trace:
        metrics, details = traced(runner, args.seconds)
    else:
        metrics, details = end_to_end(runner, args.seconds, setup_s)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and all(metrics.get(m["name"]) is not None for m in wanted),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result,
              "all_metrics": metrics, "details": details,
              "failures": runner.failures, "fail_rate": failed / runner.attempted}
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for name, value in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value}")
    print(f"{args.workload} fail_rate = {failed}/{runner.attempted}")
    for reason in runner.failures[:20]:
        print(f"{args.workload} failure: {reason}")
    for key in ("op_tail_percentile", "op_tail_beyond", "timed_ops", "fingerprints",
                "shares"):
        if key in details:
            print(f"{args.workload} {key} = {json.dumps(details[key])}")
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
