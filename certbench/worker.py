"""One benchmark process: import fracstable, warm up, then measure.

Started by run.py, which times it from spawn to the READY line (its set-up
time) and reads its RESULT line.  With --role setup it stops after READY.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _stamp(fs, workload, seed):
    import mpmath
    import numpy
    import scipy

    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "backend": fs.BACKEND, "nproc": len(os.sched_getaffinity(0))}


def _timed(wl, fs, params):
    start = time.perf_counter()
    outcome = wl.attempt(fs, params)
    return outcome, time.perf_counter() - start


def _tally(wl, outcomes):
    judged = [wl.judge(o) for o in outcomes]
    return sum(f for f, _ in judged), sum(r for _, r in judged)


def tail(times):
    """The op time with min(10, n // 4) of the n ops beyond it.

    Returns (value, percentile, ops beyond).  From 40 ops on, this is the
    highest percentile with at least ten ops beyond it.  Runs of seconds-long
    ops complete fewer, and there ten ops beyond would put the "tail" at or
    below the median; a quarter of the ops beyond keeps it near the upper
    quartile without resting on the single slowest op.  Below four ops the
    slowest op stands in (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timed_run(fs, wl, seed, seconds):
    """Closed loop for `seconds`, untraced: the end-to-end metrics."""
    inputs = wl.inputs(seed)
    first = None
    outcomes, times = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        params = next(inputs)
        first = first or params
        outcome, dt = _timed(wl, fs, params)
        outcomes.append(outcome)
        times.append(dt)
    elapsed = time.perf_counter() - t0
    failed, rejects = _tally(wl, outcomes)
    checks = {}
    if wl.statistical:
        # seeded reruns must be byte-identical (criterion 10 at op level)
        again = wl.attempt(fs, first)
        checks["repeat_identical"] = (again.fingerprint()
                                      == outcomes[0].fingerprint())
    n = len(times)
    # percentiles over whole passes of a mixed workload: a run that stops
    # partway through a pass would weigh the ops it started with twice
    ranked = times[:n - n % wl.mix or n]
    t_val, t_pct, t_beyond = tail(ranked)
    metrics = {
        "ops_per_s": n / elapsed,
        "op_p50_s": statistics.median(ranked),
        "op_tail_s": t_val,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"ops": n, "ranked_ops": len(ranked), "op_tail_pct": t_pct, "op_tail_beyond": t_beyond,
            "op_times": " ".join("%.3f" % t for t in times),
            "failed_ops_frac": failed / n}
    if wl.statistical:
        info["stat_reject_frac"] = rejects / n
    else:
        info["residual_headroom_dec"] = min(wl.headroom(o) for o in outcomes)
    return {"attempted": n, "failed": failed, "checks": checks,
            "metrics": metrics, "info": info}


def traced_run(fs, wl, seed, tracer):
    """One fixed cycle of ops traced, then the same ops untraced.

    The cycle does not depend on timing, so the counts repeat exactly for a
    seed; the warm-up (already run under `tracer`) is part of the totals."""
    params = list(itertools.islice(wl.inputs(seed), wl.cycle))
    traced, traced_s = [], 0.0
    try:
        for i, p in enumerate(params):
            tracer.op = "op%d" % i
            outcome, dt = _timed(wl, fs, p)
            traced.append(outcome)
            traced_s += dt
    finally:
        tracer.uninstall()
    plain, plain_s = [], 0.0
    for p in params:
        outcome, dt = _timed(wl, fs, p)
        plain.append(outcome)
        plain_s += dt
    failed, _ = _tally(wl, traced + plain)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    checks = {
        "bindings_restored": tracer.restored(),
        "quad_calls_match_scipy": tracer.quad_calls_match(),
        "traced_equals_untraced": all(
            a.fingerprint() == b.fingerprint() for a, b in zip(traced, plain)),
    }
    info = {"ops": len(params), "unbound_layers": tracer.unbound,
            "scipy_quad_calls":
                tracer.counts.get("scipy.integrate.quad.calls", 0)}
    return {"attempted": 2 * len(params), "failed": failed, "checks": checks,
            "metrics": metrics, "info": info}


def write_spans(tracer, workload, seed):
    """Spans and leaf aggregates as JSON lines, under .certbench/."""
    out = HERE.parent / ".certbench"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
    return str(path.relative_to(HERE.parent))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = ap.parse_args(argv)

    import fracstable as fs

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.op = "warmup"
    wl.warm_up(fs)
    print("READY", flush=True)
    if args.role == "setup":
        return 0
    if tracer is not None:
        result = traced_run(fs, wl, args.seed, tracer)
        result["info"]["spans"] = write_spans(tracer, args.workload, args.seed)
    else:
        result = timed_run(fs, wl, args.seed, args.seconds)
    result["stamp"] = _stamp(fs, args.workload, args.seed)
    result["checks"]["finite_metrics"] = all(
        math.isfinite(v) for v in result["metrics"].values())
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
