"""fracstable certificate benchmark.

    python3 certbench/run.py --workload {intertwining,resolvent,paths} \
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: the median of SETUP_RUNS
set-ups (process start through `import fracstable` and the workload's
warm-up, each in a fresh process), then a closed loop of ops for --seconds
in the last of those processes.  --trace 1 is a separate run that wraps
each layer of the package from outside, runs one fixed cycle of ops traced
and the same ops untraced, and reports the per-layer metrics; it writes its
spans to .certbench/spans-<workload>-<seed>.jsonl.  --seconds does not
change a traced run, whose length is set by its cycle.

Every line but the last starts with '#' and is for people: the stamp, each
metric with its unit, and the checks.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.  Outputs are checked in
the worker; a run whose checks fail reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# printed for people, not gated: they can be 0, negative or workload-specific
INFO_UNITS = {"failed_ops_frac": "frac", "residual_headroom_dec": "dec",
              "stat_reject_frac": "frac", "op_tail_pct": "%",
              "op_tail_beyond": "ops", "ops": "ops", "op_times": "s",
              "ranked_ops": "ops",
              "scipy_quad_calls": "count", "unbound_layers": "",
              "spans": ""}


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def cap_threads(env, nproc):
    """Cap the BLAS/OpenMP thread variables at nproc."""
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(env.get(var, "")) <= nproc
        except ValueError:
            ok = False
        if not ok:
            env[var] = str(nproc)


def run_worker(argv, env, deadline):
    """Run worker.py; return (seconds from spawn to READY, RESULT dict)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError("worker %s exited with code %s"
                           % (" ".join(argv), proc.returncode))
    return ready, result


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fracstable" / "__init__.py").is_file():
        print("certbench: no fracstable sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = _spec()
    nproc = len(os.sched_getaffinity(0))
    cap_threads(os.environ, nproc)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(base + ["--role", "setup"], env,
                                         deadline)[0])
        ready, result = run_worker(base, env, deadline)
    except RuntimeError as exc:
        print("certbench: %s" % exc, file=sys.stderr)
        return 1
    if result is None:
        print("certbench: the worker printed no result", file=sys.stderr)
        return 1
    setups.append(ready)

    metrics = dict(result["metrics"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    checks = dict(result["checks"], declared_metrics_present=not missing)

    print("# stamp " + json.dumps(result["stamp"], sort_keys=True))
    if not args.trace:
        print("# setup_s samples: " + ", ".join("%.4f" % s for s in setups))
    for name in sorted(units):
        if name in metrics:
            print("# %s = %s %s" % (name, _fmt(metrics[name]), units[name]))
    for key, val in sorted(result["info"].items()):
        print("# info %s = %s %s" % (key, _fmt(val), INFO_UNITS[key]))
    for key, val in sorted(checks.items()):
        print("# check %s: %s" % (key, "ok" if val else "FAILED"))
    print("# failed %d of %d attempted" % (result["failed"],
                                          result["attempted"]))
    correct = result["failed"] == 0 and all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
