"""Smoke tests of the benchmark itself.

    python3 -m pytest certbench -q

They run the real workloads at small size, or the real command on the
cheapest workload, and take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fracstable as fs  # noqa: E402
from compare import compare  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from worker import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("quadrature.adaptive_quad.calls",
                   "quadrature.adaptive_quad.evals",
                   "specfun.F_remainders.calls.series",
                   "specfun.F_remainders.calls.bridge",
                   "specfun.F_remainders.calls.asymptotic",
                   "dist.increments.count")


def _mini_ops():
    """One small call into each layer family: operators, resolvent, paths."""
    rep = fs.check_intertwining(fs.TEST_FUNCTIONS["gauss"], 1.5, [1.0])
    mass = fs.u1_mass(1.5, 1.0)
    cfg = fs.PathConfig(1.5, 64, 1000, 7, fs.Reflect.AtSupremum)
    law = fs.check_identity_law(1.5, 1000, cfg)
    return rep.max_abs_residual, mass, law.max_abs_residual


def _traced_mini():
    tracer = Tracer()
    tracer.install()
    try:
        values = _mini_ops()
    finally:
        tracer.uninstall()
    return tracer, values


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py")] + list(args),
                          capture_output=True, text=True, cwd=str(ROOT),
                          timeout=180)


def _printed(stdout, declared):
    """Every declared metric appears as '# name = value unit' and in the
    final JSON object with its unit."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith("# %s = " % m["name"])
                   and line.endswith(" " + m["unit"]) for line in lines)
    return result


def test_every_binding_restored_is_the_original():
    import scipy.integrate

    quad = scipy.integrate.quad
    check = fs.check_intertwining
    tracer = Tracer()
    tracer.install()
    assert fs.check_intertwining is not check
    assert fs.verify.check_intertwining is fs.check_intertwining
    tracer.uninstall()
    assert fs.check_intertwining is check
    assert tracer.bindings and not tracer.unbound
    for b in tracer.bindings:
        assert getattr(b.module, b.attr) is b.original
    assert scipy.integrate.quad is quad
    homes = {(home, attr) for home, attr, _ in LAYERS}
    bound = {(b.module.__name__.split(".")[-1], b.attr)
             for b in tracer.bindings}
    assert homes <= bound
    # adaptive_quad is bound by name in every module that integrates
    quad_sites = {b.module.__name__ for b in tracer.bindings
                  if b.attr == "adaptive_quad"}
    assert {"fracstable.dist", "fracstable.fracops", "fracstable.specfun",
            "fracstable.resolvent"} <= quad_sites


def test_traced_counts_repeat_and_values_are_unchanged():
    plain = _mini_ops()               # fills the caches both passes share
    t1, v1 = _traced_mini()
    t2, v2 = _traced_mini()
    assert v1 == v2 == plain
    m1, m2 = t1.metrics(), t2.metrics()
    for name in REPEATED_COUNTS:
        assert m1[name] == m2[name], name
        assert m1[name] > 0, name
    assert t1.quad_calls_match() and t2.quad_calls_match()


def test_tail_has_a_quarter_of_the_ops_beyond_at_most_ten():
    times = [float(i) for i in range(1, 51)]
    assert tail(times) == (40.0, 80.0, 10)
    assert tail(times[:30]) == (23.0, 100.0 * 23 / 30, 7)
    assert tail(times[:5]) == (4.0, 80.0, 1)
    assert tail(times[:3]) == (3.0, 100.0, 0)


def test_intertwining_cycle_covers_every_pair_and_stratum_once():
    import itertools

    from workloads import ALPHAS, FUNCTIONS, WORKLOADS

    wl = WORKLOADS["intertwining"]
    width = (5.0 - 0.1) / 9
    for cycle in range(3):
        ops = list(itertools.islice(wl.inputs(3), 3 * cycle, 3 * cycle + 3))
        certs = [c for op in ops for c in op]
        assert sorted((f, a) for f, a, _ in certs) == sorted(
            itertools.product(FUNCTIONS, ALPHAS))
        assert sorted(int((x - 0.1) // width) for _, _, x in certs) == list(
            range(9))
        for op in ops:
            assert sorted(a for _, a, _ in op) == list(ALPHAS)
            assert sorted(int((x - 0.1) // width) // 3
                          for _, _, x in op) == [0, 1, 2]


def test_end_to_end_run_prints_every_metric():
    out = _run("--workload", "paths", "--seed", "5", "--seconds", "1",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = _printed(out.stdout, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert "# check repeat_identical: ok" in out.stdout


def test_traced_runs_repeat_counts_exactly():
    results = []
    for _ in range(2):
        out = _run("--workload", "paths", "--seed", "5", "--seconds", "1",
                   "--trace", "1")
        assert out.returncode == 0, out.stderr
        results.append(_printed(out.stdout, SPEC["per_layer"]))
        assert results[-1]["correct"]
    for name in REPEATED_COUNTS:
        assert (results[0]["metrics"][name]["value"]
                == results[1]["metrics"][name]["value"]), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "certbench/run.py", "--workload",
                          "paths", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_refuses_different_backends():
    metrics = {"ops_per_s": {"value": 1.0, "unit": "1/s"}}
    res = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    with pytest.raises(ValueError, match="backend"):
        compare(({"backend": "numpy", "workload": "paths"}, res),
                ({"backend": "numba", "workload": "paths"}, res), SPEC)
    lines = compare(({"backend": "numpy", "workload": "paths"}, res),
                    ({"backend": "numpy", "workload": "paths"}, res), SPEC)
    assert len(lines) == 1 and "WORSE" not in lines[0]
