import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracstable
from fracstable.cli import DEFAULT_SEED, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_ml_command():
    code, out = run_cli("ml", "--alpha", "1.5", "--x", "0.5,1,2",
                        "--deriv", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "value"]
    assert len(rows) == 3
    assert rows[0][1] == pytest.approx(1.4202702357049505, rel=1e-12)


def test_fracop_command():
    code, out = run_cli("fracop", "--op", "caputo", "--function", "gauss",
                        "--alpha", "1.5", "--x", "1.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][1] == pytest.approx(-0.2470639893096767, rel=1e-7)


def test_density_and_moments_commands():
    code, out = run_cli("density", "--law", "valpha", "--alpha", "1.5",
                        "--x", "0.5,1,2,1e120")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(v > 0.0 for _, v in rows)
    code, out = run_cli("moments", "--law", "x", "--alpha", "1.5",
                        "--s", "1.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][1] == pytest.approx(1.1077321674324718, rel=1e-12)


def test_sample_command_seed_header_and_determinism():
    code, out1 = run_cli("sample", "--law", "xhat", "--alpha", "1.5",
                         "--n", "50", "--seed", "7")
    assert code == 0
    assert out1.splitlines()[0] == "# seed=7"
    _, out2 = run_cli("sample", "--law", "xhat", "--alpha", "1.5",
                      "--n", "50", "--seed", "7")
    assert out1 == out2
    _, out3 = run_cli("sample", "--law", "xhat", "--alpha", "1.5",
                      "--n", "50", "--seed", "8")
    assert out3 != out1


def test_seed_resolution_env_and_default(monkeypatch):
    monkeypatch.delenv("FRACSTABLE_SEED", raising=False)
    _, out = run_cli("sample", "--law", "valpha", "--alpha", "1.5",
                     "--n", "5")
    assert out.splitlines()[0] == "# seed=%d" % DEFAULT_SEED
    monkeypatch.setenv("FRACSTABLE_SEED", "123")
    _, out = run_cli("sample", "--law", "valpha", "--alpha", "1.5",
                     "--n", "5")
    assert out.splitlines()[0] == "# seed=123"
    # explicit flag beats the environment
    _, out = run_cli("sample", "--law", "valpha", "--alpha", "1.5",
                     "--n", "5", "--seed", "9")
    assert out.splitlines()[0] == "# seed=9"


def test_simulate_command():
    code, out = run_cli("simulate", "--alpha", "1.5", "--reflect", "sup",
                        "--steps", "64", "--paths", "20", "--seed", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 20
    assert all(v >= 0.0 for (v,) in rows)


def test_calibrate_bias_command():
    code, out = run_cli("calibrate-bias", "--alpha", "1.5",
                        "--ladder", "64,128,256", "--paths", "1000",
                        "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"alpha", "seed", "n_paths", "rungs", "sup_rungs"}
    for side in ("rungs", "sup_rungs"):
        assert [r["n_steps"] for r in data[side]] == [64, 128, 256]
        assert all(0.0 <= r["ks"] <= 1.0 for r in data[side])


def test_verify_command_pass_and_fail_exit_codes(tmp_path):
    report_file = tmp_path / "report.json"
    code, out = run_cli("verify", "lamperti", "--alpha", "1.5",
                        "--output", str(report_file))
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "lamperti" and data["passed"]
    assert json.loads(report_file.read_text())["passed"]


def test_verify_rep_passes_at_small_alpha():
    code, out = run_cli("verify", "rep", "--alpha", "1.2")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_rep_passes_where_the_laplace_series_cancelled():
    # y = 20 once exited 1: the residue series of the Laplace transform
    # cancelled beyond its budget from y = 17
    code, out = run_cli("verify", "rep", "--alpha", "1.5", "--y", "20")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_identity_law_passes_at_its_defaults():
    # seed 7 used to fail: the calibrated walk's sup-side bias outran its
    # allowance; the check now draws X_1 exactly and takes no --steps
    for argv in (("--alpha", "1.2"), ("--alpha", "1.5"), ("--alpha", "1.8"),
                 ("--alpha", "1.5", "--seed", "7")):
        code, out = run_cli("verify", "identity-law", *argv)
        data = json.loads(out)
        assert code == 0 and data["passed"], data
        assert data["params"]["ks_allowance"] == 0.0
        assert "n_steps" not in data["params"]


def test_verify_factorization_command():
    code, out = run_cli("verify", "factorization", "--alpha", "1.5",
                        "--s", "0.25,0.5,1.0")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_cm_command_far_out_and_bad_inputs(capsys):
    code, out = run_cli("verify", "cm", "--alpha", "1.2", "--x", "200")
    assert code == 0
    assert json.loads(out)["max_abs_residual"] == 0.0
    capsys.readouterr()
    for argv in (("--x", "-1"), ("--nmax", "-1"),
                 ("--target", "F_minus_Fprime", "--x", "0")):
        code, _ = run_cli("verify", "cm", "--alpha", "1.5", *argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_cm_default_nmax_is_the_target_cap():
    for target, cap in (("recip_ML", 10), ("F_minus_Fprime", 10),
                        ("exp_ratio", 6)):
        code, out = run_cli("verify", "cm", "--alpha", "1.5",
                            "--target", target)
        assert code == 0, target
        assert json.loads(out)["params"]["n_max"] == cap


def test_verify_nonfinite_residual_exits_two():
    code, out = run_cli("verify", "laplace", "--alpha", "1.5", "--n", "20000",
                        "--lam", "0.5,nan")
    assert code == 2
    data = json.loads(out)
    assert data["max_abs_residual"] != data["max_abs_residual"]   # NaN
    assert not data["passed"]


def test_verify_lamperti_at_infinite_lambda_exits_one(capsys):
    # psi_integral's quadrature returns NaN at lam = inf, and a NaN
    # quadrature value raises instead of becoming a residual
    code, out = run_cli("verify", "lamperti", "--alpha", "1.5",
                        "--lam", "0.5,inf")
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_seed_exits_one(monkeypatch, capsys):
    for argv in (("sample", "--law", "valpha", "--alpha", "1.5", "--n", "5",
                  "--seed", "-1"),
                 ("simulate", "--alpha", "1.5", "--reflect", "sup",
                  "--steps", "4", "--paths", "5", "--seed", "-2"),
                 ("calibrate-bias", "--alpha", "1.5", "--ladder", "4,8,16",
                  "--paths", "100", "--seed", "-20")):
        assert run_cli(*argv)[0] == 1
        assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setenv("FRACSTABLE_SEED", "-3")
    assert run_cli("sample", "--law", "xhat", "--alpha", "1.5",
                   "--n", "5")[0] == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_one():
    assert run_cli("nonsense")[0] == 1
    assert run_cli("ml", "--alpha", "1.5")[0] == 1          # missing --x
    assert run_cli("ml", "--alpha", "1.5", "--x", "a,b")[0] == 1
    # domain violations surface as exit 1, not a traceback
    assert run_cli("moments", "--law", "x", "--alpha", "1.5",
                   "--s", "1.9")[0] == 1


_X_COMMANDS = (
    [("ml", "--alpha", "1.5")]
    + [("density", "--law", law, "--alpha", "1.5")
       for law in ("valpha", "yalpha", "zbeta", "iminus")]
    + [("fracop", "--op", op, "--function", "gauss", "--alpha", "1.5")
       for op in ("caputo", "delta-plus", "rl-left", "rl-left-am1",
                  "rl-right", "generator")])


@pytest.mark.parametrize("argv", _X_COMMANDS, ids=" ".join)
def test_nan_x_exits_one(argv, capsys):
    # these printed "nan" with exit 0, or failed with a misleading
    # "did not converge"; NaN now fails the domain guard itself
    code, out = run_cli(*argv, "--x", "nan")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "converge" not in err


_OVERFLOW_COMMANDS = (
    [("verify", "resolvent", "--alpha", "1.5", "--x", "800"),
     ("verify", "intertwining", "--alpha", "1.5", "--x", "1e300"),
     ("ml", "--alpha", "1.5", "--x", "1e300"),
     ("ml", "--alpha", "0.5", "--x", "800"),
     ("ml", "--alpha", "1.5", "--x", "inf", "--deriv", "1"),
     ("ml", "--alpha", "1.5", "--x", "inf", "--deriv", "2"),
     ("fracop", "--op", "generator", "--function", "gauss", "--alpha", "0.6",
      "--x", "1e300")]
    + [argv + ("--x", x) for argv in _X_COMMANDS if argv[0] == "fracop"
       for x in ("inf", "1e300")])


@pytest.mark.parametrize("argv", _OVERFLOW_COMMANDS, ids=" ".join)
def test_overflow_and_infinity_exit_one(argv, capsys):
    # these printed nan or inf with exit 0, or died with a bare
    # OverflowError traceback
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("function,alpha", [("x2exp", "1.5"),
                                             ("cauchy2", "1.8"),
                                             ("cauchy2", "1.5")])
def test_verify_resolvent_exits_one_where_the_u1_cut_is_not_negligible(
        function, alpha, capsys):
    # U_1 f stops its integrals at u = 50, which needs f to crush F's e^u
    # growth; the first two printed residuals 1.7e4 and 1.2e19 with exit 2
    code, out = run_cli("verify", "resolvent", "--function", function,
                        "--alpha", alpha)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cut u = 50" in err


def test_limit_values_at_infinity_stay():
    assert parse_csv(run_cli("ml", "--alpha", "1.5", "--x", "inf")[1])[1] \
        == [[math.inf, math.inf]]
    for law in ("valpha", "yalpha", "zbeta", "iminus"):
        code, out = run_cli("density", "--law", law, "--alpha", "1.5",
                            "--x", "inf,1e300")
        assert code == 0
        assert parse_csv(out)[1] == [[math.inf, 0.0], [1e300, 0.0]]


def test_installed_entry_point():
    # the child imports the package this suite imported, installed or not
    root = str(Path(fracstable.__file__).resolve().parents[1])
    path = [root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "fracstable.cli", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip()
