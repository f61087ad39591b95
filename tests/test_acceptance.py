"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Each criterion prints its verdict directly to the terminal (bypassing
capture) so a plain `pytest -v` run shows the ten lines.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from fracstable.dist import (iminus_moment, iminus_pdf, iminus_tail_integral,
                             mom_V, positive_stable_sample,
                             stable_increment_sample, valpha_moment_quad,
                             valpha_sample)
from fracstable.errors import DomainError
from fracstable.pathsim import PathConfig, Reflect
from fracstable.specfun import GeneralIndex, theta_root
from fracstable.testfuncs import REGISTRY
from fracstable.verify import (check_cm, check_factorization,
                               check_identity_law, check_intertwining,
                               check_lamperti, check_rep,
                               check_resolvent_generator, recip_ml_derivs)

ALPHAS = (1.2, 1.5, 1.8)


def _report(capsys, num, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print("ACCEPTANCE CRITERION %2d (%s): %s  %s"
              % (num, name, verdict, detail))
    assert passed, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_01_moment_factorization(capsys):
    reps = []
    for a in [round(1.0 + 0.1 * k, 1) for k in range(1, 10)]:
        lo, hi = 1.0 - a, a
        reps.append(check_factorization(
            a, np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 10)))
    assert all(rep.tolerance == 1e-12 for rep in reps)
    worst = max(rep.max_abs_residual for rep in reps)
    _report(capsys, 1, "moment factorization",
            all(rep.passed for rep in reps),
            "max rel residual %.3g" % worst)


def test_criterion_02_moments_vs_quadrature(capsys):
    worst = 0.0
    guard_ok = True
    for a in ALPHAS:
        for s in (-0.4, 0.25, 0.5, 0.75):
            if s <= 1.0 - a:   # outside the moment strip: both must refuse
                try:
                    mom_V(a, s)
                    guard_ok = False
                except DomainError:
                    pass
                try:
                    valpha_moment_quad(a, s)
                    guard_ok = False
                except DomainError:
                    pass
                continue
            rel = abs(valpha_moment_quad(a, s) - mom_V(a, s)) \
                / abs(mom_V(a, s))
            worst = max(worst, rel)
        mean_err = abs(valpha_moment_quad(a, 1.0) - 1.0)
        ok_mean = mean_err <= 1e-8
        worst = max(worst, 0.0 if ok_mean else mean_err)
    passed = worst <= 1e-6 and guard_ok
    _report(capsys, 2, "moment-vs-density consistency", passed,
            "max rel %.3g, strip guard %s" % (worst, guard_ok))


def test_criterion_03_intertwining(capsys):
    grid = np.linspace(0.1, 5.0, 25)
    worst = 0.0
    all_ok = True
    for name in ("gauss", "cauchy2", "x2exp"):
        for a in ALPHAS:
            rep = check_intertwining(REGISTRY[name], a, grid)
            assert rep.tolerance == 1e-3
            assert rep.params["abs_floor"] == 1e-6
            worst = max(worst, rep.max_abs_residual)
            all_ok = all_ok and rep.passed
    _report(capsys, 3, "intertwining relation", all_ok,
            "max normalized residual %.3g (tol 1e-3)" % worst)


def test_criterion_04_identity_in_law(capsys):
    cfg = PathConfig(1.5, 4096, 10_000, 42, Reflect.AtSupremum)
    rep = check_identity_law(1.5, 100_000, cfg)
    _report(capsys, 4, "identity in law", rep.passed,
            "max normalized residual %.3g (KS %.4g vs limit %.4g)"
            % (rep.max_abs_residual, rep.params["ks_statistic"],
               rep.params["ks_threshold"] + rep.params["ks_allowance"]))


def test_criterion_05_lamperti_exponent(capsys):
    reps = [check_lamperti(a, (0.5, 1.0, 2.0, 5.0)) for a in ALPHAS]
    assert all(rep.tolerance == 1e-6 for rep in reps)
    worst = max(rep.max_abs_residual for rep in reps)
    root_err = abs(theta_root(GeneralIndex(1.5, 0.0, 1.0)) - 1.0)
    passed = all(rep.passed for rep in reps) and root_err <= 1e-10
    _report(capsys, 5, "Lamperti exponent", passed,
            "max rel %.3g, root error %.3g" % (worst, root_err))


def test_criterion_06_complete_monotonicity(capsys):
    x_grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    worst = 0.0
    all_ok = True
    for a in ALPHAS:
        for target, n_max, slack in (("recip_ML", 8, 1e-10),
                                     ("F_minus_Fprime", 8, 1e-10),
                                     ("exp_ratio", 6, 1e-6)):
            rep = check_cm(target, a, n_max, x_grid)
            assert rep.tolerance == slack
            all_ok = all_ok and rep.passed
            worst = max(worst, rep.max_abs_residual)
    # limit cases: alpha = 1 gives derivatives of e^{-x}; alpha = 2 gives
    # derivatives of 1/cosh(sqrt x)
    lim_err = 0.0
    for x in (0.5, 1.0, 4.0):
        g1 = recip_ml_derivs(1.0, x, 6)
        for n, v in enumerate(g1):
            lim_err = max(lim_err,
                          abs(v - (-1.0) ** n * math.exp(-x)))
        g2 = recip_ml_derivs(2.0, x, 4)
        with mp.workdps(40):
            for n, v in enumerate(g2):
                ref = float(mp.diff(lambda z: 1.0 / mp.cosh(mp.sqrt(z)),
                                    mp.mpf(x), n))
                lim_err = max(lim_err, abs(v - ref))
    passed = all_ok and lim_err <= 1e-9
    _report(capsys, 6, "complete monotonicity", passed,
            "max violation %.3g, limit-case error %.3g" % (worst, lim_err))


def test_criterion_07_resolvent_suite(capsys):
    from fracstable.resolvent import u1_mass, uhat1_mass
    mass_err = 0.0
    for a in ALPHAS:
        for x in (0.0, 0.7, 3.0):
            mass_err = max(mass_err, abs(uhat1_mass(a, x) - 1.0),
                           abs(u1_mass(a, x) - 1.0))
    rep = check_resolvent_generator(REGISTRY["gauss"], 1.5,
                                    np.linspace(0.2, 3.0, 10))
    assert rep.tolerance == 1e-3
    assert rep.params["boundary_tolerance"] == 1e-4
    passed = mass_err <= 1e-6 and rep.passed
    _report(capsys, 7, "resolvent suite", passed,
            "mass error %.3g, generator residual %.3g"
            % (mass_err, rep.max_abs_residual))


def test_criterion_08_recurrent_extension(capsys):
    from scipy.integrate import quad
    assert iminus_moment(1.5, 0.0) == 1.0
    mass, _ = quad(lambda t: iminus_pdf(1.5, t), 0.12, np.inf, limit=400)
    norm_err = abs(mass - iminus_tail_integral(1.5, 0.12))
    rep = check_rep(1.5, np.linspace(0.5, 2.0, 7))
    assert rep.tolerance == 1e-4
    passed = norm_err <= 1e-5 and rep.passed
    _report(capsys, 8, "recurrent-extension formula", passed,
            "normalization error %.3g, max rel residual %.3g"
            % (norm_err, rep.max_abs_residual))


def test_criterion_09_sampler_oracles(capsys):
    n = 1_000_000
    worst_z = 0.0
    for a in ALPHAS:
        t1 = positive_stable_sample(a, n, 101)
        z1 = stable_increment_sample(a, n, 103)
        for lam in (0.25, 0.5, 1.0):
            w = np.exp(-lam * t1)
            z = abs(w.mean() - math.exp(-lam ** (1.0 / a))) \
                / (w.std() / math.sqrt(n))
            worst_z = max(worst_z, z)
            w = np.exp(lam * z1)
            z = abs(w.mean() - math.exp(lam ** a)) \
                / (w.std() / math.sqrt(n))
            worst_z = max(worst_z, z)
    _report(capsys, 9, "sampler oracles", worst_z <= 3.0,
            "worst deviation %.2f standard errors" % worst_z)


def test_criterion_10_determinism(capsys):
    from fracstable.verify import check_laplace_normalization

    def strip(report):
        d = report.to_dict()
        d.pop("runtime_ms")
        return json.dumps(d, sort_keys=True).encode()

    r1 = strip(check_laplace_normalization(1.5, (0.5, 1.0), 50_000, 5))
    r2 = strip(check_laplace_normalization(1.5, (0.5, 1.0), 50_000, 5))
    cfg = PathConfig(1.5, 256, 2000, 9, Reflect.AtSupremum)
    i1 = strip(check_identity_law(1.5, 20_000, cfg))
    i2 = strip(check_identity_law(1.5, 20_000, cfg))
    s1 = valpha_sample(1.5, 10_000, 3).tobytes()
    s2 = valpha_sample(1.5, 10_000, 3).tobytes()
    passed = r1 == r2 and i1 == i2 and s1 == s2
    _report(capsys, 10, "determinism", passed,
            "seeded reruns byte-identical")
