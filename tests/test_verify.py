import math
import time

import mpmath as mp
import numpy as np
import pytest

from fracstable import specfun
from fracstable.errors import DomainError, EvaluationError
from fracstable.pathsim import PathConfig, Reflect, _ks_statistic
from fracstable.testfuncs import REGISTRY
from fracstable.verify import (CM_TARGETS, _finish, check_cm, check_factorization,
                               check_identity_law, check_intertwining,
                               check_lamperti, check_laplace_normalization,
                               check_rep, check_resolvent_generator,
                               exp_ratio_derivs, fmf_derivs, ks_two_sample,
                               ks_two_sample_arrays, recip_ml_derivs)

GAUSS = REGISTRY["gauss"]


def _assert_schema(report):
    d = report.to_dict()
    for key in ("check", "alpha", "params", "grid", "residuals",
                "max_abs_residual", "tolerance", "passed", "seed",
                "runtime_ms"):
        assert key in d
    assert len(d["grid"]) == len(d["residuals"])
    assert d["max_abs_residual"] == max(abs(r) for r in d["residuals"])
    assert d["passed"] == (d["max_abs_residual"] <= d["tolerance"])


def test_factorization_check():
    rep = check_factorization(1.5, np.linspace(-0.3, 1.2, 16))
    assert rep.passed and rep.max_abs_residual <= 1e-12
    _assert_schema(rep)


def test_intertwining_check_small_grid():
    rep = check_intertwining(GAUSS, 1.5, (0.5, 1.0, 2.0))
    assert rep.passed, rep.max_abs_residual
    _assert_schema(rep)


def test_intertwining_at_the_workload_strata_edges():
    # every (f, alpha) of criterion 3 at the ten edges of the benchmark's x
    # strata on [0.1, 5.0] and on both sides of the kernel's split at x = 1
    grid = [0.1 + k * 0.5444 for k in range(10)] + [1.0 - 1e-9, 1.0 + 1e-9]
    for name, f in REGISTRY.items():
        for a in (1.2, 1.5, 1.8):
            rep = check_intertwining(f, a, grid)
            assert rep.passed, (name, a, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", [1.03, 1.05, 1.1, 1.95, 1.98])
def test_intertwining_near_the_ends_of_the_alpha_range(alpha):
    rep = check_intertwining(GAUSS, alpha, [0.1, 1.0, 5.0])
    assert rep.passed and rep.max_abs_residual <= 1e-6, rep.max_abs_residual


def test_intertwining_at_alpha_1_02_passes_or_raises_evaluation_error():
    # u = (x/2) w^{1/(alpha-1)} underflows at the u = 0 end of the Caputo
    # panel; such nodes must never reach the kernel as u = 0
    try:
        rep = check_intertwining(GAUSS, 1.02, [0.1, 1.0, 5.0])
    except EvaluationError:
        return
    assert rep.passed, rep.max_abs_residual


def test_intertwining_rejects_function_outside_domain():
    from fracstable.fracops import SmoothTestFunction
    slow = SmoothTestFunction(
        eval_f=lambda x: 1.0 / (1.0 + x) ** 0.2,
        eval_f1=lambda x: -0.2 / (1.0 + x) ** 1.2,
        eval_f2=lambda x: 0.24 / (1.0 + x) ** 2.2,
        decay_gamma=2.0, fprime0_is_zero=False, name="slow")
    with pytest.raises(DomainError):
        check_intertwining(slow, 1.5, (1.0,))


def test_identity_law_check_modest_sizes():
    cfg = PathConfig(1.5, 4096, 3000, 42, Reflect.AtSupremum)
    rep = check_identity_law(1.5, 20_000, cfg)
    assert rep.passed, rep.to_dict()
    assert rep.tolerance == 1.0
    assert rep.seed == 42
    _assert_schema(rep)


def test_identity_law_rejects_tiny_samples():
    cfg = PathConfig(1.5, 512, 100, 42, Reflect.AtSupremum)
    with pytest.raises(DomainError):
        check_identity_law(1.5, 20_000, cfg)


def test_identity_law_rejects_a_config_of_another_law():
    # the check certifies X_1: reflected at the supremum, at horizon 1
    for cfg in (PathConfig(1.5, 512, 2000, 42, Reflect.AtInfimum),
                PathConfig(1.5, 512, 2000, 42, Reflect.AtSupremum,
                           horizon=2.0)):
        with pytest.raises(DomainError, match="supremum over horizon 1"):
            check_identity_law(1.5, 20_000, cfg)


def test_cm_checks():
    x_grid = (0.25, 1.0, 4.0)
    for target, n_max in (("recip_ML", 8), ("F_minus_Fprime", 8),
                          ("exp_ratio", 6)):
        rep = check_cm(target, 1.5, n_max, x_grid)
        assert rep.passed, (target, rep.max_abs_residual)
        _assert_schema(rep)
    with pytest.raises(DomainError):
        check_cm("recip_ML", 1.5, 11, x_grid)   # beyond the certified cap
    with pytest.raises(DomainError):
        check_cm("nonsense", 1.5, 4, x_grid)


def test_cm_limit_cases():
    # alpha = 1: 1/E_1(x) = e^{-x}; alpha = 2: 1/E_2(x^... ) = 1/cosh(sqrt x)
    g = recip_ml_derivs(1.0, 0.7, 4)
    for n, ref in enumerate(math.exp(-0.7) * np.array([1, -1, 1, -1, 1])):
        assert g[n] == pytest.approx(ref, rel=1e-9)
    h = recip_ml_derivs(2.0, 0.49, 0)
    assert h[0] == pytest.approx(1.0 / math.cosh(0.7), rel=1e-9)


def test_exp_ratio_matches_exponential_at_special_case():
    # exp(-x E'/E) has value e^{-x E'/E}; just check the 0th derivative
    vals = exp_ratio_derivs(1.5, 1.0, 0)
    assert 0.0 < vals[0] < 1.0


@pytest.mark.parametrize("target", sorted(CM_TARGETS))
def test_cm_rejects_bad_inputs_before_computing(target, monkeypatch):
    def never(*args):
        raise AssertionError("derivatives computed for a rejected input")

    _, slack, cap = CM_TARGETS[target]
    monkeypatch.setitem(CM_TARGETS, target, (never, slack, cap))
    with pytest.raises(DomainError):
        check_cm(target, 1.5, -1, (1.0,))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            check_cm(target, 1.5, 2, (1.0, bad))
    if target == "F_minus_Fprime":
        # F' ~ x^(alpha-1): the derivatives are singular at 0
        with pytest.raises(DomainError):
            check_cm(target, 1.5, 2, (1.0, 0.0))
    else:
        monkeypatch.undo()
        assert check_cm(target, 1.5, 2, (0.0,)).passed


def test_nan_residual_fails_the_report():
    rep = _finish("probe", 1.5, {}, [(0, 0.0), (1, math.nan)], 1.0,
                  time.perf_counter())
    assert math.isnan(rep.max_abs_residual)
    assert not rep.passed


def test_cm_nan_derivative_fails(monkeypatch):
    _, slack, cap = CM_TARGETS["recip_ML"]
    monkeypatch.setitem(CM_TARGETS, "recip_ML",
                        (lambda a, x, n: [1.0, math.nan], slack, cap))
    rep = check_cm("recip_ML", 1.5, 1, (1.0,))
    assert math.isnan(rep.max_abs_residual)
    assert not rep.passed


def test_cm_far_out_does_not_overflow():
    g = recip_ml_derivs(1.2, 200.0, 8)
    assert all(math.isfinite(v) for v in g)
    assert all((-1) ** n * v > 0.0 for n, v in enumerate(g))


def test_term_budget_raises_evaluation_error(monkeypatch):
    monkeypatch.setattr(specfun, "JET_MAX_TERMS", 5)
    with pytest.raises(EvaluationError) as info:
        fmf_derivs(1.5, 10.0, 2)
    assert len(info.value.partial) == 4
    assert all(mp.isfinite(v) for v in info.value.partial)
    assert mp.isfinite(info.value.bound) and info.value.bound > 0


# Reference routes the jet replaced: numerical differentiation of a separate
# 40-digit E series, and a term loop for F - F' with explicit pole guards.

def _exp_ratio_by_mp_diff(alpha, x, n_max):
    with mp.workdps(40):
        am = mp.mpf(alpha)

        def E(z, d=0):
            total = mp.mpf(0)
            n = d
            while True:
                c = mp.mpf(1)
                for j in range(d):
                    c *= n - j
                t = c * z ** (n - d) / mp.gamma(am * n + 1)
                total += t
                if n > d + 3 and t < total * mp.mpf("1e-45"):
                    break
                n += 1
            return total

        h = lambda z: mp.e ** (-z * E(z, 1) / E(z, 0))
        return [float(mp.diff(h, mp.mpf(x), n)) for n in range(n_max + 1)]


def _fmf_by_term_loop(alpha, x, n_max):
    dps = int(30 + 0.5 * x)
    out = []
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        xm = mp.mpf(x)
        for n in range(n_max + 1):
            total = mp.mpf(0)
            k = 0
            while True:
                t = mp.mpf(0)
                a1 = am * k + 1 - n
                if not (a1 <= 0 and a1 == int(a1)):
                    t += xm ** (am * k - n) / mp.gamma(a1)
                a2 = am * k - n
                if not (a2 <= 0 and a2 == int(a2)):
                    t -= xm ** (am * k - 1 - n) / mp.gamma(a2)
                total += t
                if am * k > x + n and abs(t) < abs(total) * mp.mpf(10) ** -dps:
                    break
                k += 1
            out.append(float(total))
    return out


def test_exp_ratio_derivs_match_numerical_differentiation():
    # orders 0..3 keep mp.diff under a second
    for a in (1.2, 1.5, 1.8):
        for x in (0.1, 1.0, 10.0):
            assert exp_ratio_derivs(a, x, 3) == pytest.approx(
                _exp_ratio_by_mp_diff(a, x, 3), rel=1e-12)


def test_fmf_derivs_match_term_loop():
    for a in (1.2, 1.5, 1.8):
        for x in (0.1, 1.0, 10.0):
            assert fmf_derivs(a, x, 8) == pytest.approx(
                _fmf_by_term_loop(a, x, 8), rel=1e-12)


def test_resolvent_generator_check():
    rep = check_resolvent_generator(GAUSS, 1.5, (0.5, 1.5))
    assert rep.passed, rep.max_abs_residual
    _assert_schema(rep)


def test_lamperti_check():
    rep = check_lamperti(1.5, (0.5, 1.0, 2.0, 5.0))
    assert rep.passed and rep.max_abs_residual <= 1e-6
    _assert_schema(rep)


def test_rep_check():
    for a in (1.2, 1.3, 1.5, 1.8):
        rep = check_rep(a, (0.5, 1.0, 2.0, 4.0, 9.5))
        assert rep.passed and rep.max_abs_residual <= 1e-4, a
        _assert_schema(rep)


def test_laplace_normalization_check():
    rep = check_laplace_normalization(1.5, (0.25, 0.5, 1.0), 100_000, 7)
    assert rep.passed, rep.max_abs_residual
    _assert_schema(rep)
    with pytest.raises(DomainError):
        check_laplace_normalization(1.5, (0.5,), 100, 7)


def test_ks_two_sample_behavior():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000)
    same = ks_two_sample(a, b)
    assert not same.reject
    assert 0.0 <= same.statistic <= 1.0
    shifted = ks_two_sample(a, b + 0.5)
    assert shifted.reject
    assert shifted.statistic > same.statistic
    with pytest.raises(DomainError):
        ks_two_sample(a, np.array([]))
    # exact degenerate case: identical samples have zero distance
    assert ks_two_sample_arrays(a, a) == 0.0


def _ks_pooled(a, b):
    # the reference: both empirical CDFs at every point of the pooled sample
    data = np.concatenate([a, b])
    data.sort(kind="mergesort")
    ca = np.searchsorted(np.sort(a), data, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), data, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def test_pathsim_and_verify_ks_statistics_agree_bitwise():
    # pathsim's statistic is verify's, and both agree exactly with the
    # pooled-sort reference
    rng = np.random.default_rng(3)
    a = rng.standard_normal(1500)
    b = rng.standard_normal(2300)
    ties_a = rng.integers(0, 12, 900).astype(float)
    ties_b = rng.integers(0, 12, 1400).astype(float)
    one = np.array([0.25])
    big = rng.standard_normal(100_000)
    small = np.concatenate([rng.choice(big, 1000), rng.standard_normal(1000)])
    cases = [(a, b), (ties_a, ties_b), (ties_a, ties_a[:300]),
             (a, b + 0.3), (a, a + 1e-9),
             (one, one), (one, a), (one, one + 1.0),   # length 1
             (a, b + 20.0), (ties_a, ties_b - 20.0),   # wholly apart
             (a, np.concatenate([a[:700], b])),        # shared values
             (ties_a, np.concatenate([ties_b, a])),
             (small, big)]                             # identity-law sizes
    for x, y in cases:
        for p, q in ((x, y), (y, x)):
            assert _ks_statistic(p, q) == ks_two_sample_arrays(p, q) \
                == _ks_pooled(p, q)
    assert ks_two_sample_arrays(one, one + 1.0) == 1.0
    assert ks_two_sample_arrays(a, b + 20.0) == 1.0
