import math

import pytest

from fracstable import fracops
from fracstable.errors import DomainError, EvaluationError
from fracstable.fracops import (SmoothTestFunction, caputo, delta_plus,
                                is_in_domain_D, reflected_generator_general,
                                rl_left_alpha, rl_left_alpha_minus1, rl_right)
from fracstable.quadrature import REL_TOL
from fracstable.specfun import GeneralIndex
from fracstable.testfuncs import REGISTRY

GAUSS = REGISTRY["gauss"]

# arbitrary-precision quadrature oracles for the gauss test function
CAPUTO_GAUSS = {1.0: -0.2470639893096767, 3.0: 0.10594903625008733}
RLRIGHT_GAUSS = {1.0: 0.85749971476676674, 3.0: 0.001776326012941228}


def _exp_lambda(lam):
    return SmoothTestFunction(
        eval_f=lambda x: math.exp(-lam * x),
        eval_f1=lambda x: -lam * math.exp(-lam * x),
        eval_f2=lambda x: lam * lam * math.exp(-lam * x),
        decay_gamma=6.0, fprime0_is_zero=False, name="exp")


def test_registry_functions_are_in_domain():
    for name, f in REGISTRY.items():
        ok, diag = is_in_domain_D(f, 1.2)
        assert ok, (name, diag)


def test_caputo_gauss_oracle():
    for x, ref in CAPUTO_GAUSS.items():
        assert caputo(GAUSS, 1.5, x) == pytest.approx(ref, rel=1e-8)


def test_caputo_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        caputo(GAUSS, 1.5, 0.0)


def test_delta_plus_equals_caputo_when_fprime0_vanishes():
    for x in (0.5, 1.0, 3.0):
        assert delta_plus(GAUSS, 1.5, x) == pytest.approx(
            caputo(GAUSS, 1.5, x), rel=1e-12, abs=1e-14)


def test_rl_right_gauss_oracle():
    for x, ref in RLRIGHT_GAUSS.items():
        assert rl_right(GAUSS, 1.5, x) == pytest.approx(ref, rel=1e-8)


def test_rl_right_exponential_eigenrelation():
    # int_0^inf w^{1-alpha} lam^2 e^{-lam(x+w)} dw / Gamma(2-alpha)
    # = lam^alpha e^{-lam x}: the exponential is an eigenfunction
    for alpha in (1.2, 1.5, 1.8):
        for lam in (0.5, 1.0, 2.0):
            f = _exp_lambda(lam)
            for x in (0.0, 1.0, 3.0):
                expected = lam ** alpha * math.exp(-lam * x)
                assert rl_right(f, alpha, x) == pytest.approx(expected,
                                                              rel=2e-6)


def test_rl_left_consistency():
    # composing the order-(alpha-1) left derivative with one more classical
    # derivative is consistent with the order-alpha left derivative:
    # numerically differentiate rl_left_alpha_minus1 and compare
    alpha, x, h = 1.5, 1.0, 1e-5
    lo = rl_left_alpha_minus1(GAUSS, alpha, x - h)
    hi = rl_left_alpha_minus1(GAUSS, alpha, x + h)
    assert (hi - lo) / (2 * h) == pytest.approx(
        rl_left_alpha(GAUSS, alpha, x), rel=1e-4)


def test_generator_one_sided_matches_delta_plus():
    # jump weight 1/Gamma(-alpha) normalizes the exponent to lam^alpha,
    # under which the generator reduces to the one-sided operator
    idx = GeneralIndex(1.5, 0.0, 1.0 / math.gamma(-1.5))
    for x in (0.5, 1.0, 2.0):
        assert reflected_generator_general(GAUSS, idx, x) == pytest.approx(
            delta_plus(GAUSS, 1.5, x), rel=1e-9, abs=1e-12)


def test_generator_below_one_runs():
    idx = GeneralIndex(0.6, 1.0, 1.0)
    val = reflected_generator_general(GAUSS, idx, 1.0)
    assert math.isfinite(val)


def test_domain_rejects_bad_decay():
    slow = SmoothTestFunction(
        eval_f=lambda x: 1.0 / (1.0 + x) ** 0.2,
        eval_f1=lambda x: -0.2 / (1.0 + x) ** 1.2,
        eval_f2=lambda x: 0.24 / (1.0 + x) ** 2.2,
        decay_gamma=2.0, fprime0_is_zero=False, name="slow")
    ok, diag = is_in_domain_D(slow, 1.5)
    assert not ok


def test_smooth_test_function_validates_derivatives():
    wrong = SmoothTestFunction(
        eval_f=lambda x: math.exp(-x * x),
        eval_f1=lambda x: math.exp(-x * x),      # not the derivative
        eval_f2=lambda x: math.exp(-x * x),
        decay_gamma=6.0, fprime0_is_zero=True, name="wrong")
    with pytest.raises(DomainError):
        wrong.validate()


def test_rl_right_domain_guard():
    # certified decay too weak relative to the operator order (needs
    # decay_gamma > 2 - alpha for a convergent improper-tail bound)
    weak = SmoothTestFunction(
        eval_f=lambda x: (1.0 + x) ** -0.3,
        eval_f1=lambda x: -0.3 * (1.0 + x) ** -1.3,
        eval_f2=lambda x: 0.39 * (1.0 + x) ** -2.3,
        decay_gamma=0.05, fprime0_is_zero=False, name="weak")
    with pytest.raises(DomainError):
        rl_right(weak, 1.9, 1.0)


def test_rl_right_improper_tail_beyond_budget_raises(monkeypatch):
    # cauchy2 is certified with decay exponent 1 only, so cutting the
    # improper integral at 2 leaves a tail bound far above the budget
    f = REGISTRY["cauchy2"]
    assert math.isfinite(rl_right(f, 1.5, 0.5))
    monkeypatch.setattr(fracops, "TAIL_CUTOFF", 2.0)
    with pytest.raises(EvaluationError, match="improper-tail") as exc:
        rl_right(f, 1.5, 0.5)
    err = exc.value
    assert math.isfinite(err.partial) and math.isfinite(err.bound)
    assert err.bound > 1e3 * max(REL_TOL / 1e4, REL_TOL * abs(err.partial))
