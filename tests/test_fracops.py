import math

import mpmath as mp
import numpy as np
import pytest

from fracstable import fracops
from fracstable.dist import kernel_apply_d2
from fracstable.errors import DomainError, EvaluationError
from fracstable.fracops import (SmoothTestFunction, _caputo_core, caputo,
                                delta_plus, is_in_domain_D,
                                reflected_generator_general, rl_left_alpha,
                                rl_left_alpha_minus1, rl_right)
from fracstable.gammafn import gamma
from fracstable.quadrature import REL_TOL, adaptive_quad
from fracstable.specfun import GeneralIndex
from fracstable.testfuncs import REGISTRY

GAUSS = REGISTRY["gauss"]

# arbitrary-precision quadrature oracles for the gauss test function
CAPUTO_GAUSS = {1.0: -0.2470639893096767, 3.0: 0.10594903625008733}
RLRIGHT_GAUSS = {1.0: 0.85749971476676674, 3.0: 0.001776326012941228}


def _exp_lambda(lam):
    return SmoothTestFunction(
        eval_f=lambda x: np.exp(-lam * x),
        eval_f1=lambda x: -lam * np.exp(-lam * x),
        eval_f2=lambda x: lam * lam * np.exp(-lam * x),
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


def _caputo_core_quad(d2, alpha, x, tol):
    """The Caputo integral by one scalar QUADPACK call, a second route:
    u = x(1 - s^{1/(2-alpha)}) on [0, 1], with a breakpoint reserving the
    tenth of [0, x] at u = 0, as _caputo_core computed it before it ran on
    the tanh-sinh rule."""
    p = 1.0 / (2.0 - alpha)
    pref = x ** (2.0 - alpha) / ((2.0 - alpha) * gamma(2.0 - alpha))
    val, _ = adaptive_quad(lambda s: d2(x * (1.0 - s ** p)), 0.0, 1.0, tol,
                           points=[0.9 ** (2.0 - alpha)])
    return pref * val


def test_caputo_core_matches_quadpack_route():
    for name, f in REGISTRY.items():
        for a in (1.2, 1.5, 1.8):
            for x in (0.1, 0.7, 2.0, 5.0):
                ref = _caputo_core_quad(f.eval_f2, a, x, REL_TOL)
                assert caputo(f, a, x) == pytest.approx(ref, rel=1e-8,
                                                        abs=1e-14)
    # composed with the kernel, as the intertwining check's left side: the
    # route the issue's 1,261 scalar calls took for gauss at 1.2, x = 0.7
    for name, a, x in (("gauss", 1.2, 0.7), ("cauchy2", 1.8, 2.0)):
        f = REGISTRY[name]
        d2 = lambda u: kernel_apply_d2(f, a, u)
        val, err = _caputo_core(d2, a, x, 1e-7)
        assert val == pytest.approx(_caputo_core_quad(d2, a, x, 1e-7),
                                    rel=1e-7)
        assert 0.0 <= err <= 1e-7 * abs(val) * 100.0


def _moment_expansion(name, alpha, x, order):
    """int_0^x f^{(order)}(u) (x-u)^{1-alpha} du / G(2-alpha) from
    x^{1-alpha} sum_k C(1-alpha, k) (-1)^k m_k x^{-k} / G(2-alpha), with
    m_k = int_0^inf u^k f^{(order)}(u) du in closed form; exact up to
    terms of the size of f's tail beyond x."""
    def m(k):
        # by parts: m_k = k(k-1) int u^{k-2} f (order 2), -k int u^{k-1} f
        # (order 1), with int u^j f = G((j+1)/2)/2 (gauss), G(j+3) (x2exp)
        mom = ((lambda j: math.gamma((j + 1) / 2.0) / 2.0) if name == "gauss"
               else (lambda j: math.gamma(j + 3.0)))
        f0, f1 = (1.0, 0.0) if name == "gauss" else (0.0, 0.0)
        if order == 1:
            return -f0 if k == 0 else -k * mom(k - 1)
        return (-f1, f0)[k] if k < 2 else k * (k - 1) * mom(k - 2)

    total, c = 0.0, 1.0
    for k in range(40):
        total += c * (-1) ** k * m(k) * x ** -k
        c *= (1.0 - alpha - k) / (k + 1.0)
    return x ** (1.0 - alpha) * total / math.gamma(2.0 - alpha)


def _cauchy2_mp(alpha, x, order):
    d = ((lambda u: (6 * u * u - 2) / (1 + u * u) ** 3) if order == 2
         else (lambda u: -2 * u / (1 + u * u) ** 2))
    with mp.workdps(30):
        X = mp.mpf(x)
        pts = [mp.mpf(0)] + [mp.mpf(10) ** j
                             for j in range(-2, int(math.log10(x)))]
        val = mp.quad(lambda u: d(u) * (X - u) ** (1 - alpha),
                      pts + [X / 2, X])
        return float(val / mp.gamma(2 - alpha))


@pytest.mark.parametrize("name", ["gauss", "x2exp", "cauchy2"])
def test_caputo_scale_scan_is_right_or_raises(name):
    # the Caputo integral and the order alpha-1 and alpha derivatives at
    # x = 1e2..1e12: each value within 1e-6 relative of its reference, or
    # EvaluationError.  At 1e5 the old QUADPACK route gave 4.5e-214 for
    # gauss at 1.5, against 8.92e-9, and 0.0 from 3e5.  Past 1e8 the order
    # alpha-1 derivative's two terms cancel to 1e-2 of a Caputo integral
    # good to ~1e-15.  The order alpha one returned 2.779841e-15 for gauss
    # at 1.8, x = 1e5, against 2.779853e-15, before it raised
    f = REGISTRY[name]
    answered = 0
    for a in (1.2, 1.5, 1.8):
        for k in range(2, 13):
            x = 10.0 ** k
            # e: the exponent of the f(0) boundary term x^e / G(1 + e)
            for op, order, e in ((caputo, 2, None),
                                 (rl_left_alpha_minus1, 1, 1.0 - a),
                                 (rl_left_alpha, 2, -a)):
                if name == "cauchy2":
                    ref = _cauchy2_mp(a, x, order)
                else:
                    ref = _moment_expansion(name, a, x, order)
                if e is not None:
                    ref += f.eval_f(0.0) * x ** e / math.gamma(1.0 + e)
                try:
                    val = op(f, a, x)
                except EvaluationError:
                    continue
                answered += 1
                assert val == pytest.approx(ref, rel=1e-6, abs=0.0), (op, x)
    assert answered >= 10
