import math

import numpy as np
import pytest

from fracstable import quadrature
from fracstable.errors import DomainError, EvaluationError
from fracstable.quadrature import REL_TOL, adaptive_quad, tanh_sinh
from fracstable.specfun import F_family, ml_jet


def test_error_estimate_beyond_budget_raises_with_partial_and_bound(
        monkeypatch):
    # sin(1/x)/x oscillates without bound near 0; eight subdivisions
    # cannot resolve it, and the integrator's estimate says so
    monkeypatch.setattr(quadrature, "_LIMIT", 8)
    with pytest.raises(EvaluationError, match="tolerance budget") as exc:
        adaptive_quad(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0)
    err = exc.value
    assert math.isfinite(err.partial) and math.isfinite(err.bound)
    assert err.bound > 100.0 * max(REL_TOL / 1e4, REL_TOL * abs(err.partial))


def test_tolerance_must_be_positive_and_value_finite():
    # a NaN tolerance once passed, and a NaN error estimate failed the
    # budget comparison, so NaN came back as a value
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            adaptive_quad(math.exp, 0.0, 1.0, tol)
    with pytest.raises(EvaluationError, match="tolerance budget"):
        adaptive_quad(lambda x: math.nan, 0.0, 1.0)


def test_tanh_sinh_closed_forms_with_endpoint_singularities():
    # int_a^b (t-a)^(p-1) (b-t)^(q-1) dt = (b-a)^(p+q-1) B(p, q); p = alpha
    # is the u^(alpha-1) that F' has at 0, and b - t is a node distance
    from scipy.special import beta

    for p in (1.05, 1.5, 1.95, 0.5):
        for q in (1.0, 0.7):
            for a, b in ((0.0, 1.0), (2.0, 5.0)):
                val, err = tanh_sinh(
                    lambda da, db: da ** (p - 1.0) * db ** (q - 1.0),
                    a, b, 1e-10)
                ref = (b - a) ** (p + q - 1.0) * beta(p, q)
                assert val == pytest.approx(ref, rel=1e-13), (p, q, a, b)
                assert err <= 1e-10 * abs(val)


def _conv_cross(alpha, x, kind):
    """The resolvent convolution int_0^x F'(u) f(x-u) du or the cross term
    int_0^50 F'(u) f(x+u) du for f = gauss, on tanh_sinh and on
    adaptive_quad."""
    f = lambda v: np.exp(-v * v)
    if kind == "conv":
        ts, _ = tanh_sinh(lambda u, v: F_family(alpha, u, 1) * f(v),
                          0.0, x, 1e-9)
        aq, _ = adaptive_quad(lambda u: F_family(alpha, u, 1) * f(x - u),
                              0.0, x, 1e-9)
    else:
        ts, _ = tanh_sinh(lambda u, _: F_family(alpha, u, 1) * f(x + u),
                          0.0, 50.0, 1e-9)
        aq, _ = adaptive_quad(lambda u: F_family(alpha, u, 1) * f(x + u),
                              0.0, 50.0, 1e-9)
    return ts, aq


def test_tanh_sinh_matches_adaptive_quad_on_resolvent_integrands():
    for a in (1.2, 1.5, 1.8):
        for x in (0.3, 1.7, 2.9):
            for kind in ("conv", "cross"):
                ts, aq = _conv_cross(a, x, kind)
                assert ts == pytest.approx(aq, rel=1e-9), (a, x, kind)


def test_tanh_sinh_resolvent_integrands_match_mpmath():
    # 30-digit references; at (1.8, 2.9) adaptive_quad is off by 9e-11
    import mpmath as mp

    for a, x, kind in ((1.8, 2.9, "conv"), (1.2, 0.3, "conv"),
                       (1.5, 1.0, "cross")):
        with mp.workdps(30):
            fp = lambda u: ml_jet(a, u, 1, p=a)[1]
            if kind == "conv":
                ref = mp.quad(lambda u: fp(u) * mp.exp(-(x - u) ** 2),
                              [0, x])
            else:
                ref = mp.quad(lambda u: fp(u) * mp.exp(-(x + u) ** 2),
                              [0, 1, 3, 8, 50])
        assert _conv_cross(a, x, kind)[0] == pytest.approx(float(ref),
                                                           rel=1e-15)


def test_tanh_sinh_raises_where_levels_never_settle():
    # the nodes crowd toward 0, where sin(1/u)/u oscillates without bound
    with pytest.raises(EvaluationError, match="tolerance budget") as exc:
        tanh_sinh(lambda u, _: np.sin(1.0 / u) / u, 0.0, 1.0, 1e-8)
    err = exc.value
    assert math.isfinite(err.partial) and math.isfinite(err.bound)
    assert err.bound > 1e-8 * abs(err.partial)
    with pytest.raises(EvaluationError, match="tolerance budget"):
        tanh_sinh(lambda u, _: np.full(u.shape, math.nan), 0.0, 1.0, 1e-8)
    for tol in (0.0, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            tanh_sinh(lambda u, _: u, 0.0, 1.0, tol)


def test_tanh_sinh_rows_integrate_one_family_member_each():
    # arrays a and b: one integral per entry, each as the scalar rule finds
    # it (rows may run more levels, settling closer to the closed form)
    from scipy.special import beta

    p = np.array([[1.05, 1.5], [1.95, 0.5]])
    a = np.array([[0.0, 2.0], [0.0, -1.0]])
    b = np.array([[1.0, 5.0], [1e-3, 3.0]])
    calls = []

    def fun(da, db):
        calls.append(da.shape)
        return da ** (p[..., None] - 1.0) * db ** -0.3

    val, err = tanh_sinh(fun, a, b, 1e-10)
    assert val.shape == err.shape == a.shape
    ref = (b - a) ** (p - 0.3) * beta(p, 0.7)
    assert val == pytest.approx(ref, rel=1e-13)
    assert np.all(err <= 1e-10 * np.abs(val))
    # one call per level, each with every row on that level's nodes
    assert calls[0] == (2, 2, 9) and calls[1] == (2, 2, 8)
    for i in np.ndindex(a.shape):
        one, _ = tanh_sinh(lambda da, db: da ** (p[i] - 1.0) * db ** -0.3,
                           a[i], b[i], 1e-10)
        assert val[i] == pytest.approx(one, rel=1e-12)


def test_tanh_sinh_rows_raise_with_the_worst_row():
    # the row that never settles is raised, whatever its neighbours do
    a, b = np.zeros(3), np.ones(3)
    bad = np.array([False, True, False])[:, None]
    with pytest.raises(EvaluationError, match="tolerance budget") as exc:
        tanh_sinh(lambda u, _: np.where(bad, np.sin(1.0 / u) / u, u),
                  a, b, 1e-8)
    alone = pytest.raises(EvaluationError)
    with alone as one:
        tanh_sinh(lambda u, _: np.sin(1.0 / u) / u, 0.0, 1.0, 1e-8)
    assert exc.value.partial == pytest.approx(one.value.partial, rel=1e-12)
    assert exc.value.bound == pytest.approx(one.value.bound, rel=1e-12)
    with pytest.raises(EvaluationError, match="nan"):
        tanh_sinh(lambda u, _: np.where(bad, math.nan, u), a, b, 1e-8)
