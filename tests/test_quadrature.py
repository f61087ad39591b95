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
    # one call for levels 0-3 (9 + 8 + 16 + 32 nodes), with every row on
    # its nodes; every row settles within them
    assert calls == [(2, 2, 65)]
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


def _per_level(fun, a, b, tol):
    """tanh_sinh as it ran before its levels were blocked: one integrand
    call per level on that level's new nodes, for scalar or array ends."""
    rows = np.ndim(a) or np.ndim(b)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    floor = tol / 1e4
    total = np.zeros(np.shape(b - a))
    val = err = np.full(total.shape, math.nan)
    for h, pa, pb, w in quadrature._TS_LEVELS:
        da, db = np.multiply.outer(b - a, pa), np.multiply.outer(b - a, pb)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = total + (fun(da, db) @ w if rows
                             else float(np.dot(w, fun(da, db))))
        prev, val = val, (b - a) * h * total
        err = np.abs(val - prev)
        if not np.all(np.isfinite(val)):
            break
        if np.all(err <= np.maximum(floor, tol * np.abs(val))):
            return val, err, h
    with np.errstate(invalid="ignore"):
        over = np.where(np.isfinite(val),
                        err / np.maximum(floor, tol * np.abs(val)), np.inf)
    i = np.unravel_index(np.argmax(over), over.shape)
    raise EvaluationError(
        "tanh-sinh value %.3g with level change %.3g is outside the "
        "tolerance budget" % (val[i], err[i]),
        partial=float(val[i]), bound=float(err[i]))


def _same_as_per_level(fun, a, b, tol):
    """Assert that tanh_sinh gives exactly what the per-level loop does,
    value and estimate or raise; return the per-level loop's last step."""
    try:
        ref = _per_level(fun, a, b, tol)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as got:
            tanh_sinh(fun, a, b, tol)
        assert str(got.value) == str(exc)
        for name in ("partial", "bound"):
            mine, theirs = getattr(got.value, name), getattr(exc, name)
            assert mine == theirs or (math.isnan(mine) and math.isnan(theirs))
        return None
    val, err = tanh_sinh(fun, a, b, tol)
    assert np.shape(val) == np.shape(ref[0])
    assert np.all(val == ref[0]) and np.all(err == ref[1])
    return ref[2]


def test_tanh_sinh_blocks_equal_the_per_level_rule_exactly():
    # the first call carries levels 0-3 and each later call one level, yet
    # an elementwise integrand gets the same value and estimate to the bit,
    # settled at the same level, as with one call per level
    rng = np.random.default_rng(29)
    steps = set()
    for _ in range(40):
        p, q = rng.uniform(0.3, 2.5, size=2)
        a = rng.uniform(-3.0, 3.0)
        b = a + 10.0 ** rng.uniform(-3.0, 1.0)
        c = rng.uniform(-2.0, 2.0)
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        fun = lambda da, db: da ** (p - 1.0) * db ** (q - 1.0) * np.exp(c * da)
        steps.add(_same_as_per_level(fun, a, b, tol))
        # rows: one integral per entry, each with its own exponents
        pr = rng.uniform(0.3, 2.5, size=(3, 1))
        ar = rng.uniform(-3.0, 3.0, size=3)
        br = ar + 10.0 ** rng.uniform(-3.0, 1.0, size=3)
        steps.add(_same_as_per_level(
            lambda da, db: da ** (pr - 1.0) * np.cos(c * db), ar, br, tol))
    assert len(steps - {None}) >= 3   # settled at several levels
    # a rule that settles at level 1 (step 1/2), before the block ends
    assert _same_as_per_level(lambda u, _: np.exp(-u), 0.0, 1.0, 1e-4) == 0.5
    scale = np.array([[1.0], [3.0]])
    assert _same_as_per_level(lambda u, _: scale * np.exp(-u), np.zeros(2),
                              np.ones(2), 1e-4) == 0.5


def test_tanh_sinh_blocks_raise_as_the_per_level_rule_does():
    # NaN at one level-2 node, where u^-0.9 has not settled: the per-level
    # rule breaks at level 2 and raises; the blocked rule saw that node in
    # its first call and must raise the same
    nan_at = quadrature._TS_LEVELS[2][1][3]
    spiked = lambda u, _: np.where(u == nan_at, math.nan, u ** -0.9)

    with pytest.raises(EvaluationError, match="nan"):
        _per_level(spiked, 0.0, 1.0, 1e-10)
    assert _same_as_per_level(spiked, 0.0, 1.0, 1e-10) is None
    assert _same_as_per_level(spiked, np.zeros(2), np.ones(2), 1e-10) is None
    # the same NaN is never seen where the rule settles at level 1
    assert _same_as_per_level(lambda u, _: np.where(u == nan_at, math.nan,
                                                    np.exp(-u)),
                              0.0, 1.0, 1e-4) == 0.5
    # never settles: past level 7 with the same message, partial and bound
    osc = lambda u, _: np.sin(1.0 / u) / u
    with pytest.raises(EvaluationError, match="tolerance budget"):
        _per_level(osc, 0.0, 1.0, 1e-8)
    assert _same_as_per_level(osc, 0.0, 1.0, 1e-8) is None
    bad = np.array([False, True, False])[:, None]
    calls = []

    def rows(u, _):
        calls.append(u.shape)
        return np.where(bad, osc(u, _), u)

    assert _same_as_per_level(rows, np.zeros(3), np.ones(3), 1e-8) is None
    # the blocked rule's calls: levels 0-3 at once, then each level's nodes
    blocked = calls[8:]
    assert blocked == [(3, 65), (3, 64), (3, 128), (3, 256), (3, 512)]
