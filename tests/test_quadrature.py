import math

import pytest

from fracstable import quadrature
from fracstable.errors import DomainError, EvaluationError
from fracstable.quadrature import REL_TOL, adaptive_quad


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
