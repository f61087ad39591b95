import math

import pytest

from fracstable.errors import EvaluationError
from fracstable.quadrature import QuadratureConfig, adaptive_quad


def test_error_estimate_beyond_budget_raises_with_partial_and_bound():
    # sin(1/x)/x oscillates without bound near 0; eight subdivisions
    # cannot resolve it, and the integrator's estimate says so
    cfg = QuadratureConfig(max_subdivisions=8)
    with pytest.raises(EvaluationError, match="tolerance budget") as exc:
        adaptive_quad(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0, cfg)
    err = exc.value
    assert math.isfinite(err.partial) and math.isfinite(err.bound)
    assert err.bound > 100.0 * max(cfg.abs_tol, cfg.rel_tol * abs(err.partial))
