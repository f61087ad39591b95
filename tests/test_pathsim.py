import math

import numpy as np
import pytest

from fracstable.dist import mom_Xhat
from fracstable.errors import DomainError
from fracstable.pathsim import (PathConfig, Reflect, bias_calibration,
                                simulate_reflected)


def test_config_validation():
    with pytest.raises(DomainError):
        PathConfig(1.5, 1000, 10, 0, Reflect.AtSupremum)   # not a power of 2
    with pytest.raises(DomainError):
        PathConfig(1.5, 64, 0, 0, Reflect.AtSupremum)
    for horizon in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            PathConfig(1.5, 64, 10, 0, Reflect.AtSupremum, horizon=horizon)
    with pytest.raises(DomainError):
        PathConfig(2.3, 64, 10, 0, Reflect.AtSupremum)


def test_simulation_deterministic():
    cfg = PathConfig(1.5, 64, 1500, 5, Reflect.AtSupremum)
    a = simulate_reflected(cfg)
    b = simulate_reflected(cfg)
    np.testing.assert_array_equal(a, b)
    c = simulate_reflected(PathConfig(1.5, 64, 1500, 6, Reflect.AtSupremum))
    assert not np.array_equal(a, c)


def test_reflection_nonnegative_and_single_step_complementarity():
    # with a single step the sup-reflected value is (-z)^+ and the
    # inf-reflected value is z^+ for the same increment z, so exactly one of
    # the two is zero for every path
    sup = simulate_reflected(PathConfig(1.5, 1, 4000, 9,
                                        Reflect.AtSupremum))
    inf = simulate_reflected(PathConfig(1.5, 1, 4000, 9,
                                        Reflect.AtInfimum))
    assert np.all(sup >= 0.0)
    assert np.all(inf >= 0.0)
    assert np.all(sup * inf == 0.0)
    assert np.any(sup > 0.0) and np.any(inf > 0.0)


def test_horizon_scaling():
    # the walk is exactly self-similar: doubling the horizon multiplies every
    # path functional by 2^{1/alpha}
    base = simulate_reflected(PathConfig(1.5, 128, 2000, 3,
                                         Reflect.AtInfimum))
    scaled = simulate_reflected(PathConfig(1.5, 128, 2000, 3,
                                           Reflect.AtInfimum,
                                           horizon=2.0))
    np.testing.assert_allclose(scaled, base * 2.0 ** (1.0 / 1.5), rtol=1e-10,
                               atol=1e-15)


def test_infimum_walk_approaches_exact_terminal_moments():
    cfg = PathConfig(1.5, 4096, 4000, 21, Reflect.AtInfimum)
    vals = simulate_reflected(cfg)
    for s in (0.25, 0.5):
        w = vals ** s
        se = w.std() / math.sqrt(len(w))
        assert abs(w.mean() - mom_Xhat(1.5, s)) < 5.0 * se + 0.005


def test_bias_calibration_schema_and_guards():
    with pytest.raises(DomainError):
        bias_calibration(1.5, (64, 128), 500, 0)
    out = bias_calibration(1.5, (64, 128, 256), 1200, 0)
    assert out["alpha"] == 1.5
    assert len(out["rungs"]) == 3
    assert len(out["sup_rungs"]) == 3
    assert len(out["sup_step_ks"]) == 2
    assert out["ks_allowance"] > 0.0
    for s in (0.25, 0.5, 0.75):
        assert out["moment_allowance"][s] > 0.0
    for rung in out["rungs"]:
        assert 0.0 <= rung["ks"] <= 1.0
        for g in rung["moment_gaps"].values():
            assert g["gap"] >= 0.0 and g["se"] > 0.0


def test_bias_calibration_allowance_covers_measured_bias():
    # the extrapolated allowance must bound the rung-to-rung distance it was
    # built from (it includes one full rung distance as margin)
    out = bias_calibration(1.5, (64, 128, 256), 1200, 0)
    assert out["ks_allowance"] >= out["sup_step_ks"][-1]
