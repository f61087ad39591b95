import math

import numpy as np
import pytest

from fracstable.dist import mom_X, mom_Xhat, valpha_sample, xhat_sample
from fracstable.errors import DomainError
from fracstable.pathsim import (PathConfig, Reflect, bias_calibration,
                                reflected_sample, simulate_reflected)
from fracstable.verify import ks_two_sample_arrays


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


def test_reflected_sample_reruns_and_prefixes():
    a = reflected_sample(1.5, 1500, 5)
    assert a.tobytes() == reflected_sample(1.5, 1500, 5).tobytes()
    # one sub-stream per 512 paths, each run whole: a shorter run is a
    # prefix of a longer one, across a block edge too
    assert a[:700].tobytes() == reflected_sample(1.5, 700, 5).tobytes()
    assert not np.array_equal(a, reflected_sample(1.5, 1500, 6))
    for alpha in (1.02, 1.5, 1.95):
        x = reflected_sample(alpha, 2000, 8)
        assert x.shape == (2000,)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    for n, seed in ((0, 1), (10, -1)):
        with pytest.raises(DomainError):
            reflected_sample(1.5, n, seed)


def test_reflected_sample_stops_near_alpha_one():
    # the first positive term takes about alpha/(alpha-1) sticks, so the
    # sum is then below the float range and a path stops where its leftover
    # underflows to 0, about 750 sticks in, instead of running on
    x = reflected_sample(1.0 + 1e-9, 512, 4)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)


@pytest.mark.parametrize("alpha", [1.02, 1.05, 1.2, 1.5, 1.8, 1.95])
def test_reflected_sample_has_the_product_law(alpha):
    # X_1 = V_alpha Xhat_1 in law: KS at the 0.1% level against product
    # draws, and the s = 0.25 moment against mom_X (the s = 0.75 power has
    # infinite variance for alpha <= 1.5)
    x = reflected_sample(alpha, 10_000, 1)
    prod = valpha_sample(alpha, 100_000, 2) * xhat_sample(alpha, 100_000, 3)
    ks = ks_two_sample_arrays(x, prod)
    assert ks <= 1.95 * math.sqrt((len(x) + len(prod))
                                  / (len(x) * len(prod))), ks
    w = x ** 0.25
    se = w.std() / math.sqrt(len(w))
    assert abs(w.mean() - mom_X(alpha, 0.25)) <= 4.0 * se


def test_bias_calibration_schema_and_guards():
    for ladder, seed in (((), 0), ((64, 100), 0), ((64,), -1)):
        with pytest.raises(DomainError):
            bias_calibration(1.5, ladder, 500, seed)
    out = bias_calibration(1.5, (256, 64, 128), 1200, 0)
    assert set(out) == {"alpha", "seed", "n_paths", "rungs", "sup_rungs"}
    assert (out["alpha"], out["seed"], out["n_paths"]) == (1.5, 0, 1200)
    for side in ("rungs", "sup_rungs"):
        assert [r["n_steps"] for r in out[side]] == [64, 128, 256]
        for rung in out[side]:
            assert set(rung) == {"n_steps", "ks", "moment_gaps"}
            assert 0.0 <= rung["ks"] <= 1.0
            assert set(rung["moment_gaps"]) == {0.25, 0.5, 0.75}
            for g in rung["moment_gaps"].values():
                assert g["gap"] >= 0.0 and g["se"] > 0.0


def test_bias_calibration_ladder_closes_on_the_exact_laws():
    # each rung is measured against exact draws of its own terminal law, so
    # the KS distance falls along the ladder on both sides; at 4 steps the
    # sup-reflected walk is plainly off (it misses the supremum between
    # steps), beyond the 1% threshold
    n = 1200
    out = bias_calibration(1.5, (4, 16, 256), n, 0)
    for side in ("rungs", "sup_rungs"):
        assert out[side][0]["ks"] > out[side][-1]["ks"], side
    threshold = 1.63 * math.sqrt((n + 4 * n) / (n * 4 * n))
    assert out["sup_rungs"][0]["ks"] > threshold
