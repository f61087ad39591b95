import math

import numpy as np
import pytest
import scipy.special as sc

from fracstable.gammafn import cospi, gamma, rgamma, sinpi


def test_gamma_matches_scipy_across_range():
    # oracle: scipy.special.gamma
    xs = np.concatenate([
        np.linspace(0.05, 5.0, 97),
        np.linspace(5.0, 170.0, 97),
        -np.linspace(0.05, 30.0, 61) + 0.5,   # negative half-integers region
    ])
    for x in xs:
        ref = sc.gamma(x)
        assert gamma(float(x)) == pytest.approx(ref, rel=2e-14)


def test_rgamma_matches_scipy():
    xs = np.linspace(-25.3, 40.7, 331)
    for x in xs:
        assert rgamma(float(x)) == pytest.approx(float(sc.rgamma(x)),
                                                 rel=2e-14, abs=1e-290)


def test_rgamma_exact_zero_at_poles():
    for n in range(0, 30):
        assert rgamma(-float(n)) == 0.0


def test_gamma_exact_at_one_and_two():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert rgamma(1.0) == 1.0
    assert rgamma(2.0) == 1.0


def test_gamma_no_overflow_before_171():
    assert math.isfinite(gamma(170.0))
    assert gamma(170.0) == pytest.approx(float(sc.gamma(170.0)), rel=1e-12)


def test_sinpi_cospi_near_integers():
    for n in range(-6, 7):
        assert sinpi(float(n)) == 0.0
        for eps in (1e-12, 1e-8, 1e-4):
            assert sinpi(n + eps) == pytest.approx(
                ((-1.0) ** n) * math.sin(math.pi * eps), rel=1e-12)
    assert cospi(0.5) == pytest.approx(0.0, abs=1e-16)
    assert cospi(1.0) == -1.0
    # tiny arguments on the negative side of an integer must keep full
    # relative accuracy, not collapse to signed zero
    for x in (-5.551115123125783e-17, 1.0 - 1e-16, -1.0 - 3e-17):
        assert sinpi(x) == pytest.approx(math.sin(math.pi * x), rel=1e-12)
