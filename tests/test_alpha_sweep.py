"""The certificates near both ends of the alpha range.

Most tests hold a certificate at alpha in {1.2, 1.5, 1.8}.  Here each runs
on a short fixed grid, or at small sample sizes and a fixed seed, at alphas
within 0.1 of 1 and of 2, where the
substitution exponents 1/(alpha - 1) and 1/(2 - alpha) reach 100.  Every
case must pass or raise a FracstableError, never return a silent value.
"""

import numpy as np
import pytest

from fracstable.errors import FracstableError
from fracstable.pathsim import PathConfig, Reflect
from fracstable.resolvent import u1_mass, uhat1_mass
from fracstable.testfuncs import REGISTRY
from fracstable.verify import (CM_TARGETS, check_cm, check_factorization,
                               check_identity_law, check_intertwining,
                               check_lamperti, check_rep,
                               check_resolvent_generator)

ALPHAS = (1.01, 1.02, 1.05, 1.1, 1.9, 1.95, 1.98, 1.99)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", ["gauss", "cauchy2", "x2exp"])
def test_intertwining_passes_or_raises(name, alpha):
    # cauchy2 decays only like x^-2, and at alpha <= 1.1 its improper
    # tails raise EvaluationError; gauss and x2exp pass at every alpha
    try:
        rep = check_intertwining(REGISTRY[name], alpha, [0.5, 2.0])
    except FracstableError:
        if name == "cauchy2":
            return
        raise
    assert rep.passed, (name, alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_identity_law_passes_or_raises(alpha):
    # at 1.99 the V_alpha table's CDF, summed to its last Chebyshev node,
    # would end a few 1e-14 above 1 and raise SamplerError; the table ends
    # where the tail mass past a node falls below 1e-10 instead
    cfg = PathConfig(alpha, 1, 1000, 1, Reflect.AtSupremum)
    rep = check_identity_law(alpha, 1000, cfg)
    assert rep.passed, (alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_rep_passes_or_raises(alpha):
    # the entrance law on both sides of y = 17, where the Laplace transform
    # of I_minus once raised on its cancelling residue series
    rep = check_rep(alpha, [0.5, 2.0, 9.5, 20.0])
    assert rep.passed, (alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_factorization_passes_or_raises(alpha):
    # criterion 1's grid: ten points inside 5% of the strip (1 - alpha, alpha)
    lo, hi = 1.0 - alpha, alpha
    rep = check_factorization(
        alpha, np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 10))
    assert rep.passed, (alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lamperti_passes_or_raises(alpha):
    rep = check_lamperti(alpha, (0.5, 1.0, 2.0, 5.0))
    assert rep.passed, (alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("target", sorted(CM_TARGETS))
def test_cm_passes_or_raises(target, alpha):
    rep = check_cm(target, alpha, min(6, CM_TARGETS[target][2]),
                   [0.5, 2.0, 5.0])
    assert rep.passed, (target, alpha, rep.max_abs_residual)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_resolvent_masses(alpha):
    for x in (0.0, 0.7, 3.0):
        assert abs(u1_mass(alpha, x) - 1.0) <= 1e-6, (alpha, x)
        assert abs(uhat1_mass(alpha, x) - 1.0) <= 1e-6, (alpha, x)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_resolvent_generator_passes_or_raises(alpha):
    # the boundary terms g'(0) and h'(0) are 0 by construction.  A two-stage
    # Richardson left the difference quotient's h^{2 alpha - 1} term, nearly
    # h as alpha -> 1: it reported 1.8e-3 and 1.6e-3 at 1.01 and 1.02 (over
    # the tolerance 1e-3), and 1.0e-3 and 4.5e-4 at 1.05 and 1.1
    rep = check_resolvent_generator(REGISTRY["gauss"], alpha, [0.2, 1.5, 3.0])
    assert rep.passed, (alpha, rep.max_abs_residual)
    assert rep.max_abs_residual < 1e-4, alpha
