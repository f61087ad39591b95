import math
from dataclasses import replace

import numpy as np
import pytest

from fracstable.dist import (_valpha_forms, iminus_laplace, iminus_pdf,
                             iminus_tail_integral, kernel_apply)
from fracstable.errors import DomainError, EvaluationError
from fracstable.quadrature import TAIL_CUTOFF, adaptive_quad
from fracstable.resolvent import (_u1_integral, lambda_f, rep_pointwise,
                                  u1_apply, u1_density, u1_mass, uhat1_apply,
                                  u1_resolvent_function, uhat1_density,
                                  uhat1_mass, uhat1_resolvent_function)
from fracstable.specfun import F_family, F_remainders, mittag_leffler
from fracstable.testfuncs import REGISTRY
from fracstable.verify import check_resolvent_generator

GAUSS = REGISTRY["gauss"]

# frozen arbitrary-precision oracles, alpha = 1.5
UHAT_ORACLE = {(2.0, 1.0): 0.11491948200806864,
               (1.0, 3.0): 0.096561384883603269,
               (15.0, 14.0): 0.088943532629414255}
U1_ORACLE = {(2.0, 3.0): 0.090425319522809299,
             (0.0, 1.5): 0.10300023675696386,
             (14.0, 15.0): 0.088943528672487969}
REP_ORACLE = {0.5: 0.42300948110731923, 1.0: 0.18719368881108273,
              2.0: 0.06319005315531184}


def test_uhat1_density_oracle():
    for (x, y), ref in UHAT_ORACLE.items():
        assert uhat1_density(1.5, x, y) == pytest.approx(ref, rel=1e-10)


def test_u1_density_oracle():
    for (x, y), ref in U1_ORACLE.items():
        assert u1_density(1.5, x, y) == pytest.approx(ref, rel=1e-10)


def test_densities_nonnegative_across_scales():
    for a in (1.2, 1.5, 1.8):
        for x in (0.0, 0.5, 2.0, 12.0, 40.0):
            for y in (0.01, 0.5, 2.0, 12.0, 40.0):
                assert uhat1_density(a, x, y) >= 0.0
                assert u1_density(a, x, y) >= 0.0


def test_u1_density_matches_valpha_laplace_oracle():
    # identity in law Laplace-transformed in time: with T ~ Exp(1),
    # u1(0, y) = int_0^inf v_alpha(t) e^{-y/t} dt/t, taken in r = 1/t
    # split at r = 1/y; it samples nothing and crosses x = 3, 9, 25 and 30
    for a in (1.2, 1.5, 1.8):
        pdf, _, _ = _valpha_forms(a)
        for y in (0.1, 1.0, 2.9, 3.1, 5.0, 8.9, 9.1, 15.0, 24.9, 29.9, 30.1):
            g = lambda r: pdf(1.0 / r) * math.exp(-y * r) / r
            lo, _ = adaptive_quad(g, 0.0, 1.0 / y)
            hi, _ = adaptive_quad(g, 1.0 / y, math.inf)
            rel = 1e-9 if y < 30.0 else 1e-7   # asymptotic branch above 30
            assert u1_density(a, 0.0, y) == pytest.approx(lo + hi, rel=rel), \
                (a, y)


def test_density_domain_guards():
    with pytest.raises(DomainError):
        uhat1_density(1.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        u1_density(1.5, 1.0, 0.0)


def test_nan_arguments_raise_domain_error():
    # every guard is written so that NaN fails it; these returned nan or
    # raised EvaluationError after summing a series of nans
    nan = math.nan
    calls = (lambda: F_remainders(1.5, nan, "A"),
             lambda: F_family(1.5, nan),
             lambda: mittag_leffler(1.5, nan),
             lambda: u1_density(1.5, nan, 1.0),
             lambda: u1_density(1.5, 1.0, nan),
             lambda: uhat1_density(1.5, 1.0, nan),
             lambda: uhat1_mass(1.5, nan),
             lambda: uhat1_mass(1.5, math.inf),
             lambda: kernel_apply(GAUSS, 1.5, nan),
             lambda: iminus_pdf(1.5, nan),
             lambda: iminus_tail_integral(1.5, nan),
             lambda: iminus_laplace(1.5, nan),
             lambda: rep_pointwise(1.5, nan))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_total_masses_are_one():
    # q = 1 resolvent of a conservative process integrates to 1/q = 1
    # uhat1_mass puts panel edges at y = x - 3 and x - 30, where the
    # remainder B changes branch: x = 3 +- 1e-9, 8 and 31 cover them
    for a in (1.2, 1.5, 1.8):
        for x in (0.0, 0.7, 3.0 - 1e-9, 3.0, 3.0 + 1e-9, 8.0, 31.0):
            assert uhat1_mass(a, x) == pytest.approx(1.0, rel=1e-8), (a, x)
            assert u1_mass(a, x) == pytest.approx(1.0, rel=1e-8), (a, x)
        # its far side is a window past y = x, not a cutoff at TAIL_CUTOFF
        for x in (990.0, 2000.0):
            assert uhat1_mass(a, x) == pytest.approx(1.0, rel=1e-8), (a, x)


def test_apply_consistent_with_mass():
    one = lambda y: 1.0
    assert uhat1_apply(one, 1.5, 1.3) == pytest.approx(1.0, rel=1e-8)


def test_lambda_f_exponential():
    # int e^{-y} e^{-y} dy = 1/2
    assert lambda_f(lambda y: math.exp(-y)) == pytest.approx(0.5, rel=1e-10)


def test_apply_matches_resolvent_functions():
    # the convolutions of Uhat_1 f and U_1 f against the density route
    for a in (1.2, 1.5, 1.8):
        g = uhat1_resolvent_function(GAUSS, a)
        h = u1_resolvent_function(GAUSS, a)
        for x in (0.4, 1.0, 2.5):
            assert uhat1_apply(GAUSS, a, x) == pytest.approx(g.eval_f(x),
                                                             rel=1e-7)
            assert u1_apply(GAUSS, a, x) == pytest.approx(h.eval_f(x),
                                                          rel=1e-7)
        # boundary condition g'(0) = 0 holds exactly by construction
        assert g.eval_f1(0.0) == 0.0


def test_uhat1_resolvent_function_is_right_or_raises_at_large_x():
    # g = lam_f F - F' * f cancels terms of size lam_f e^x/alpha: each value
    # is within 1e-6 of the density route, or g raises where the cancelling
    # terms exceed the result by more than the float budget (g(28) would be
    # off by more than 100%)
    for a in (1.2, 1.5, 1.8):
        g = uhat1_resolvent_function(GAUSS, a)
        for x in (1.0, 3.0, 8.0, 12.0, 15.0, 17.0, 20.0, 24.0, 28.0):
            try:
                val = g.eval_f(x)
            except EvaluationError as exc:
                assert "float budget" in str(exc)
                assert exc.bound > 1e8 * abs(exc.partial)
                continue
            assert x < 28.0, (a, x)
            assert val == pytest.approx(uhat1_apply(GAUSS, a, x), rel=1e-6)
        with pytest.raises(EvaluationError, match="float budget"):
            g.eval_f(28.0)


def test_generator_passes_where_g2_crosses_zero():
    # the generator check at x = 1.2587943869859695 evaluates g'' at
    # x = 0.629397, where it crosses zero: terms of 1.44 sum to -7.5e-9, a
    # ratio of 2e8, and a purely relative guard raised although the sum is
    # right to the quadratures' absolute floor; g(28) still raises above
    rep = check_resolvent_generator(GAUSS, 1.5, [1.2587943869859695])
    assert rep.passed, rep.max_abs_residual
    g = uhat1_resolvent_function(GAUSS, 1.5)
    assert abs(g.eval_f2(0.629397)) < 1e-4


def test_u1_resolvent_function_raises_where_its_cut_is_not_negligible():
    # x2exp decays like e^-x, so F'' f at the cut u = 50 is about 1.7e3
    with pytest.raises(EvaluationError, match="cut u = 50") as exc:
        u1_resolvent_function(REGISTRY["x2exp"], 1.5)
    assert exc.value.bound > 1e3 and math.isfinite(exc.value.partial)


def test_u1_apply_runs_and_is_positive():
    for x in (0.0, 1.0, 3.0):
        assert u1_apply(GAUSS, 1.5, x) > 0.0


def test_u1_apply_raises_where_the_tail_cutoff_drops_its_mass():
    # u1(x, .) keeps most of its mass on [x, x + 30]; once that window
    # passes the cutoff y = 1000, the truncated integral is garbage
    # (1.7e-50 at x = 1100, where f is 8.3e-7).  Further in, f(1000) times
    # the density's mass past the cutoff estimates what it drops: against
    # the integral to y = 1e6, x = 100 is off by 4.7e-8 and x = 900, which
    # used to return, by 1.9e-4.  The reference is the integral cut at the
    # cutoff plus QUADPACK on [1e3, 1e6] in log y: one adaptive_quad panel
    # out to 1e6 settles 4.6e-5 off at x = 10
    from scipy.integrate import quad

    slow = REGISTRY["cauchy2"]
    x = 100.0
    near = _u1_integral(slow.eval_f, 1.5, x, TAIL_CUTOFF)
    far, _ = quad(lambda s: u1_density(1.5, x, math.exp(s))
                  * slow.eval_f(math.exp(s)) * math.exp(s),
                  math.log(TAIL_CUTOFF), math.log(1e6),
                  epsabs=0.0, epsrel=1e-10, limit=200)
    assert u1_apply(slow, 1.5, x) == pytest.approx(near + far, rel=1e-6)
    for x in (900.0, 999.0, 1100.0):
        with pytest.raises(EvaluationError, match="tail cutoff") as exc:
            u1_apply(slow, 1.5, x)
        assert math.isfinite(exc.value.partial)


@pytest.mark.parametrize("alpha", [1.01, 1.99])
def test_m_f_matches_a_quadpack_reference(alpha):
    # M_f = int_0^50 F'' f on two tanh-sinh rows, against QUADPACK's
    # algebraic-weight rule for F''(y) ~ y^(alpha-2) / Gamma(alpha-1) on
    # [0, 1] and plain quad on [1, 50].  At alpha = 1.01 the head row's
    # y = s^100 falls below 1e-150 for s < 0.03 and underflows for
    # s < 8e-4, where the row takes the integrand's s -> 0 limit
    from scipy.integrate import quad

    from fracstable.gammafn import rgamma
    from fracstable.resolvent import _m_f

    f = GAUSS.eval_f

    def smooth(y):
        # F''(y) y^(2-alpha) f(y), with its y -> 0 limit
        if y == 0.0:
            return rgamma(alpha - 1.0) * f(0.0)
        return F_family(alpha, y, 2) * y ** (2.0 - alpha) * f(y)

    head, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(alpha - 2.0, 0.0),
                   epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = quad(lambda y: F_family(alpha, y, 2) * f(y), 1.0, 50.0,
                   epsabs=0.0, epsrel=1e-13, limit=200)
    assert _m_f(GAUSS, alpha, 50.0) == pytest.approx(head + tail, rel=1e-10)


def test_rep_pointwise_oracle():
    for y, ref in REP_ORACLE.items():
        lhs, rhs = rep_pointwise(1.5, y)
        assert lhs == pytest.approx(ref, rel=1e-9)
        assert rhs == pytest.approx(ref, rel=1e-9)
    with pytest.raises(DomainError):
        rep_pointwise(1.5, 0.0)


def test_resolvent_generator_near_alpha_one():
    # the Caputo integral of g'' ~ u^{alpha-2} once raised here at x = 2.07:
    # its QUADPACK error estimate was 1.27 times the budget at the
    # unsubstituted u = 0 end
    rep = check_resolvent_generator(GAUSS, 1.08, np.linspace(0.2, 3.0, 4))
    assert rep.passed and rep.tolerance == 1e-3, rep.max_abs_residual


def test_resolvent_functions_agree_on_arrays_and_floats():
    # the array path runs blocks of x values on shared tanh-sinh levels, a
    # float one row alone.  g = lam_f F - F' * f cancels terms of size e^x
    # and h = e^-x M_f - cross terms of size 1, so entries agree to 1e-12
    # of those scales.  Where g's terms cancel beyond its float budget, a
    # float raises, and so does any array holding that x, naming its first
    # such entry
    rng = np.random.default_rng(3)
    xs = np.concatenate([[0.0, 1e-9, 0.2, 2.99, 3.01, 29.9, 30.1],
                         rng.uniform(0.0, 35.0, 41)])
    for a in (1.08, 1.5, 1.95):
        g = uhat1_resolvent_function(GAUSS, a)
        h = u1_resolvent_function(GAUSS, a)
        for fun, scale in ((g.eval_f, np.exp), (g.eval_f1, np.exp),
                           (g.eval_f2, np.exp), (h.eval_f, np.ones_like),
                           (h.eval_f1, np.ones_like),
                           (h.eval_f2, np.ones_like)):
            x = xs[1:] if fun is g.eval_f2 else xs   # g'' is singular at 0
            raised = {}
            for v in x:
                try:
                    fun(float(v))
                except EvaluationError as exc:
                    raised[v] = exc
            if raised:
                # the cancelled result itself is noise there, so the two
                # raises agree on x and on the size of the terms
                one = next(iter(raised.values()))
                with pytest.raises(EvaluationError) as many:
                    fun(x)
                assert str(many.value).split(" at x = ")[1] \
                    == str(one).split(" at x = ")[1]
                assert many.value.bound == pytest.approx(one.bound, rel=1e-12)
                assert fun in (g.eval_f, g.eval_f1, g.eval_f2)
                # from x = 10 to 15 on, by alpha and derivative order
                assert min(raised) > 8.0 and all(v in raised for v in x
                                                 if v > 16.0), (a, fun)
                x = np.array([v for v in x if v not in raised])
            arr = fun(x)
            flt = np.array([fun(float(v)) for v in x])
            bound = 1e-12 * np.maximum(np.abs(flt), scale(x))
            assert arr.shape == x.shape
            assert np.all(np.abs(arr - flt) <= bound), (a, fun, x)
            # a (1, n) array, as _right_core passes, keeps its shape
            assert np.array_equal(fun(x[None, :]), arr[None, :])
        assert g.eval_f1(0.0) == 0.0 and g.eval_f1(np.zeros(3)).tolist() \
            == [0.0] * 3
        with pytest.raises(DomainError):
            g.eval_f2(0.0)
        with pytest.raises(DomainError):
            g.eval_f2(np.array([0.5, 0.0, 1.0]))


@pytest.mark.parametrize("name", ["x2exp", "cauchy2"])
def test_cut_raises_alike_on_arrays_and_floats(name):
    # F'' f at u = 50 already raises while building U_1 f; with gauss
    # itself and this function's derivatives, M_f passes and each cross
    # term of h' and h'' must raise the same cut error for a float x and
    # for an array holding it
    slow = REGISTRY[name]
    with pytest.raises(EvaluationError, match="cut u = 50"):
        u1_resolvent_function(slow, 1.5)
    h = u1_resolvent_function(
        replace(GAUSS, eval_f1=slow.eval_f1, eval_f2=slow.eval_f2), 1.5)
    for fun in (h.eval_f1, h.eval_f2):
        with pytest.raises(EvaluationError, match="cut u = 50") as one:
            fun(0.7)
        with pytest.raises(EvaluationError, match="cut u = 50") as many:
            fun(np.array([0.7, 1.1, 2.5]))
        assert str(many.value) == str(one.value)
        assert many.value.bound == pytest.approx(one.value.bound, rel=1e-12)
        assert many.value.partial == pytest.approx(one.value.partial,
                                                   rel=1e-12)


# max_abs_residual of check_resolvent_generator(gauss, alpha, grid) on the
# resolvent workload's stratum edges; each is a boundary term g'(0) or
# h'(0), from the five-point fit of the difference quotient (the two-stage
# Richardson before it left 6.2e-4, 8.7e-5, 9.7e-7, 1.6e-7 and 2.7e-8)
SCAN_RESIDUALS = {1.08: 2.818123576952703e-06, 1.2: 3.7764901817609014e-07,
                  1.5: 1.6040071885024348e-09, 1.8: 1.0875812468245393e-09,
                  1.95: 1.3940703867682298e-10}


def test_resolvent_generator_at_stratum_edges():
    grid = [0.2 + k * 2.8 / 3 + s for k in range(4) for s in (-1e-9, 1e-9)]
    for a, ref in SCAN_RESIDUALS.items():
        rep = check_resolvent_generator(GAUSS, a, grid)
        assert rep.passed and rep.tolerance == 1e-3, (a, rep.max_abs_residual)
        assert abs(rep.max_abs_residual - ref) <= 1e-10, a
