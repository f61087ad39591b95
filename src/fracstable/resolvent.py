"""q = 1 resolvent densities of the two reflected processes, their action on
test functions, and the recurrent-extension entrance formula.

Density evaluation is cancellation-free at every scale: the exponential
parts of F, F', F'' cancel analytically, leaving only the remainders
A = F - e^x/alpha, B = F' - e^x/alpha, C = F'' - e^x/alpha.  F_remainders
takes them from F_alpha's series below x = 3 (_REM_MP_FROM), from a Laplace
integral of a positive density on [3, 30) and from the asymptotic series
from x = 30 (REM_SWITCH) up; the quadratures here put panel edges or
breakpoints at both switches, where the remainders change branch.

Every integral but lambda_f and those of u1_apply and u1_mass runs on the
row form of the tanh-sinh rule, its integrand taking a block of nodes
whole: levels 0-3 at the first call, one level at each later call.
uhat1_apply and uhat1_mass integrate uhat1_density on one row per panel,
whose remainder B is F_family's array series minus e^x/alpha below x = 3.
The resolvents Uhat_1 f and U_1 f as test functions are convolutions of F'
with f, evaluated at a whole array of x at once, as the operator cores
pass a block of nodes: one row of nodes per x and _ROWS rows per call,
with F' at each call's nodes from specfun's rows kernel and f taking the
call's matrix of nodes; a float x is a one-entry array.  The cross term's
F' values on [0, 50] are the same at every x, so each U_1 f computes them
once, as does M_f, on two rows.  lambda_f, u1_apply and u1_mass stay on
adaptive_quad over the scalar densities.
"""

import math

import numpy as np

from .errors import DomainError, EvaluationError
from .fracops import SmoothTestFunction
from .gammafn import gamma
from .quadrature import (REL_TOL, TAIL_CUTOFF, _check_cut, adaptive_quad,
                         tanh_sinh, tanh_sinh_nodes)
from .specfun import (F_family, F_remainders, REM_SWITCH, _F_rows,
                      _REM_MP_FROM, _alpha_of)
from .dist import iminus_laplace, iminus_moment

_TIGHT = REL_TOL * 0.1   # convolutions, a notch tighter
_ROWS = 32               # x values per tanh_sinh call of a convolution
_WINDOW = 40.0           # uhat1's far side past y = x: e^-40 = 4e-18
_Y_MIN = 1e-150          # M_f's substituted panel stops here, as caputo's does
# g, g' and g'' subtract terms of size lam_f e^x/alpha.  Against uhat1_apply
# (gauss, alpha 1.2 to 1.8) their relative error is (1-5)e-15 times the ratio
# of the largest term to the result: at most 330 on the certificates' x <= 3,
# 1e7 at x = 12, 1e11 at 20.  Past 1e8 it may exceed 100 REL_TOL, so it raises.
# |sum| is floored at 1e-4, the quadratures' floor REL_TOL / 1e4 over REL_TOL,
# so that a g'' crossing zero, right to that absolute floor, passes.
_CANCEL_BUDGET = 1e8


def _rem(alpha, x, which):
    """F_remainders extended to x = 0 by the series limits.  An ndarray x
    takes F_family's array series minus e^x/alpha below _REM_MP_FROM and
    F_remainders' floats, entry by entry, from there on."""
    if isinstance(x, np.ndarray):
        d = "ABC".index(which)
        out = np.empty(x.shape)
        low = x < _REM_MP_FROM
        out[low] = _F(alpha, x[low], d) - np.exp(x[low]) / alpha
        out[~low] = [F_remainders(alpha, float(v), which) for v in x[~low]]
        return out
    if x == 0.0:
        if which == "A":
            return 1.0 - 1.0 / alpha
        if which == "B":
            return -1.0 / alpha
        raise DomainError("C is singular at 0")
    return F_remainders(alpha, x, which)


def uhat1_density(alpha, x, y):
    """Resolvent density of Xhat: e^{-y} F(x) - F'(x-y) 1{y<=x}, at a float
    y or at every entry of an ndarray y, with A(x) taken once."""
    alpha = _alpha_of(alpha)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if not (x >= 0.0 and np.all(ys >= 0.0)):
        raise DomainError("x and y must be nonnegative")
    out = np.exp(-ys) * _rem(alpha, x, "A")
    below = ys <= x
    out[below] -= _rem(alpha, x - ys[below], "B")
    # exponential parts no longer cancel but stay bounded: e^{x-y}/alpha
    out[~below] += np.exp(x - ys[~below]) / alpha
    return out if isinstance(y, np.ndarray) else float(out[0])


def u1_density(alpha, x, y):
    """Resolvent density of X: e^{-x} F''(y) - F'(y-x) 1{y>=x}."""
    alpha = _alpha_of(alpha)
    if not x >= 0.0:
        raise DomainError("x must be nonnegative")
    if not y > 0.0:
        raise DomainError("u1_density requires y > 0 (F'' singular at 0)")
    c = F_remainders(alpha, y, "C")
    if y >= x:
        return math.exp(-x) * c - _rem(alpha, y - x, "B")
    return math.exp(y - x) / alpha + math.exp(-x) * c


def lambda_f(f):
    """lambda_f = int_0^inf e^{-y} f(y) dy."""
    fv = f.eval_f if hasattr(f, "eval_f") else f
    val, _ = adaptive_quad(lambda y: math.exp(-y) * fv(y), 0.0, TAIL_CUTOFF)
    return val


def uhat1_apply(f, alpha, x):
    """(Uhat_1 f)(x) on tanh_sinh's row form, f (or f.eval_f) taking an
    ndarray of y.  The panels of [0, x] end at the kink y = x and at the
    remainder switches y = x - 3 and x - 30 that fall inside; past x the
    density is e^{x-y}/alpha + e^{-y} A(x), so a window of _WINDOW ends it.
    """
    alpha = _alpha_of(alpha)
    if not 0.0 <= x < math.inf:
        raise DomainError("uhat1_apply requires a finite x >= 0")
    fv = f.eval_f if hasattr(f, "eval_f") else f
    edges = sorted({0.0, x} | {x - s for s in (_REM_MP_FROM, REM_SWITCH)
                               if x - s > 0.0})
    a = np.array(edges)
    b = np.append(a[1:], x + _WINDOW)
    col = a[:, None]
    val, _ = tanh_sinh(lambda d, _: uhat1_density(alpha, x, col + d)
                       * fv(col + d), a, b, REL_TOL)
    return float(val.sum())


def _u1_integral(fv, alpha, x, T):
    """int_0^T u1(x, y) fv(y) dy.  The y^{alpha-2} origin singularity gets a
    substituted panel on [0, 1]; the kink at y = x and the remainder branch
    switches, at y and at y - x, are breakpoints of the panel [1, T]."""
    p = 1.0 / (alpha - 1.0)
    hpts = [x ** (alpha - 1.0)] if 0.0 < x < 1.0 else None
    head, _ = adaptive_quad(
        lambda s: u1_density(alpha, x, s ** p) * fv(s ** p)
        * p * s ** (p - 1.0), 0.0, 1.0, points=hpts)
    pts = sorted(q for q in (x, _REM_MP_FROM, REM_SWITCH,
                             x + _REM_MP_FROM, x + REM_SWITCH)
                 if 1.0 < q < T)
    tail, _ = adaptive_quad(lambda y: u1_density(alpha, x, y) * fv(y),
                            1.0, T, points=pts or None)
    return head + tail


def u1_apply(f, alpha, x):
    """(U_1 f)(x) by quadrature against the density up to the tail cutoff.

    Past y = x the density falls off like (y - x)^(-alpha-1), and most of
    its mass lies within y - x < 30; from x = TAIL_CUTOFF - 30 on the
    cutoff drops it, so there this raises with the truncated integral as
    partial.  Closer in, the mass past T = TAIL_CUTOFF is
    A(T - x) - e^{-x} B(T), as in u1_mass, and |f(T)| times it estimates
    what the cutoff drops; past 100 REL_TOL of the value this raises too.
    """
    alpha = _alpha_of(alpha)
    fv = f.eval_f if hasattr(f, "eval_f") else f
    T = TAIL_CUTOFF
    val = _u1_integral(fv, alpha, x, T)
    if x + 30.0 > T:
        raise EvaluationError("x = %g is within 30 of the tail cutoff %g, "
                              "which drops U_1 f's mass past y = x"
                              % (x, T), partial=val)
    dropped = abs(fv(T)) * (_rem(alpha, T - x, "A")
                            - math.exp(-x) * F_remainders(alpha, T, "B"))
    if not dropped <= 100.0 * REL_TOL * abs(val):
        raise EvaluationError("the tail cutoff %g drops about %.3g of U_1 f"
                              "(%g) = %.6g" % (T, dropped, x, val),
                              partial=val, bound=dropped)
    return val


def uhat1_mass(alpha, x):
    """Total mass of uhat1(x, .); equals 1 for the conservative semigroup."""
    return uhat1_apply(lambda y: 1.0, alpha, x)


def u1_mass(alpha, x):
    """Total mass of u1(x, .): u1_apply's quadrature of 1 up to T, plus the
    algebraically decaying tail beyond T in closed form,
    int_T^inf u1(x,y) dy = -e^{-x} B(T) + A(T-x), integrated term by term
    from the remainder forms (C = B', B = A').
    """
    alpha = _alpha_of(alpha)
    T = max(2.0 * REM_SWITCH, x + REM_SWITCH + 1.0)
    tail = -math.exp(-x) * F_remainders(alpha, T, "B") \
        + _rem(alpha, T - x, "A")
    return _u1_integral(lambda y: 1.0, alpha, x, T) + tail


def _F(alpha, x, deriv):
    """F_family at an ndarray of x >= 0, with the x = 0 limits F(0) = 1 and
    F'(0) = 0; an entry at 0 of F'' raises DomainError, as a float 0 does."""
    at0 = x == 0.0
    if at0.any():
        limit = F_family(alpha, 0.0, deriv)
        vals = F_family(alpha, np.where(at0, 1.0, x), deriv)
        vals[at0] = limit
        return vals
    return F_family(alpha, x, deriv)


def _in_blocks(rows, h, x):
    """rows(h, xs), one integral per entry of xs, over the entries of the
    ndarray x _ROWS at a time, in x's shape.  tanh_sinh runs a block to its
    slowest row's level, and its matrices grow with the block."""
    flat = x.ravel()
    parts = [rows(h, flat[i:i + _ROWS]) for i in range(0, flat.size, _ROWS)]
    return np.concatenate(parts or [flat]).reshape(x.shape)


def _floats_too(fun):
    """fun, written for ndarrays, extended to a float as a one-entry array,
    as the SmoothTestFunction callables must be."""
    return lambda x: fun(x) if isinstance(x, np.ndarray) \
        else float(fun(np.array([x], dtype=float))[0])


def _cancelling_sum(x, *terms):
    """The sum of terms, ndarrays in x's shape; EvaluationError at the first
    entry whose largest term exceeds max(|sum|, 1e-4) by more than
    _CANCEL_BUDGET."""
    total = sum(terms)
    big = np.max(np.abs(terms), axis=0)
    over = ~(big <= _CANCEL_BUDGET * np.maximum(np.abs(total), 1e-4))
    if over.any():
        b, t, at = (float(v[over][0]) for v in (big, total, x))
        raise EvaluationError("terms of %.3g cancel to %.3g at x = %g, beyond "
                              "the float budget of Uhat_1 f" % (b, t, at),
                              partial=t, bound=b)
    return total


def uhat1_resolvent_function(f, alpha):
    """Uhat_1 f as a SmoothTestFunction with analytic derivative structure.

    g   = lam_f F - F' * f            (* = convolution on [0, x])
    g'  = lam_f F' - F'(x) f(0) - F' * f'
    g'' = lam_f F'' - F''(x) f(0) - F'(x) f'(0) - F' * f''
    so g'(0) = 0 exactly, as the boundary condition requires.  An x where
    the terms cancel beyond _CANCEL_BUDGET (from x = 10 to 15) raises.
    """
    alpha = _alpha_of(alpha)
    lf = lambda_f(f)
    f0, f10 = f.eval_f(0.0), f.eval_f1(0.0)

    def rows(h, xs):
        # node k of row i sits at u = x_i s_k from 0, and v from x_i
        shares = (pa for pa, _ in tanh_sinh_nodes(0.0, 1.0))
        val, _ = tanh_sinh(lambda u, v: _F_rows(alpha, xs, next(shares), 1)
                           * h(v), np.zeros(xs.size), xs, _TIGHT)
        return val

    def conv(h, x):
        """(F' * h)(x), one row of nodes per x > 0; 0 where x <= 0."""
        pos = x > 0.0
        out = np.zeros(x.shape)
        out[pos] = _in_blocks(rows, h, x[pos])
        return out

    g = lambda x: _cancelling_sum(x, lf * _F(alpha, x, 0), -conv(f.eval_f, x))
    g1 = lambda x: _cancelling_sum(x, lf * _F(alpha, x, 1),
                                   -_F(alpha, x, 1) * f0, -conv(f.eval_f1, x))

    def g2(x):
        f2 = _F(alpha, x, 2)
        return _cancelling_sum(x, lf * f2, -f2 * f0, -_F(alpha, x, 1) * f10,
                               -conv(f.eval_f2, x))

    return SmoothTestFunction(*map(_floats_too, (g, g1, g2)),
                              decay_gamma=0.0, fprime0_is_zero=True,
                              name="uhat1_resolvent")


def _m_f(f, alpha, cut):
    """M_f = int_0^cut F''(y) f(y) dy on tanh_sinh's row form, a row on
    [0, 1] and a row on [1, cut]; EvaluationError unless F'' f at the cut
    is within the tolerance budget of M_f."""
    p = 1.0 / (alpha - 1.0)

    def rows(d, _):
        # [0, 1] is taken in y = s^p, dy = p y^(2-alpha) ds, which cancels
        # the y^(alpha-2) of F''; below _Y_MIN the integrand equals its
        # s -> 0 limit f(0)/Gamma(alpha) to double precision, so y stops there
        y = np.stack([np.maximum(d[0] ** p, _Y_MIN), 1.0 + d[1]])
        jac = np.stack([p * y[0] ** (2.0 - alpha), np.ones(y.shape[1])])
        return F_family(alpha, y, 2) * f.eval_f(y) * jac

    parts, _ = tanh_sinh(rows, np.zeros(2), np.array([1.0, cut - 1.0]),
                         REL_TOL)
    mf = float(parts.sum())
    _check_cut(F_family(alpha, cut, 2) * f.eval_f(cut), mf, REL_TOL, cut)
    return mf


def u1_resolvent_function(f, alpha):
    """U_1 f for superexponentially decaying f, in the form
    h(x) = e^{-x} M_f - int_0^inf F'(u) f(x+u) du with M_f = int F'' f.

    Both integrals stop at u = 50.  The integrands of M_f and of each
    convolution are probed there, and a value beyond the quadratures'
    tolerance budget raises EvaluationError: f then does not crush F's
    e^u growth, and the truncated integrals would be garbage.
    """
    alpha = _alpha_of(alpha)
    cut = 50.0  # F'' e^y growth crushed by the superexponential decay of f
    mf = _m_f(f, alpha, cut)
    # F' at the nodes of [0, cut], block by block: the same for every x
    fp_nodes = tuple(_F_rows(alpha, np.array([cut]), pa, 1)[0]
                     for pa, _ in tanh_sinh_nodes(0.0, 1.0))
    fp_cut = F_family(alpha, cut, 1)

    def rows(h, xs):
        col = xs[:, None]
        levels = iter(fp_nodes)
        # every row has the same nodes, those of its first
        val, _ = tanh_sinh(lambda u, _: next(levels) * h(col + u[0]),
                           np.zeros(xs.size), np.full(xs.size, cut), _TIGHT)
        return val

    def cross(h, x):
        """int_0^cut F'(u) h(x + u) du, one row of nodes per x."""
        val = _in_blocks(rows, h, x)
        _check_cut(fp_cut * h(x + cut), val, _TIGHT, cut)
        return val

    h = lambda x: np.exp(-x) * mf - cross(f.eval_f, x)
    h1 = lambda x: -np.exp(-x) * mf - cross(f.eval_f1, x)
    h2 = lambda x: np.exp(-x) * mf - cross(f.eval_f2, x)
    return SmoothTestFunction(*map(_floats_too, (h, h1, h2)),
                              decay_gamma=6.0, fprime0_is_zero=False,
                              name="u1_resolvent")


def rep_pointwise(alpha, y):
    """Both sides of the recurrent-extension entrance formula at y > 0.

    LHS: alpha y^{alpha-2} E[e^{-y^alpha I_-}] / (Gamma(1-1/alpha) E[I_-^{1/alpha-1}])
    with the Laplace transform as the inverse Mellin transform of the
    closed-form moments of I_- (iminus_laplace), a line integral free of
    cancellation at every y.  RHS: u1_density(0, y) = F''(y) - F'(y).
    """
    alpha = _alpha_of(alpha)
    if not y > 0.0:
        raise DomainError("rep_pointwise requires y > 0")
    ia = 1.0 / alpha
    lap = iminus_laplace(alpha, y ** alpha)
    lhs = alpha * y ** (alpha - 2.0) * lap \
        / (gamma((alpha - 1.0) / alpha) * iminus_moment(alpha, ia - 1.0))
    rhs = u1_density(alpha, 0.0, y)
    return lhs, rhs
