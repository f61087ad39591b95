"""Riemann-Liouville / Caputo fractional derivatives and reflected generators.

All left-sided operators route through the Caputo integral plus exact
boundary corrections.  Its two panels run on the tanh-sinh rule: [0, x/2]
under u = (x/2) w^{1/(alpha-1)}, which takes an integrand growing like
u^{alpha-2} (the kernel-composed (V_alpha f)'') to a bounded one, and
[x/2, x] under x - u = (x/2) s^{1/(2-alpha)}, which removes the
(x-u)^{1-alpha} endpoint singularity without forming x - u by subtraction.
The right-sided core integrates for a whole array of start points at once.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .gammafn import gamma
from .quadrature import REL_TOL, TAIL_CUTOFF, adaptive_quad, tanh_sinh
from .specfun import GeneralIndex, _alpha_of

_DECAY_PROBES = (1e2, 1e3, 1e4)
_SMOKE_GRID = (0.3, 0.7, 1.5, 3.0)
# nodes of _caputo_core's u = 0 panel below this u (down to 0, near alpha
# = 1) are evaluated at it, so d2 never sees u = 0 or a u whose own
# quadrature nodes underflow.  The substituted integrand is G(0) +
# O(u^{2-alpha}) on a w-measure of (2u/x)^{alpha-1}, so this moves the
# panel by O(_U_MIN) relative to G.
_U_MIN = 1e-150


@dataclass(frozen=True)
class SmoothTestFunction:
    """A C^2 function on [0, inf) with analytic derivatives and certified decay.

    eval_f, eval_f1 and eval_f2 each take a float or an ndarray of floats
    and return a value of the same shape: the operator cores call them
    once per node block of the quadrature rule, a whole array of nodes.

    decay_gamma certifies x^gamma (|f| + |f''|) -> 0; the sampled check
    requires the product to be non-increasing across the probe points and
    below 1e-3 at the last one.
    """

    eval_f: Callable[[float], float]
    eval_f1: Callable[[float], float]
    eval_f2: Callable[[float], float]
    decay_gamma: float
    fprime0_is_zero: bool = True
    name: Optional[str] = None

    def validate(self):
        """Run the membership smoke checks; raise DomainError on violation."""
        if self.fprime0_is_zero and abs(self.eval_f1(0.0)) > 1e-12:
            raise DomainError("fprime0_is_zero certified but |f'(0)| > 1e-12")
        probes = [x ** self.decay_gamma
                  * (abs(self.eval_f(x)) + abs(self.eval_f2(x)))
                  for x in _DECAY_PROBES]
        for a, b in zip(probes, probes[1:]):
            if b > a * (1.0 + 1e-9):
                raise DomainError("decay check: x^gamma(|f|+|f''|) increases "
                                  "across probe points")
        if probes[-1] > 1e-3:
            raise DomainError("decay check: x^gamma(|f|+|f''|) = %.3g at "
                              "x = 1e4 exceeds 1e-3" % probes[-1])
        for x in _SMOKE_GRID:
            h = 1e-5 * max(1.0, abs(x))
            fd1 = (self.eval_f(x + h) - self.eval_f(x - h)) / (2.0 * h)
            fd2 = (self.eval_f1(x + h) - self.eval_f1(x - h)) / (2.0 * h)
            s1 = max(abs(self.eval_f1(x)), 1e-8)
            s2 = max(abs(self.eval_f2(x)), 1e-8)
            if abs(fd1 - self.eval_f1(x)) / s1 > 1e-6:
                raise DomainError("eval_f1 disagrees with finite differences")
            if abs(fd2 - self.eval_f2(x)) / s2 > 1e-6:
                raise DomainError("eval_f2 disagrees with finite differences")
        return True


def is_in_domain_D(f, alpha):
    """Membership test for the operator domain; returns (bool, diagnostics)."""
    alpha = _alpha_of(alpha)
    diag = {"fprime0_is_zero": bool(f.fprime0_is_zero),
            "decay_gamma": f.decay_gamma,
            "gamma_exceeds": f.decay_gamma > 2.0 - alpha,
            "smoke_checks": False}
    try:
        f.validate()
        diag["smoke_checks"] = True
    except DomainError as exc:
        diag["smoke_reason"] = str(exc)
    ok = diag["fprime0_is_zero"] and diag["gamma_exceeds"] \
        and diag["smoke_checks"]
    return ok, diag


def _caputo_core(d2, alpha, x, tol):
    """int_0^x d2(u) (x-u)^{1-a} du / G(2-a) with its error estimate, d2
    called once per node block of the rule, on the nodes of both panels.

    A panel may settle on tanh_sinh's absolute floor, which says nothing of
    a small value's relative accuracy.  So, as for adaptive_quad, the
    panels' level changes together must stay within 100 times the relative
    budget, here of the panels' summed magnitudes, or EvaluationError is
    raised: a zero of the sum does not trip this, a value lost to
    cancellation inside a panel (large x) does.
    """
    q, r = 1.0 / (alpha - 1.0), 1.0 / (2.0 - alpha)
    half = 0.5 * x

    def panels(d, _):
        # u = (x/2) w^q on [0, x/2]: the integrand q 2^{1-a} u^{2-a}
        # (1 - u/x)^{1-a} d2(u) is bounded where d2 ~ u^{a-2}
        ua = np.maximum(half * d[0] ** q, _U_MIN)
        if not ua.min() < 1.0:
            raise EvaluationError("x = %.3g is beyond the Caputo "
                                  "substitution: no quadrature node lands "
                                  "in 0 < u < 1" % x)
        # x - u = (x/2) s^r on [x/2, x]: the integrand r (x/2)^{2-a} d2(u)
        vals = d2(np.concatenate([ua, x - half * d[1] ** r]))
        m = ua.size
        return np.stack([
            vals[:m] * (q * 2.0 ** (1.0 - alpha)) * ua ** (2.0 - alpha)
            * (1.0 - ua / x) ** (1.0 - alpha),
            vals[m:] * (r * half ** (2.0 - alpha))])

    vals, errs = tanh_sinh(panels, np.zeros(2), np.ones(2), tol)
    g = gamma(2.0 - alpha)
    val, err = float(vals.sum()) / g, float(errs.sum()) / g
    if not errs.sum() <= 100.0 * tol * np.abs(vals).sum():
        raise EvaluationError(
            "Caputo integral %.3g with level change %.3g is outside the "
            "relative budget of its panels" % (val, err),
            partial=val, bound=err)
    return val, err


def caputo(f, alpha, x):
    """Caputo derivative of order alpha in (1,2) at x > 0."""
    alpha = _alpha_of(alpha)
    if not x > 0.0:
        raise DomainError("caputo requires x > 0")
    return _caputo_core(f.eval_f2, alpha, x, REL_TOL)[0]


def _delta_plus(f, alpha, x, tol):
    """delta_plus and the error estimate of its Caputo integral."""
    if not x > 0.0:
        raise DomainError("caputo requires x > 0")
    val, err = _caputo_core(f.eval_f2, alpha, x, tol)
    if not f.fprime0_is_zero:
        val += f.eval_f1(0.0) * x ** (1.0 - alpha) / gamma(2.0 - alpha)
    return val, err


def delta_plus(f, alpha, x, tol=REL_TOL):
    """Caputo plus the f'(0) boundary term: the reflected generator form."""
    return _delta_plus(f, _alpha_of(alpha), x, tol)[0]


def _within_budget(val, err, what):
    """val, unless err exceeds 100 times the relative budget of val: the
    boundary terms cancel the Caputo integral as x grows, and the sum then
    keeps the integral's absolute error, not its relative one."""
    if not err <= 100.0 * REL_TOL * abs(val):
        raise EvaluationError(
            "%s %.3g with error estimate %.3g is outside the tolerance "
            "budget" % (what, val, err), partial=val, bound=err)
    return val


def rl_left_alpha(f, alpha, x):
    """Left Riemann-Liouville derivative of order alpha (adds the f(0) term).

    EvaluationError is raised, as in rl_left_alpha_minus1, once the Caputo
    integral's error estimate exceeds 100 times the relative budget of the
    sum."""
    alpha = _alpha_of(alpha)
    val, err = _delta_plus(f, alpha, x, REL_TOL)
    val += f.eval_f(0.0) * x ** (-alpha) / gamma(1.0 - alpha)
    return _within_budget(val, err, "order alpha derivative")


def rl_left_alpha_minus1(g, alpha, x):
    """Left RL derivative of order alpha-1 in (0,1), for absolutely continuous g.

    The Caputo integral and the g(0) term cancel as x grows (to one part in
    x for g(0) != 0); EvaluationError is raised once the integral's error
    estimate exceeds 100 times the relative budget of their sum.
    """
    alpha = _alpha_of(alpha)
    if not x > 0.0:
        raise DomainError("rl_left_alpha_minus1 requires x > 0")
    val, err = _caputo_core(g.eval_f1, alpha, x, REL_TOL)
    val += g.eval_f(0.0) * x ** (1.0 - alpha) / gamma(2.0 - alpha)
    return _within_budget(val, err, "order alpha-1 derivative")


def _right_core(dfun, kappa, gam, x, tol):
    """int_0^inf u^{-kappa} dfun(x+u) du for kappa in (0,1), plus tail bound.

    x is a float or an array of start points, and the value has its shape.
    The integral is split at u = 1: below under u = s^{1/(1-kappa)}, above
    in log u up to T = TAIL_CUTOFF, both on the tanh-sinh rule with one
    row per start point.  gam is the certified decay exponent of dfun; the
    tail beyond T is bounded, per start point, by sup y^gam |dfun(y)| *
    T^{1-kappa-gam}/(gam-(1-kappa)), which must stay within 1e3 times the
    accuracy asked of the quadratures.
    """
    if gam <= 1.0 - kappa:
        raise DomainError("decay exponent too small for the improper tail")
    T = TAIL_CUTOFF
    xs = np.asarray(x, dtype=float)
    col = xs.reshape(-1, 1)
    n = col.shape[0]
    p = 1.0 / (1.0 - kappa)

    # every row has the same nodes, those of its first
    near, _ = tanh_sinh(lambda s, _: p * dfun(col + s[0] ** p),
                        np.zeros(n), np.ones(n), tol)
    far, _ = tanh_sinh(
        lambda m, _: np.exp((1.0 - kappa) * m[0]) * dfun(col + np.exp(m[0])),
        np.zeros(n), np.full(n, math.log(T)), tol)
    val = near + far
    with np.errstate(over="ignore", invalid="ignore"):
        sup = np.max([np.abs((k * (col + T)) ** gam * dfun(k * (col + T)))
                      for k in (1.0, 2.0, 5.0)], axis=0)[:, 0]
    tail_bound = sup * T ** (1.0 - kappa - gam) / (gam - (1.0 - kappa))
    over = ~(tail_bound <= 1e3 * np.maximum(tol / 1e4, tol * np.abs(val)))
    if over.any():
        i = np.argmax(over)
        if not np.isfinite(sup[i]):
            raise EvaluationError("improper-tail probe overflows at x = %.3g"
                                  % col[i, 0], partial=float(val[i]),
                                  bound=math.inf)
        raise EvaluationError("improper-tail bound %.3g exceeds tolerance "
                              "budget" % tail_bound[i], partial=float(val[i]),
                              bound=float(tail_bound[i]))
    return float(val[0]) if xs.ndim == 0 else val.reshape(xs.shape)


def rl_right(f, alpha, x, tol=REL_TOL):
    """Right RL derivative (1/G(2-a)) int_0^inf u^{1-a} f''(x+u) du, x >= 0.

    x is a float or an array of them, and the value has its shape."""
    alpha = _alpha_of(alpha)
    if not np.all(np.asarray(x) >= 0.0):
        raise DomainError("rl_right requires x >= 0")
    core = _right_core(f.eval_f2, alpha - 1.0, f.decay_gamma, x, tol)
    return core / gamma(2.0 - alpha)


def reflected_generator_general(f, idx, x):
    """Generator of the sup-reflected process for alpha in (0,2)\\{1}."""
    if not isinstance(idx, GeneralIndex):
        raise DomainError("reflected_generator_general requires a GeneralIndex")
    if not x > 0.0:
        raise DomainError("x must be positive")
    a = idx.alpha
    ga = gamma(-a)
    if a > 1.0:
        dplus = rl_left_alpha(f, a, x) if idx.cminus != 0.0 else 0.0
        dminus = rl_right(f, a, x) if idx.cplus != 0.0 else 0.0
    else:
        # single-integration one-sided forms valid for alpha in (0,1)
        p = 1.0 / (1.0 - a)
        dplus = 0.0
        if idx.cminus != 0.0:
            inner, _ = adaptive_quad(
                lambda s: f.eval_f1(x * (1.0 - s ** p)), 0.0, 1.0)
            inner *= x ** (1.0 - a) / (1.0 - a)
            dplus = -(inner + f.eval_f(0.0) * x ** (-a)) / (a * ga)
        dminus = 0.0
        if idx.cplus != 0.0:
            dminus = _right_core(f.eval_f1, a, f.decay_gamma, x,
                                 REL_TOL) / (a * ga)
    return ga * (idx.cminus * dplus + idx.cplus * dminus) \
        + idx.cminus * f.eval_f(0.0) / (a * x ** a)
