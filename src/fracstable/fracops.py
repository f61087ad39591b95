"""Riemann-Liouville / Caputo fractional derivatives and reflected generators.

All left-sided operators route through the Caputo integral plus exact
boundary corrections; the (x-u)^{1-alpha} endpoint singularity is removed
analytically by the substitution u = x(1 - s^{1/(2-alpha)}).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, EvaluationError
from .gammafn import gamma
from .quadrature import DEFAULT_CFG, QuadratureConfig, adaptive_quad
from .specfun import GeneralIndex, _alpha_of

_DECAY_PROBES = (1e2, 1e3, 1e4)
_SMOKE_GRID = (0.3, 0.7, 1.5, 3.0)


@dataclass(frozen=True)
class SmoothTestFunction:
    """A C^2 function on [0, inf) with analytic derivatives and certified decay.

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


def _caputo_core(d2, alpha, x, cfg):
    # (1/G(2-a)) int_0^x f''(u) (x-u)^{1-a} du via u = x(1 - s^{1/(2-a)})
    p = 1.0 / (2.0 - alpha)
    pref = x ** (2.0 - alpha) / ((2.0 - alpha) * gamma(2.0 - alpha))
    # reserve a panel near s = 1 (u near 0) for kernel-composed integrands
    s_split = (1.0 - cfg.singular_split) ** (2.0 - alpha)
    val, _ = adaptive_quad(lambda s: d2(x * (1.0 - s ** p)), 0.0, 1.0,
                           cfg, points=[s_split])
    return pref * val


def caputo(f, alpha, x, cfg=DEFAULT_CFG):
    """Caputo derivative of order alpha in (1,2) at x > 0."""
    alpha = _alpha_of(alpha)
    if x <= 0.0:
        raise DomainError("caputo requires x > 0")
    return _caputo_core(f.eval_f2, alpha, x, cfg)


def delta_plus(f, alpha, x, cfg=DEFAULT_CFG):
    """Caputo plus the f'(0) boundary term: the reflected generator form."""
    alpha = _alpha_of(alpha)
    val = caputo(f, alpha, x, cfg)
    if not f.fprime0_is_zero:
        val += f.eval_f1(0.0) * x ** (1.0 - alpha) / gamma(2.0 - alpha)
    return val


def rl_left_alpha(f, alpha, x, cfg=DEFAULT_CFG):
    """Left Riemann-Liouville derivative of order alpha (adds the f(0) term)."""
    alpha = _alpha_of(alpha)
    return delta_plus(f, alpha, x, cfg) \
        + f.eval_f(0.0) * x ** (-alpha) / gamma(1.0 - alpha)


def rl_left_alpha_minus1(g, alpha, x, cfg=DEFAULT_CFG):
    """Left RL derivative of order alpha-1 in (0,1), for absolutely continuous g."""
    alpha = _alpha_of(alpha)
    if x <= 0.0:
        raise DomainError("rl_left_alpha_minus1 requires x > 0")
    val = _caputo_core(g.eval_f1, alpha, x, cfg)
    return val + g.eval_f(0.0) * x ** (1.0 - alpha) / gamma(2.0 - alpha)


def _right_core(dfun, kappa, gam, x, cfg):
    """int_0^inf u^{-kappa} dfun(x+u) du for kappa in (0,1), plus tail bound.

    gam is the certified decay exponent of dfun; the tail beyond the cutoff
    is bounded by sup y^gam |dfun(y)| * T^{1-kappa-gam}/(gam-(1-kappa)).
    """
    if gam <= 1.0 - kappa:
        raise DomainError("decay exponent too small for the improper tail")
    T = cfg.tail_cutoff
    c = min(1.0, T)
    p = 1.0 / (1.0 - kappa)
    near, _ = adaptive_quad(lambda s: dfun(x + c * s ** p), 0.0, 1.0, cfg)
    near *= c ** (1.0 - kappa) / (1.0 - kappa)
    far = 0.0
    if T > c:
        far, _ = adaptive_quad(lambda u: u ** (-kappa) * dfun(x + u),
                               c, T, cfg)
    m = max(abs((x + T) ** gam * dfun(x + T)),
            abs((2.0 * (x + T)) ** gam * dfun(2.0 * (x + T))),
            abs((5.0 * (x + T)) ** gam * dfun(5.0 * (x + T))))
    tail_bound = m * T ** (1.0 - kappa - gam) / (gam - (1.0 - kappa))
    val = near + far
    if tail_bound > 1e3 * max(cfg.abs_tol, cfg.rel_tol * abs(val)):
        raise EvaluationError("improper-tail bound %.3g exceeds tolerance "
                              "budget" % tail_bound,
                              partial=val, bound=tail_bound)
    return val


def rl_right(f, alpha, x, cfg=DEFAULT_CFG):
    """Right RL derivative (1/G(2-a)) int_0^inf u^{1-a} f''(x+u) du, x >= 0."""
    alpha = _alpha_of(alpha)
    if x < 0.0:
        raise DomainError("rl_right requires x >= 0")
    core = _right_core(f.eval_f2, alpha - 1.0, f.decay_gamma, x, cfg)
    return core / gamma(2.0 - alpha)


def reflected_generator_general(f, idx, x, cfg=DEFAULT_CFG):
    """Generator of the sup-reflected process for alpha in (0,2)\\{1}."""
    if not isinstance(idx, GeneralIndex):
        raise DomainError("reflected_generator_general requires a GeneralIndex")
    if x <= 0.0:
        raise DomainError("x must be positive")
    a = idx.alpha
    ga = gamma(-a)
    if a > 1.0:
        dplus = rl_left_alpha(f, a, x, cfg) if idx.cminus != 0.0 else 0.0
        dminus = rl_right(f, a, x, cfg) if idx.cplus != 0.0 else 0.0
    else:
        # single-integration one-sided forms valid for alpha in (0,1)
        p = 1.0 / (1.0 - a)
        dplus = 0.0
        if idx.cminus != 0.0:
            inner, _ = adaptive_quad(
                lambda s: f.eval_f1(x * (1.0 - s ** p)), 0.0, 1.0, cfg)
            inner *= x ** (1.0 - a) / (1.0 - a)
            dplus = -(inner + f.eval_f(0.0) * x ** (-a)) / (a * ga)
        dminus = 0.0
        if idx.cplus != 0.0:
            dminus = _right_core(f.eval_f1, a, f.decay_gamma, x, cfg) / (a * ga)
    return ga * (idx.cminus * dplus + idx.cplus * dminus) \
        + idx.cminus * f.eval_f(0.0) / (a * x ** a)
