"""Executable certificates: each check returns a structured report whose
passed flag is a pure function of its inputs and seed."""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dist import (kernel_apply, kernel_apply_d2, mom_V, mom_X, mom_Xhat,
                   stable_increment_sample, valpha_sample, xhat_sample)
from .errors import DomainError
from .fracops import SmoothTestFunction, delta_plus, is_in_domain_D, rl_right
from .pathsim import MOMENT_GRID, Reflect, reflected_sample
from .quadrature import REL_TOL
from .resolvent import (u1_resolvent_function, uhat1_resolvent_function,
                        rep_pointwise)
from .specfun import ml_jet, psi, psi_integral, _alpha_of

_KS_C = 1.63   # two-sample KS critical constant at the 1% level


@dataclass
class VerificationReport:
    check_name: str
    alpha: float
    params: dict
    residuals: list          # (location, value) pairs
    max_abs_residual: float
    tolerance: float
    passed: bool
    runtime_ms: int
    seed: Optional[int] = None

    def to_dict(self):
        return {
            "check": self.check_name,
            "alpha": self.alpha,
            "params": self.params,
            "grid": [loc for loc, _ in self.residuals],
            "residuals": [val for _, val in self.residuals],
            "max_abs_residual": self.max_abs_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }


def _finish(name, alpha, params, residuals, tolerance, t0, seed=None):
    worst = max((abs(v) for _, v in residuals), default=0.0)
    if any(math.isnan(v) for _, v in residuals):
        worst = math.nan   # max() passes over a NaN after the first entry
    return VerificationReport(
        check_name=name, alpha=alpha, params=params,
        residuals=[(loc, float(v)) for loc, v in residuals],
        max_abs_residual=float(worst), tolerance=float(tolerance),
        passed=bool(worst <= tolerance),
        runtime_ms=int(round((time.perf_counter() - t0) * 1e3)), seed=seed)


# ---------------------------------------------------------------------------

def check_intertwining(f, alpha, x_grid):
    """Residuals of  Delta^a_+ V_a f  =  V_a D^a_- f  on the grid.

    Each side is a few matrix products per call of the quadrature rule on
    a block of nodes, levels 0-3 at the first call: the left side
    evaluates (V_a f)'' at every node of the Caputo panels at once, the
    right side D^a_- f at every node of the kernel's panels at once."""
    t0 = time.perf_counter()
    tolerance, abs_floor = 1e-3, 1e-6
    alpha = _alpha_of(alpha)
    ok, diag = is_in_domain_D(f, alpha)
    if not ok:
        failed = [k for k, v in diag.items() if v is False]
        raise DomainError("test function is not in the operator domain: %s"
                          % ", ".join(failed))
    outer = REL_TOL * 10.0
    vf = SmoothTestFunction(
        eval_f=lambda x: kernel_apply(f, alpha, x),   # floats; unused
        eval_f1=lambda x: 0.0,          # unused: (V_a f)'(0) = 0 for f in D
        eval_f2=lambda x: kernel_apply_d2(f, alpha, x),
        decay_gamma=f.decay_gamma, fprime0_is_zero=True)
    rlf = lambda y: rl_right(f, alpha, y, outer)
    residuals = []
    for x in x_grid:
        lhs = delta_plus(vf, alpha, float(x), outer)
        rhs = kernel_apply(rlf, alpha, float(x), outer)
        denom = max(abs(rhs), abs(lhs), abs_floor / tolerance)
        residuals.append((float(x), abs(lhs - rhs) / denom))
    params = {"function": getattr(f, "name", None), "abs_floor": abs_floor,
              "rel_tol": REL_TOL}
    return _finish("intertwining", alpha, params, residuals, tolerance, t0)


def check_factorization(alpha, s_grid):
    """The moment factorization as a pure Gamma/sine identity."""
    t0 = time.perf_counter()
    alpha = _alpha_of(alpha)
    residuals = []
    for s in s_grid:
        s = float(s)
        prod = mom_V(alpha, s) * mom_Xhat(alpha, s)
        residuals.append((s, abs(mom_X(alpha, s) - prod) / mom_X(alpha, s)))
    return _finish("factorization", alpha, {"s_grid": list(map(float, s_grid))},
                   residuals, 1e-12, t0)


def check_identity_law(alpha, n_exact, path_cfg):
    """X_1 = V_a x Xhat_1 in law: exact stick-breaking draws of X_1, as
    many as path_cfg.n_paths (n_steps is not read), against exact product
    draws.  Residuals are normalized by their decision limits (the 1% KS
    threshold; 3 standard errors of each population's s-th moment against
    mom_X, at each s in MOMENT_GRID), so the tolerance is 1.
    """
    t0 = time.perf_counter()
    alpha = _alpha_of(alpha)
    if path_cfg.reflect is not Reflect.AtSupremum or path_cfg.horizon != 1:
        raise DomainError("the identity in law is certified for X_1: the "
                          "config must reflect at the supremum over horizon 1")
    if n_exact < 1000 or path_cfg.n_paths < 1000:
        raise DomainError("sample sizes must be at least 1e3")
    seed = path_cfg.seed
    pop_a = reflected_sample(alpha, path_cfg.n_paths, seed)
    pop_b = valpha_sample(alpha, n_exact, seed + 1) \
        * xhat_sample(alpha, n_exact, seed + 2)
    ks = ks_two_sample(pop_a, pop_b)
    residuals = [("ks", ks.statistic / ks.threshold)]
    for s in MOMENT_GRID:
        target = mom_X(alpha, s)
        for name, pop in (("product", pop_b), ("stick", pop_a)):
            w = pop ** s
            se = w.std() / math.sqrt(len(w))
            residuals.append((f"moment_{name}_s={s}",
                              abs(w.mean() - target) / (3.0 * se)))
    params = {"n_exact": int(n_exact), "n_paths": path_cfg.n_paths,
              "ks_statistic": ks.statistic, "ks_threshold": ks.threshold,
              "ks_allowance": 0.0, "level": 0.01}
    return _finish("identity-law", alpha, params, residuals, 1.0, t0,
                   seed=seed)


# ---------------------------------------------------------------------------
# complete monotonicity, by exact series arithmetic on Taylor jets

def _divide(a, b):
    """The first len(a) Taylor coefficients of the quotient a / b."""
    q = []
    for m, am in enumerate(a):
        q.append((am - sum(b[j] * q[m - j] for j in range(1, m + 1))) / b[0])
    return q


def _ml_taylor(alpha, x, n):
    return [d / math.factorial(m) for m, d in enumerate(ml_jet(alpha, x, n))]


def _derivs(coeffs):
    return [float(math.factorial(m) * c) for m, c in enumerate(coeffs)]


def recip_ml_derivs(alpha, x, n_max):
    """Derivatives of 1/E_alpha: the series reciprocal of E_alpha's jet."""
    import mpmath as mp

    with mp.workdps(40):
        return _derivs(_divide([1] + [0] * n_max, _ml_taylor(alpha, x, n_max)))


def fmf_derivs(alpha, x, n_max):
    """Derivatives of F_alpha - F'_alpha from F_alpha's term-wise derivatives
    at 30 + x/2 digits, which absorb the e^x-scale cancellation."""
    import mpmath as mp

    with mp.workdps(int(30 + 0.5 * x)):
        d = ml_jet(alpha, x, n_max + 1, p=alpha)
        return [float(d[n] - d[n + 1]) for n in range(n_max + 1)]


def exp_ratio_derivs(alpha, x, n_max):
    """Derivatives of h = exp(-x E'_a/E_a): q = E'/E by series division,
    g = -(x + eps) q, and h = exp(g) through h' = g' h."""
    import mpmath as mp

    with mp.workdps(40):
        e = _ml_taylor(alpha, x, n_max + 1)
        q = _divide([(m + 1) * e[m + 1] for m in range(n_max + 1)], e)
        g = [-(x * q[m] + (q[m - 1] if m else 0)) for m in range(n_max + 1)]
        h = [mp.exp(g[0])]
        for m in range(1, n_max + 1):
            h.append(sum(j * g[j] * h[m - j] for j in range(1, m + 1)) / m)
        return _derivs(h)


# target -> (derivatives, slack, largest certified n_max)
CM_TARGETS = {
    "recip_ML": (recip_ml_derivs, 1e-10, 10),
    "F_minus_Fprime": (fmf_derivs, 1e-10, 10),
    "exp_ratio": (exp_ratio_derivs, 1e-6, 6),
}


def check_cm(target, alpha, n_max, x_grid):
    """Sign alternation (-1)^n d^n/dx^n >= -slack for the three CM claims."""
    t0 = time.perf_counter()
    if target not in CM_TARGETS:
        raise DomainError("unknown CM target %r" % (target,))
    fn, slack, cap = CM_TARGETS[target]
    if n_max > cap:
        raise DomainError("n_max too large for target %s" % target)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    a = float(alpha)
    if not (0.0 < a <= 2.0 if target == "recip_ML" else 1.0 < a < 2.0):
        raise DomainError("alpha out of range for target %s" % target)
    grid = [float(x) for x in x_grid]
    if not all(0.0 <= x < math.inf for x in grid):
        raise DomainError("CM certificates require finite x >= 0")
    if target == "F_minus_Fprime" and 0.0 in grid:
        # F' ~ x^(alpha-1), so its derivatives are singular at 0
        raise DomainError("F_minus_Fprime requires x > 0")
    residuals = []
    for x in grid:
        for n, v in enumerate(fn(a, x, n_max)):
            w = -((-1.0) ** n) * v
            residuals.append(((x, n), w if math.isnan(w) else max(0.0, w)))
    return _finish("cm-%s" % target, a, {"n_max": n_max, "slack": slack},
                   residuals, slack, t0)


# ---------------------------------------------------------------------------

def check_resolvent_generator(f, alpha, x_grid):
    """Generator-resolvent identities for both reflected processes, plus the
    zero boundary derivative.  Boundary residuals are rescaled by
    tolerance/boundary_tolerance so one tolerance governs the report."""
    t0 = time.perf_counter()
    tolerance, boundary_tolerance = 1e-3, 1e-4
    alpha = _alpha_of(alpha)
    g = uhat1_resolvent_function(f, alpha)
    h = u1_resolvent_function(f, alpha)
    residuals = []
    for x in x_grid:
        x = float(x)
        r = delta_plus(g, alpha, x) - g.eval_f(x) + f.eval_f(x)
        residuals.append((("uhat", x), abs(r)))
        r = rl_right(h, alpha, x) - h.eval_f(x) + f.eval_f(x)
        residuals.append((("u1", x), abs(r)))
    scale = tolerance / boundary_tolerance
    for name, fun in (("uhat_boundary", g.eval_f), ("u1_boundary", h.eval_f)):
        d0 = _one_sided_derivative(fun, alpha)
        residuals.append(((name, 0.0), abs(d0) * scale))
    params = {"function": getattr(f, "name", None),
              "boundary_tolerance": boundary_tolerance}
    return _finish("resolvent-generator", alpha, params, residuals,
                   tolerance, t0)


def _one_sided_derivative(fun, alpha):
    """f'(0+) for f(x) = f(0) + f'(0) x + c x^alpha + O(x^2): two-stage
    Richardson eliminating the x^{alpha-1} and x terms of the quotient."""
    h0 = 1e-3
    f0 = fun(0.0)
    d = [(fun(h0 / 2 ** i) - f0) / (h0 / 2 ** i) for i in range(3)]
    r = 2.0 ** (alpha - 1.0)
    e = [(r * d[i + 1] - d[i]) / (r - 1.0) for i in range(2)]
    return 2.0 * e[1] - e[0]


def check_lamperti(alpha, lambda_grid):
    """psi_integral vs the Gamma-ratio psi."""
    t0 = time.perf_counter()
    alpha = _alpha_of(alpha)
    residuals = []
    for lam in lambda_grid:
        lam = float(lam)
        a = psi_integral(alpha, lam)
        b = psi(alpha, lam)
        residuals.append((lam, abs(a - b) / b if b != 0.0 else abs(a)))
    return _finish("lamperti", alpha, {"lambda_grid": list(map(float,
                                                               lambda_grid))},
                   residuals, 1e-6, t0)


def check_rep(alpha, y_grid):
    """Recurrent-extension entrance law vs u1(0, .)."""
    t0 = time.perf_counter()
    alpha = _alpha_of(alpha)
    residuals = []
    for y in y_grid:
        y = float(y)
        lhs, rhs = rep_pointwise(alpha, y)
        if lhs <= 0.0 or rhs <= 0.0:
            raise DomainError("entrance-law sides must be positive")
        residuals.append((y, abs(lhs - rhs) / rhs))
    return _finish("rep", alpha, {"y_grid": list(map(float, y_grid))},
                   residuals, 1e-4, t0)


def check_laplace_normalization(alpha, lambda_grid, n, seed):
    """MC certificate of E[e^{lam Z_1}] = e^{lam^alpha}; residuals in units
    of 3 standard errors (tolerance 1)."""
    t0 = time.perf_counter()
    alpha = _alpha_of(alpha)
    if n < 10 ** 4:
        raise DomainError("n must be at least 1e4")
    z = stable_increment_sample(alpha, n, seed)
    residuals = []
    for lam in lambda_grid:
        lam = float(lam)
        if lam == 0.0:
            residuals.append((lam, 0.0))
            continue
        w = np.exp(lam * z)
        target = math.exp(lam ** alpha)
        se = w.std() / math.sqrt(n)
        residuals.append((lam, abs(w.mean() - target) / (3.0 * se)))
    return _finish("laplace-normalization", alpha, {"n": int(n)},
                   residuals, 1.0, t0, seed=int(seed))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    reject: bool


def ks_two_sample_arrays(a, b):
    """Two-sample KS statistic, the sup distance of the empirical CDFs,
    taken at the last point of each tie run of either sorted population.
    There the larger population's points count the smaller one by a
    bincount of its insertion points, and the smaller one's points count
    the larger one by search: the counts, so every float |F_a - F_b|, are
    those of an evaluation at every point of the pooled sample."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) < len(b):
        a, b = b, a
    na, nb = len(a), len(b)
    last_a = np.append(a[1:] != a[:-1], True)
    last_b = np.append(b[1:] != b[:-1], True)
    b_at_a = np.cumsum(np.bincount(np.searchsorted(a, b, side="left"),
                                   minlength=na + 1))[:na]
    at_a = np.arange(1, na + 1)[last_a] / na - b_at_a[last_a] / nb
    at_b = (np.searchsorted(a, b[last_b], side="right") / na
            - np.arange(1, nb + 1)[last_b] / nb)
    return float(max(np.max(np.abs(at_a)), np.max(np.abs(at_b))))


def ks_two_sample(a, b):
    """KS decision at the 1% level for two sample arrays."""
    if len(a) == 0 or len(b) == 0:
        raise DomainError("populations must be nonempty")
    stat = ks_two_sample_arrays(a, b)
    threshold = _KS_C * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    return KSResult(stat, threshold, stat > threshold)
