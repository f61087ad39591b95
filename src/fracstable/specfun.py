"""Mittag-Leffler family E_alpha, F_alpha and the Gamma-ratio exponents.

E_alpha and F_alpha(x) = E_alpha(x^alpha) share one float series,
sum_n x^(p n) / Gamma(alpha n + 1) differentiated term by term, with p = 1
for E_alpha and p = alpha for F_alpha, so F, F' and F'' are each summed
from F_alpha's own series.

Branch layout for the exponential-scale family F_alpha:

* its own series for moderate arguments,
* e^x/alpha plus the remainder A for x > F_SWITCH,
* the remainders A = F - e^x/alpha, B = F' - e^x/alpha, C = F'' - e^x/alpha
  in three branches: series-minus-exponential below _REM_MP_FROM (x < 3),
  a Laplace integral of a positive density on [3, REM_SWITCH), and the
  K-term asymptotic correction from REM_SWITCH (x = 30) up.  With
  s = sin(pi alpha), c = cos(pi alpha), Q(v) = (v^alpha - c)^2 + s^2,

      A, B, C = (-1)^d (|s|/pi) int_0^inf v^(alpha-1+d) e^(-x v) / Q(v) dv

  for d = 0, 1, 2 (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal. 5
  (2002)); the integrand is positive, so nothing cancels.  Only e^(-x v)
  depends on x, so every x of [3, 30] shares one tanh-sinh node table per
  (alpha, d), built once in t = log v and kept in a bounded cache.

F_family also takes an ndarray of x > 0, the node arrays of the vectorized
quadrature rule.  It sums the same positive series there as one log-space
matrix, on every x up to the float overflow of F, so it has no branches.
_F_rows, its one array kernel, takes F at x_i s_k for a row of x and a
level of shares s in (0, 1] as one matrix product, the form of a
convolution's nodes on [0, x_i].
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, RootNotFoundError
from .gammafn import cospi, gamma, rgamma, sinpi
from .quadrature import _TS_LEVELS, REL_TOL, adaptive_quad

# Series/asymptotic switch for F_alpha (argument x scale) and the point where
# remainder evaluation moves from the Laplace integral to the asymptotic tail.
F_SWITCH = 25.0
REM_SWITCH = 30.0
ASYM_TERMS = 6
REM_ASYM_TERMS = 9
MAX_TERMS = 600
ML_REL_TOL = 1e-12   # series truncation: last term below this times the sum
JET_MAX_TERMS = 2000  # term budget of the mpmath derivative series ml_jet


@dataclass(frozen=True)
class GeneralIndex:
    """Stability parameter in (0,2)\\{1} with one-sided jump weights."""

    alpha: float
    cplus: float
    cminus: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0) or self.alpha == 1.0:
            raise DomainError("alpha must lie in (0,2) and differ from 1")
        if not (self.cplus >= 0.0 and self.cminus >= 0.0):
            raise DomainError("jump weights must be nonnegative")
        if self.cplus + self.cminus <= 0.0:
            raise DomainError("at least one jump weight must be positive")


def _alpha_of(alpha):
    """Check that alpha lies in (1,2) and return it as a float."""
    if not 1.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (1,2)")
    return float(alpha)


def _ml_series(alpha, x, deriv, p):
    """d^deriv/dx^deriv sum_n x^(p n) / Gamma(alpha n + 1), term by term.

    Term n is e (e-1) ... (e-deriv+1) x^(e-deriv) / Gamma(alpha n + 1) with
    e = p n, so every term is >= 0; terms whose falling factorial vanishes
    are skipped.  p = 1 gives E_alpha and p = alpha gives F_alpha.  Returns
    the sum at the first term that is both smaller than the one before it
    and below ML_REL_TOL times the sum.
    """
    total = 0.0
    last = math.inf
    for n in range(MAX_TERMS):
        e = p * n
        if deriv == 0:
            ff = 1.0
        elif deriv == 1:
            ff = e
        else:
            ff = e * (e - 1.0)
        if not ff:
            continue
        t = ff * x ** (e - deriv) * rgamma(alpha * n + 1.0)
        total += t
        if t < last and t <= ML_REL_TOL * total:
            return total
        last = t
    raise EvaluationError("Mittag-Leffler series did not converge in %d terms"
                          % MAX_TERMS, partial=total, bound=last)


def _exp(z):
    """e^z, with float overflow raised as EvaluationError."""
    try:
        return math.exp(z)
    except OverflowError:
        raise EvaluationError("e^%.6g overflows float range" % z) from None


def mittag_leffler(alpha, x, deriv=0):
    """E_alpha^{(deriv)}(x) for alpha in (0,2], x >= 0, deriv in {0,1,2}."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError("mittag_leffler requires alpha in (0,2]")
    if not x >= 0.0:
        raise DomainError("mittag_leffler requires x >= 0")
    if deriv not in (0, 1, 2):
        raise DomainError("deriv must be 0, 1 or 2")

    z = x ** (1.0 / alpha) if x > 0.0 else 0.0
    if z <= F_SWITCH:
        return _ml_series(alpha, x, deriv, 1)

    # exponential branch: E_alpha(x) ~ e^z/alpha - sum_k x^{-k}/Gamma(1-alpha k)
    ez = _exp(z)
    if deriv == 0:
        val = ez / alpha
        for k in range(1, ASYM_TERMS + 1):
            val -= x ** (-float(k)) * rgamma(1.0 - alpha * k)
    elif deriv == 1:
        val = ez * z / (alpha * alpha * x)
        for k in range(1, ASYM_TERMS + 1):
            val += k * x ** (-float(k) - 1.0) * rgamma(1.0 - alpha * k)
    else:
        ia = 1.0 / alpha
        val = ez / (alpha * alpha) * ((ia - 1.0) * x ** (ia - 2.0)
                                      + ia * x ** (2.0 * ia - 2.0))
        for k in range(1, ASYM_TERMS + 1):
            val -= k * (k + 1.0) * x ** (-float(k) - 2.0) \
                * rgamma(1.0 - alpha * k)
    # E_alpha(inf) = inf is returned as its limit; inf at finite x is an
    # overflow, and the derivatives at x = inf come out as inf * 0 = nan
    if val != val or (val == math.inf and x < math.inf):
        raise EvaluationError("E_alpha^(%d)(%.6g) is beyond float range"
                              % (deriv, x))
    return val


# Below _REM_MP_FROM series-minus-exp loses at most ~1e-9 of the remainders
# to the e^x cancellation (for alpha >= 1.05); from it up to REM_SWITCH the
# Laplace integral serves them.  certbench classifies F_remainders calls by
# both names.
_REM_MP_FROM = 3.0
# a level change within rel 1e-10 of the whole integral: the value stays
# within 3e-14 of _rem_series_mp's
_REM_TOL = REL_TOL * 0.01
# half-width of the theta panel around 1/Q's peak, in v^alpha - c: 100 |s|
# covers the peak, and at least 1e-4 keeps v^alpha - c, rounded in float,
# accurate to 1e-12 relative on the t panels beside it
_PEAK_PANEL = 100.0
_PEAK_FLOOR = 1e-4
# t = log v runs from _T_LOW - 40/(alpha + d), where the integrand's share
# below is at most e^-40 at x <= 30, to log 20, where e^(-x v) <= e^-60
_T_LOW = -math.log(REM_SWITCH)
_T_HIGH = math.log(20.0)
_REM_TABLE_CACHE_SIZE = 32   # node tables kept, one per (alpha, d)
_TS_STEPS = np.array([h for h, _, _, _ in _TS_LEVELS])


def _rem_series_mp(alpha, x, which):
    """Series-minus-exponential remainder in extended precision.

    Term-wise, F^{(d)}(x) = sum_n x^{alpha n - d} / Gamma(alpha n + 1 - d),
    summed at 34 + 0.45 x digits.  The library no longer calls it: it is
    the extended-precision reference the tests hold _rem_integral to, and
    the function certbench's specfun.mp_bridge layer binds.
    """
    import mpmath as mp

    d = {"A": 0, "B": 1, "C": 2}[which]
    dps = int(34 + 0.45 * x)
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        xm = mp.mpf(x)
        total = mp.mpf(0)
        n = 1 if d else 0
        while True:
            t = xm ** (am * n - d) * mp.rgamma(am * n + 1 - d)
            total += t
            if am * n > x and t < total * mp.mpf(10) ** (-dps):
                break
            n += 1
        return float(total - mp.e ** xm / am)


@functools.lru_cache(maxsize=_REM_TABLE_CACHE_SIZE)
def _rem_table(alpha, d):
    """The tanh-sinh nodes v and weights of _rem_integral at (alpha, d),
    every panel's nodes of a level together, coarsest level first, and the
    offset of each level in them.  A weight holds everything of the
    integrand but e^(-x v): the sign (-1)^d, the panel's width and the
    rest of the density in the panel's variable."""
    ms, c = -sinpi(alpha), cospi(alpha)
    ia = 1.0 / alpha
    t_low = _T_LOW - 40.0 / (alpha + d)

    def t_density(t):
        v = np.exp(t)
        return v, ms / math.pi * v ** (alpha + d) / ((v ** alpha - c) ** 2
                                                    + ms * ms)

    if c <= 0.0:
        # Q >= 1 increases with v: no peak
        panels = [(t_low, 0.0, t_density), (0.0, _T_HIGH, t_density)]
    else:
        w = min(max(_PEAK_PANEL * ms, _PEAK_FLOOR), 0.5 * c)
        th = math.atan(w / ms)

        def theta_density(theta):
            v = (c + ms * np.tan(theta)) ** ia
            return v, v ** d / (alpha * math.pi)

        below = ia * math.log(c - w)
        panels = [(-th, th, theta_density),
                  (ia * math.log(c + w), _T_HIGH, t_density)]
        # just above alpha = 3/2 the theta panel may reach below t_low
        if below > t_low:
            panels.append((t_low, below, t_density))
    sign = -1.0 if d == 1 else 1.0
    nodes, weights, starts = [], [], []
    for _, pa, _, wt in _TS_LEVELS:
        starts.append(sum(v.size for v in nodes))
        for a, b, density in panels:
            v, f = density(a + (b - a) * pa)
            nodes.append(v)
            weights.append(sign * (b - a) * wt * f)
    table = np.concatenate(nodes), np.concatenate(weights), np.array(starts)
    for arr in table:
        arr.setflags(write=False)
    return table


def _rem_integral(alpha, x, d):
    """The remainder A, B or C (d = 0, 1, 2) at x in [3, 30] as the Laplace
    integral

        (-1)^d (|s|/pi) int_0^inf v^(alpha-1+d) e^(-x v) / Q(v) dv,

    s = sin(pi alpha), c = cos(pi alpha), Q(v) = (v^alpha - c)^2 + s^2,
    on one tanh-sinh node table per (alpha, d) from _rem_table.

    The integrand is taken in t = log v from -log 30 - 40/(alpha + d) to
    log 20, split at v = 1 for c <= 0.  For c > 0 (alpha > 3/2) 1/Q peaks
    at v0 = c^(1/alpha) with width about |s|/alpha; on the panel
    |v^alpha - c| <= w, w <= c/2, the substitution v^alpha - c =
    |s| tan(theta) turns v^(alpha-1) dv / Q into dtheta / (alpha |s|), with
    t panels on each side.  Only e^(-x v) depends on x, so a call sums
    e^(-x v) times the weights level by level and returns the first level
    whose change from the one before is within _REM_TOL of its value.  The
    test is relative only: the integrand is positive, and the values fall
    to 6e-14 (at alpha = 2 - 1e-9, x = 30), below any absolute floor.
    Past the last level it raises EvaluationError.
    """
    if not _REM_MP_FROM <= x <= REM_SWITCH:
        raise DomainError("_rem_integral requires x in [3, 30]")
    nodes, weights, starts = _rem_table(float(alpha), d)
    sums = np.add.reduceat(np.exp(-x * nodes) * weights, starts)
    vals = _TS_STEPS * np.cumsum(sums)
    changes = np.abs(vals[1:] - vals[:-1])
    done = changes <= _REM_TOL * np.abs(vals[1:])
    if not done.any():
        raise EvaluationError(
            "tanh-sinh remainder %.3g with level change %.3g is outside the "
            "tolerance budget" % (vals[-1], changes[-1]),
            partial=float(vals[-1]), bound=float(changes[-1]))
    return float(vals[1 + np.argmax(done)])


def F_remainders(alpha, x, which):
    """A(x) = F - e^x/alpha, B = F' - e^x/alpha, C = F'' - e^x/alpha.

    Three branches: e^x/alpha subtracted from F_alpha's series below
    _REM_MP_FROM (x < 3), where the cancellation is mild; the positive
    Laplace integral of _rem_integral on [3, REM_SWITCH); and the
    asymptotic correction series from REM_SWITCH (x = 30) up.
    """
    alpha = _alpha_of(alpha)
    if not x > 0.0:
        raise DomainError("F_remainders requires x > 0")
    if which not in ("A", "B", "C"):
        raise DomainError("which must be one of 'A', 'B', 'C'")
    deriv = {"A": 0, "B": 1, "C": 2}[which]
    if x < _REM_MP_FROM:
        return F_family(alpha, x, deriv) - math.exp(x) / alpha
    if x < REM_SWITCH:
        return _rem_integral(alpha, x, deriv)
    acc = 0.0
    for k in range(1, REM_ASYM_TERMS + 1):
        ak = alpha * k
        c = rgamma(1.0 - ak) * x ** (-ak)
        if which == "A":
            acc -= c
        elif which == "B":
            acc += ak * c / x
        else:
            acc -= ak * (ak + 1.0) * c / (x * x)
    return acc


# F, F' and F'' all exceed e^x/alpha > DBL_MAX from here on, for alpha < 2
_F_OVERFLOW = 711.0
_TINY = np.finfo(float).tiny   # the smallest normal float


def _F_rows(alpha, xs, shares, deriv):
    """F^(deriv)(x_i s_k) for a 1-D ndarray xs of x > 0 and one of shares s
    in (0, 1], as a matrix with a row per x_i.

    Term n is c_n (x s)^(e - deriv), e = alpha n, c_n = ff_n / Gamma(e + 1)
    with ff_n the falling factorial e (e - 1)... of length deriv.  Each
    row's terms at s = 1 are one matrix of logarithms, scaled by the row's
    largest term; the powers s^(e - deriv) are a second matrix, and one
    matrix product sums every entry.  The terms peak near e = x s and are
    negligible past e = 40 + 3x.  Every term is positive, so digits are
    lost only where a scaled product falls below the float range, which
    drops an entry's leading terms at a small s from about x = 600 on:
    such rows are summed entry by entry, each at its own scale.
    """
    from scipy.special import gammaln

    if deriv not in (0, 1, 2):
        raise DomainError("deriv must be 0, 1 or 2")
    if not (xs > 0.0).all():
        raise DomainError("F_family requires x > 0 at every array entry")
    top = xs.max(initial=0.0)
    if top > _F_OVERFLOW:
        raise EvaluationError("F^(%d)(%.6g) is beyond float range"
                              % (deriv, top))
    e = alpha * np.arange(1 if deriv else 0, (40.0 + 3.0 * top) / alpha + 1)
    coef = -gammaln(e + 1.0)
    if deriv:
        # the falling factorial e (e - 1)... of length deriv
        coef += np.log(e if deriv == 1 else e * (e - 1.0))
    # one matrix, updated in place
    logs = np.multiply.outer(np.log(xs), e - deriv)
    logs += coef
    peak = logs.max(axis=1)
    logs -= peak[:, None]
    powers = np.exp(np.multiply.outer(e - deriv, np.log(shares)))
    sums = np.exp(logs, out=logs) @ powers
    # a scaled term times a power is off by at most a subnormal ulp times
    # the largest power; over e.size terms that stays below an ulp of any
    # sum of at least e.size * tiny times that power
    lost = ~(sums.min(axis=1) >= e.size * _TINY * max(powers.max(), 1.0))
    # a row whose scale overflows raises below, unless it was lost anyway
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(peak)[:, None] * sums
    if lost.any():
        out[lost] = _F_rows(alpha, np.outer(xs[lost], shares).ravel(),
                            np.ones(1), deriv).reshape(-1, shares.size)
    if not np.isfinite(out).all():
        raise EvaluationError("F^(%d) overflows float range below x = %.6g"
                              % (deriv, top))
    return out


def F_family(alpha, x, deriv=0):
    """F_alpha(x) = E_alpha(x^alpha) and its first two derivatives.

    x is a float x >= 0, or an ndarray of x > 0: the rows form of _F_rows
    with the one share s = 1.
    """
    alpha = _alpha_of(alpha)
    if isinstance(x, np.ndarray):
        return _F_rows(alpha, x.ravel(), np.ones(1), deriv).reshape(x.shape)
    if not x >= 0.0:
        raise DomainError("F_family requires x >= 0")
    if deriv not in (0, 1, 2):
        raise DomainError("deriv must be 0, 1 or 2")
    if x == 0.0:
        if deriv == 0:
            return 1.0
        if deriv == 1:
            return 0.0
        raise DomainError("F'' is singular at x = 0")
    if x > F_SWITCH:
        return _exp(x) / alpha + F_remainders(alpha, x, "ABC"[deriv])
    return _ml_series(alpha, x, deriv, alpha)


def ml_jet(alpha, x, n, p=1):
    """[d^m/dx^m sum_k x^(p k) / Gamma(alpha k + 1) for m = 0..n], x >= 0,
    term by term in mpmath at the caller's working precision.

    p = 1 gives E_alpha and p = alpha gives F_alpha(x) = E_alpha(x^alpha).
    Vanishing terms are skipped, so x = 0 works unless one left has p k < m.
    """
    import mpmath as mp

    am, pm, xm = mp.mpf(alpha), mp.mpf(p), mp.mpf(x)
    totals = [mp.mpf(0)] * (n + 1)
    for k in range(JET_MAX_TERMS):
        e = pm * k
        r = mp.rgamma(am * k + 1)
        ff = mp.mpf(1)       # falling factorial e (e-1) ... (e-m+1)
        # past e = n the terms are log-concave in k, so a term below eps
        # times its sum lies in the decreasing tail
        settled = e > n
        for m in range(n + 1):
            if ff:           # 0 when e is an integer below m
                t = ff * xm ** (e - m) * r
                totals[m] += t
                settled = settled and abs(t) <= mp.eps * abs(totals[m])
            ff *= e - m
        if settled:
            return totals
    raise EvaluationError("ml_jet term budget of %d exhausted"
                          % JET_MAX_TERMS, partial=totals, bound=abs(t))


def psi(alpha, lam):
    """Lamperti exponent Gamma(lambda+alpha)/Gamma(lambda); psi(0) = 0."""
    alpha = _alpha_of(alpha)
    if not lam >= 0.0:
        raise DomainError("psi requires lambda >= 0")
    return gamma(lam + alpha) * rgamma(lam)


def psi_general(idx, lam):
    """Two-sided exponent Gamma(-a)(c- G(l+a)/G(l) + c+ G(1-l)/G(1-a-l))."""
    if not isinstance(idx, GeneralIndex):
        raise DomainError("psi_general requires a GeneralIndex")
    a = idx.alpha
    if not -a < lam < 1.0:
        raise DomainError("lambda must lie in (-alpha, 1)")
    return gamma(-a) * (idx.cminus * gamma(lam + a) * rgamma(lam)
                        + idx.cplus * gamma(1.0 - lam) * rgamma(1.0 - a - lam))


def theta_root(idx):
    """Smallest positive root of lambda -> psi_general(idx, -lambda) on (0, alpha)."""
    if not isinstance(idx, GeneralIndex):
        raise DomainError("theta_root requires a GeneralIndex")
    a = idx.alpha
    g = lambda lam: psi_general(idx, -lam)
    n_scan = 4096
    prev_l = a / n_scan
    prev_v = g(prev_l)
    if prev_v == 0.0:
        return prev_l
    for i in range(2, n_scan):
        lam = a * i / n_scan
        v = g(lam)
        if v == 0.0:
            return lam
        if (v > 0.0) != (prev_v > 0.0):
            lo, hi = prev_l, lam
            flo = prev_v
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fm = g(mid)
                if fm == 0.0:
                    return mid
                if (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev_l, prev_v = lam, v
    raise RootNotFoundError("no sign change of psi_general(idx, -lambda) "
                            "found on (0, alpha)")


def psi_integral(alpha, lam):
    """Integral representation of psi, for cross-checking the Gamma ratio.

    After u = e^y - 1 the representation reads
        psi(lam) = lam/((a-1) G(-a)) + (1/G(-a)) int_0^inf
                   ((1+u)^{-lam} - 1 + lam u 1{u<=1}) u^{-1-a} du.
    The (0,1] panel is regularized by h(u) = ((1+u)^{-lam} - 1 + lam u)/u^2
    (smooth, h(0) = lam(lam+1)/2) and the substitution u = w^{1/(2-a)}.
    """
    alpha = _alpha_of(alpha)
    if not lam >= 0.0:
        raise DomainError("psi_integral requires lambda >= 0")
    if lam == 0.0:
        return 0.0
    ga = gamma(-alpha)
    p = 1.0 / (2.0 - alpha)

    def h(u):
        if u < 1e-3:
            # Taylor expansion of ((1+u)^-lam - 1 + lam u)/u^2
            c2 = lam * (lam + 1.0) / 2.0
            c3 = -lam * (lam + 1.0) * (lam + 2.0) / 6.0
            c4 = lam * (lam + 1.0) * (lam + 2.0) * (lam + 3.0) / 24.0
            return c2 + u * (c3 + u * c4)
        return (math.expm1(-lam * math.log1p(u)) + lam * u) / (u * u)

    inner, _ = adaptive_quad(lambda w: h(w ** p), 0.0, 1.0)
    inner *= p

    def tail(r):
        # u = 1/r on (1, inf); integrand ((1+u)^{-lam} - 1) u^{-1-a} du
        return math.expm1(-lam * math.log1p(1.0 / r)) * r ** (alpha - 1.0)

    outer, _ = adaptive_quad(tail, 0.0, 1.0)
    return lam / ((alpha - 1.0) * ga) + (inner + outer) / ga
