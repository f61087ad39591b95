"""Densities, closed-form fractional moments, and exact samplers.

Laws covered: the kernel variable V_alpha and its companion Y_alpha, the
cut-off Cauchy variable Z_beta, the positive (1/alpha)-stable variable T1,
the spectrally negative stable increment Z1, the exact terminal law
Xhat1 = T1^{-1/alpha}, and the exponential functional I_minus
(Gamma-formula moments; density, tail and Laplace transform as inverse
Mellin transforms of those moments, each a line integral on tanh_sinh).
"""

import functools
import math

import numpy as np

from .errors import DomainError, EvaluationError, SamplerError
from .gammafn import gamma, rgamma, sinpi, cospi
from .quadrature import (REL_TOL, TAIL_CUTOFF, _check_cut, adaptive_quad,
                         tanh_sinh)
from .specfun import _alpha_of

_BLOCK = 1 << 16          # sub-stream block length for parallel-safe sampling
_TABLE_NODES = 1 << 10    # inverse-CDF table resolution for V_alpha
_TABLE_CACHE_SIZE = 8     # V_alpha tables kept, one per alpha
_CELLS = 1 << 14          # equal cells of u that index the table's intervals
_TAIL_FLOOR = 1e-10       # least tail mass k t^{-a}/a past a table node
_FAR = 1e150              # t^alpha <= _FAR keeps pi t^{2 alpha} finite


# ---------------------------------------------------------------------------
# densities

def valpha_pdf(alpha, t):
    """Density of V_alpha: (-sin pi a) t^{a-2}(1+t) / (pi (t^{2a}-2t^a cos pi a+1))."""
    return _valpha_array(alpha, t, 0)


def yalpha_pdf(alpha, t):
    """Density of Y_alpha; equals t * valpha_pdf(alpha, t) identically."""
    return _valpha_array(alpha, t, 1)


def _valpha_array(alpha, t, k):
    """t^k v_alpha(t) for t > 0, k in {0, 1}: the density's formula where
    t^{2a} is finite, its t^{-a} form beyond."""
    alpha = _alpha_of(alpha)
    arr = np.asarray(t, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("valpha_pdf requires t > 0")
    pdf, _, far_form = _valpha_forms(alpha)
    far = arr > _FAR ** (1.0 / alpha)
    out = np.empty_like(arr)
    near_t = arr[~far]
    out[~far] = pdf(near_t) * near_t ** k
    out[far] = far_form(arr[far], k)
    return float(out) if out.ndim == 0 else out


def _valpha_forms(alpha):
    """v_alpha's formula in three forms, its alpha-only constants computed
    once: pdf(t), valpha_pdf's formula; smooth(t) = v_alpha(t) / t^{a-2},
    bounded near t = 0; and far(t, k) = t^k v_alpha(t) for t >= 1, divided
    through by t^{2a} so that it stays finite where pdf overflows, with
    t^{k-1-a} kept whole so that no value in float range underflows.

    Each takes a float t > 0 or an array of them and checks nothing:
    quadrature integrands call them with plain floats, skipping valpha_pdf's
    per-call numpy conversion and domain check.
    """
    ms, c = -sinpi(alpha), cospi(alpha)
    scale = ms / math.pi
    am2 = alpha - 2.0

    def pdf(t):
        ta = t ** alpha
        return ms * t ** am2 * (1.0 + t) \
            / (math.pi * (ta * ta - 2.0 * ta * c + 1.0))

    def smooth(t):
        ta = t ** alpha
        return scale * (1.0 + t) / (ta * ta - 2.0 * ta * c + 1.0)

    def far(t, k):
        s = t ** -alpha
        return scale * t ** (k - 1.0 - alpha) * (1.0 + 1.0 / t) \
            / (1.0 - 2.0 * c * s + s * s)

    return pdf, smooth, far


def zbeta_pdf(alpha, t):
    """Cut-off Cauchy density of index beta = alpha - 1."""
    alpha = _alpha_of(alpha)
    beta = alpha - 1.0
    arr = np.asarray(t, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("zbeta_pdf requires t > 0")
    # t <= _FAR keeps pi t^2 finite; beyond, 2 t c + 1 is lost in the
    # rounding of t^2, and the density is sin(pi beta)/(pi beta) / t^2
    far = arr > _FAR
    near_t, s = arr[~far], 1.0 / arr[far]
    c = cospi(beta)
    d = near_t * near_t + 2.0 * near_t * c + 1.0
    # near alpha = 2, c -> -1 and d cancels around t = 1 (to 0 once c rounds
    # to -1); there take d = (t-1)^2 + 2t(1+c), 1+c = 2 sin^2(pi(2-alpha)/2)
    bad = d < 1e-3 * (near_t * near_t + 1.0)
    tb = near_t[bad]
    d[bad] = (tb - 1.0) ** 2 + 4.0 * tb * sinpi(0.5 * (2.0 - alpha)) ** 2
    out = np.empty_like(arr)
    out[~far] = sinpi(beta) / (math.pi * beta * d)
    out[far] = sinpi(beta) / (math.pi * beta) * s * s
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# closed-form fractional moments (sine/Gamma ratios, exact limits at the
# removable integer points rather than epsilon-nudging)

def mom_V(alpha, s):
    """E[V_alpha^s] for s in (1-alpha, alpha)."""
    alpha = _alpha_of(alpha)
    if not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha)")
    if s == 0.0 or s == 1.0:
        return 1.0
    return math.sin(math.pi / alpha) * sinpi(s) \
        / (alpha * sinpi(s / alpha) * sinpi((1.0 - s) / alpha))


def mom_Y(alpha, s):
    """E[Y_alpha^s] for s in (-alpha, alpha-1)."""
    alpha = _alpha_of(alpha)
    if not -alpha < s < alpha - 1.0:
        raise DomainError("s outside (-alpha, alpha-1)")
    if s == 0.0 or s == -1.0:
        return 1.0
    return math.sin(math.pi / alpha) * sinpi(s) \
        / (alpha * sinpi(s / alpha) * sinpi((1.0 + s) / alpha))


def mom_Xhat(alpha, s):
    """E[Xhat_1^s] = Gamma(s+1)/Gamma(s/alpha+1) for s in (1-alpha, alpha),
    the strip on which the moment factorization holds."""
    alpha = _alpha_of(alpha)
    if not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha)")
    return gamma(s + 1.0) * rgamma(s / alpha + 1.0)


def mom_X(alpha, s):
    """E[X_1^s] from its own closed form (not the factorization product)."""
    alpha = _alpha_of(alpha)
    if not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha)")
    if s == 0.0:
        return 1.0
    if s == 1.0:
        return rgamma(1.0 + 1.0 / alpha)
    return math.sin(math.pi / alpha) * sinpi(s) * gamma(s + 1.0) \
        * rgamma(s / alpha + 1.0) \
        / (alpha * sinpi(s / alpha) * sinpi((1.0 - s) / alpha))


def c_alpha(alpha):
    """Normalizing constant of the I_minus law."""
    alpha = _alpha_of(alpha)
    ia = 1.0 / alpha
    return gamma(alpha - 1.0) / (gamma((alpha - 1.0) * ia) * gamma(ia))


def iminus_moment(alpha, s):
    """E[I_minus^s] on the closed strip [1/alpha - 1, 1/alpha]."""
    alpha = _alpha_of(alpha)
    ia = 1.0 / alpha
    if not ia - 1.0 <= s <= ia:
        raise DomainError("s outside [1/alpha - 1, 1/alpha]")
    if s == 0.0:
        return 1.0
    if s == ia - 1.0:
        # Gamma(s+1-1/a)/Gamma(a(s+1)-1) -> Gamma(eps)/Gamma(a eps) -> a
        return alpha * gamma(alpha - 1.0) / gamma((alpha - 1.0) * ia)
    if s == ia:
        return math.inf
    return c_alpha(alpha) * gamma(s + 1.0) * gamma(s + 1.0 - ia) \
        * gamma(ia - s) * rgamma(alpha * (s + 1.0) - 1.0)


# ---------------------------------------------------------------------------
# I_minus: density, tail integral and Laplace transform

def _iminus_mellin(alpha, gammas, log_x, k):
    """(1/2 pi i) int x^{-s-k} G(s) ds, G(s) = E[I_minus^s] times the
    Gamma(a + b s) of gammas, up the middle of G's strip: an inverse Mellin
    transform (Paris & Kaminski, Asymptotics and Mellin-Barnes Integrals,
    CUP 2001) on tanh_sinh, cut where |G| ~ e^{-(m-alpha) pi tau/2} reaches
    e^-40 (m Gamma factors).  Where x^{-i tau} turns over 20 times up to the
    cut (log x * cut > 128), past the rule's finest level, the line moves
    past the poles a + n of the Gamma(a - s) to below rounding of the first
    residue, and adds their residues.  The budget is relative;
    EvaluationError where a value misses it (the density as t -> 0).
    """
    from scipy.special import loggamma

    gammas += (((alpha - 1.0) / alpha, 1.0), (1.0 / alpha, -1.0))

    def log_term(s, skip):
        # log of x^{-s-k} G(s), without the factor gammas[skip]
        return (math.log(c_alpha(alpha)) - (s + k) * log_x
                - loggamma(alpha * (s + 1.0) - 1.0)
                + sum(loggamma(a + b * s) for j, (a, b) in enumerate(gammas)
                      if j != skip))

    # (pole, factor, n); the line stops far short of a family's 40th pole
    poles = sorted((a + n, j, n) for j, (a, b) in enumerate(gammas)
                   if b < 0.0 for n in range(40))
    c = 0.5 * (poles[0][0] + max(-a for a, b in gammas if b > 0.0))
    cut = 80.0 / ((len(gammas) - alpha) * math.pi)
    log_scale, n = log_term(complex(c), None).real, 0
    if log_x * cut > 128.0:
        log_scale = log_term(complex(poles[0][0]), poles[0][1]).real
        for n, (p, q) in enumerate(zip(poles, poles[1:]), 1):
            c = 0.5 * (p[0] + q[0])
            if log_term(complex(c), None).real - log_scale \
                    <= math.log(math.ulp(1.0) / cut):
                break
    # the rule's floor, REL_TOL / 1e4, is rounding of the scale
    log_unit = log_scale + math.log(math.ulp(1.0) * 1e4 / REL_TOL)
    residues = sum((-1) ** m * np.exp(log_term(complex(p), j) - log_unit
                                      - math.lgamma(m + 1.0)).real
                   for p, j, m in poles[:n])

    def line(tau):
        return np.exp(log_term(c + 1j * tau, None) - log_unit).real / math.pi

    try:
        val, err = tanh_sinh(lambda tau, _: line(tau), 0.0, cut, REL_TOL)
        _check_cut(line(cut), val, REL_TOL, cut)
        if not err <= REL_TOL * (val + residues):
            raise EvaluationError(
                "line integral %.3g with level change %.3g is outside the "
                "relative budget" % (val, err), partial=val, bound=err)
    except EvaluationError as e:
        with np.errstate(over="ignore"):
            unit = float(np.exp(log_unit))
        raise EvaluationError(str(e), partial=unit * (e.partial + residues),
                              bound=unit * e.bound) from None
    return math.exp(log_unit + math.log(val + residues))


def iminus_pdf(alpha, t):
    """Density f_-(t) of I_minus, the inverse Mellin transform of
    E[I_minus^s]; at large t with the first terms of its residue series."""
    alpha = _alpha_of(alpha)
    if not t > 0.0:
        raise DomainError("iminus_pdf requires t > 0")
    if t == math.inf:
        return 0.0
    return _iminus_mellin(alpha, ((1.0, 1.0),), math.log(t), 1.0)


def iminus_tail_integral(alpha, t0):
    """P(I_minus > t0), the inverse Mellin transform of E[I_minus^s] / s."""
    alpha = _alpha_of(alpha)
    if not t0 > 0.0:
        raise DomainError("iminus_tail_integral requires t0 > 0")
    if t0 == math.inf:
        return 0.0
    return _iminus_mellin(alpha, ((0.0, 1.0),), math.log(t0), 0.0)


def iminus_laplace(alpha, q):
    """E[exp(-q I_minus)], the inverse Mellin transform in 1/q of
    Gamma(-s) E[I_minus^s]; at small q with its first residues."""
    alpha = _alpha_of(alpha)
    if not q >= 0.0:
        raise DomainError("iminus_laplace requires q >= 0")
    if q == 0.0 or q == math.inf:
        return float(q == 0.0)
    return _iminus_mellin(alpha, ((1.0, 1.0), (0.0, -1.0)), -math.log(q), 0.0)


# ---------------------------------------------------------------------------
# samplers (deterministic per (seed, n), block sub-streams for parallel safety)

def _block_rng(seed, block):
    if int(seed) < 0:
        raise DomainError("seed must be >= 0")
    return np.random.default_rng(np.random.SeedSequence([int(seed), block]))


def _blocked(n, seed, draw_block):
    """Assemble n draws from sub-streams of _BLOCK draws each:
    draw_block(rng, m) returns the first m draws of a whole block's stream,
    with m < _BLOCK only in the last block, so that block transforms only
    the draws it keeps and a shorter run is a prefix of a longer one."""
    return np.concatenate([draw_block(_block_rng(seed, block),
                                      min(_BLOCK, n - block * _BLOCK))
                           for block in range(-(-n // _BLOCK))])


def _positive_stable_block(alpha, rng, m):
    # Kanter's representation for the index theta = 1/alpha in (1/2, 1);
    # a whole block of uniforms keeps the exponentials at their offset
    th = 1.0 / alpha
    u = rng.random(_BLOCK)[:m]
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    e = rng.standard_exponential(m)
    a = (np.sin(th * math.pi * u) ** th
         * np.sin((1.0 - th) * math.pi * u) ** (1.0 - th)
         / np.sin(math.pi * u)) ** (1.0 / (1.0 - th))
    return (a / e) ** ((1.0 - th) / th)


def positive_stable_sample(alpha, n, seed):
    """n draws of T1, the positive (1/alpha)-stable law, E[e^{-l T1}]=e^{-l^{1/a}}."""
    alpha = _alpha_of(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    return _blocked(n, seed,
                    lambda rng, m: _positive_stable_block(alpha, rng, m))


def _stable_increment_block(alpha, rng, m):
    # Chambers-Mallows-Stuck draw, totally skewed (beta = +1), rescaled to the
    # E[e^{l Z}] = e^{l^a} normalization and negated (spectrally negative)
    ta = math.tan(0.5 * math.pi * alpha)
    b = math.atan(ta) / alpha
    s = (1.0 + ta * ta) ** (0.5 / alpha)
    v = (rng.random(m) - 0.5) * math.pi
    v = np.clip(v, -0.5 * math.pi + 1e-12, 0.5 * math.pi - 1e-12)
    e = rng.standard_exponential(m)
    w = s * np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha) \
        * (np.cos(v - alpha * (v + b)) / e) ** ((1.0 - alpha) / alpha)
    sigma = abs(math.cos(0.5 * math.pi * alpha)) ** (1.0 / alpha)
    return -sigma * w


def stable_increment_sample(alpha, n, seed):
    """n draws of the normalized spectrally negative increment Z1."""
    alpha = _alpha_of(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    # whole blocks: a block's exponentials follow all of its uniforms
    return _blocked(n, seed, lambda rng, m:
                    _stable_increment_block(alpha, rng, _BLOCK)[:m])


def xhat_sample(alpha, n, seed):
    """Exact draws of Xhat_1 = T1^{-1/alpha} (terminal infimum-reflected law)."""
    alpha = _alpha_of(alpha)
    return positive_stable_sample(alpha, n, seed) ** (-1.0 / alpha)


# --- V_alpha inverse-CDF sampler -------------------------------------------

def _valpha_table(alpha):
    # alphas that differ only in float noise share one table
    return _valpha_table_at(round(alpha, 12))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _valpha_table_at(alpha):
    """Inverse-CDF table of V_alpha, kept for the most recent alphas: the
    CDF at _TABLE_NODES Chebyshev nodes t = w/(1-w), PCHIP coefficients of
    w against it, and for each of _CELLS equal cells of u the PCHIP
    interval that holds the whole cell, or -1 where a node splits it.  It
    ends at the last node whose tail mass k t^{-a}/a is at least
    _TAIL_FLOOR: near alpha = 2 the last Chebyshev node's is an ulp of 1,
    below the rounding of the summed CDF."""
    from scipy.interpolate import PchipInterpolator

    n = _TABLE_NODES
    j = np.arange(n)
    w = 0.5 * (1.0 - np.cos(math.pi * (j + 0.5) / n))  # Chebyshev on (0,1)
    t = w / (1.0 - w)
    k = -sinpi(alpha) / math.pi
    keep = k * t ** -alpha / alpha >= _TAIL_FLOOR
    w, t, n = w[keep], t[keep], int(keep.sum())
    p = 1.0 / (alpha - 1.0)
    pdf, smooth, _ = _valpha_forms(alpha)

    # CDF at the first node: substitute u = t0 s^{1/(alpha-1)}
    t0 = t[0]
    head, _ = adaptive_quad(lambda s: smooth(t0 * s ** p), 0.0, 1.0)
    cdf = np.empty(n)
    cdf[0] = head * t0 ** (alpha - 1.0) * p
    for i in range(1, n):
        seg, _ = adaptive_quad(pdf, t[i - 1], t[i])
        cdf[i] = cdf[i - 1] + seg
    if not np.all(np.diff(cdf) > 0.0):
        raise SamplerError("V_alpha CDF table is not strictly monotone")
    if cdf[-1] >= 1.0:
        raise SamplerError(f"V_alpha CDF table reaches {cdf[-1]:.17g} >= 1 "
                           "at its last node")
    c = PchipInterpolator(cdf, w).c
    first = np.clip(np.searchsorted(cdf, np.arange(_CELLS + 1) / _CELLS,
                                    "right") - 1, 0, n - 2)
    cell = np.where(first[1:] == first[:-1], first[:-1], -1)
    for arr in (cdf, w, c, cell):
        arr.setflags(write=False)
    return {"cdf": cdf, "w": w, "c": c, "cell": cell, "k": k}


def _valpha_inverse(table, u):
    """The PCHIP inverse CDF w at u in [cdf[0], cdf[-1]]: the interval from
    u's cell, or by search where a node splits the cell, and the cubic in
    scipy PPoly's own operation order, so that w is bitwise
    PchipInterpolator(cdf, w)(u)."""
    cdf, c = table["cdf"], table["c"]
    i = table["cell"][(u * _CELLS).astype(np.intp)]
    split = i < 0
    i[split] = np.clip(np.searchsorted(cdf, u[split], "right") - 1,
                       0, cdf.size - 2)
    s = u - cdf[i]
    z = s * s
    res = c[3, i] + c[2, i] * s
    res += c[1, i] * z
    res += c[0, i] * (z * s)
    return res


def _valpha_block(alpha, table, rng, m):
    """m draws of V_alpha from m uniforms: the table's inverse CDF between
    its first and last CDF values, the analytic head and tail outside."""
    u = rng.random(m)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    out = np.empty(m)
    lo, hi = table["cdf"][0], table["cdf"][-1]
    k = table["k"]
    mid = (u >= lo) & (u <= hi)
    wmid = _valpha_inverse(table, u[mid])
    out[mid] = wmid / (1.0 - wmid)
    small = u < lo   # analytic head inversion C(t) ~ k t^{a-1}/(a-1)
    out[small] = ((alpha - 1.0) * u[small] / k) ** (1.0 / (alpha - 1.0))
    big = u > hi     # analytic tail inversion 1-C(t) ~ k t^{-a}/a
    out[big] = (k / (alpha * (1.0 - u[big]))) ** (1.0 / alpha)
    if not np.all(np.isfinite(out)):
        raise SamplerError("V_alpha inverse-CDF produced non-finite draws")
    return out


def valpha_sample(alpha, n, seed):
    """n draws of V_alpha by cached inverse-CDF interpolation."""
    alpha = _alpha_of(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    table = _valpha_table(alpha)
    return _blocked(n, seed,
                    lambda rng, m: _valpha_block(alpha, table, rng, m))


# ---------------------------------------------------------------------------
# the multiplicative kernel V_alpha f(x) = E[f(x V_alpha)]
#
# Both kernel integrals run on the tanh-sinh rule, one array of nodes per
# node block of the rule.  The t < 1 part of the density is taken under
# t = s^{1/(alpha-1)}, which leaves a bounded integrand.  The t > 1 part is
# split where the physical argument x t crosses 1: the kernel's transition
# and f's own scale then each sit at an end of a panel, however far apart
# they are.

def kernel_apply(f, alpha, x, tol=REL_TOL):
    """E[f(x V_alpha)] by singularity-adapted quadrature.

    f (or f.eval_f) is called once per node block of the rule, on an array
    of arguments, and must return an array of that shape (or a scalar).
    """
    alpha = _alpha_of(alpha)
    if not x >= 0.0:
        raise DomainError("kernel_apply requires x >= 0")
    fv = f.eval_f if hasattr(f, "eval_f") else f
    if x == 0.0:
        return fv(0.0)
    p = 1.0 / (alpha - 1.0)
    _, smooth, far = _valpha_forms(alpha)
    val, _ = tanh_sinh(lambda s, _: fv(x * s ** p) * smooth(s ** p),
                       0.0, 1.0, tol)
    val *= p
    # t = 1/r on r in [0, 1], split at r = x (x t = 1) for x < 1
    for r0, r1 in ((0.0, x), (x, 1.0)) if x < 1.0 else ((0.0, 1.0),):
        part, _ = tanh_sinh(lambda d, _: fv(x / (r0 + d))
                            * far(1.0 / (r0 + d), 2), r0, r1, tol)
        val += part
    return val


def kernel_apply_d2(f, alpha, x):
    """(V_alpha f)''(x) = E[V_alpha^2 f''(x V_alpha)] for f in the domain D.

    x is a float or an array of them, and the value has its shape; f.eval_f2
    is called once per node block of the rule on a matrix with one row per
    entry of x.  Defined for finite x > 0 only: at x = 0 it would be
    E[V_alpha^2] f''(0), which diverges, because V_alpha has moments only
    of order s < alpha < 2.  As x -> 0 it grows like x^{alpha-2}, finite
    while TAIL_CUTOFF / x is.
    """
    alpha = _alpha_of(alpha)
    T = TAIL_CUTOFF
    xs = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not np.all((0.0 < xs) & (xs < math.inf) & (T / xs < math.inf)):
            raise DomainError("kernel_apply_d2 requires finite x > 0, with "
                              "TAIL_CUTOFF / x in float range")
    col = xs.reshape(-1, 1)
    n = col.shape[0]
    p = 1.0 / (alpha - 1.0)
    _, smooth, far = _valpha_forms(alpha)

    def below(s, _):
        t = s[0] ** p   # every row runs over the same [0, 1]
        return f.eval_f2(col * t) * (t * t * smooth(t))

    lo, _ = tanh_sinh(below, np.zeros(n), np.ones(n), REL_TOL)
    # t > 1 in log of the physical argument u = x t, up to u = T, with
    # t^3 v_alpha(t) in its far form (finite wherever t is); rows with
    # x < 1 get a panel up to u = 1 and one beyond
    def log_panel(m0, m1, lx):
        # log u from m0 to m1 for the rows with log x = lx
        vals, _ = tanh_sinh(
            lambda dm, _: far(np.exp((m0 - lx)[:, None] + dm), 3)
            * f.eval_f2(np.exp(m0[:, None] + dm)), m0, m1, REL_TOL)
        return vals

    lx = np.log(col[:, 0])
    small = lx < 0.0
    out = p * lo + log_panel(np.maximum(lx, 0.0), np.full(n, math.log(T)),
                             lx)
    if small.any():
        out[small] += log_panel(lx[small], np.zeros(small.sum()), lx[small])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def valpha_moment_quad(alpha, s):
    """int t^s v_alpha(t) dt by the same singularity-adapted quadrature."""
    alpha = _alpha_of(alpha)
    if not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha)")
    p = 1.0 / (alpha - 1.0)
    pdf, smooth, _ = _valpha_forms(alpha)

    below, _ = adaptive_quad(
        lambda u: u ** (p * s) * smooth(u ** p), 0.0, 1.0)
    below *= p
    above, _ = adaptive_quad(
        lambda r: r ** (-s) * pdf(1.0 / r) / (r * r), 0.0, 1.0)
    return below + above
