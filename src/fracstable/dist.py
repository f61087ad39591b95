"""Densities, closed-form fractional moments, and exact samplers.

Laws covered: the kernel variable V_alpha and its companion Y_alpha, the
cut-off Cauchy variable Z_beta, the positive (1/alpha)-stable variable T1,
the spectrally negative stable increment Z1, the exact terminal law
Xhat1 = T1^{-1/alpha}, and the exponential functional I_minus (series
density, Gamma-formula moments, Mellin-residue Laplace transform).
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, EvaluationError, SamplerError
from .gammafn import gamma, gammaln, rgamma, sinpi, cospi
from .quadrature import DEFAULT_CFG, adaptive_quad
from .specfun import _alpha_of

_BLOCK = 1 << 16          # sub-stream block length for parallel-safe sampling
_TABLE_NODES = 1 << 10    # inverse-CDF table resolution for V_alpha


class Law(Enum):
    Valpha = "Valpha"
    Yalpha = "Yalpha"
    Zbeta = "Zbeta"
    PosStable = "PosStable"
    StableIncrement = "StableIncrement"
    XhatExact = "XhatExact"
    XPathApprox = "XPathApprox"
    IminusSeries = "IminusSeries"


@dataclass(frozen=True)
class LawTag:
    law: Law
    alpha: float
    steps: Optional[int] = None

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError("alpha must lie in (1,2)")
        if self.steps is not None and self.steps < 1:
            raise DomainError("steps must be >= 1")


@dataclass
class SamplePopulation:
    values: np.ndarray
    law: LawTag
    seed: int
    n: int
    method: str  # "exact" or "path_discretized"


# ---------------------------------------------------------------------------
# densities

def valpha_pdf(alpha, t):
    """Density of V_alpha: (-sin pi a) t^{a-2}(1+t) / (pi (t^{2a}-2t^a cos pi a+1))."""
    alpha = _alpha_of(alpha)
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("valpha_pdf requires t > 0")
    s, c = sinpi(alpha), cospi(alpha)
    ta = arr ** alpha
    out = (-s) * arr ** (alpha - 2.0) * (1.0 + arr) \
        / (math.pi * (ta * ta - 2.0 * ta * c + 1.0))
    return float(out) if out.ndim == 0 else out


def _valpha_smooth(alpha):
    """The integrand v_alpha(t) / t^{alpha-2}, bounded near t = 0."""
    k = -sinpi(alpha) / math.pi
    ca = cospi(alpha)

    def smooth(t):
        ta = t ** alpha
        return k * (1.0 + t) / (ta * ta - 2.0 * ta * ca + 1.0)

    return smooth


def yalpha_pdf(alpha, t):
    """Density of Y_alpha; equals t * valpha_pdf(alpha, t) identically."""
    arr = np.asarray(t, dtype=float)
    out = arr * valpha_pdf(alpha, t)
    return float(out) if out.ndim == 0 else out


def zbeta_pdf(alpha, t):
    """Cut-off Cauchy density of index beta = alpha - 1."""
    alpha = _alpha_of(alpha)
    beta = alpha - 1.0
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("zbeta_pdf requires t > 0")
    out = sinpi(beta) / (math.pi * beta
                         * (arr * arr + 2.0 * arr * cospi(beta) + 1.0))
    out = out * np.ones_like(arr)
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


def mom_Xhat(alpha, s, extended=False):
    """E[Xhat_1^s] = Gamma(s+1)/Gamma(s/alpha+1); strip (1-alpha, alpha).

    The Gamma ratio extends to every s > -1; pass extended=True to evaluate
    outside the contractual strip.
    """
    alpha = _alpha_of(alpha)
    if s <= -1.0:
        raise DomainError("s must exceed -1")
    if not extended and not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha); use extended=True")
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
    return gamma(alpha - 1.0) / (gamma(1.0 - ia) * gamma(ia))


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
        return alpha * gamma(alpha - 1.0) / gamma(1.0 - ia)
    if s == ia:
        return math.inf
    return c_alpha(alpha) * gamma(s + 1.0) * gamma(s + 1.0 - ia) \
        * gamma(ia - s) * rgamma(alpha * (s + 1.0) - 1.0)


# ---------------------------------------------------------------------------
# I_minus: series density, tail integral, Laplace transform

_MAX_IMINUS_TERMS = 400
_CANCEL_BUDGET = 1e12


def _iminus_alternating(alpha, term_fn):
    """Kahan-compensated alternating sum with a cancellation guard."""
    total = 0.0
    comp = 0.0
    peak = 0.0
    first = 0.0
    for n in range(_MAX_IMINUS_TERMS):
        try:
            t = term_fn(n)
            if n == 0:
                first = abs(t)
        except OverflowError:
            raise EvaluationError(
                "series term overflows float range; evaluate further into "
                "the tail", partial=total, bound=math.inf)
        peak = max(peak, abs(t))
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(t) <= 1e-18 * max(abs(total), 1e-300) and n > 2:
            break
    else:
        raise EvaluationError("alternating series did not converge",
                              partial=total, bound=abs(t))
    if peak > _CANCEL_BUDGET * max(abs(total), 1e-300):
        raise EvaluationError(
            "cancellation beyond budget (largest term %.3g vs result %.3g); "
            "evaluate further into the tail" % (peak, total),
            partial=total, bound=peak * 1e-16)
    # when the terms grow so fast that float summation never cancels at all,
    # the residue is peak-sized and the peak/total ratio above looks benign;
    # catch that by scale: the true sum never dwarfs the leading term here
    if abs(total) > 1e6 * max(first, 1e-300):
        raise EvaluationError(
            "float summation lost all cancellation (result %.3g vs leading "
            "term %.3g); evaluate further into the tail" % (total, first),
            partial=total, bound=abs(total))
    return total


def iminus_pdf(alpha, t):
    """Series density f_-(t) = C_a sum (-1)^n G(n+1+1/a)/G(a(n+1)) t^{-(n+1+1/a)}.

    Only usable where the alternating series is float-summable; too-small t
    trips the cancellation guard (there is no small-t fallback).
    """
    alpha = _alpha_of(alpha)
    if t <= 0.0:
        raise DomainError("iminus_pdf requires t > 0")
    ia = 1.0 / alpha
    ca = c_alpha(alpha)

    lt = math.log(t)

    def term(n):
        # log-space: the Gamma ratio and the power can each overflow float64
        # range separately at large n while their product is still moderate
        return (-1.0) ** n * math.exp(gammaln(n + 1.0 + ia)
                                      - gammaln(alpha * (n + 1.0))
                                      - (n + 1.0 + ia) * lt)

    return ca * _iminus_alternating(alpha, term)


def iminus_tail_integral(alpha, t0):
    """Exact term-wise integral int_{t0}^inf f_-(t) dt of the series."""
    alpha = _alpha_of(alpha)
    if t0 <= 0.0:
        raise DomainError("iminus_tail_integral requires t0 > 0")
    ia = 1.0 / alpha
    ca = c_alpha(alpha)

    lt = math.log(t0)

    def term(n):
        return ((-1.0) ** n / (n + ia)
                * math.exp(gammaln(n + 1.0 + ia)
                           - gammaln(alpha * (n + 1.0)) - (n + ia) * lt))

    return ca * _iminus_alternating(alpha, term)


def iminus_laplace(alpha, q):
    """E[exp(-q I_minus)] by summing the residues of the Mellin inversion.

    Two superexponentially convergent families (integer poles and poles at
    -1/alpha - m); validated against quadrature of the series density and
    the resolvent identity they feed.
    """
    alpha = _alpha_of(alpha)
    if q < 0.0:
        raise DomainError("iminus_laplace requires q >= 0")
    if q == 0.0:
        return 1.0
    ia = 1.0 / alpha
    ca = c_alpha(alpha)
    total = 0.0
    for m in range(_MAX_IMINUS_TERMS):
        t1 = ((-1.0) ** m * gamma(1.0 + m - ia) * gamma(ia - m)
              * rgamma(alpha * (1.0 + m) - 1.0) * q ** m)
        t2 = ((-1.0) ** m * gamma(-ia - m) * gamma(1.0 + ia + m)
              * rgamma(alpha * (m + 1.0)) * q ** (m + ia))
        total += t1 + t2
        if max(abs(t1), abs(t2)) <= 1e-18 * max(abs(total), 1e-300) and m > 2:
            break
    else:
        raise EvaluationError("Laplace residue series did not converge",
                              partial=ca * total, bound=abs(t1) + abs(t2))
    return ca * total


def iminus_laplace_quad(alpha, q, t_split, cfg=DEFAULT_CFG):
    """E[exp(-q I_minus)] by quadrature of the series density on (t_split, inf)
    plus the Mellin small-t correction.

    The correction is the residue value minus the term-wise incomplete-Gamma
    integral of the series over (t_split, inf); the deviation of this route
    from iminus_laplace is exactly the quadrature-vs-series discrepancy, which
    makes it an independent consistency check.
    """
    import mpmath as mp

    alpha = _alpha_of(alpha)
    if q <= 0.0 or t_split <= 0.0:
        raise DomainError("q and t_split must be positive")
    val, _ = adaptive_quad(lambda t: math.exp(-q * t) * iminus_pdf(alpha, t),
                           t_split, cfg.tail_cutoff, cfg)
    # term-wise int_{t_split}^inf e^{-qt} t^{-(n+1+1/a)} dt via the upper
    # incomplete Gamma function with negative parameter
    ia = 1.0 / alpha
    ca = c_alpha(alpha)
    with mp.workdps(40):
        acc = mp.mpf(0)
        qm = mp.mpf(repr(q))
        for n in range(80):
            a_par = -(n + ia)
            coef = (-1) ** n * mp.gamma(n + 1 + ia) / mp.gamma(alpha * (n + 1))
            inc = mp.gammainc(a_par, qm * t_split, mp.inf)
            t = coef * qm ** (n + ia) * inc
            acc += t
            if abs(t) < mp.mpf("1e-25") * max(abs(acc), mp.mpf("1e-30")) \
                    and n > 2:
                break
        termwise = float(ca * acc)
    correction = iminus_laplace(alpha, q) - termwise
    return val + correction


# ---------------------------------------------------------------------------
# samplers (deterministic per (seed, n), block sub-streams for parallel safety)

def _block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence([int(seed), block]))


def _blocked(n, seed, draw_block):
    """Assemble n draws from fixed-size sub-stream blocks."""
    parts = []
    done = 0
    block = 0
    while done < n:
        take = min(_BLOCK, n - done)
        vals = draw_block(_block_rng(seed, block), _BLOCK)[:take]
        parts.append(vals)
        done += take
        block += 1
    return np.concatenate(parts)


def _positive_stable_block(alpha, rng, m):
    # Kanter's representation for the index theta = 1/alpha in (1/2, 1)
    th = 1.0 / alpha
    u = rng.random(m)
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
    vals = _blocked(n, seed, lambda rng, m: _positive_stable_block(alpha, rng, m))
    return SamplePopulation(vals, LawTag(Law.PosStable, alpha), int(seed),
                            int(n), "exact")


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
    vals = _blocked(n, seed, lambda rng, m: _stable_increment_block(alpha, rng, m))
    return SamplePopulation(vals, LawTag(Law.StableIncrement, alpha),
                            int(seed), int(n), "exact")


def xhat_sample(alpha, n, seed):
    """Exact draws of Xhat_1 = T1^{-1/alpha} (terminal infimum-reflected law)."""
    alpha = _alpha_of(alpha)
    pop = positive_stable_sample(alpha, n, seed)
    vals = pop.values ** (-1.0 / alpha)
    return SamplePopulation(vals, LawTag(Law.XhatExact, alpha), int(seed),
                            int(n), "exact")


# --- V_alpha inverse-CDF sampler -------------------------------------------

_VTABLE_CACHE = {}


def _valpha_table(alpha):
    key = round(alpha, 12)
    if key in _VTABLE_CACHE:
        return _VTABLE_CACHE[key]
    n = _TABLE_NODES
    j = np.arange(n)
    w = 0.5 * (1.0 - np.cos(math.pi * (j + 0.5) / n))  # Chebyshev on (0,1)
    t = w / (1.0 - w)
    k = -sinpi(alpha) / math.pi
    p = 1.0 / (alpha - 1.0)
    smooth = _valpha_smooth(alpha)

    # CDF at the first node: substitute u = t0 s^{1/(alpha-1)}
    t0 = t[0]
    head, _ = adaptive_quad(lambda s: smooth(t0 * s ** p), 0.0, 1.0)
    cdf = np.empty(n)
    cdf[0] = head * t0 ** (alpha - 1.0) * p
    for i in range(1, n):
        seg, _ = adaptive_quad(lambda u: valpha_pdf(alpha, u), t[i - 1], t[i])
        cdf[i] = cdf[i - 1] + seg
    if not np.all(np.diff(cdf) > 0.0) or cdf[-1] >= 1.0:
        raise SamplerError("V_alpha CDF table is not strictly monotone")
    inv = PchipInterpolator(cdf, w, extrapolate=False)
    table = {"cdf": cdf, "w": w, "inv": inv, "k": k}
    _VTABLE_CACHE[key] = table
    return table


def _valpha_block(alpha, table, rng, m):
    u = rng.random(m)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    out = np.empty(m)
    lo, hi = table["cdf"][0], table["cdf"][-1]
    k = table["k"]
    mid = (u >= lo) & (u <= hi)
    wmid = table["inv"](u[mid])
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
    vals = _blocked(n, seed,
                    lambda rng, m: _valpha_block(alpha, table, rng, m))
    return SamplePopulation(vals, LawTag(Law.Valpha, alpha), int(seed),
                            int(n), "exact")


# ---------------------------------------------------------------------------
# the multiplicative kernel V_alpha f(x) = E[f(x V_alpha)]

def kernel_apply(f, alpha, x, cfg=DEFAULT_CFG):
    """E[f(x V_alpha)] by singularity-adapted quadrature."""
    alpha = _alpha_of(alpha)
    if x < 0.0:
        raise DomainError("kernel_apply requires x >= 0")
    fv = f.eval_f if hasattr(f, "eval_f") else f
    if x == 0.0:
        return fv(0.0)
    p = 1.0 / (alpha - 1.0)
    smooth = _valpha_smooth(alpha)

    below, _ = adaptive_quad(
        lambda s: fv(x * s ** p) * smooth(s ** p), 0.0, 1.0, cfg)
    below *= p
    above, _ = adaptive_quad(
        lambda r: fv(x / r) * valpha_pdf(alpha, 1.0 / r) / (r * r),
        0.0, 1.0, cfg, points=[x] if 0.0 < x < 1.0 else None)
    return below + above


def kernel_apply_d2(f, alpha, x, cfg=DEFAULT_CFG):
    """(V_alpha f)''(x) = E[V_alpha^2 f''(x V_alpha)] for f in the domain D."""
    alpha = _alpha_of(alpha)
    if x < 0.0:
        raise DomainError("kernel_apply_d2 requires x >= 0")
    p = 1.0 / (alpha - 1.0)
    smooth = _valpha_smooth(alpha)

    below, _ = adaptive_quad(
        lambda s: s ** (2.0 * p) * f.eval_f2(x * s ** p) * smooth(s ** p),
        0.0, 1.0, cfg)
    below *= p
    # t > 1 panel in log of the physical argument u = x t, so both the
    # kernel transition (u ~ x) and the decay scale of f'' are resolved by
    # a few e-foldings each, whatever the ratio of the two scales
    def above_log(m):
        u = math.exp(m)
        return valpha_pdf(alpha, u / x) * (u / x) ** 2 * f.eval_f2(u) * u / x

    above, _ = adaptive_quad(above_log, math.log(x),
                             math.log(cfg.tail_cutoff), cfg,
                             points=[0.0] if x < 1.0 else None)
    return below + above


def valpha_moment_quad(alpha, s, cfg=DEFAULT_CFG):
    """int t^s v_alpha(t) dt by the same singularity-adapted quadrature."""
    alpha = _alpha_of(alpha)
    if not (1.0 - alpha) < s < alpha:
        raise DomainError("s outside (1-alpha, alpha)")
    p = 1.0 / (alpha - 1.0)
    smooth = _valpha_smooth(alpha)

    below, _ = adaptive_quad(
        lambda u: u ** (p * s) * smooth(u ** p), 0.0, 1.0, cfg)
    below *= p
    above, _ = adaptive_quad(
        lambda r: r ** (-s) * valpha_pdf(alpha, 1.0 / r) / (r * r),
        0.0, 1.0, cfg)
    return below + above
