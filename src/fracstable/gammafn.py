"""Gamma function by a Lanczos rational approximation.

Every moment formula in this package reduces to Gamma ratios, and several
exponents (psi, psi_minus) rely on the convention 1/Gamma(nonpositive
integer) = 0 holding exactly.  ``rgamma`` therefore returns an exact 0.0 at
the poles instead of propagating an inf through a division.

Accuracy is around 1e-14 relative away from poles (tested against scipy).
"""

import math

# Lanczos coefficients, g = 7, 9 terms.
_LG = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_PI = math.pi


def sinpi(x):
    """sin(pi*x) with exact argument reduction, accurate near every integer.

    Reduction is toward the nearest integer: r = x - round(x) is exact
    there, so tiny arguments on either side of an integer keep full
    relative accuracy (x - floor(x) would round 1 - 5e-17 up to 1.0 and
    collapse the result to zero).
    """
    n = math.floor(x + 0.5)
    r = x - n
    s = math.sin(_PI * r)
    return s if (int(n) % 2 == 0) else -s


def cospi(x):
    """cos(pi*x) via the shifted sine reduction."""
    return sinpi(x + 0.5)


def _lanczos_gamma(x):
    # valid for x >= 0.5
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LG + 0.5
    # split the power/exponential to stay in range up to the overflow point
    q = t ** (0.5 * (z + 0.5)) * math.exp(-0.5 * t)
    return math.sqrt(2.0 * _PI) * q * q * acc


def gamma(x):
    """Gamma(x) for real x; +inf at nonpositive-integer poles."""
    if x == 1.0 or x == 2.0:
        return 1.0
    if x >= 0.5:
        if x > 171.62:
            return math.inf
        return _lanczos_gamma(x)
    if x == math.floor(x):
        return math.inf
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    s = sinpi(x)
    return _PI / (s * _lanczos_gamma(1.0 - x))


def rgamma(x):
    """1/Gamma(x); exactly 0.0 for x in {0, -1, -2, ...} and at overflow."""
    if x == 1.0 or x == 2.0:
        return 1.0
    if x >= 0.5:
        if x > 171.62:
            return 0.0
        return 1.0 / _lanczos_gamma(x)
    if x == math.floor(x):
        return 0.0
    s = sinpi(x)
    return s * _lanczos_gamma(1.0 - x) / _PI


def gammaln(x):
    """log|Gamma(x)| for x > 0 (used to size series terms without overflow)."""
    if x <= 0.0:
        raise ValueError("gammaln requires x > 0")
    if x < 0.5:
        return math.log(_PI / sinpi(x)) - gammaln(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LG + 0.5
    return 0.5 * math.log(2.0 * _PI) + (z + 0.5) * math.log(t) - t + math.log(acc)
