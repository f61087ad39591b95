"""Gamma function from the standard library's ``math.gamma``.

Every moment formula in this package reduces to Gamma ratios, and the
exponents psi and psi_general rely on the convention 1/Gamma(nonpositive
integer) = 0 holding exactly.  ``gamma`` returns +inf and ``rgamma`` an
exact 0.0 at the poles and above the overflow point 171.62, instead of
propagating an inf through a division or raising.  Below 0.5 both go
through the reflection formula, so very negative x never reaches a
``math.gamma`` that has underflowed to 0.

Accuracy is a few ulp away from poles (tested against scipy).
"""

import math

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


def gamma(x):
    """Gamma(x) for real x; +inf at nonpositive-integer poles and overflow."""
    if x >= 0.5:
        return math.gamma(x) if x <= 171.62 else math.inf
    if x == math.floor(x):
        return math.inf
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return _PI / (sinpi(x) * gamma(1.0 - x))


def rgamma(x):
    """1/Gamma(x); exactly 0.0 for x in {0, -1, -2, ...} and at overflow."""
    if x >= 0.5:
        return 1.0 / math.gamma(x) if x <= 171.62 else 0.0
    if x == math.floor(x):
        return 0.0
    return sinpi(x) * gamma(1.0 - x) / _PI
