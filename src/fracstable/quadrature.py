"""Adaptive quadrature shared by the operator and density modules: one
relative tolerance sets each integral (nested layers scale REL_TOL), and
improper integrals stop at TAIL_CUTOFF, their callers bounding the rest."""

import math
import warnings

import scipy.integrate as _si

from .errors import DomainError, EvaluationError

REL_TOL = 1e-8
TAIL_CUTOFF = 1e3
_LIMIT = 1024   # subdivisions of [a, b]


def adaptive_quad(fun, a, b, tol=REL_TOL, points=None):
    """Integrate fun over [a, b] (b may be inf), returning (value, err_bound).

    Asks for relative accuracy tol with absolute floor tol / 1e4, and raises
    EvaluationError unless the value is finite and the integrator's own
    error estimate is within 100 times that.
    """
    if not tol > 0.0:
        raise DomainError("quadrature tolerance must be positive")
    floor = tol / 1e4
    kwargs = dict(epsabs=floor, epsrel=tol, limit=_LIMIT)
    if points is not None and b != math.inf:
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        val, err = _si.quad(fun, a, b, **kwargs)
    if not (math.isfinite(val) and err <= 100.0 * max(floor, tol * abs(val))):
        raise EvaluationError(
            "quadrature value %.3g with error estimate %.3g is outside the "
            "tolerance budget" % (val, err),
            partial=val, bound=err)
    return val, err
