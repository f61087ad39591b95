"""Adaptive quadrature plumbing shared by the operator and density modules."""

import warnings
from dataclasses import dataclass, replace

import scipy.integrate as _si

from .errors import EvaluationError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for singular/improper integrals.

    rel_tol/abs_tol feed the adaptive integrator directly.  Composite
    operations (nested quadratures, operator pipelines) should loosen via
    :meth:`composite`.  tail_cutoff truncates improper integrals, with the
    analytic remainder bounded separately by the caller.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 1024
    tail_cutoff: float = 1e3

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")
        if self.tail_cutoff <= 0:
            raise ValueError("tail_cutoff must be positive")

    def composite(self, factor):
        """Loosened copy for outer layers of nested quadrature."""
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=self.abs_tol * factor)


DEFAULT_CFG = QuadratureConfig()


def adaptive_quad(fun, a, b, cfg=DEFAULT_CFG, points=None):
    """Integrate fun over [a, b] (b may be inf), returning (value, err_bound).

    Raises EvaluationError when the integrator's own error estimate is far
    beyond the requested tolerance.
    """
    kwargs = dict(epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                  limit=cfg.max_subdivisions)
    if points is not None and b != float("inf"):
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        val, err = _si.quad(fun, a, b, **kwargs)
    if err > 100.0 * max(cfg.abs_tol, cfg.rel_tol * abs(val)):
        raise EvaluationError(
            "quadrature error estimate %.3g exceeds tolerance budget" % err,
            partial=val, bound=err)
    return val, err
