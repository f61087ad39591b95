"""The two quadrature rules under every certificate.

One relative tolerance sets each integral (nested layers scale REL_TOL),
and improper integrals stop at TAIL_CUTOFF, their callers bounding the
rest.  tanh_sinh, a fixed nested rule over node arrays, serves the kernel
V_alpha, the fractional-operator cores, the resolvent convolutions, M_f,
Uhat_1 f with its mass and the I_minus line integrals: their integrands
take a whole block of nodes at a time, the first call the 65 nodes of
levels 0-3 and each later call one level's.  One loop serves every call:
it integrates one row per entry of the endpoint arrays, a whole family of
integrals at once, one matrix per call, and float endpoints are one 0-d
row.  Its level tables _TS_LEVELS also give the node tables of specfun's
remainder integrals.  adaptive_quad, scipy's adaptive Gauss-Kronrod,
serves the rest: moments, the V_alpha tables, lambda_f, and U_1 f with
its mass.
"""

import math
import warnings

import numpy as np
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


def _tanh_sinh_levels():
    """Per level: step h and the new nodes' shares of [a, b] from each end,
    with their weights.  t runs over [-4, 4], where the nodes sit 1e-37 of
    b - a from the ends and the weights fall to 5e-36; level 0 takes the
    integers, level k the odd multiples of 2^-k.  With y = (pi/2) sinh t the
    node sits at share 1/(1 + e^{-2y}) from a and 1/(1 + e^{2y}) from b,
    each formed without cancellation."""
    levels = []
    for k in range(8):
        h = 2.0 ** -k
        t = -4.0 + h * (np.arange(9.0) if k == 0
                        else np.arange(1.0, 8.0 / h, 2.0))
        y = 0.5 * math.pi * np.sinh(t)
        arrays = (1.0 / (1.0 + np.exp(-2.0 * y)),
                  1.0 / (1.0 + np.exp(2.0 * y)),
                  0.25 * math.pi * np.cosh(t) / np.cosh(y) ** 2)
        for v in arrays:
            v.setflags(write=False)
        levels.append((h,) + arrays)
    return tuple(levels)


_TS_LEVELS = _tanh_sinh_levels()


def _tanh_sinh_blocks():
    """The levels of _TS_LEVELS in the blocks that tanh_sinh evaluates at
    one integrand call each: levels 0-3 together (65 nodes), then one block
    per level.  Per block: its nodes' shares from a and from b, and per
    level its step, the slice of the block holding its nodes and their
    weights."""
    blocks = []
    for group in [_TS_LEVELS[:4]] + [[lv] for lv in _TS_LEVELS[4:]]:
        ends = np.cumsum([0] + [pa.size for _, pa, _, _ in group])
        pa, pb = (np.concatenate([lv[i] for lv in group]) for i in (1, 2))
        pa.setflags(write=False)
        pb.setflags(write=False)
        blocks.append((pa, pb, tuple(
            (h, slice(i, j), w)
            for (h, _, _, w), i, j in zip(group, ends[:-1], ends[1:]))))
    return tuple(blocks)


_TS_BLOCKS = _tanh_sinh_blocks()


def tanh_sinh_nodes(a, b):
    """Yield the nodes of tanh_sinh on [a, b] in the blocks it calls its
    integrand on, coarsest first: levels 0-3 together, then each later
    level's new nodes, as (distance from a, distance from b) array pairs.
    For arrays a and b of one shape, each array of the pair has one row of
    nodes per entry."""
    d = np.subtract(b, a)
    for pa, pb, _ in _TS_BLOCKS:
        yield np.multiply.outer(d, pa), np.multiply.outer(d, pb)


def _level_values(fun, a, b):
    """Yield each level's step, weights and integrand values, coarsest
    first, calling fun once per block of tanh_sinh_nodes."""
    for (_, _, levels), (da, db) in zip(_TS_BLOCKS, tanh_sinh_nodes(a, b)):
        vals = fun(da, db)
        for h, sl, w in levels:
            yield h, w, vals[..., sl]


def tanh_sinh(fun, a, b, tol):
    """Integrate fun over finite [a, b] by the tanh-sinh rule (Takahasi &
    Mori, Publ. RIMS 9 (1974)), returning (value, err_estimate).

    fun(da, db) takes the arrays of the nodes' distances from a and from b,
    so that b - t is never formed by subtraction; it is called once per
    block of tanh_sinh_nodes, first on the nodes of levels 0-3 together,
    then on each later level's new nodes.  The levels are nested, so the
    rule still adds them and tests the change one level at a time, and
    returns at the first level within budget.
    Endpoint singularities such as u^(alpha-1) cost no extra nodes; one
    like u^-p is resolved to double precision for p up to about 1/2.  The
    error estimate is the change from the previous level, accepted within
    relative tol with absolute floor tol / 1e4; past the last level the
    rule raises EvaluationError with the value as partial and the estimate
    as bound.

    The rule runs one row per entry of a and b, all rows on the same
    levels, and stops once every row is within its budget; past the last
    level the worst row is the one raised.  Float ends are one 0-d row:
    fun gets node arrays and the rule returns floats.  With arrays a and b
    of one shape, fun gets (rows x nodes) distance matrices and returns a
    matrix of that shape, and the rule returns arrays of values and
    estimates.
    """
    if not tol > 0.0:
        raise DomainError("quadrature tolerance must be positive")
    floor = tol / 1e4
    width = np.subtract(b, a, dtype=float)
    total = np.zeros(width.shape)
    val = err = np.full(width.shape, math.nan)
    # a non-finite value raises below, so numpy's warning is noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for h, w, vals in _level_values(fun, a, b):
            total += vals @ w
            prev, val = val, width * h * total
            err = np.abs(val - prev)
            if not np.isfinite(val).all():
                break
            if (err <= np.maximum(floor, tol * np.abs(val))).all():
                return (val, err) if np.ndim(val) \
                    else (float(val), float(err))
        # the worst row: a non-finite one, else the one furthest over budget
        over = np.where(np.isfinite(val),
                        err / np.maximum(floor, tol * np.abs(val)), np.inf)
    i = np.unravel_index(np.argmax(over), over.shape)
    raise EvaluationError(
        "tanh-sinh value %.3g with level change %.3g is outside the "
        "tolerance budget" % (val[i], err[i]),
        partial=float(val[i]), bound=float(err[i]))


def _check_cut(probe, val, tol, cut):
    """Raise unless the integrand value probe at the cut is within the
    tolerance budget of the integral val truncated there; both are floats
    or ndarrays of one shape, and the first entry over budget is raised."""
    probe, val = np.ravel(probe), np.ravel(val)
    over = ~(np.abs(probe) <= np.maximum(tol / 1e4, tol * np.abs(val)))
    if over.any():
        i = np.argmax(over)
        raise EvaluationError(
            "integrand %.3g at the cut u = %g is outside the tolerance "
            "budget" % (probe[i], cut),
            partial=float(val[i]), bound=abs(float(probe[i])))
