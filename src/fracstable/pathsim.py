"""Reflected terminal values of the spectrally negative stable process.

reflected_sample draws X_1 = S_1 - Z_1 exactly.  simulate_reflected runs the
random walk with exact stable increments scaled by (horizon/n_steps)^{1/alpha},
whose only bias is in the running extrema; bias_calibration measures it.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import reflected_terminal
from .dist import (_block_rng, _stable_increment_block, mom_X, mom_Xhat,
                   xhat_sample)
from .errors import DomainError
from .specfun import _alpha_of

_PATH_BLOCK = 1 << 9   # paths per sub-stream block
_STICK_FLOOR = 1e-30   # leftover stick length below which a path may stop
MOMENT_GRID = (0.25, 0.5, 0.75)   # fractional moments s the law checks use


class Reflect(Enum):
    AtSupremum = "sup"   # X = S - Z
    AtInfimum = "inf"    # Xhat = Z - I


@dataclass(frozen=True)
class PathConfig:
    alpha: float
    n_steps: int
    n_paths: int
    seed: int
    reflect: Reflect
    horizon: float = 1.0

    def __post_init__(self):
        _alpha_of(self.alpha)
        if self.n_steps < 1 or (self.n_steps & (self.n_steps - 1)) != 0:
            raise DomainError("n_steps must be a positive power of two")
        if self.n_paths < 1:
            raise DomainError("n_paths must be >= 1")
        if not 0.0 < self.horizon < math.inf:
            raise DomainError("horizon must be positive and finite")


def reflected_sample(alpha, n, seed):
    """n exact draws of X_1 = S_1 - Z_1 by stick-breaking of the concave
    majorant (Pitman & Uribe Bravo, Ann. Probab. 40 (2012)): for uniform
    sticks l_k of [0, 1] and increments Z_k, X_1 = sum_k max(-l_k^{1/alpha}
    Z_k, 0) in law.  A path stops once its leftover is below _STICK_FLOOR
    and its sum is positive, a stopping time (the rest is leftover^{1/alpha}
    times a copy of X_1, below 1e-15 of it), or once its leftover underflows
    to 0, which bounds the rounds as alpha -> 1.  Each _PATH_BLOCK of paths
    has one sub-stream; each round draws the live paths' uniforms, then
    their increments.
    """
    alpha = _alpha_of(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    parts = []
    for block in range(-(-n // _PATH_BLOCK)):
        rng = _block_rng(seed, block)
        left = np.ones(_PATH_BLOCK)
        total = np.zeros(_PATH_BLOCK)
        live = np.arange(_PATH_BLOCK)
        while live.size:
            stick = left[live] * rng.random(live.size)
            left[live] -= stick
            xi = stick ** (1.0 / alpha) \
                * _stable_increment_block(alpha, rng, live.size)
            total[live] += np.maximum(-xi, 0.0)
            stop = (left[live] < _STICK_FLOOR) & (total[live] > 0.0)
            live = live[~(stop | (left[live] == 0.0))]
        parts.append(total)
    return np.concatenate(parts)[:n]


def simulate_reflected(cfg):
    """Terminal values of the reflected walk at the horizon; all >= 0."""
    alpha = _alpha_of(cfg.alpha)
    scale = (cfg.horizon / cfg.n_steps) ** (1.0 / alpha)
    at_sup = cfg.reflect is Reflect.AtSupremum
    parts = []
    for block in range(-(-cfg.n_paths // _PATH_BLOCK)):
        inc = _stable_increment_block(alpha, _block_rng(cfg.seed, block),
                                      _PATH_BLOCK * cfg.n_steps)
        take = cfg.n_paths - block * _PATH_BLOCK
        inc = scale * inc.reshape(_PATH_BLOCK, cfg.n_steps)[:take]
        parts.append(reflected_terminal(inc, at_sup))
    return np.concatenate(parts)


def _ks_statistic(a, b):
    # verify imports this module, so the statistic is imported here
    from .verify import ks_two_sample_arrays
    return ks_two_sample_arrays(a, b)


def bias_calibration(alpha, n_steps_ladder, n_paths, seed):
    """Discretization bias of the reflected walks, rung by rung: at each
    step count of the ladder, each side's walks against 4 n_paths exact
    draws of its terminal law (Xhat_1 under "rungs", X_1 under "sup_rungs"),
    by the two-sample KS distance and, at each s in MOMENT_GRID, the s-th
    moment's gap to its closed form with the walk's standard error.  A
    side's walks share one seed (seed at the infimum, seed + 100 at the
    supremum), and its exact draws take the next.
    """
    alpha = _alpha_of(alpha)
    ladder = sorted(int(k) for k in n_steps_ladder)
    if not ladder:
        raise DomainError("need a ladder of at least one step count")
    out = {"alpha": alpha, "seed": int(seed), "n_paths": int(n_paths)}
    for key, reflect, exact_sample, mom, walk_seed in (
            ("rungs", Reflect.AtInfimum, xhat_sample, mom_Xhat, seed),
            ("sup_rungs", Reflect.AtSupremum, reflected_sample, mom_X,
             seed + 100)):
        exact = exact_sample(alpha, 4 * n_paths, walk_seed + 1)
        out[key] = []
        for n_steps in ladder:
            vals = simulate_reflected(
                PathConfig(alpha, n_steps, n_paths, walk_seed, reflect))
            gaps = {}
            for s in MOMENT_GRID:
                w = vals ** s
                gaps[s] = {"gap": float(abs(w.mean() - mom(alpha, s))),
                           "se": float(w.std() / math.sqrt(len(w)))}
            out[key].append({"n_steps": n_steps,
                             "ks": _ks_statistic(vals, exact),
                             "moment_gaps": gaps})
    return out
