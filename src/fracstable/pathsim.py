"""Random-walk discretization of the spectrally negative stable process.

Increments are exact stable draws scaled by (horizon/n_steps)^{1/alpha}, so
the only discretization bias is in the running extrema; bias_calibration
measures it against the exact terminal law rather than assuming a rate.
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


def simulate_reflected(cfg):
    """Terminal values of the reflected walk at the horizon; all >= 0."""
    alpha = _alpha_of(cfg.alpha)
    scale = (cfg.horizon / cfg.n_steps) ** (1.0 / alpha)
    at_sup = cfg.reflect is Reflect.AtSupremum
    parts = []
    done = 0
    block = 0
    while done < cfg.n_paths:
        take = min(_PATH_BLOCK, cfg.n_paths - done)
        rng = _block_rng(cfg.seed, block)
        inc = scale * _stable_increment_block(
            alpha, rng, _PATH_BLOCK * cfg.n_steps).reshape(
                _PATH_BLOCK, cfg.n_steps)[:take]
        parts.append(reflected_terminal(inc, at_sup))
        done += take
        block += 1
    return np.concatenate(parts)


def _ks_statistic(a, b):
    data = np.concatenate([a, b])
    data.sort(kind="mergesort")
    ca = np.searchsorted(np.sort(a), data, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), data, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def bias_calibration(alpha, n_steps_ladder, n_paths, seed):
    """Discretization bias of the reflected walks.

    Infimum side: per-rung KS distance against exact Xhat_1 draws (an exact
    sampler exists for that law).  Supremum side, where no independent exact
    sampler is available: a self-convergence ladder -- KS distances between
    consecutive rungs, extrapolated geometrically to bound the residual bias
    of the finest rung -- plus fractional-moment gaps against the closed-form
    mom_X, at each s in MOMENT_GRID.  The sup-side numbers feed the
    identity-in-law allowances.
    """
    alpha = _alpha_of(alpha)
    ladder = sorted(int(k) for k in n_steps_ladder)
    if len(ladder) < 3:
        raise DomainError("need a ladder of at least 3 step counts")
    exact = xhat_sample(alpha, 4 * n_paths, seed + 1)
    rungs = []
    for n_steps in ladder:
        cfg = PathConfig(alpha, n_steps, n_paths, seed, Reflect.AtInfimum)
        vals = simulate_reflected(cfg)
        ks = _ks_statistic(vals, exact)
        gaps = {}
        for s in MOMENT_GRID:
            w = vals ** s
            gaps[s] = {"gap": float(abs(w.mean() - mom_Xhat(alpha, s))),
                       "se": float(w.std() / math.sqrt(len(w)))}
        rungs.append({"n_steps": n_steps, "ks": ks, "moment_gaps": gaps})

    sup_rungs = []
    steps_ks = []
    prev = None
    for i, n_steps in enumerate(ladder):
        cfg = PathConfig(alpha, n_steps, n_paths, seed + 100 + i,
                         Reflect.AtSupremum)
        vals = simulate_reflected(cfg)
        gaps = {}
        for s in MOMENT_GRID:
            w = vals ** s
            gaps[s] = {"gap": float(abs(w.mean() - mom_X(alpha, s))),
                       "se": float(w.std() / math.sqrt(len(w)))}
        if prev is not None:
            steps_ks.append(_ks_statistic(prev, vals))
        sup_rungs.append({"n_steps": n_steps, "moment_gaps": gaps})
        prev = vals
    # bias(top) ~ e_last * (r + r^2 + ...) for geometrically decaying
    # rung-to-rung distances; clip the measured ratio against noise, and add
    # one rung distance as margin for the extrapolation itself
    r = steps_ks[-1] / steps_ks[-2] if steps_ks[-2] > 0.0 else 0.5
    r = min(max(r, 0.25), 0.9)
    ks_allowance = steps_ks[-1] * (r / (1.0 - r) + 1.0)
    top = sup_rungs[-1]
    return {
        "alpha": alpha,
        "seed": int(seed),
        "n_paths": int(n_paths),
        "rungs": rungs,
        "sup_rungs": sup_rungs,
        "sup_step_ks": steps_ks,
        # allowances for the finest rung, for the identity-in-law check
        "ks_allowance": float(ks_allowance),
        "moment_allowance": {s: top["moment_gaps"][s]["gap"]
                             + 3.0 * top["moment_gaps"][s]["se"]
                             for s in MOMENT_GRID},
    }
