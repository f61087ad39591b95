"""The benchmark's three workloads: seeded inputs, one op, and its checks.

Each workload is a closed loop with one client: ops run back to back in one
process.  Every grid point, alpha and sampler seed an op receives comes from
the workload seed; the library sees only those generated inputs.  This
module imports nothing from fracstable at import time, so the launcher can
read the workload names without importing the package.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

ALPHAS = (1.2, 1.5, 1.8)
FUNCTIONS = ("gauss", "cauchy2", "x2exp")
MASS_TOL = 1e-6       # acceptance criterion 7's bound on |mass - 1|
PATH_N_EXACT = 100_000
PATH_STEPS = 1024
PATH_PATHS = 2000


@dataclass
class Outcome:
    """What one op produced: (residual, tolerance) pairs and report dicts."""

    checks: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    error: Optional[str] = None

    def fingerprint(self):
        """Report contents without wall-clock fields, as bytes."""
        stripped = [{k: v for k, v in r.items() if k != "runtime_ms"}
                    for r in self.reports]
        return json.dumps([stripped, self.error], sort_keys=True).encode()


def _stratified(rng, lo, hi, n, shift):
    """n points on [lo, hi], one in each of n equal strata.

    Op k of a cycle takes stratum (k + shift) mod n and a seeded point
    inside it.  The strata rotate from cycle to cycle in the same way for
    every seed, so runs with different seeds do the same mix of cheap and
    costly ops and differ only in where each point falls in its stratum."""
    return [lo + ((k + shift) % n + rng.random()) * (hi - lo) / n
            for k in range(n)]


class Workload:
    name = ""
    cycle = 1                 # ops in one pass over the workload's mix
    mix = 1                   # ops per pass, where ops differ in cost
    statistical = False       # residuals are test statistics, not errors

    def inputs(self, seed):
        raise NotImplementedError

    def op(self, fs, params):
        raise NotImplementedError

    def warm_up(self, fs):
        raise NotImplementedError

    def attempt(self, fs, params):
        """Run one op; a FracstableError is a failed op, not a crash."""
        try:
            return self.op(fs, params)
        except fs.FracstableError as exc:
            return Outcome(error="%s: %s" % (type(exc).__name__, exc))

    def judge(self, outcome):
        """(failed, statistical reject) for one op's outcome."""
        if outcome.error is not None:
            return True, False
        if not all(math.isfinite(v) for v, _ in outcome.checks):
            return True, False
        over = any(v > tol for v, tol in outcome.checks)
        if self.statistical:
            return False, over
        passed = all(r.get("passed", True) for r in outcome.reports)
        return over or not passed, False

    @staticmethod
    def headroom(outcome):
        """min over checks of log10(tolerance / residual), in decades."""
        margins = [math.log10(tol / v) for v, tol in outcome.checks if v > 0]
        return min(margins) if margins else math.inf


class Intertwining(Workload):
    """check_intertwining at one point: acceptance criterion 3, cut down.

    One op certifies each test function once, at three different alphas:
    op o gives function j the alpha (j + o) mod 3.  Single certificates
    range over a factor of about 3.5 in cost with (f, alpha, x), so the
    median of the twenty that fit in a run is the time of whichever one
    lands in the middle.  Each triple holds one alpha = 1.2, the costly
    one, and triples range over a factor of about 1.5.  A cycle of three
    ops does all nine (f, alpha) pairs, and percentiles are taken over
    whole cycles (`mix`).  The x strata are split the same way: [0.1, 5.0]
    is cut into nine strata in three thirds, each op takes one stratum
    from each third, and a cycle uses every stratum once.  Which function
    gets the low, middle or high third rotates by cycle."""

    name = "intertwining"
    cycle = mix = len(ALPHAS)

    def inputs(self, seed):
        rng = random.Random(seed)
        n = len(FUNCTIONS)
        width = (5.0 - 0.1) / (n * n)
        for c in itertools.count():
            for o in range(n):
                triple = []
                for j, f in enumerate(FUNCTIONS):
                    stratum = n * ((j + c) % n) + (o + j + c) % n
                    x = 0.1 + (stratum + rng.random()) * width
                    triple.append((f, ALPHAS[(j + o) % n], x))
                yield tuple(triple)

    def op(self, fs, params):
        reps = [fs.check_intertwining(fs.TEST_FUNCTIONS[f], a, [x])
                for f, a, x in params]
        return Outcome([(r.max_abs_residual, r.tolerance) for r in reps],
                       [r.to_dict() for r in reps])

    def warm_up(self, fs):
        # no cache on this path: one certificate warms the interpreter and
        # numpy
        self.op(fs, (("gauss", 1.5, 1.0),))


class Resolvent(Workload):
    """Criterion 7 cut down to one point: the generator-resolvent check at
    alpha 1.5, then both total masses at (alpha_k, x')."""

    name = "resolvent"
    cycle = len(ALPHAS)

    def inputs(self, seed):
        rng = random.Random(seed)
        for cycle in itertools.count():
            xs = _stratified(rng, 0.2, 3.0, len(ALPHAS), cycle)
            xps = _stratified(rng, 0.0, 3.0, len(ALPHAS), 2 * cycle)
            yield from zip(xs, ALPHAS, xps)

    def op(self, fs, params):
        x, a, xp = params
        rep = fs.check_resolvent_generator(fs.TEST_FUNCTIONS["gauss"], 1.5,
                                           [x])
        m1 = fs.u1_mass(a, xp)
        m2 = fs.uhat1_mass(a, xp)
        masses = {"alpha": a, "x": xp, "u1_mass": m1, "uhat1_mass": m2}
        return Outcome([(rep.max_abs_residual, rep.tolerance),
                        (abs(m1 - 1.0), MASS_TOL), (abs(m2 - 1.0), MASS_TOL)],
                       [rep.to_dict(), masses])

    def warm_up(self, fs):
        # builds U_1 f and Uhat_1 f and fills the extended-precision Gamma
        # tables for every alpha used, without a full generator point
        fs.check_resolvent_generator(fs.TEST_FUNCTIONS["gauss"], 1.5, [])
        for a in ALPHAS:
            fs.u1_mass(a, 1.0)
            fs.uhat1_mass(a, 1.0)


class Paths(Workload):
    """check_identity_law with the `fracstable verify identity-law`
    defaults: acceptance criterion 4 at CLI size."""

    name = "paths"
    cycle = len(ALPHAS)
    statistical = True

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            for a in ALPHAS:
                yield a, rng.randrange(1, 2 ** 31)

    def op(self, fs, params):
        a, seed = params
        cfg = fs.PathConfig(a, PATH_STEPS, PATH_PATHS, seed,
                            fs.Reflect.AtSupremum)
        rep = fs.check_identity_law(a, PATH_N_EXACT, cfg)
        return Outcome([(rep.max_abs_residual, rep.tolerance)],
                       [rep.to_dict()])

    def warm_up(self, fs):
        # a small identity-law check per alpha builds its V_alpha table
        for a in ALPHAS:
            cfg = fs.PathConfig(a, 64, 1000, 1, fs.Reflect.AtSupremum)
            fs.check_identity_law(a, 1000, cfg)


WORKLOADS = {w.name: w for w in (Intertwining(), Resolvent(), Paths())}
