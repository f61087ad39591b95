"""Command-line interface.

Exit codes: 0 success, 2 a verification check ran and failed, 1 any other
error (bad usage, domain violations, numerical failures)."""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .dist import (iminus_moment, iminus_pdf, mom_V, mom_X, mom_Xhat, mom_Y,
                   positive_stable_sample, stable_increment_sample,
                   valpha_pdf, valpha_sample, xhat_sample, yalpha_pdf,
                   zbeta_pdf)
from .errors import FracstableError
from .fracops import (caputo, delta_plus, reflected_generator_general,
                      rl_left_alpha, rl_left_alpha_minus1, rl_right)
from .pathsim import PathConfig, Reflect, bias_calibration, simulate_reflected
from .specfun import GeneralIndex, mittag_leffler
from .testfuncs import REGISTRY
from .verify import (CM_TARGETS, check_cm, check_factorization,
                     check_identity_law, check_intertwining, check_lamperti,
                     check_laplace_normalization, check_rep,
                     check_resolvent_generator)

DEFAULT_SEED = 0xC0FFEE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _floats(text):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError("expected a comma-separated list of numbers: %r"
                          % text)


def _ints(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError("expected a comma-separated list of integers: %r"
                          % text)


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("FRACSTABLE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError("FRACSTABLE_SEED must be an integer")
    return DEFAULT_SEED


def _emit_csv(rows, header, out, seed=None):
    if seed is not None:
        print("# seed=%d" % seed, file=out)
    print(header, file=out)
    for row in rows:
        print(",".join("%.17g" % v if isinstance(v, float) else str(v)
                       for v in row), file=out)


def _function(name):
    if name not in REGISTRY:
        raise _UsageError("unknown test function %r (choose from %s)"
                          % (name, ", ".join(sorted(REGISTRY))))
    return REGISTRY[name]


# ---------------------------------------------------------------------------

def _cmd_ml(args, out):
    rows = [(x, mittag_leffler(args.alpha, x, args.deriv))
            for x in _floats(args.x)]
    _emit_csv(rows, "x,value", out)
    return 0


def _cmd_fracop(args, out):
    f = _function(args.function)
    ops = {
        "caputo": lambda x: caputo(f, args.alpha, x),
        "delta-plus": lambda x: delta_plus(f, args.alpha, x),
        "rl-left": lambda x: rl_left_alpha(f, args.alpha, x),
        "rl-left-am1": lambda x: rl_left_alpha_minus1(f, args.alpha, x),
        "rl-right": lambda x: rl_right(f, args.alpha, x),
        "generator": lambda x: reflected_generator_general(
            f, GeneralIndex(args.alpha, args.cplus, args.cminus), x),
    }
    rows = [(x, ops[args.op](x)) for x in _floats(args.x)]
    _emit_csv(rows, "x,value", out)
    return 0


def _cmd_density(args, out):
    pdfs = {"valpha": valpha_pdf, "yalpha": yalpha_pdf, "zbeta": zbeta_pdf,
            "iminus": iminus_pdf}
    pdf = pdfs[args.law]
    rows = [(x, float(pdf(args.alpha, x))) for x in _floats(args.x)]
    _emit_csv(rows, "x,value", out)
    return 0


def _cmd_moments(args, out):
    moms = {"v": mom_V, "y": mom_Y, "x": mom_X, "xhat": mom_Xhat,
            "iminus": iminus_moment}
    mom = moms[args.law]
    rows = [(s, mom(args.alpha, s)) for s in _floats(args.s)]
    _emit_csv(rows, "s,value", out)
    return 0


def _cmd_sample(args, out):
    seed = _resolve_seed(args)
    samplers = {"valpha": valpha_sample, "pos-stable": positive_stable_sample,
                "stable-increment": stable_increment_sample,
                "xhat": xhat_sample}
    vals = samplers[args.law](args.alpha, args.n, seed)
    _emit_csv([(float(v),) for v in vals], "value", out, seed=seed)
    return 0


def _cmd_simulate(args, out):
    seed = _resolve_seed(args)
    reflect = Reflect.AtSupremum if args.reflect == "sup" \
        else Reflect.AtInfimum
    cfg = PathConfig(args.alpha, args.steps, args.paths, seed, reflect,
                     horizon=args.horizon)
    vals = simulate_reflected(cfg)
    _emit_csv([(float(v),) for v in vals], "value", out, seed=seed)
    return 0


def _cmd_calibrate(args, out):
    seed = _resolve_seed(args)
    result = bias_calibration(args.alpha, _ints(args.ladder), args.paths,
                              seed)
    json.dump(result, out, indent=2)
    out.write("\n")
    return 0


def _cmd_verify(args, out):
    seed = _resolve_seed(args)
    a = args.alpha
    if args.check == "intertwining":
        grid = _floats(args.x) if args.x else list(np.linspace(0.1, 5.0, 25))
        rep = check_intertwining(_function(args.function), a, grid)
    elif args.check == "factorization":
        grid = _floats(args.s) if args.s else [-0.4, -0.1, 0.3, 0.7, 1.0]
        rep = check_factorization(a, grid)
    elif args.check == "identity-law":
        # the check draws X_1 exactly and reads no step count
        cfg = PathConfig(a, 1, args.paths, seed, Reflect.AtSupremum)
        rep = check_identity_law(a, args.n, cfg)
    elif args.check == "cm":
        grid = _floats(args.x) if args.x else [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        nmax = CM_TARGETS[args.target][2] if args.nmax is None else args.nmax
        rep = check_cm(args.target, a, nmax, grid)
    elif args.check == "resolvent":
        grid = _floats(args.x) if args.x else list(np.linspace(0.2, 3.0, 10))
        rep = check_resolvent_generator(_function(args.function), a, grid)
    elif args.check == "lamperti":
        grid = _floats(args.lam) if args.lam else [0.0, 0.5, 1.0, 2.0, 5.0]
        rep = check_lamperti(a, grid)
    elif args.check == "rep":
        grid = _floats(args.y) if args.y else [0.5, 1.0, 2.0]
        rep = check_rep(a, grid)
    elif args.check == "laplace":
        grid = _floats(args.lam) if args.lam else [0.25, 0.5, 1.0]
        rep = check_laplace_normalization(a, grid, args.n, seed)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError("unknown check %r" % args.check)
    payload = json.dumps(rep.to_dict(), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    print(payload, file=out)
    return 0 if rep.passed else 2


# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="fracstable",
                description="Fractional operators and reflected stable "
                            "processes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ml", help="Mittag-Leffler function E_alpha(x)")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--x", required=True, help="comma-separated points")
    q.add_argument("--deriv", type=int, default=0, choices=(0, 1, 2))
    q.set_defaults(run=_cmd_ml)

    q = sub.add_parser("fracop", help="apply a fractional operator")
    q.add_argument("--op", required=True,
                   choices=("caputo", "delta-plus", "rl-left", "rl-left-am1",
                            "rl-right", "generator"))
    q.add_argument("--function", required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--cplus", type=float, default=1.0)
    q.add_argument("--cminus", type=float, default=1.0)
    q.set_defaults(run=_cmd_fracop)

    q = sub.add_parser("density", help="evaluate a probability density")
    q.add_argument("--law", required=True,
                   choices=("valpha", "yalpha", "zbeta", "iminus"))
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--x", required=True)
    q.set_defaults(run=_cmd_density)

    q = sub.add_parser("moments", help="fractional moments in closed form")
    q.add_argument("--law", required=True,
                   choices=("v", "y", "x", "xhat", "iminus"))
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--s", required=True)
    q.set_defaults(run=_cmd_moments)

    q = sub.add_parser("sample", help="draw i.i.d. samples")
    q.add_argument("--law", required=True,
                   choices=("valpha", "pos-stable", "stable-increment",
                            "xhat"))
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.set_defaults(run=_cmd_sample)

    q = sub.add_parser("simulate", help="terminal values of reflected walks")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--reflect", required=True, choices=("sup", "inf"))
    q.add_argument("--steps", type=int, required=True)
    q.add_argument("--paths", type=int, required=True)
    q.add_argument("--horizon", type=float, default=1.0)
    q.add_argument("--seed", type=int)
    q.set_defaults(run=_cmd_simulate)

    q = sub.add_parser("calibrate-bias",
                       help="discretization bias vs the exact law")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--ladder", required=True,
                   help="comma-separated step counts")
    q.add_argument("--paths", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.set_defaults(run=_cmd_calibrate)

    q = sub.add_parser("verify", help="run a verification check")
    q.add_argument("check",
                   choices=("intertwining", "factorization", "identity-law",
                            "cm", "resolvent", "lamperti", "rep", "laplace"))
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--function", default="gauss")
    q.add_argument("--x")
    q.add_argument("--s")
    q.add_argument("--y")
    q.add_argument("--lam")
    q.add_argument("--n", type=int, default=100000)
    q.add_argument("--paths", type=int, default=2000)
    q.add_argument("--target", default="recip_ML", choices=tuple(CM_TARGETS))
    q.add_argument("--nmax", type=int,
                   help="highest derivative order (default: the target's "
                        "certified cap)")
    q.add_argument("--seed", type=int)
    q.add_argument("--output", help="also write the JSON report here")
    q.set_defaults(run=_cmd_verify)

    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, out)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except FracstableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
