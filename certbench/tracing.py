"""Span tracer that wraps fracstable's layers from outside the package.

Every layer below is a module-level function.  `Tracer.install` finds each
module of the loaded `fracstable` package that binds the function (by
identity, so `from .dist import kernel_apply` in verify is found as well as
dist's own name) and rebinds it to a timing wrapper; `Tracer.uninstall` puts
every original back.  Nothing in the package source is edited.

A span records name, start, end, parent span and op id.  Self time is a
span's duration minus the time covered by its direct children.  Functions
called ~10^5 times per op (the LEAF layers) are not stored span by span:
their calls and times are summed per (op, parent span, name).
"""

import functools
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

# (home module, attribute, span name).  Several attributes may share a span
# name when they are one layer (the two mass functions, the two KS helpers).
LAYERS = (
    ("quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("dist", "valpha_pdf", "dist.valpha_pdf"),
    ("dist", "kernel_apply", "dist.kernel_apply"),
    ("dist", "kernel_apply_d2", "dist.kernel_apply_d2"),
    ("dist", "_stable_increment_block", "dist.increments"),
    ("dist", "valpha_sample", "dist.exact_samplers"),
    ("dist", "xhat_sample", "dist.exact_samplers"),
    ("dist", "_valpha_table", "dist.valpha_table"),
    ("fracops", "_caputo_core", "fracops.caputo_core"),
    ("fracops", "_right_core", "fracops.right_core"),
    ("specfun", "F_family", "specfun.F_family"),
    ("specfun", "F_remainders", "specfun.F_remainders"),
    ("specfun", "_rem_series_mp", "specfun.mp_bridge"),
    ("specfun", "mittag_leffler", "specfun.mittag_leffler"),
    ("resolvent", "u1_density", "resolvent.u1_density"),
    ("resolvent", "uhat1_density", "resolvent.uhat1_density"),
    ("resolvent", "u1_mass", "resolvent.mass"),
    ("resolvent", "uhat1_mass", "resolvent.mass"),
    ("resolvent", "u1_resolvent_function", "resolvent.resolvent_function"),
    ("resolvent", "uhat1_resolvent_function", "resolvent.resolvent_function"),
    ("_kernels", "reflected_terminal", "kernels.reflected_terminal"),
    ("pathsim", "simulate_reflected", "pathsim.simulate_reflected"),
    ("pathsim", "bias_calibration", "pathsim.bias_calibration"),
    ("pathsim", "_ks_statistic", "verify.ks"),
    ("verify", "ks_two_sample_arrays", "verify.ks"),
    ("verify", "check_intertwining", "verify"),
    ("verify", "check_resolvent_generator", "verify"),
    ("verify", "check_identity_law", "verify"),
)

LEAF = frozenset({"dist.valpha_pdf", "specfun.F_family",
                  "specfun.F_remainders", "specfun.mp_bridge",
                  "specfun.mittag_leffler", "resolvent.u1_density",
                  "resolvent.uhat1_density"})


@dataclass
class _Frame:
    span_id: int
    name: str
    start: float
    child_s: float = 0.0


@dataclass(frozen=True)
class Binding:
    module: object
    attr: str
    original: Callable


class Tracer:
    def __init__(self):
        self.op: Optional[str] = None
        self.spans = []        # (id, name, start, end, parent id, op)
        self.leaf = {}         # (op, parent id, name) -> [calls, total_s]
        self.calls = {}        # span name -> calls
        self.self_s = {}       # span name -> summed self time
        self.counts = {}       # counter name -> value
        self.bindings = []     # every rebinding made by install()
        self.unbound = []      # layers absent from this version of the code
        self._stack = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name):
        self._next_id += 1
        frame = _Frame(self._next_id, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child_s
        pid = parent.span_id if parent is not None else None
        if name in LEAF:
            agg = self.leaf.setdefault((self.op, pid, name), [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans.append((frame.span_id, name, frame.start, end, pid,
                               self.op))

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(args) may return replacement args,
        after(args, result, quad_calls_inside) sees the outcome."""
        tracer = self

        quads = lambda: tracer.calls.get("quadrature.adaptive_quad", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            quad0 = quads() if after is not None else 0
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, result, quads() - quad0)
            return result

        return wrapper

    # -- per-layer hooks ---------------------------------------------------

    def _hooks(self):
        """Counters recorded at a layer boundary, keyed by span name."""
        from fracstable import errors, specfun

        def quad_before(args):
            fun = args[0]

            def counted(*a):
                self.count("quadrature.adaptive_quad.evals")
                return fun(*a)

            return (counted,) + tuple(args[1:])

        def quad_wrap(fn):
            inner = self.span("quadrature.adaptive_quad", fn, quad_before)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except errors.EvaluationError:
                    self.count("quadrature.adaptive_quad.evaluation_errors")
                    raise

            return wrapper

        mp_from = getattr(specfun, "_REM_MP_FROM", None)
        switch = getattr(specfun, "REM_SWITCH", None)

        def classify(args, result, quads):
            if mp_from is None or switch is None:
                return
            x = args[1]
            branch = ("series" if x < mp_from else
                      "bridge" if x < switch else "asymptotic")
            self.count("specfun.F_remainders.calls." + branch)

        def increments(args, result, quads):
            self.count("dist.increments.count", int(args[2]))

        def reflect_bytes(args, result, quads):
            self.count("kernels.reflected_terminal.bytes",
                       8 * int(args[0].size))

        def table_build(args, result, quads):
            # a cache hit runs no quadrature; a build runs ~10^3 of them
            if quads:
                self.count("dist.valpha_table.builds")

        def resolvent_fn(fn):
            outer = self.span("resolvent.resolvent_function", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                g = outer(*args, **kwargs)
                # evaluating g, g', g'' is the resolvent layer's real work
                return replace(g, **{k: self.span(
                    "resolvent.resolvent_function", getattr(g, k))
                    for k in ("eval_f", "eval_f1", "eval_f2")})

            return wrapper

        return {
            "quadrature.adaptive_quad": quad_wrap,
            "specfun.F_remainders":
                lambda fn: self.span("specfun.F_remainders", fn,
                                     after=classify),
            "dist.increments":
                lambda fn: self.span("dist.increments", fn, after=increments),
            "kernels.reflected_terminal":
                lambda fn: self.span("kernels.reflected_terminal", fn,
                                     after=reflect_bytes),
            "dist.valpha_table":
                lambda fn: self.span("dist.valpha_table", fn,
                                     after=table_build),
            "resolvent.resolvent_function": resolvent_fn,
        }

    # -- install / uninstall ------------------------------------------------

    def install(self):
        import scipy.integrate

        if self.bindings:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fracstable"
                                         or n.startswith("fracstable."))]
        for home, attr, name in LAYERS:
            mod = sys.modules.get("fracstable." + home)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.unbound.append("%s.%s" % (home, attr))
                continue
            make = hooks.get(name, lambda fn, name=name: self.span(name, fn))
            wrapped = make(original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self.bindings.append(Binding(m, key, original))
                        setattr(m, key, wrapped)
        # independent count of the integrator calls, to expose a binding of
        # adaptive_quad that the rebinding above missed
        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            self.count("scipy.integrate.quad.calls")
            return quad(*args, **kwargs)

        self.bindings.append(Binding(scipy.integrate, "quad", quad))
        scipy.integrate.quad = counted_quad

    def uninstall(self):
        for b in reversed(self.bindings):
            setattr(b.module, b.attr, b.original)

    def restored(self):
        """True when every rebound name is the original object again."""
        return all(getattr(b.module, b.attr) is b.original
                   for b in self.bindings)

    # -- results -----------------------------------------------------------

    def quad_calls_match(self):
        return (self.calls.get("quadrature.adaptive_quad", 0)
                == self.counts.get("scipy.integrate.quad.calls", 0))

    def metrics(self):
        """Per-layer metric values by name (calls, counts, self times)."""
        c, s, n = self.calls, self.self_s, self.counts
        quad_calls = c.get("quadrature.adaptive_quad", 0)
        evals = n.get("quadrature.adaptive_quad.evals", 0)
        out = {
            "quadrature.adaptive_quad.calls": quad_calls,
            "quadrature.adaptive_quad.evals": evals,
            "quadrature.adaptive_quad.evaluation_errors":
                n.get("quadrature.adaptive_quad.evaluation_errors", 0),
            "quadrature.evals_per_call":
                evals / quad_calls if quad_calls else 0.0,
            "specfun.F_remainders.calls.series":
                n.get("specfun.F_remainders.calls.series", 0),
            "specfun.F_remainders.calls.bridge":
                n.get("specfun.F_remainders.calls.bridge", 0),
            "specfun.F_remainders.calls.asymptotic":
                n.get("specfun.F_remainders.calls.asymptotic", 0),
            "dist.increments.count": n.get("dist.increments.count", 0),
            "dist.valpha_table.builds": n.get("dist.valpha_table.builds", 0),
            "kernels.reflected_terminal.bytes":
                n.get("kernels.reflected_terminal.bytes", 0),
        }
        for name in ("dist.valpha_pdf", "dist.kernel_apply",
                     "dist.kernel_apply_d2", "fracops.caputo_core",
                     "fracops.right_core", "specfun.F_family",
                     "specfun.mittag_leffler", "resolvent.u1_density",
                     "resolvent.uhat1_density", "pathsim.simulate_reflected"):
            out[name + ".calls"] = c.get(name, 0)
        for name in ("quadrature.adaptive_quad", "dist.valpha_pdf",
                     "dist.kernel_apply", "dist.kernel_apply_d2",
                     "fracops.caputo_core", "fracops.right_core",
                     "specfun.F_family", "specfun.F_remainders",
                     "specfun.mp_bridge", "resolvent.u1_density",
                     "resolvent.uhat1_density", "resolvent.mass",
                     "resolvent.resolvent_function", "dist.increments",
                     "dist.exact_samplers", "dist.valpha_table",
                     "kernels.reflected_terminal",
                     "pathsim.simulate_reflected", "pathsim.bias_calibration",
                     "verify.ks", "verify"):
            out[name + ".self_s"] = s.get(name, 0.0)
        return out

    def records(self):
        """Stored spans and leaf aggregates as JSON-ready dicts."""
        for sid, name, start, end, parent, op in self.spans:
            yield {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
        for (op, parent, name), (calls, total) in self.leaf.items():
            yield {"name": name, "parent": parent, "op": op,
                   "calls": calls, "total_s": total}
