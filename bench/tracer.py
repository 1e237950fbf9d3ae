"""Per-layer tracing of deltaops from outside the package.

`install` replaces the public functions and methods named in `LAYERS` with
timing wrappers, in every place a caller looks them up: the attribute of
each `deltaops.*` module that holds the original object (so a function
imported by name into another module is wrapped there too) and the class
attribute for methods.  The package's files are not edited.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by wrapped calls made inside it; its total time counts only
the outermost call of a recursive chain.  Generators are counted per item
they yield rather than timed, since their time would include the
consumer's.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute, kind); kind is "call" (timed span),
# "gen" (count the yielded items) or "tuple" (count the returned items).
LAYERS = (
    ("poly.poly_gcd_qt", "deltaops.poly", "poly_gcd_qt", "call"),
    ("poly.MultiPoly.mul", "deltaops.poly", "MultiPoly.__mul__", "call"),
    ("poly.MultiPoly.divexact", "deltaops.poly", "MultiPoly.divexact", "call"),
    ("poly.RatFunc.ops", "deltaops.poly", "RatFunc.__add__", "call"),
    ("poly.RatFunc.ops", "deltaops.poly", "RatFunc.__mul__", "call"),
    ("poly.RatFunc.ops", "deltaops.poly", "RatFunc.__truediv__", "call"),
    ("symfunc.convert", "deltaops.symfunc", "convert", "call"),
    ("symfunc.plethysm", "deltaops.symfunc", "plethysm", "call"),
    ("symfunc.hall_inner", "deltaops.symfunc", "hall_inner", "call"),
    ("symfunc.expand_vars", "deltaops.symfunc", "expand_vars", "call"),
    ("macdonald.build", "deltaops.macdonald", "MacdonaldCache._build", "call"),
    ("macdonald.load", "deltaops.macdonald", "MacdonaldCache._load", "call"),
    ("macdonald.htilde_raw", "deltaops.macdonald", "htilde_raw", "call"),
    ("macdonald.expand_in_htilde", "deltaops.macdonald", "expand_in_htilde", "call"),
    ("macdonald.delta_h", "deltaops.macdonald", "delta_h", "call"),
    ("macdonald.from_h_expansion", "deltaops.macdonald", "from_h_expansion", "call"),
    ("genfunc.rise_gf", "deltaops.genfunc", "rise_gf", "call"),
    ("genfunc.val_gf", "deltaops.genfunc", "val_gf", "call"),
    ("genfunc.rise_via_llt", "deltaops.genfunc", "rise_via_llt", "call"),
    ("paths.dyck_paths", "deltaops.paths", "dyck_paths", "tuple"),
    ("paths.stack_paths", "deltaops.paths", "stack_paths", "gen"),
    ("paths.dense_paths", "deltaops.paths", "dense_paths", "gen"),
    ("paths.theta", "deltaops.paths", "theta", "call"),
    ("osp.enumerate_osp", "deltaops.osp", "enumerate_osp", "gen"),
    ("osp.gamma", "deltaops.osp", "gamma", "call"),
    ("checks.run_check", "deltaops.checks", "run_check", "call"),
)

# Span names that take their suffix from the call's arguments.
ROUTED = {"genfunc.rise_gf": 3, "genfunc.val_gf": 3}


class Tracer:
    """In-memory span statistics: {name: [calls, total_s, self_s]} plus counts."""

    def __init__(self):
        self.spans: dict = {}
        self.counts: dict = {}
        self._stack: list = []   # [name, start, child_s] per open span
        self._active: dict = {}  # name -> open spans with that name
        self._in_bijections = False
        self._gamma_phase = False

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])
        self._active[name] = self._active.get(name, 0) + 1

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self._active[name] -= 1
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        if not self._active[name]:
            rec[1] += dur
        rec[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _span_wrapper(tracer: Tracer, name: str, fn):
    argpos = ROUTED.get(name)

    def wrapper(*args, **kwargs):
        span = name
        if argpos is not None:
            route = kwargs.get("route", args[argpos] if len(args) > argpos else "z")
            span = f"{name}.{route}"
        elif name == "checks.run_check":
            span = f"checks.{args[0]}"
            if args[0] == "bijections":
                tracer._in_bijections, tracer._gamma_phase = True, False
        tracer.enter(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave()
            if span == "checks.bijections":
                tracer._in_bijections = False
        if name == "poly.poly_gcd_qt" and out.is_constant():
            tracer.bump("poly.poly_gcd_qt.trivial")
        return out

    return wrapper


def _gen_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        # In the bijections check, every osp enumeration belongs to the gamma
        # part, which runs after the phi, psi and theta parts; dense paths
        # enumerated from then on feed the gamma image check.
        if tracer._in_bijections and name == "osp.enumerate_osp":
            tracer._gamma_phase = True
        gamma = tracer._gamma_phase and name == "paths.dense_paths"
        kept = tracer._in_bijections and name == "osp.enumerate_osp"
        for item in fn(*args, **kwargs):
            tracer.bump(name)
            if gamma:
                tracer.bump("bijections.gamma.enumerated")
            if kept:
                tracer.bump("bijections.gamma.kept")
            yield item

    return wrapper


def _tuple_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.bump(name, len(out))
        return out

    return wrapper


_KINDS = {"call": _span_wrapper, "gen": _gen_wrapper, "tuple": _tuple_wrapper}


def install(tracer: Tracer) -> None:
    """Wrap every entry of LAYERS wherever deltaops code looks it up."""
    import importlib

    for _, modname, _, _ in LAYERS:
        importlib.import_module(modname)
    importlib.import_module("deltaops.cli")
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "deltaops" or k.startswith("deltaops.")]
    for name, modname, dotted, kind in LAYERS:
        owner, attr = _resolve(sys.modules[modname], dotted)
        original = getattr(owner, attr)
        wrapped = _KINDS[kind](tracer, name, original)
        if isinstance(owner, type):
            # Reflected operators (__radd__, __rmul__) alias the same function.
            for key, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, key, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
