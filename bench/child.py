"""One phase of a benchmark run, in a fresh interpreter.

    python3 bench/child.py --workload W --phase setup|rep|reference \
        --plan JSON --cache-dir DIR --out FILE --trace 0|1

`run.py` starts this with PYTHONPATH pointing at the checkout's `src`, a
fixed PYTHONHASHSEED and no DELTAOPS_CACHE_DIR.  The phase's outputs go to
--out (unless it is "-"); the last line of standard output is a JSON object
with the wall time of the phase's work, the machine-speed factor sampled
while it ran (speed.py), the monotonic clock when the work ended, a digest
of its outputs, the peak resident memory of this process, the exit status
of the work and, with --trace 1, the span statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads as W  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    memory at the fork that started this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def poly_json(p) -> list:
    """A MultiPoly as sorted [[exponents], "coefficient"] pairs."""
    return [[list(e), str(c)] for e, c in sorted(p.terms.items())]


def poly_digest(p) -> int:
    """Order-free hash of a MultiPoly's terms (ints and Fractions hash the
    same in every process, whatever PYTHONHASHSEED is)."""
    return hash(frozenset(p.terms.items()))


def symfunc_json(f) -> list:
    """An m-basis SymFunc as sorted [[partition], numerator, denominator]."""
    if f.basis != "m":
        raise ValueError(f"expected the monomial basis, got {f.basis!r}")
    return [[list(lam), poly_json(c.num), poly_json(c.den)]
            for lam, c in sorted(f.coeffs.items())]


def setup(workload: str, plan: dict, cache_dir: str) -> None:
    import deltaops  # noqa: F401  (the import is the whole set-up of `paths`)
    from deltaops.macdonald import MacdonaldCache

    if workload in ("operator", "catalog"):
        cache = MacdonaldCache(cache_dir)
        for n in range(1, plan["build_n"] + 1):
            cache.degree(n)


def rep_operator(plan: dict, cache_dir: str):
    from deltaops import MacdonaldCache, SymFunc, expand_in_htilde
    from deltaops.macdonald import delta_h, from_h_expansion

    cache = MacdonaldCache(cache_dir)
    t0 = time.perf_counter()
    hc = expand_in_htilde(SymFunc.e(plan["n"]), cache)
    out = {k: from_h_expansion(delta_h(SymFunc.e(k), hc, prime=True), cache)
           for k in plan["ks"]}
    return time.perf_counter() - t0, 0, out


def rep_paths(plan: dict):
    from deltaops import genfunc as G

    t0 = time.perf_counter()
    out = {}
    for form, n, k, route in plan["tasks"]:
        if route == "llt":
            out[(form, n, k, route)] = G.rise_via_llt(n, k, n)
        elif form == "rise":
            out[(form, n, k, route)] = G.rise_gf(n, k, n, route=route)
        else:
            out[(form, n, k, route)] = G.val_gf(n, k, n, route=route)
    return time.perf_counter() - t0, 0, out


def run_catalog(argv: list):
    from deltaops.cli import main

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), open(os.devnull, "w") as null, \
            contextlib.redirect_stderr(null):
        code = main(argv)
    return time.perf_counter() - t0, code, buf.getvalue()


def serialize(workload: str, out):
    """(digest, text) of a repetition's outputs; text is built only on demand."""
    if workload == "paths":
        keys = sorted(out)
        digest = repr([(k, poly_digest(out[k])) for k in keys])
        return _sha(digest), lambda: json.dumps(
            {"|".join(map(str, k)): poly_json(out[k]) for k in keys})
    if workload == "operator":
        out = json.dumps({str(k): symfunc_json(out[k]) for k in sorted(out)})
    return _sha(out), lambda: out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--phase", choices=("setup", "rep", "reference"), required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    plan = json.loads(args.plan)

    tracer = None
    if args.trace:
        import tracer as TR

        tracer = TR.Tracer()
        TR.install(tracer)

    code = 0
    out = None
    with speed.Speedometer() as meter:
        if args.phase == "setup":
            t0 = time.perf_counter()
            setup(args.workload, plan, args.cache_dir)
            seconds = time.perf_counter() - t0
        elif args.workload == "operator":
            seconds, code, out = rep_operator(plan, args.cache_dir)
        elif args.workload == "paths":
            seconds, code, out = rep_paths(plan)
        else:
            cache_dir = args.cache_dir if args.phase == "rep" else None
            seconds, code, out = run_catalog(W.catalog_argv(plan, cache_dir))
    # CLOCK_MONOTONIC is system-wide, so the parent can time from its spawn.
    end = time.monotonic()
    maxrss_kb = peak_rss_kb()  # before the outputs are serialized

    digest = None
    if out is not None:
        digest, text = serialize(args.workload, out)
        if args.out != "-":
            with open(args.out, "w") as fh:
                fh.write(text())
    print(json.dumps({
        "seconds": seconds,
        "speed_factor": meter.factor(),
        "end": end,
        "exit": code,
        "digest": digest,
        "maxrss_kb": maxrss_kb,
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
