"""The deltaops benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload operator|paths|catalog --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`.  One run does one cold set-up in a fresh interpreter, then
timed repetitions, each in a fresh interpreter (so no `lru_cache` survives
from one to the next), until S seconds have passed, then checks every
output.  Children get PYTHONHASHSEED=0 and no DELTAOPS_CACHE_DIR.  Only one
child runs at a time.

With --trace 0 the metrics are the end-to-end ones (set-up time, median
repetition time, peak resident memory of a repetition).  Times are wall
times rescaled to the machine's reference speed, which each child samples
while it works (speed.py).  With --trace 1 the repetitions alternate between
untraced and traced children, and the metrics are the per-layer ones (see
README.md).  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the machine.  A copy of both goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HASH_SEED = "0"
RUN_LIMIT_S = 170  # every child must end within this much of the run's start

sys.path.insert(0, HERE)

import verify as V  # noqa: E402
import workloads as W  # noqa: E402


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DELTAOPS_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    return env


def run_child(workload: str, phase: str, plan: dict, tmp: str, out: str,
              trace: int, deadline: float) -> dict:
    """Run one phase in a fresh interpreter; add its wall time from spawn."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--phase", phase, "--plan", json.dumps(plan),
           "--cache-dir", os.path.join(tmp, "cache"), "--out", out, "--trace", str(trace)]
    log = os.path.join(tmp, "child.log")
    with open(log, "w") as stdout, open(log + ".err", "w") as stderr:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
        try:
            proc.wait(timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{phase} child ran past the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = read(log + ".err").strip().splitlines()[-1:] or ["no message"]
        raise ChildFailed(f"{phase} child exited {proc.returncode}: {tail[0]}")
    record = json.loads(read(log).strip().splitlines()[-1])
    record["wall"] = record["end"] - spawn
    record["out"] = out
    return record


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def check_outputs(workload: str, plan: dict, reps: list, reference: dict | None) -> list:
    """Check the first repetition's outputs; the others must have its digest."""
    text = read(reps[0]["out"])
    errors = []
    if any(r["digest"] != reps[0]["digest"] for r in reps[1:]):
        errors.append("repetitions gave different outputs")
    if workload == "operator":
        sys.path.insert(0, SRC)
        from deltaops.genfunc import rise_gf

        n = plan["n"]
        images = {
            int(k): {tuple(lam): (V.poly_from_json(num), V.poly_from_json(den))
                     for lam, num, den in image}
            for k, image in json.loads(text).items()
        }
        rise = {k: dict(rise_gf(n, k, n).terms) for k in images}
        errors += V.check_operator(images, rise, n)
        if sorted(images) != sorted(plan["ks"]):
            errors.append(f"operator gave k = {sorted(images)}, expected {sorted(plan['ks'])}")
    elif workload == "paths":
        forms = {}
        for key, pairs in json.loads(text).items():
            form, n, k, route = key.split("|")
            forms[(form, int(n), int(k), route)] = V.poly_from_json(pairs)
        errors += V.check_paths(forms)
        if len(forms) != len(plan["tasks"]):
            errors.append(f"paths gave {len(forms)} forms, expected {len(plan['tasks'])}")
    else:
        ref_text = read(reference["out"])
        if reference["exit"] != 0:
            errors.append(f"reference catalog run exited {reference['exit']}")
        errors += V.check_catalog(text, ref_text, reps[0]["exit"], W.CATALOG_CHECKS)
        errors += [f"catalog exited {r['exit']}" for r in reps[1:] if r["exit"] != 0]
    return errors


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def flatten(snapshot: dict) -> dict:
    flat = dict(snapshot["counts"])
    for name, (calls, total, self_s) in snapshot["spans"].items():
        flat[f"{name}#calls"] = calls
        flat[f"{name}#total"] = total
        flat[f"{name}#self"] = self_s
    return flat


def combine(setup: dict, reps: list) -> dict:
    """Set-up figures plus the median repetition, key by key."""
    flats = [flatten(r) for r in reps]
    keys = set(setup) | {k for f in flats for k in f}
    return {k: setup.get(k, 0) + statistics.median(f.get(k, 0) for f in flats)
            for k in keys}


def _share(part: float, base: float) -> float:
    return part / base if base else 0.0


# (metric name, unit, value from the combined flat trace)
PER_LAYER = [
    ("poly.poly_gcd_qt.calls", "count", lambda c: c.get("poly.poly_gcd_qt#calls", 0)),
    ("poly.poly_gcd_qt.self_s", "s", lambda c: c.get("poly.poly_gcd_qt#self", 0.0)),
    ("poly.poly_gcd_qt.trivial_share", "ratio", lambda c: _share(
        c.get("poly.poly_gcd_qt.trivial", 0), c.get("poly.poly_gcd_qt#calls", 0))),
    ("poly.RatFunc.ops", "count", lambda c: c.get("poly.RatFunc.ops#calls", 0)),
    ("poly.MultiPoly.mul.calls", "count", lambda c: c.get("poly.MultiPoly.mul#calls", 0)),
    ("poly.MultiPoly.mul.self_s", "s", lambda c: c.get("poly.MultiPoly.mul#self", 0.0)),
    ("poly.MultiPoly.divexact.self_s", "s",
     lambda c: c.get("poly.MultiPoly.divexact#self", 0.0)),
]
PER_LAYER += [(f"symfunc.{f}.self_s", "s", lambda c, f=f: c.get(f"symfunc.{f}#self", 0.0))
              for f in ("convert", "plethysm", "hall_inner", "expand_vars")]
PER_LAYER += [
    ("macdonald.build_s", "s", lambda c: c.get("macdonald.build#total", 0.0)),
    ("macdonald.htilde_raw.self_s", "s", lambda c: c.get("macdonald.htilde_raw#self", 0.0)),
    ("macdonald.load_s", "s", lambda c: c.get("macdonald.load#total", 0.0)),
]
PER_LAYER += [(f"macdonald.{f}.s", "s", lambda c, f=f: c.get(f"macdonald.{f}#total", 0.0))
              for f in ("expand_in_htilde", "delta_h", "from_h_expansion")]
PER_LAYER += [(f"genfunc.{f}.s", "s", lambda c, f=f: c.get(f"genfunc.{f}#total", 0.0))
              for f in ("rise_gf.z", "rise_gf.fall", "rise_gf.stack", "val_gf.z",
                        "val_gf.stack", "val_gf.dense", "rise_via_llt")]
PER_LAYER += [(f"paths.{f}.count", "count", lambda c, f=f: c.get(f"paths.{f}", 0))
              for f in ("dyck_paths", "stack_paths", "dense_paths")]
PER_LAYER += [
    ("paths.theta.calls", "count", lambda c: c.get("paths.theta#calls", 0)),
    ("osp.enumerate_osp.count", "count", lambda c: c.get("osp.enumerate_osp", 0)),
    ("osp.gamma.calls", "count", lambda c: c.get("osp.gamma#calls", 0)),
    ("bijections.gamma.enumerated", "count",
     lambda c: c.get("bijections.gamma.enumerated", 0)),
    ("bijections.gamma.kept_ratio", "ratio", lambda c: _share(
        c.get("bijections.gamma.kept", 0), c.get("bijections.gamma.enumerated", 0))),
]
PER_LAYER += [(f"checks.{name}.s", "s", lambda c, name=name: c.get(f"checks.{name}#total", 0.0))
              for name in W.CATALOG_CHECKS]
TRACE_METRICS = [("trace.run_s", "s"), ("trace.overhead_s", "s")]


def scaled(seconds: float, record: dict) -> float:
    """A child's time at the machine's reference speed."""
    return seconds * record["speed_factor"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "deltaops")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "hash_seed": HASH_SEED,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deltaops", "__init__.py")):
        print(f"error: no deltaops package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    plan = W.plan(args.workload, args.seed)
    ops = W.operations(args.workload, plan)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # On SIGTERM, unwind through the finally clauses that stop the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        setup = run_child(args.workload, "setup", plan, tmp,
                          os.path.join(tmp, "setup.out"), args.trace, deadline)
        modes = (0, 1) if args.trace else (0,)
        reps = {0: [], 1: []}
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            for mode in modes:
                attempted += ops
                first = not reps[0] and mode == 0
                out = os.path.join(tmp, "rep.out") if first else "-"
                try:
                    reps[mode].append(run_child(args.workload, "rep", plan, tmp,
                                                out, mode, deadline))
                except ChildFailed as exc:
                    print(f"repetition failed: {exc}", file=sys.stderr)
                    failed += ops
            if time.perf_counter() - start >= args.seconds or time.monotonic() > deadline:
                break
        done = reps[0] + reps[1]
        if not reps[0] or (args.trace and not reps[1]):
            print("error: no repetition finished", file=sys.stderr)
            return 1
        reference = None
        if args.workload == "catalog":
            reference = run_child(args.workload, "reference", plan, tmp,
                                  os.path.join(tmp, "reference.out"), 0, deadline)
        errors = check_outputs(args.workload, plan, done, reference)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = statistics.median(scaled(r["seconds"], r) for r in reps[0])
    if args.trace:
        flat = combine(flatten(setup["trace"]), [r["trace"] for r in reps[1]])
        metrics = {name: metric(fn(flat), unit) for name, unit, fn in PER_LAYER}
        traced = statistics.median(scaled(r["seconds"], r) for r in reps[1])
        metrics["trace.run_s"] = metric(traced, "s")
        metrics["trace.overhead_s"] = metric(traced - untraced, "s")
    else:
        metrics = {
            "setup_s": metric(scaled(setup["wall"], setup), "s"),
            "run_s": metric(untraced, "s"),
            "peak_rss_mb": metric(
                statistics.median(r["maxrss_kb"] for r in reps[0]) / 1024, "MiB"),
        }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"machine": machine(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rep_seconds": {str(m): [r["seconds"] for r in reps[m]] for m in modes},
              "rep_speed_factors": {str(m): [r["speed_factor"] for r in reps[m]]
                                    for m in modes},
              "setup_wall_s": setup["wall"], "setup_speed_factor": setup["speed_factor"],
              "errors": errors, "result": result}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": record["machine"], "rep_seconds": record["rep_seconds"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
