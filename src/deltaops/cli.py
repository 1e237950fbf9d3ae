"""Command-line verifier.

Exit status: 0 when every theorem-status result passes (conjecture
mismatches are reported but not fatal), 1 on a theorem failure, 2 on a
usage or configuration error.  Progress goes to stderr; the report goes to
stdout and is deterministic for a given cache state and parameters.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECKS, run_suite
from .config import CAP_FIELDS, Config
from .macdonald import MacdonaldCache, MacdonaldError

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaops",
        description="Exact verifier for Delta-operator identities and their "
                    "Dyck-path combinatorics.",
    )
    parser.add_argument("--check", action="append", metavar="NAME",
                        help="run one named check (repeatable); default: whole suite")
    parser.add_argument("--profile", choices=("quick", "full"), default="quick")
    parser.add_argument("--n-max", type=int, metavar="N",
                        help="clamp every degree cap to N (at least 1)")
    parser.add_argument("--k", type=int, help="restrict checks to one k where applicable")
    parser.add_argument("--vars", type=int, metavar="N",
                        help="truncate x-expansions to N variables (at least 1)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="Macdonald cache directory (default: "
                             "$DELTAOPS_CACHE_DIR or in-memory)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--qtint-zero", dest="qtint", action="store_const",
                       const="zero", help="use [0]_{q,t} = 0 (default)")
    group.add_argument("--qtint-one", dest="qtint", action="store_const",
                       const="one", help="use [0]_{q,t} = 1")
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--list", action="store_true", help="list catalog checks and exit")
    parser.set_defaults(qtint="zero")
    return parser


def make_config(args) -> Config:
    overrides = {"qtint_convention": args.qtint}
    if args.vars is not None:
        overrides["vars_n"] = args.vars
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    cfg = Config.for_profile(args.profile, **overrides)
    if args.n_max is not None:
        for name in CAP_FIELDS:
            setattr(cfg, name, min(getattr(cfg, name), args.n_max))
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.list:
        for name in sorted(CHECKS):
            _, status, statement = CHECKS[name]
            print(f"{name:14s} [{status}] {statement}")
        return 0
    try:
        cfg = make_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    cache = MacdonaldCache(cfg.cache_dir, progress=True)
    try:
        if args.check:
            for name in args.check:
                if name not in CHECKS:
                    print(f"error: unknown check {name!r}; try --list", file=sys.stderr)
                    return USAGE_ERROR
            report = run_suite(cfg, names=sorted(set(args.check)), cache=cache)
        else:
            report = run_suite(cfg, cache=cache)
    except MacdonaldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.k is not None:
        report.results = [r for r in report.results if r.params.get("k", args.k) == args.k]
    out = report.format_structured() if args.format == "structured" else report.format_text()
    sys.stdout.write(out)
    return 1 if report.theorem_failures() else 0


if __name__ == "__main__":
    raise SystemExit(main())
