#!/usr/bin/env python3
"""Precompute and validate the Macdonald expansion cache.

Usage: python scripts/build_cache.py [--n-max N] [--cache-dir DIR]

Each degree is built from the filling formula, pushed through the validation
battery, and persisted with a checksum; rebuilding is bit-exact.
"""

import argparse
import os
import sys
import time

from deltaops.config import ENV_CACHE_DIR
from deltaops.macdonald import MacdonaldCache


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--cache-dir", default=os.environ.get(ENV_CACHE_DIR, ".deltaops-cache"))
    args = parser.parse_args()
    cache = MacdonaldCache(args.cache_dir, progress=True)
    for n in range(1, args.n_max + 1):
        t0 = time.monotonic()
        cache.degree(n)
        print(f"degree {n}: ok ({time.monotonic() - t0:.1f}s)", file=sys.stderr)
    print(f"cache ready in {args.cache_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
