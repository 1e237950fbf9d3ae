#!/usr/bin/env python3
"""Print Schur expansions of the primed Delta images of e_n.

Usage: python scripts/delta_schur_table.py [--n-max N] [--cache-dir DIR]

A small exploration aid: the table makes the conjectured positivity (and the
k = 1 closed form) visible at a glance.
"""

import argparse
import os

from deltaops.config import ENV_CACHE_DIR
from deltaops.macdonald import MacdonaldCache, delta_prime
from deltaops.partitions import reverse_lex_sorted
from deltaops.symfunc import SymFunc, convert


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--cache-dir", default=os.environ.get(ENV_CACHE_DIR))
    args = parser.parse_args()
    cache = MacdonaldCache(args.cache_dir)
    for n in range(1, args.n_max + 1):
        for k in range(0, n):
            f = convert(delta_prime(SymFunc.e(k), SymFunc.e(n), cache), "s")
            print(f"Delta'_e{k} e_{n}:")
            for lam in reverse_lex_sorted(f.coeffs):
                print(f"  s{lam}: {f.coeffs[lam].to_text()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
