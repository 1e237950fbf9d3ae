"""Output checks of the benchmark, on plain data and independent of deltaops.

A polynomial is a dict {exponent tuple: int or Fraction}; exponent slot 0 is q,
slot 1 is t, slots 2-4 are z, w, u and slot 5 + i is x_(i+1), trailing zeros
trimmed (the layout of `deltaops.poly`).  Every check returns a list of
error strings, empty when the output is right.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, prod

X0 = 5  # exponent slot of x1

# One structured result line: check=NAME params... status=STATE [detail=...]
_RESULT = re.compile(r"check=(\S+) .*?\bstatus=(pass|fail|mismatch)\b")


def poly_from_json(pairs) -> dict:
    return {tuple(e): Fraction(c) if "/" in c else int(c) for e, c in pairs}


def _trim(e) -> tuple:
    e = list(e)
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def _pad(e, width: int) -> list:
    return list(e) + [0] * (width - len(e))


def swap_slots(p: dict, i: int, j: int) -> dict:
    """p with the variables in exponent slots i and j exchanged."""
    out = {}
    for e, c in p.items():
        v = _pad(e, max(i, j) + 1)
        v[i], v[j] = v[j], v[i]
        out[_trim(v)] = c
    return out


def partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Dyck paths, enumerated here rather than taken from deltaops.paths
# ---------------------------------------------------------------------------

def dyck_area_vectors(n: int):
    """Area vectors (a_1 = 0, a_(i+1) <= a_i + 1, all >= 0) of order n."""
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for nxt in range(prefix[-1] + 2):
            yield from rec(prefix + [nxt])

    if n == 0:
        yield ()
        return
    yield from rec([0])


def qt1_count(n: int, k: int, nvars: int) -> int:
    """The z^(n-k-1) coefficient of the rise (and valley) form at q = t = 1,
    x_i = 1: over Dyck paths, C(#rises, n-k-1) times C(N, l) per vertical run
    of length l (labels strictly increase up a run)."""
    total = 0
    for a in dyck_area_vectors(n):
        runs, length, rises = [], 1, 0
        for i in range(1, n):
            if a[i] == a[i - 1] + 1:
                rises += 1
                length += 1
            else:
                runs.append(length)
                length = 1
        runs.append(length)
        total += comb(rises, n - k - 1) * prod(comb(nvars, ell) for ell in runs)
    return total


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_qt_symmetric(p: dict, label: str) -> list:
    if swap_slots(p, 0, 1) != p:
        return [f"{label}: changes when q and t are swapped"]
    return []


def check_x_symmetric(p: dict, nvars: int, label: str) -> list:
    """Every coefficient equals the one at its x-exponents sorted decreasingly,
    which holds for all e exactly when p is symmetric in x1..xN."""
    for e, c in p.items():
        if len(e) > X0 + nvars:
            return [f"{label}: uses a variable past x{nvars}"]
        xs = sorted(e[X0:], reverse=True)
        if p.get(_trim(_pad(e[:X0], X0) + xs), 0) != c:
            return [f"{label}: not symmetric in x1..x{nvars} at exponents {e}"]
    return []


def check_qt1_count(p: dict, n: int, k: int, nvars: int, label: str) -> list:
    got = sum(p.values())
    want = qt1_count(n, k, nvars)
    if got != want:
        return [f"{label}: {got} at q = t = x = 1, Dyck-path count gives {want}"]
    return []


def check_operator(images: dict, rise: dict, n: int) -> list:
    """images: {k: {partition: (numerator, denominator)}}, the m-expansion of
    Delta'_{e_k} e_n; rise: {k: rise form in n variables}."""
    errors = []
    one = {(): Fraction(1)}
    for k, image in sorted(images.items()):
        label = f"Delta'_(e_{k}) e_{n}"
        for lam, (num, den) in sorted(image.items()):
            where = f"{label} at m{lam}"
            if den != one:
                errors.append(f"{where}: coefficient is not a polynomial")
                continue
            if any(c < 0 or c.denominator != 1 for c in num.values()):
                errors.append(f"{where}: coefficient has a negative or fractional term")
            errors += check_qt_symmetric(num, where)
        for lam in partitions(n):
            want = {_trim(e[:X0]): c for e, c in rise[k].items() if _trim(e[X0:]) == lam}
            if image.get(lam, ({}, one))[0] != want:
                errors.append(f"{label} at m{lam}: differs from the rise form at x^{lam}")
    return errors


def check_paths(forms: dict) -> list:
    """forms: {(form, n, k, route): polynomial} from one `paths` repetition."""
    errors = []
    for (form, n, k, route), p in sorted(forms.items()):
        label = f"{form}_gf(n={n}, k={k}, route={route})"
        if route == "z":
            if form == "rise":
                errors += check_x_symmetric(p, n, label)
            errors += check_qt_symmetric(p, label)
            errors += check_qt1_count(p, n, k, n, label)
        else:
            base = forms.get((form, n, k, "z"))
            if base is None:
                errors.append(f"{label}: no z-route form to compare with")
            elif p != base:
                errors.append(f"{label}: differs from the z-route")
    return errors


def check_catalog(report: str, reference: str, exit_code: int, names) -> list:
    """A structured catalog report, against the one made without a cache."""
    errors = []
    if exit_code != 0:
        errors.append(f"catalog exited {exit_code}")
    seen = set()
    for line in report.splitlines():
        m = _RESULT.match(line)
        if m is None:
            errors.append(f"catalog line not a result: {line!r}")
            continue
        seen.add(m.group(1))
        if m.group(2) != "pass":
            errors.append(f"catalog result not passing: {line}")
    missing = sorted(set(names) - seen)
    if missing:
        errors.append(f"catalog checks with no result: {', '.join(missing)}")
    if report != reference:
        errors.append("catalog report differs from the one made without a cache directory")
    return errors
