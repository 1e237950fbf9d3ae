"""Dyck-path objects and their statistics.

Everything is encoded by small tuples:

  * a Dyck path of order n is its area vector a, with a[0] = 0 and
    a[i+1] <= a[i] + 1 (0-based indexing internally; statistics follow the
    1-based row conventions of the combinatorics);
  * a labeled path is (a, labels) with labels strictly increasing up each
    column (i.e. whenever a[i+1] = a[i] + 1);
  * a stack path is (diag, a, labels) where diag is the sorted tuple of rows
    sitting diagonally above their predecessor (row 1 always included) and
    `a` the offsets from the stack's left border;
  * a dense path is a shorter Dyck path whose boundary squares carry finite
    label sets (DensePath below);
  * a partially labeled path uses label 0 for its unlabeled valleys.

Enumeration order is deterministic everywhere: area vectors ascend
lexicographically and labelings ascend lexicographically within a path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


# ---------------------------------------------------------------------------
# Dyck paths and labelings
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dyck_paths(n: int) -> tuple:
    """All area vectors of order n, lexicographically ascending."""
    if n == 0:
        return ((),)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for nxt in range(0, prefix[-1] + 2):
            rec(prefix + [nxt])

    rec([0])
    return tuple(out)


def label_vectors(a: tuple, N: int):
    """All column-strict labelings of the path `a` with labels in 1..N."""
    n = len(a)

    def rec(i, labels):
        if i == n:
            yield tuple(labels)
            return
        lo = labels[i - 1] + 1 if i and a[i] == a[i - 1] + 1 else 1
        for v in range(lo, N + 1):
            labels.append(v)
            yield from rec(i + 1, labels)
            labels.pop()

    yield from rec(0, [])


def labeled_paths(n: int, N: int | None = None):
    """All labeled Dyck paths of order n with labels in 1..N (default n)."""
    if N is None:
        N = n
    for a in dyck_paths(n):
        for labels in label_vectors(a, N):
            yield a, labels


# ---------------------------------------------------------------------------
# statistics on (labeled) Dyck paths
# ---------------------------------------------------------------------------

def area(a: tuple) -> int:
    return sum(a)


def d_vector(a: tuple, labels: tuple | None = None) -> tuple:
    """d_i: diagonal-inversion pairs opened in row i (1-based row = index+1).

    Without labels this is the q,t-Catalan version (all label comparisons
    count as inversions).
    """
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] == a[j]:
                if labels is None or labels[i] < labels[j]:
                    out[i] += 1
            elif a[i] == a[j] + 1:
                if labels is None or labels[i] > labels[j]:
                    out[i] += 1
    return tuple(out)


def dinv(a: tuple, labels: tuple | None = None) -> int:
    return sum(d_vector(a, labels))


def rise_rows(a: tuple) -> tuple:
    """Rows i (1-based, i >= 2) whose north step follows a north step."""
    return tuple(i + 1 for i in range(1, len(a)) if a[i] == a[i - 1] + 1)


def val_rows(a: tuple, labels: tuple | None = None) -> tuple:
    """Contractible valleys (1-based rows)."""
    out = []
    for i in range(1, len(a)):
        if a[i] < a[i - 1]:
            out.append(i + 1)
        elif a[i] == a[i - 1] and (labels is None or labels[i] > labels[i - 1]):
            out.append(i + 1)
    return tuple(out)


def x_positions(a: tuple) -> tuple:
    """East-steps crossed before each row's north step."""
    return tuple(i - a[i] for i in range(len(a)))


def fall_cols(a: tuple) -> tuple:
    """Columns j (1-based, j <= n-1) whose east step precedes another east step."""
    xs = set(x_positions(a))
    return tuple(j for j in range(1, len(a)) if j not in xs)


def col_areas(a: tuple) -> tuple:
    """c_j: full squares between path and diagonal in column j (1-based)."""
    xs = x_positions(a)
    n = len(a)
    return tuple(sum(1 for y in range(j, n) if xs[y] <= j - 1) for j in range(1, n + 1))


def serialize(a: tuple, labels=None, dec=None) -> str:
    parts = ["a=[" + ",".join(map(str, a)) + "]"]
    if labels is not None:
        parts.append("l=[" + ",".join(map(str, labels)) + "]")
    if dec is not None:
        parts.append("dec=[" + ",".join(map(str, sorted(dec))) + "]")
    return ";".join(parts)


def deserialize(text: str) -> dict:
    out = {}
    for field in text.split(";"):
        key, _, body = field.partition("=")
        body = body.strip("[]")
        out[key] = tuple(int(v) for v in body.split(",")) if body else ()
    return out


# ---------------------------------------------------------------------------
# leaning stacks
# ---------------------------------------------------------------------------

def stacks(n: int, k: int) -> tuple:
    """diag(S) sets for all leaning stacks with k diagonal offsets above row 1."""
    return tuple((1,) + rest for rest in itertools.combinations(range(2, n + 1), k))


class StackPath:
    """A labeled path against a leaning stack.

    diag: rows sitting diagonally above their predecessor (row 1 included);
    a: row offsets from the stack border (a[0] = 0); labels as usual.
    """

    __slots__ = ("diag", "a", "labels", "_hv", "_xs")

    def __init__(self, diag: tuple, a: tuple, labels: tuple):
        self.diag = tuple(diag)
        self.a = tuple(a)
        self.labels = tuple(labels)
        self._hv = None
        self._xs = None

    def __eq__(self, other):
        if not isinstance(other, StackPath):
            return NotImplemented
        return (self.diag, self.a, self.labels) == (other.diag, other.a, other.labels)

    def __hash__(self):
        return hash((self.diag, self.a, self.labels))

    def __repr__(self):
        return f"StackPath(diag={self.diag}, a={self.a}, labels={self.labels})"

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def k(self) -> int:
        return len(self.diag) - 1

    def cols(self) -> tuple:
        """col(i): the stack column of each row (0-based)."""
        out = []
        c = -1
        diag = set(self.diag)
        for i in range(1, len(self.a) + 1):
            if i in diag:
                c += 1
            out.append(c)
        return tuple(out)

    def xs(self) -> tuple:
        if self._xs is None:
            cols = self.cols()
            a = self.a
            self._xs = tuple(cols[i] - a[i] for i in range(len(a)))
        return self._xs

    def h_vector(self) -> tuple:
        """h_i: height of each label above the bottom stack square of its column."""
        if self._hv is None:
            xs = self.xs()
            bottom: dict = {}
            for i, c in enumerate(self.cols()):
                bottom.setdefault(c, i + 1)
            self._hv = tuple(i + 1 - bottom[xs[i]] for i in range(len(self.a)))
        return self._hv

    def area(self) -> int:
        return sum(self.a)

    def wdinv(self) -> int:
        a, l, n = self.a, self.labels, len(self.a)
        diag = self.diag
        count = 0
        for i0 in diag:
            i = i0 - 1
            ai, li = a[i], l[i]
            for j in range(i + 1, n):
                aj = a[j]
                if (ai == aj and li < l[j]) or (ai == aj + 1 and li > l[j]):
                    count += 1
        return count - (n - len(diag))

    def hdinv(self) -> int:
        h, l, n = self.h_vector(), self.labels, len(self.a)
        count = 0
        for i in range(n):
            hi, li = h[i], l[i]
            for j in range(i + 1, n):
                hj = h[j]
                if (hi == hj and li < l[j]) or (hi == hj + 1 and li > l[j]):
                    count += 1
        return count

    def reading_word(self) -> tuple:
        """Labels read by descending height, right to left within a height."""
        xs = self.xs()
        hv = self.h_vector()
        order = sorted(range(len(self.a)), key=lambda i: (-hv[i], -xs[i]))
        return tuple(self.labels[i] for i in order)


def stack_area_vectors(diag: tuple, n: int):
    """Area vectors valid against the stack with the given diag rows."""
    steps = [1 if i + 1 in diag else 0 for i in range(n)]  # row 1 forced a=0 below

    def rec(i, prefix):
        if i == n:
            yield tuple(prefix)
            return
        hi = prefix[-1] + steps[i] if i else 0
        for v in range(hi + 1) if i else (0,):
            prefix.append(v)
            yield from rec(i + 1, prefix)
            prefix.pop()

    yield from rec(0, [])


def stack_label_vectors(diag: tuple, a: tuple, N: int):
    """Column-strict labelings: strict when a[i] = a[i-1] + [i in diag]."""
    n = len(a)
    steps = [1 if i + 1 in diag else 0 for i in range(n)]

    def rec(i, labels):
        if i == n:
            yield tuple(labels)
            return
        lo = labels[i - 1] + 1 if i and a[i] == a[i - 1] + steps[i] else 1
        for v in range(lo, N + 1):
            labels.append(v)
            yield from rec(i + 1, labels)
            labels.pop()

    yield from rec(0, [])


def stack_paths(n: int, k: int, N: int | None = None):
    if N is None:
        N = n
    for diag in stacks(n, k):
        for a in stack_area_vectors(diag, n):
            for labels in stack_label_vectors(diag, a, N):
                yield StackPath(diag, a, labels)


# ---------------------------------------------------------------------------
# bijections: decorated labeled paths <-> stack paths
# ---------------------------------------------------------------------------

def phi(a: tuple, labels: tuple, falls: tuple) -> StackPath:
    """Fall-decorated labeled Dyck path -> stack path (h-vector = old areas)."""
    n = len(a)
    fset = set(falls)
    if not fset <= set(fall_cols(a)):
        raise ValueError("decoration is not a subset of the double falls")
    diag = tuple(m for m in range(1, n + 1) if m - 1 not in fset)
    dpos = {row: idx for idx, row in enumerate(diag)}
    xs = []
    for i in range(n):
        b = i + 1 - a[i]
        if b not in dpos:
            raise ValueError("fall decoration does not produce a stack path")
        xs.append(dpos[b])
    sp_cols = []
    c = -1
    for i in range(1, n + 1):
        if i in diag:
            c += 1
        sp_cols.append(c)
    new_a = tuple(sp_cols[i] - xs[i] for i in range(n))
    return StackPath(diag, new_a, tuple(labels))


def phi_inverse(sp: StackPath) -> tuple:
    """(a, labels, falls) recovering the fall-decorated path (a = h-vector)."""
    a = sp.h_vector()
    falls = tuple(m - 1 for m in range(2, sp.n + 1) if m not in set(sp.diag))
    if not set(falls) <= set(fall_cols(a)):
        raise ValueError("stack path is not a phi image")
    return a, sp.labels, falls


def psi(a: tuple, labels: tuple, valleys: tuple) -> StackPath:
    """Valley-decorated labeled Dyck path -> stack path (areas preserved)."""
    vset = set(valleys)
    if not vset <= set(val_rows(a, labels)):
        raise ValueError("decoration is not a subset of the contractible valleys")
    diag = tuple(m for m in range(1, len(a) + 1) if m not in vset)
    return StackPath(diag, tuple(a), tuple(labels))


def psi_inverse(sp: StackPath) -> tuple:
    valleys = tuple(m for m in range(2, sp.n + 1) if m not in set(sp.diag))
    a, labels = sp.a, sp.labels
    if not set(valleys) <= set(val_rows(a, labels)):
        raise ValueError("stack path is not a psi image")
    return a, labels, valleys


# ---------------------------------------------------------------------------
# densely labeled Dyck paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensePath:
    """Dyck path of order k+1 with set labels on its boundary squares.

    north[r] is the label set of row r+1's north square; east holds the east
    squares keyed by (x, row), possibly empty sets.  Area of a square (x, row)
    is row - 1 - x.
    """

    a: tuple                  # area vector of the underlying short path
    north: tuple              # tuple of frozensets, one per row
    east: tuple               # sorted tuple of ((x, row), frozenset)

    def order(self) -> int:
        return len(self.a)

    def east_dict(self) -> dict:
        return dict(self.east)

    def entries(self) -> list:
        """(value, area, x, row, north-square-minimum) for every label entry.

        Only north-square minima open wdinv pairs: they are exactly the diag
        rows of the stack picture, which is what the statistic transport
        through the contraction map requires.
        """
        xs = x_positions(self.a)
        out = []
        for r, s in enumerate(self.north):
            for v in s:
                out.append((v, r - xs[r], xs[r], r + 1, v == min(s)))
        for (x, row), s in self.east:
            for v in s:
                out.append((v, row - 1 - x, x, row, False))
        return out

    def area(self) -> int:
        return sum(e[1] for e in self.entries())

    def wdinv(self) -> int:
        xs = x_positions(self.a)
        vals: list = []
        areas: list = []
        pos: list = []
        openers: list = []
        east_entries = 0
        for r, s in enumerate(self.north):
            lo = min(s)
            for v in s:
                if v == lo:
                    openers.append(len(vals))
                vals.append(v)
                areas.append(r - xs[r])
                pos.append(xs[r])
        for (x, row), s in self.east:
            east_entries += len(s)
            for v in s:
                vals.append(v)
                areas.append(row - 1 - x)
                pos.append(x)
        count = 0
        total = len(vals)
        for i in openers:
            r, ra, rx = vals[i], areas[i], pos[i]
            for j in range(total):
                if rx < pos[j]:
                    s, sa = vals[j], areas[j]
                    if (r < s and ra == sa) or (r > s and ra == sa + 1):
                        count += 1
        return count - east_entries

    def content_key(self) -> tuple:
        values = [v for v, *_ in self.entries()]
        top = max(values)
        exps = [0] * top
        for v in values:
            exps[v - 1] += 1
        return tuple(exps)

    def column_chains(self) -> dict:
        """{x: [(row, labelset), ...] bottom to top} over all boundary squares."""
        xs = x_positions(self.a)
        chains: dict = {}
        for r, s in enumerate(self.north):
            chains.setdefault(xs[r], []).append((r + 1, s))
        for (x, row), s in self.east:
            chains.setdefault(x, []).append((row, s))
        return {x: sorted(v) for x, v in chains.items()}

    def check(self, n: int) -> None:
        if any(not s for s in self.north):
            raise ValueError("empty north square")
        for chain in self.column_chains().values():
            prev = None
            for _, s in chain:
                if not s:
                    continue
                if prev is not None and not prev < min(s):
                    raise ValueError("labels must increase up each column")
                prev = max(s)
        if sum(len(s) for s in self.north) + sum(len(s) for _, s in self.east) != n:
            raise ValueError("wrong total label count")


def east_square_slots(a: tuple) -> tuple:
    """(x, row) positions of the east squares of a short Dyck path."""
    xs = x_positions(a)
    m = len(a)
    out = []
    for r in range(m):
        hi = xs[r + 1] if r + 1 < m else m
        hi = min(hi, r + 1 - 1)
        for x in range(xs[r] + 1, hi + 1):
            out.append((x, r + 1))
    return tuple(out)


def theta(sp: StackPath, validate: bool = False) -> DensePath:
    """Contract the vertical-square rows of a stack path into set labels."""
    diag = sp.diag
    xs = sp.xs()
    labels = sp.labels
    n = sp.n
    short_a = tuple(sp.a[i - 1] for i in diag)
    bounds = diag + (n + 1,)
    north = []
    east: dict = {}
    for r, start in enumerate(diag):
        stop = bounds[r + 1]
        base_x = xs[start - 1]
        ns = []
        for i in range(start, stop):
            x = xs[i - 1]
            if x == base_x:
                ns.append(labels[i - 1])
            else:
                east.setdefault((x, r + 1), []).append(labels[i - 1])
        north.append(frozenset(ns))
    slots = east_square_slots(short_a)
    east_full = tuple((pos, frozenset(east.get(pos, ()))) for pos in sorted(slots))
    dp = DensePath(short_a, tuple(north), east_full)
    if validate:
        dp.check(n)
    return dp


def theta_inverse(dp: DensePath) -> StackPath:
    xs_short = x_positions(dp.a)
    east = dp.east_dict()
    diag = []
    a = []
    labels = []
    row = 0
    for r in range(dp.order()):
        diag.append(row + 1)
        for v in sorted(dp.north[r]):
            row += 1
            a.append(r - xs_short[r])
            labels.append(v)
        hi = xs_short[r + 1] if r + 1 < dp.order() else dp.order()
        hi = min(hi, r)
        for x in range(xs_short[r] + 1, hi + 1):
            for v in sorted(east.get((x, r + 1), ())):
                row += 1
                a.append(r - x)
                labels.append(v)
    return StackPath(tuple(diag), tuple(a), tuple(labels))


def dense_paths(n: int, k: int, N: int | None = None):
    """All densely labeled paths with n entries from 1..N on order-(k+1) paths.

    Squares are filled in row order with a per-column floor, so the
    column-increase rule prunes the search instead of filtering afterwards.
    """
    if N is None:
        N = n
    for a in dyck_paths(k + 1):
        xs = x_positions(a)
        m = len(a)
        squares = []  # (x, row, is_north) in row-major order
        for r in range(m):
            squares.append((xs[r], r + 1, True))
            hi = xs[r + 1] if r + 1 < m else m
            hi = min(hi, r)
            for x in range(xs[r] + 1, hi + 1):
                squares.append((x, r + 1, False))
        norths_after = [0] * (len(squares) + 1)
        for i in range(len(squares) - 1, -1, -1):
            norths_after[i] = norths_after[i + 1] + (1 if squares[i][2] else 0)
        slots = tuple(sq[:2] for sq in squares if not sq[2])

        def rec(idx, remaining, floor, acc):
            if idx == len(squares):
                if remaining == 0:
                    yield tuple(acc)
                return
            x, row, is_north = squares[idx]
            base = floor.get(x, 0)
            lo_size = 1 if is_north else 0
            hi_size = remaining - norths_after[idx + 1]
            for size in range(lo_size, hi_size + 1):
                if size == 0:
                    acc.append(frozenset())
                    yield from rec(idx + 1, remaining, floor, acc)
                    acc.pop()
                    continue
                for combo in itertools.combinations(range(base + 1, N + 1), size):
                    acc.append(frozenset(combo))
                    old = floor.get(x, 0)
                    floor[x] = combo[-1]
                    yield from rec(idx + 1, remaining - size, floor, acc)
                    if old:
                        floor[x] = old
                    else:
                        del floor[x]
                    acc.pop()

        for filled in rec(0, n, {}, []):
            norths = []
            easts = {}
            for sq, s in zip(squares, filled):
                if sq[2]:
                    norths.append(s)
                else:
                    easts[sq[:2]] = s
            yield DensePath(a, tuple(norths), tuple((pos, easts[pos]) for pos in sorted(slots)))


# ---------------------------------------------------------------------------
# partially labeled Dyck paths (label 0 = unlabeled valley)
# ---------------------------------------------------------------------------

def partial_paths(n: int, ell: int, N: int | None = None):
    """Paths of order n+ell with exactly ell unlabeled valleys; labels 1..N."""
    if N is None:
        N = n
    total = n + ell
    for a in dyck_paths(total):
        candidates = [i for i in range(1, total) if a[i] <= a[i - 1]]
        for empty in itertools.combinations(candidates, ell):
            eset = set(empty)

            def rec(i, labels):
                if i == total:
                    yield tuple(labels)
                    return
                if i in eset:
                    labels.append(0)
                    yield from rec(i + 1, labels)
                    labels.pop()
                    return
                lo = 1
                if i and a[i] == a[i - 1] + 1 and labels[i - 1] > 0:
                    lo = labels[i - 1] + 1
                for v in range(lo, N + 1):
                    labels.append(v)
                    yield from rec(i + 1, labels)
                    labels.pop()

            for labels in rec(0, []):
                yield a, labels


def dinv_partial(a: tuple, labels: tuple) -> int:
    """dinv with unlabeled rows counted as label 0."""
    return dinv(a, labels)


def dinv_prime_partial(a: tuple, labels: tuple) -> int:
    """The alternative dinv: empty rows contribute -1 plus pair rules."""
    n = len(a)
    total = 0
    for i in range(n):
        if labels[i] == 0:
            total -= 1
            continue
        for j in range(i + 1, n):
            if labels[j] == 0:
                if a[i] == a[j] or a[i] == a[j] + 1:
                    total += 1
            else:
                if (a[i] == a[j] and labels[i] < labels[j]) or (
                    a[i] == a[j] + 1 and labels[i] > labels[j]
                ):
                    total += 1
    return total


def touch(a: tuple, labels: tuple) -> int:
    """Rows on the diagonal that carry a label."""
    return sum(1 for i in range(len(a)) if a[i] == 0 and labels[i] != 0)
