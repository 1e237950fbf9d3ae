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
from operator import sub
from typing import NamedTuple


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _stack_cols(diag: tuple, n: int) -> tuple:
    """The stack column (0-based) of each of the n rows of a leaning stack."""
    out = []
    c = -1
    for i in range(1, n + 1):
        if i in diag:
            c += 1
        out.append(c)
    return tuple(out)


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
        return _stack_cols(self.diag, len(self.a))

    def xs(self) -> tuple:
        if self._xs is None:
            self._xs = tuple(map(sub, self.cols(), self.a))
        return self._xs

    def h_vector(self) -> tuple:
        """h_i: height of each label above the bottom stack square of its column."""
        if self._hv is None:
            # Stack column c starts at row diag[c].
            diag = self.diag
            self._hv = tuple(i + 1 - diag[x] for i, x in enumerate(self.xs()))
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
    cols = _stack_cols(diag, n)
    new_a = []
    for i in range(n):
        b = i + 1 - a[i]
        if b not in dpos:
            raise ValueError("fall decoration does not produce a stack path")
        new_a.append(cols[i] - dpos[b])
    return StackPath(diag, tuple(new_a), tuple(labels))


def phi_inverse(sp: StackPath) -> tuple:
    """(a, labels, falls) recovering the fall-decorated path (a = h-vector)."""
    a = sp.h_vector()
    dset = set(sp.diag)
    falls = tuple(m - 1 for m in range(2, sp.n + 1) if m not in dset)
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
    dset = set(sp.diag)
    valleys = tuple(m for m in range(2, sp.n + 1) if m not in dset)
    a, labels = sp.a, sp.labels
    if not set(valleys) <= set(val_rows(a, labels)):
        raise ValueError("stack path is not a psi image")
    return a, labels, valleys


# ---------------------------------------------------------------------------
# densely labeled Dyck paths
# ---------------------------------------------------------------------------

class DenseShape(NamedTuple):
    """The squares of a short Dyck path that a dense path can label."""

    xs: tuple            # x_positions of the short path
    slots: tuple         # east squares (x, row), in row order
    sorted_slots: tuple  # the same squares sorted, the order of DensePath.east
    squares: tuple       # (x, row, is_north) for every square, in row order


@lru_cache(maxsize=None)
def dense_shape(a: tuple) -> DenseShape:
    """The per-shape table of the short path `a`, shared by all its labelings.

    Row r + 1 has its north square at x = xs[r] and east squares at
    x = xs[r] + 1 up to the next row's north square (up to m = len(a) in the
    top row), never past the diagonal: x <= r.
    """
    xs = x_positions(a)
    m = len(a)
    squares = []
    for r in range(m):
        squares.append((xs[r], r + 1, True))
        hi = min(xs[r + 1] if r + 1 < m else m, r)
        for x in range(xs[r] + 1, hi + 1):
            squares.append((x, r + 1, False))
    slots = tuple((x, row) for x, row, is_north in squares if not is_north)
    return DenseShape(xs, slots, tuple(sorted(slots)), tuple(squares))


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

    def area(self) -> int:
        xs = dense_shape(self.a).xs
        total = sum(len(s) * (r - xs[r]) for r, s in enumerate(self.north))
        return total + sum(len(s) * (row - 1 - x) for (x, row), s in self.east)

    def wdinv(self) -> int:
        """Pairs (m, v), less one per east entry: m is the minimum of a north
        square and v an entry right of it, with v > m at the same area or
        v < m one area lower.

        Only north-square minima open pairs: they are exactly the diag rows
        of the stack picture, which is what the statistic transport through
        the contraction map requires.
        """
        xs = dense_shape(self.a).xs
        by_area: dict = {}  # area -> [(x, value)] over every entry
        for r, s in enumerate(self.north):
            x = xs[r]
            entries = by_area.setdefault(r - x, [])
            for v in s:
                entries.append((x, v))
        count = 0
        for (x, row), s in self.east:
            if s:
                count -= len(s)
                entries = by_area.setdefault(row - 1 - x, [])
                for v in s:
                    entries.append((x, v))
        for r, s in enumerate(self.north):
            x = xs[r]
            ra = r - x
            lo = min(s)
            for sx, v in by_area[ra]:
                if sx > x and v > lo:
                    count += 1
            for sx, v in by_area.get(ra - 1, ()):
                if sx > x and v < lo:
                    count += 1
        return count

    def content_key(self) -> tuple:
        values = [v for s in self.north for v in s]
        values += [v for _, s in self.east for v in s]
        exps = [0] * max(values)
        for v in values:
            exps[v - 1] += 1
        return tuple(exps)

    def column_chains(self) -> dict:
        """{x: [(row, labelset), ...] bottom to top} over all boundary squares."""
        xs = dense_shape(self.a).xs
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
    east_full = tuple((pos, frozenset(east.get(pos, ())))
                      for pos in dense_shape(short_a).sorted_slots)
    dp = DensePath(short_a, tuple(north), east_full)
    if validate:
        dp.check(n)
    return dp


def theta_inverse(dp: DensePath) -> StackPath:
    """Expand each square's label set into rows, in the order of the squares."""
    east = dp.east_dict()
    north = dp.north
    diag: list = []
    a: list = []
    labels: list = []
    for x, row, is_north in dense_shape(dp.a).squares:
        if is_north:
            diag.append(len(labels) + 1)
            vals = north[row - 1]
        else:
            vals = east.get((x, row))
            if not vals:
                continue
        a += [row - 1 - x] * len(vals)
        labels += sorted(vals)
    return StackPath(tuple(diag), tuple(a), tuple(labels))


def dense_paths(n: int, k: int, N: int | None = None, content: tuple | None = None):
    """All densely labeled paths with n entries from 1..N on order-(k+1) paths.

    Squares are filled in row order with a per-column floor, so the
    column-increase rule prunes the search instead of filtering afterwards.
    With `content` (a content key: value v appears content[v-1] times, the
    last part nonzero) only the paths with that content_key are made, in the
    same order: a square is offered only the values that have copies left.
    """
    if N is None:
        N = n
    left = None
    if content is not None:
        content = tuple(content)
        if (sum(content) != n or len(content) > N or not content
                or content[-1] == 0 or min(content) < 0):
            return
        left = [0, *content] + [0] * (N - len(content))  # left[v], v = 1..N
    for a in dyck_paths(k + 1):
        shape = dense_shape(a)
        squares = shape.squares
        nsq = len(squares)
        norths_after = [0] * (nsq + 1)
        for i in range(nsq - 1, -1, -1):
            norths_after[i] = norths_after[i + 1] + squares[i][2]
        north_idx = [i for i, sq in enumerate(squares) if sq[2]]
        east_idx = [squares.index(pos + (False,)) for pos in shape.sorted_slots]
        sorted_slots = shape.sorted_slots

        def rec(idx, remaining, floor, acc):
            if idx == nsq:
                if remaining == 0:
                    yield DensePath(a, tuple(acc[i] for i in north_idx),
                                    tuple(zip(sorted_slots, [acc[i] for i in east_idx])))
                return
            x, _, is_north = squares[idx]
            base = floor.get(x, 0)
            hi_size = remaining - norths_after[idx + 1]
            if not is_north:
                acc.append(frozenset())
                yield from rec(idx + 1, remaining, floor, acc)
                acc.pop()
            if left is None:
                pool = range(base + 1, N + 1)
            else:
                pool = [v for v in range(base + 1, N + 1) if left[v]]
            for size in range(1, hi_size + 1):
                for combo in itertools.combinations(pool, size):
                    if left is not None:
                        for v in combo:
                            left[v] -= 1
                    acc.append(frozenset(combo))
                    floor[x] = combo[-1]
                    yield from rec(idx + 1, remaining - size, floor, acc)
                    acc.pop()
                    if left is not None:
                        for v in combo:
                            left[v] += 1
                floor[x] = base

        yield from rec(0, n, {}, [])


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
