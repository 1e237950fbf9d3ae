"""Ordered multiset partitions and their four statistics.

An ordered multiset partition is a tuple of frozensets (the blocks, left to
right) whose multiset union has content alpha (value i appears alpha[i-1]
times); no block repeats a value.  The statistics inv, dinv, maj and
minimaj all specialize the path statistics at q = 0 or t = 0, and the
insertion map `gamma` realizes minimaj as the area of a densely labeled
path with zero wdinv.
"""

from __future__ import annotations

import itertools

from .paths import DensePath, dense_shape

OSP = tuple  # tuple of frozensets


def parse_blocks(text: str) -> OSP:
    """Parse block notation like 13|23|14|234 (commas for values above 9)."""
    blocks = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        vals = [int(v) for v in chunk.split(",")] if "," in chunk else [int(c) for c in chunk]
        blocks.append(frozenset(vals))
    return tuple(blocks)


def emit_blocks(pi: OSP) -> str:
    sep = "," if any(v > 9 for b in pi for v in b) else ""
    return "|".join(sep.join(str(v) for v in sorted(b)) for b in pi)


def content(pi: OSP) -> tuple:
    top = max((v for b in pi for v in b), default=0)
    alpha = [0] * top
    for b in pi:
        for v in b:
            alpha[v - 1] += 1
    return tuple(alpha)


def enumerate_osp(alpha: tuple, k: int):
    """All ordered multiset partitions of content alpha into k blocks."""
    alpha = tuple(alpha)
    values = [i + 1 for i, m in enumerate(alpha) for _ in range(m)]
    n = len(values)
    if k < 0 or (k == 0) != (n == 0):
        if k == 0 and n == 0:
            yield ()
        return

    def rec(remaining: dict, blocks_left: int, acc: list):
        total = sum(remaining.values())
        if blocks_left == 0:
            if total == 0:
                yield tuple(acc)
            return
        if total < blocks_left:
            return
        support = sorted(v for v, m in remaining.items() if m > 0)
        # Nonempty subsets of the distinct remaining values, smallest first.
        for size in range(1, len(support) + 1):
            for block in itertools.combinations(support, size):
                for v in block:
                    remaining[v] -= 1
                acc.append(frozenset(block))
                yield from rec(remaining, blocks_left - 1, acc)
                acc.pop()
                for v in block:
                    remaining[v] += 1

    counts = {i + 1: m for i, m in enumerate(alpha) if m}
    yield from rec(counts, k, [])


def inv(pi: OSP) -> int:
    """Pairs a > b with a left of b's block and b minimal in its block."""
    total = 0
    for i, bi in enumerate(pi):
        for j in range(i + 1, len(pi)):
            m = min(pi[j])
            total += sum(1 for a in bi if a > m)
    return total


def dinv(pi: OSP) -> int:
    """Primary and secondary diagonal inversion triples (h-th smallest)."""
    rows = [sorted(b) for b in pi]
    total = 0
    k = len(pi)
    for i in range(k):
        for j in range(i + 1, k):
            for h in range(max(len(rows[i]), len(rows[j]))):
                if h < len(rows[i]) and h < len(rows[j]) and rows[i][h] > rows[j][h]:
                    total += 1
                if h < len(rows[i]) and h + 1 < len(rows[j]) and rows[i][h] < rows[j][h + 1]:
                    total += 1
    return total


def maj(pi: OSP) -> int:
    """Major index of the decreasing-block word, weighted by minima seen."""
    sigma = []
    for b in pi:
        for v in sorted(b, reverse=True):
            sigma.append((v, v == min(b)))
    w = 0
    total = 0
    for i in range(len(sigma)):
        w += 1 if sigma[i][1] else 0
        if i + 1 < len(sigma) and sigma[i][0] > sigma[i + 1][0]:
            total += w
    return total


def minimaj_word(pi: OSP) -> tuple:
    """The word tau: blocks cycled right-to-left so maj is minimized."""
    out: list = []
    prev_head: int | None = None
    for b in reversed(pi):
        vals = sorted(b)
        if prev_head is not None:
            r = max((v for v in vals if v <= prev_head), default=None)
            if r is not None:
                i = vals.index(r)
                vals = vals[i + 1:] + vals[: i + 1]
        out = vals + out
        prev_head = vals[0]
    return tuple(out)


def minimaj(pi: OSP) -> int:
    tau = minimaj_word(pi)
    return sum(i + 1 for i in range(len(tau) - 1) if tau[i] > tau[i + 1])


# ---------------------------------------------------------------------------
# the insertion bijection onto zero-wdinv dense paths
# ---------------------------------------------------------------------------

class _DenseBuilder:
    """Mutable dense-path state for the run-by-run insertion.

    Displaced east entries always ride one step up-right: geometrically when
    a row is appended over them, and entry-by-entry out of the square under a
    freshly stacked north square whenever staying would break the
    column-increase rule.
    """

    def __init__(self):
        self.nx: list = []      # north x positions, bottom to top
        self.nlab: list = []    # north label sets
        self.east: dict = {}    # (x, row) -> set

    def top_row(self) -> int:
        return len(self.nx)

    def _squeeze_top_row(self, x_new: int) -> None:
        """Shift top-row east squares beyond the incoming north one step up-right."""
        top = self.top_row()
        moved = {}
        for pos in list(self.east):
            x, row = pos
            if row == top and x > x_new:
                moved[(x + 1, row + 1)] = self.east.pop(pos)
        self.east.update(moved)

    def insert_ne(self, labels: set) -> None:
        """Stack a contained block just above the last east square."""
        x_new = self.nx[-1] + 1
        top = self.top_row()
        self._squeeze_top_row(x_new)
        below = self.east.get((x_new, top), set())
        lo = min(labels)
        moved = {v for v in below if v >= lo}
        if moved:
            below -= moved
            if not below:
                self.east.pop((x_new, top), None)
            self.east.setdefault((x_new + 1, top + 1), set()).update(moved)
        self.nx.append(x_new)
        self.nlab.append(set(labels))

    def insert_straddler(self, head: list, tail: list) -> None:
        """New north square (head) and east square (tail) with the c-shuffle."""
        top_lab = self.nlab[-1]
        c = max((v for v in top_lab if v < head[0]), default=None)
        assert c is not None, "no pivot below the straddler head"
        bump = {v for v in top_lab if v > c}
        top_lab -= bump
        x = self.nx[-1]
        self._squeeze_top_row(x)
        self.nx.append(x)
        self.nlab.append(set(head))
        self.east[(x + 1, self.top_row())] = set(tail) | bump

    def finish(self, n: int) -> DensePath:
        a = tuple(r - self.nx[r] for r in range(len(self.nx)))
        east = tuple(
            (pos, frozenset(self.east.get(pos, ())))
            for pos in dense_shape(a).sorted_slots
        )
        dp = DensePath(a, tuple(frozenset(s) for s in self.nlab), east)
        dp.check(n)
        return dp


def _runs(tau: tuple) -> list:
    """Run boundaries r_0 > r_1 > ... > r_s = 0 (1-based positions)."""
    n = len(tau)
    rs = [n]
    for i in range(n - 1, 0, -1):
        if tau[i - 1] > tau[i]:
            rs.append(i)
    rs.append(0)
    return rs


def _blocks_positions(pi: OSP) -> list:
    """(start, end) 1-based positions of each block inside tau."""
    out = []
    pos = 1
    for b in pi:
        out.append((pos, pos + len(b) - 1))
        pos += len(b)
    return out


def gamma(pi: OSP) -> DensePath:
    """Insert the minimaj word run by run; area tracks minimaj, wdinv stays 0."""
    if not pi:
        raise ValueError("empty partition")
    tau = minimaj_word(pi)
    n = len(tau)
    rs = _runs(tau)
    s = len(rs) - 1
    spans = _blocks_positions(pi)

    def block_at(pos: int) -> int:
        for b, (lo, hi) in enumerate(spans):
            if lo <= pos <= hi:
                return b
        raise IndexError(pos)

    builder = _DenseBuilder()
    # Contained blocks of run 0 seed the staircase, first block on top.
    r1 = rs[1]
    contained0 = [b for b, (lo, hi) in enumerate(spans) if lo > r1]
    builder.nx = list(range(len(contained0)))
    builder.nlab = [set(tau[lo - 1:hi]) for lo, hi in
                    (spans[b] for b in reversed(contained0))]
    for i in range(s - 1):
        r_lo, r_hi = rs[i + 1], rs[i]  # run i occupies positions r_lo+1..r_hi
        if i > 0:
            anchor_prev = block_at(rs[i])
            lo_bound = spans[anchor_prev][0]
            contained = [
                b for b, (lo, hi) in enumerate(spans)
                if lo > r_lo and hi < lo_bound
            ]
            for b in reversed(contained):
                lo, hi = spans[b]
                builder.insert_ne(set(tau[lo - 1:hi]))
        anchor = block_at(r_lo)
        lo, hi = spans[anchor]
        head = list(tau[lo - 1:r_lo])
        tail = list(tau[r_lo:hi])
        builder.insert_straddler(head, tail)
    if s >= 2:
        # Contained blocks of the leftmost run (those before the last anchor).
        anchor_prev = block_at(rs[s - 1])
        lo_bound = spans[anchor_prev][0]
        contained = [b for b, (lo, hi) in enumerate(spans) if hi < lo_bound]
        for b in reversed(contained):
            lo, hi = spans[b]
            builder.insert_ne(set(tau[lo - 1:hi]))
    return builder.finish(n)


def gamma_inverse(dp: DensePath) -> OSP:
    """Peel the dense path area by area, rebuilding the blocks left to right."""
    if dp.wdinv() != 0:
        raise ValueError("gamma inverse needs wdinv = 0")
    check_gamma_image_condition(dp)
    nx = list(dense_shape(dp.a).xs)
    nlab = [set(s) for s in dp.north]
    east = {pos: set(s) for pos, s in dp.east if s}
    blocks = []

    def rehome(area: int, vals: set) -> None:
        """Put vals into the highest east square of this area on the rows left."""
        if not vals:
            return
        # The rows left form the path dp.a[:len(nx)]; a row has at most one
        # east square of a given area, so the last match is the highest.
        for x, row in reversed(dense_shape(dp.a[:len(nx)]).slots):
            if row - 1 - x == area:
                east.setdefault((x, row), set()).update(vals)
                return
        raise ValueError("no east square left for displaced entries")

    while nx:
        top = len(nx)
        x_removed = nx[-1]
        area = top - 1 - x_removed
        same = [r for r in range(1, top + 1) if r - 1 - nx[r - 1] == area]
        last = len(same) == 1
        labels = nlab.pop()
        nx.pop()
        # East squares of the removed row shift back down a diagonal step.
        displaced: dict = {}
        for pos in list(east):
            x, row = pos
            if row == top:
                displaced[(x, row)] = east.pop(pos)
        if not last:
            # Undoing a stacked insertion: everything slides back down the
            # diagonal, i.e. into the highest remaining square of its area.
            blocks.append(frozenset(labels))
            for (x, row), vals in displaced.items():
                rehome(row - 1 - x, vals)
            continue
        # Undoing a straddler: absorb the small east labels into the block,
        # push the big ones back into the north square below.
        adjacent = displaced.pop((x_removed + 1, top), set())
        lo = min(labels)
        tail = {v for v in adjacent if v < lo}
        big = adjacent - tail
        if big:
            if not nlab:
                raise ValueError("displaced entries with no square below")
            nlab[-1].update(big)
        blocks.append(frozenset(labels | tail))
        for (x, row), vals in displaced.items():
            rehome(row - 1 - x, vals)
    return tuple(blocks)


def check_gamma_image_condition(dp: DensePath) -> None:
    """Every nonempty east square is adjacent to one of the two lowest north
    squares at its level or lies in the top row."""
    nx = dense_shape(dp.a).xs
    top = len(dp.a)
    by_area: dict = {}
    for r in range(top):
        by_area.setdefault(r - nx[r], []).append(r + 1)
    for (x, row), s in dp.east:
        if not s or row == top:
            continue
        ok = False
        if x == nx[row - 1] + 1:
            rows = by_area.get(row - 1 - nx[row - 1], [])
            if row in rows[:2]:
                ok = True
        if not ok:
            raise ValueError(f"east square {(x, row)} violates the image condition")
