"""Generating functions over Dyck-path objects.

The rise and valley generating functions are each computable three ways
(the z-coefficient form, a decorated-object sum, and a stack/dense-object
sum); route agreement is part of the verifier's check catalog.  The
4-variable Catalan polynomials and the partially-labeled-path sums live
here too.

All accumulation happens in raw {exponent-tuple: int} dicts and is wrapped
into MultiPoly at the end; every exponent stays nonnegative by the
supporting combinatorial arguments, which we assert.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .partitions import sort_to_partition
from .poly import MultiPoly, RatFunc, qtint
from .symfunc import (
    SymFunc,
    expand_basis_elem,
    from_expansion,
    plethysm,
)
from . import paths as P


def _xkey(labels, skip_zero: bool = False) -> tuple:
    top = max(labels) if labels else 0
    exps = [0] * top
    for v in labels:
        if v == 0 and skip_zero:
            continue
        exps[v - 1] += 1
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _bump(acc: dict, key: tuple, c: int = 1) -> None:
    acc[key] = acc.get(key, 0) + c


def _subset_dp(offsets) -> list:
    """dp[j] = {total offset: count} over j-element subsets of `offsets`."""
    dp = [{0: 1}]
    for off in offsets:
        dp.append({})
        for j in range(len(dp) - 2, -1, -1):
            for tot, cnt in dp[j].items():
                tgt = dp[j + 1]
                tgt[tot + off] = tgt.get(tot + off, 0) + cnt
    return dp


# ---------------------------------------------------------------------------
# rise and valley generating functions
# ---------------------------------------------------------------------------

def _pair_openers(a: tuple) -> list:
    """rel[j]: earlier rows i pairing with j (True = primary a_i == a_j)."""
    n = len(a)
    rel: list = [[] for _ in range(n)]
    for j in range(n):
        aj = a[j]
        for i in range(j):
            if a[i] == aj:
                rel[j].append((i, True))
            elif a[i] == aj + 1:
                rel[j].append((i, False))
    return rel


def _dinv_content_agg(a: tuple, N: int) -> dict:
    """{(dinv, content key): count of labelings} via incremental recursion."""
    n = len(a)
    rel = _pair_openers(a)
    strict = [bool(i and a[i] == a[i - 1] + 1) for i in range(n)]
    labels = [0] * n
    content = [0] * N
    agg: dict = {}

    def rec(i: int, dv: int) -> None:
        if i == n:
            m = N
            while m and content[m - 1] == 0:
                m -= 1
            key = (dv, tuple(content[:m]))
            agg[key] = agg.get(key, 0) + 1
            return
        lo = labels[i - 1] + 1 if strict[i] else 1
        reli = rel[i]
        for v in range(lo, N + 1):
            add = 0
            for j, primary in reli:
                lj = labels[j]
                if (lj < v) if primary else (lj > v):
                    add += 1
            labels[i] = v
            content[v - 1] += 1
            rec(i + 1, dv + add)
            content[v - 1] -= 1

    rec(0, 0)
    return agg


def _zroute_accumulate(n: int, N: int, offsets_for, area_for) -> dict:
    """Shared z-route sweep: label-independent z offsets per path."""
    acc: dict = {k: {} for k in range(n)}
    for a in P.dyck_paths(n):
        offs = offsets_for(a)
        if offs is None:
            continue
        dp = _subset_dp(offs)
        ar = area_for(a)
        flat = []
        for j, bag in enumerate(dp):
            k = n - j - 1
            if k < 0:
                continue
            for off, cnt in bag.items():
                assert ar - off >= 0
                flat.append((k, ar - off, cnt))
        for (dv, xk), cnt in _dinv_content_agg(a, N).items():
            for k, tpow, c in flat:
                bucket = acc[k]
                key = (dv, tpow, 0, 0, 0) + xk
                bucket[key] = bucket.get(key, 0) + cnt * c
    return {k: MultiPoly(v) for k, v in acc.items()}


@lru_cache(maxsize=None)
def _rise_all(n: int, N: int, min_rises: int = 0) -> dict:
    """{k: polynomial} for the z-route of rise_gf, one labeling pass."""

    def offsets(a):
        rises = P.rise_rows(a)
        if len(rises) < min_rises:
            return None
        return [a[i - 1] for i in rises]

    return _zroute_accumulate(n, N, offsets, P.area)


@lru_cache(maxsize=None)
def _rise_fall_all(n: int, N: int) -> dict:
    """Fall-decorated route: decorate double-fall columns, drop their areas."""

    def offsets(a):
        cols = P.col_areas(a)
        return [cols[j - 1] for j in P.fall_cols(a)]

    return _zroute_accumulate(n, N, offsets, lambda a: sum(P.col_areas(a)))


@lru_cache(maxsize=None)
def _val_all(n: int, N: int) -> dict:
    """z-route of val_gf (identical to the valley-decorated sum).

    Valley offsets depend on the labels, so the d-vector rides through the
    recursion and the subset DP runs per labeling.
    """
    acc: dict = {k: {} for k in range(n)}
    for a in P.dyck_paths(n):
        n_ = len(a)
        ar = P.area(a)
        rel = _pair_openers(a)
        strict = [bool(i and a[i] == a[i - 1] + 1) for i in range(n_)]
        flat_valley = [bool(i and a[i] < a[i - 1]) for i in range(n_)]
        eq_prev = [bool(i and a[i] == a[i - 1]) for i in range(n_)]
        labels = [0] * n_
        content = [0] * N
        dvec = [0] * n_
        agg: dict = {}

        def rec(i: int) -> None:
            if i == n_:
                m = N
                while m and content[m - 1] == 0:
                    m -= 1
                xk = tuple(content[:m])
                offs = tuple(
                    dvec[j - 1] + 1 for j in range(1, n_ + 1)
                    if (flat_valley[j - 1]
                        or (eq_prev[j - 1] and labels[j - 1] > labels[j - 2]))
                )
                key = (offs, sum(dvec), xk)
                agg[key] = agg.get(key, 0) + 1
                return
            lo = labels[i - 1] + 1 if strict[i] else 1
            reli = rel[i]
            for v in range(lo, N + 1):
                touched = []
                for j, primary in reli:
                    if (labels[j] < v) if primary else (labels[j] > v):
                        dvec[j] += 1
                        touched.append(j)
                labels[i] = v
                content[v - 1] += 1
                rec(i + 1)
                content[v - 1] -= 1
                for j in touched:
                    dvec[j] -= 1

        rec(0)
        for (offs, dv, xk), count in agg.items():
            dp = _subset_dp(list(offs))
            for j, bag in enumerate(dp):
                k = n_ - j - 1
                if k < 0:
                    continue
                bucket = acc[k]
                for off, cnt in bag.items():
                    assert dv - off >= 0
                    key = (dv - off, ar, 0, 0, 0) + xk
                    bucket[key] = bucket.get(key, 0) + cnt * count
    return {k: MultiPoly(v) for k, v in acc.items()}


@lru_cache(maxsize=None)
def _stack_gf(n: int, k: int, N: int) -> tuple:
    """(rise, val) via leaning stacks: q^hdinv resp. q^wdinv, both t^area."""
    rise_acc: dict = {}
    val_acc: dict = {}
    for sp in P.stack_paths(n, k, N):
        ar = sp.area()
        xk = _xkey(sp.labels)
        _bump(rise_acc, (sp.hdinv(), ar, 0, 0, 0) + xk)
        wd = sp.wdinv()
        assert wd >= 0, "negative wdinv"
        _bump(val_acc, (wd, ar, 0, 0, 0) + xk)
    return MultiPoly(rise_acc), MultiPoly(val_acc)


@lru_cache(maxsize=None)
def _dense_gf(n: int, k: int, N: int) -> MultiPoly:
    """val_gf via densely labeled paths: q^wdinv t^area x^P."""
    acc: dict = {}
    for dp in P.dense_paths(n, k, N):
        wd = dp.wdinv()
        assert wd >= 0, "negative dense wdinv"
        _bump(acc, (wd, dp.area(), 0, 0, 0) + dp.content_key())
    return MultiPoly(acc)


def rise_gf(n: int, k: int, N: int | None = None, route: str = "z") -> MultiPoly:
    """Rise form of order n at coefficient z^(n-k-1), in N variables."""
    if N is None:
        N = n
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if route == "z":
        j = n - k - 1
        if n >= 8 and j >= n - 2:
            # Only near-staircase paths can reach this z-degree.
            return _rise_all(n, N, min_rises=j)[k]
        return _rise_all(n, N)[k]
    if route == "fall":
        return _rise_fall_all(n, N)[k]
    if route == "stack":
        return _stack_gf(n, k, N)[0]
    raise ValueError(f"unknown rise route {route!r}")


def val_gf(n: int, k: int, N: int | None = None, route: str = "z") -> MultiPoly:
    """Valley form of order n at coefficient z^(n-k-1), in N variables."""
    if N is None:
        N = n
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if route == "z":
        return _val_all(n, N)[k]
    if route == "stack":
        return _stack_gf(n, k, N)[1]
    if route == "dense":
        return _dense_gf(n, k, N)
    raise ValueError(f"unknown val route {route!r}")


# ---------------------------------------------------------------------------
# q = t = 1 shortcut (validated against the brute route in the test suite)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dyck_run_type_counts(n: int) -> dict:
    """Number of Dyck paths whose vertical-run lengths sort to each partition."""
    out: dict = {}
    for a in P.dyck_paths(n):
        runs = []
        length = 1
        for i in range(1, n):
            if a[i] == a[i - 1] + 1:
                length += 1
            else:
                runs.append(length)
                length = 1
        runs.append(length)
        lam = sort_to_partition(runs)
        out[lam] = out.get(lam, 0) + 1
    return out


def run_type_count_formula(n: int, lam: tuple) -> Fraction:
    """(1/(n+1)) * multinomial(n+1; c_1,...,c_n, n-len(lam)+1)."""
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    total = Fraction(1)
    remaining = n + 1
    for c in list(mult.values()) + [n - len(lam) + 1]:
        total *= comb(remaining, c)
        remaining -= c
    return total / (n + 1)


@lru_cache(maxsize=None)
def rise_gf_qt1(n: int, k: int, N: int) -> MultiPoly:
    """rise_gf at q = t = 1 via run types: sum of C(#rises, n-k-1) e_runtype."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    out = MultiPoly.zero()
    for lam, cnt in dyck_run_type_counts(n).items():
        c = cnt * comb(n - len(lam), n - k - 1)
        if c:
            out = out + c * expand_basis_elem("e", lam, N)
    return out


def q1_formula(n: int, k: int, N: int | None = None) -> SymFunc:
    """(1/(k+1)) binom(n,k) e_n[(k+1)X] as an N-variable symmetric function."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if N is None:
        N = n
    alphabet = []
    for i in range(1, N + 1):
        key = (0, 0, 0, 0, 0) + (0,) * (i - 1) + (1,)
        alphabet.extend([(1, key)] * (k + 1))
    body = plethysm(SymFunc.e(n), tuple(alphabet))
    scale = RatFunc.from_poly(MultiPoly.const(Fraction(comb(n, k), k + 1)))
    return from_expansion(body, N).scale(scale)


def k1_formula(n: int, convention: str = "zero") -> SymFunc:
    """sum_m s_(2^m 1^(n-2m)) sum_{p=m}^{n-m} [p]_{q,t}.

    The identity needs [0]_{q,t} = 0 (only the p = 0 term of the m = 0 row is
    affected); the convention stays caller-visible because the two usages
    disagree in the source material.
    """
    coeffs = {}
    for m in range(n // 2 + 1):
        lam = (2,) * m + (1,) * (n - 2 * m)
        tot = MultiPoly.zero()
        for p in range(m, n - m + 1):
            tot = tot + qtint(p, convention)
        if not tot.is_zero():
            coeffs[lam] = RatFunc.from_poly(tot)
    return SymFunc("s", coeffs)


# ---------------------------------------------------------------------------
# LLT refinement
# ---------------------------------------------------------------------------

def llt(diag: tuple, a: tuple, N: int) -> MultiPoly:
    """LLT polynomial of a fixed stack and path shape: sum q^hdinv x^P."""
    acc: dict = {}
    for labels in P.stack_label_vectors(diag, a, N):
        sp = P.StackPath(diag, a, labels)
        _bump(acc, (sp.hdinv(), 0, 0, 0, 0) + _xkey(labels))
    return MultiPoly(acc)


def rise_via_llt(n: int, k: int, N: int) -> MultiPoly:
    """sum over (S, D) of t^area(D) LLT_(S,D); equals rise_gf when LLT is right."""
    out = MultiPoly.zero()
    tvar = MultiPoly.var("t")
    for diag in P.stacks(n, k):
        for a in P.stack_area_vectors(diag, n):
            out = out + tvar ** sum(a) * llt(diag, a, N)
    return out


def is_yamanouchi(word) -> bool:
    counts: dict = {}
    for v in reversed(word):
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def yamanouchi_schur(diag: tuple, a: tuple, N: int | None = None) -> dict:
    """{lam: sum of q^hdinv over Yamanouchi labelings of content lam}.

    By the two-column Schur rule this gives the Schur expansion of
    llt(diag, a) whenever the stack has a single diagonal offset above row 1.
    """
    n = len(a)
    if N is None:
        N = n
    out: dict = {}
    for labels in P.stack_label_vectors(diag, a, N):
        sp = P.StackPath(diag, a, labels)
        word = sp.reading_word()
        if not is_yamanouchi(word):
            continue
        lam = sort_to_partition(_xkey(labels) + (0,) * 0)
        lam = tuple(p for p in lam if p)
        bucket = out.setdefault(lam, {})
        key = (sp.hdinv(),)
        bucket[key] = bucket.get(key, 0) + 1
    return {lam: MultiPoly(v) for lam, v in out.items()}


# ---------------------------------------------------------------------------
# 4-variable Catalan polynomials
# ---------------------------------------------------------------------------

def reading_b_vector(a: tuple) -> tuple:
    """(order, b): rows in reading order and the b-vector along it.

    Reading order visits rows by descending area, and by descending row
    index within an area; b[m] counts the earlier rows in that order that
    form a dinv pair with row order[m].
    """
    n = len(a)
    order = sorted(range(1, n + 1), key=lambda i: (-a[i - 1], -i))
    b = []
    for m, row in enumerate(order):
        cnt = 0
        for prior in order[:m]:
            i, j = min(prior, row), max(prior, row)
            if a[i - 1] == a[j - 1] or a[i - 1] == a[j - 1] + 1:
                cnt += 1
        b.append(cnt)
    return order, b


def _catalan_zw(a: tuple, use_b: bool) -> dict:
    """One path's contribution as {(qe, te, ze, we): count}."""
    n = len(a)
    dvec = P.d_vector(a)
    dv = sum(dvec)
    ar = P.area(a)
    rises = P.rise_rows(a)
    wdp = _subset_dp([a[i - 1] for i in rises])
    if use_b:
        _, b = reading_b_vector(a)
        zoffs = [b[m] for m in range(1, n) if b[m] > b[m - 1]]
    else:
        zoffs = [dvec[i - 1] + 1 for i in P.val_rows(a)]
    zdp = _subset_dp(zoffs)
    out: dict = {}
    for zd, zbag in enumerate(zdp):
        for zoff, zc in zbag.items():
            qe = dv - zoff
            assert qe >= 0
            for wd, wbag in enumerate(wdp):
                for woff, wc in wbag.items():
                    key = (qe, ar - woff, zd, wd)
                    out[key] = out.get(key, 0) + zc * wc
    return out


@lru_cache(maxsize=None)
def _catalan_sum(n: int, use_b: bool, touch: int | None) -> MultiPoly:
    """Sum of _catalan_zw over the Dyck paths of order n; with touch given,
    only over the paths with exactly that many rows of area 0."""
    acc: dict = {}
    for a in P.dyck_paths(n):
        if touch is not None and a.count(0) != touch:
            continue
        for key, c in _catalan_zw(a, use_b).items():
            _bump(acc, key, c)
    return MultiPoly(acc)


def cat4(n: int) -> MultiPoly:
    """Cat_n(q,t,z,w): valley z-product and rise w-product over Dyck paths."""
    return _catalan_sum(n, False, None)


def catmod4(n: int) -> MultiPoly:
    """Cat'_n(q,t,z,w): reading-order b-ascent z-product variant."""
    return _catalan_sum(n, True, None)


def cat4_touch(n: int, r: int) -> MultiPoly:
    """The part of Cat_n from paths with r rows of area 0."""
    return _catalan_sum(n, False, r)


def catmod4_touch(n: int, r: int) -> MultiPoly:
    """The part of Cat'_n from paths with r rows of area 0."""
    return _catalan_sum(n, True, r)


@lru_cache(maxsize=None)
def _catmod_comp_all(n: int) -> dict:
    """{alpha: dict} splitting Cat'_n by the touch composition of (path, stars)."""
    out: dict = {}
    for a in P.dyck_paths(n):
        touches = [i for i in range(1, n + 1) if a[i - 1] == 0]
        bounds = touches + [n + 1]
        dvec = P.d_vector(a)
        dv = sum(dvec)
        ar = P.area(a)
        _, b = reading_b_vector(a)
        zdp = _subset_dp([b[m] for m in range(1, n) if b[m] > b[m - 1]])
        rises = P.rise_rows(a)
        for stars in _all_subsets(rises):
            alpha = []
            for ji in range(len(touches)):
                lo, hi = bounds[ji], bounds[ji + 1]
                alpha.append(hi - lo - sum(1 for s in stars if lo < s < hi))
            alpha = tuple(alpha)
            toff = sum(a[s - 1] for s in stars)
            acc = out.setdefault(alpha, {})
            for zd, zbag in enumerate(zdp):
                for zoff, zc in zbag.items():
                    key = (dv - zoff, ar - toff, zd)
                    acc[key] = acc.get(key, 0) + zc
    return out


def _all_subsets(items):
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def catmod4_comp(n: int, alpha: tuple) -> MultiPoly:
    """Cat'_(n,alpha)(q,t,z): the star-decorated compositional refinement."""
    table = _catmod_comp_all(n)
    return MultiPoly(table.get(tuple(alpha), {}))


def catmod4_comp_table(n: int) -> dict:
    return {alpha: MultiPoly(d) for alpha, d in _catmod_comp_all(n).items()}


# ---------------------------------------------------------------------------
# partially labeled paths
# ---------------------------------------------------------------------------

def dinv_prime_minimum(n: int, ell: int) -> int:
    """Smallest dinv' over all partially labeled paths (empirical scan)."""
    best = 0
    for a, labels in P.partial_paths(n, ell, n):
        best = min(best, P.dinv_prime_partial(a, labels))
    return best


@lru_cache(maxsize=None)
def partial_gf(n: int, ell: int, variant: str = "dinv", N: int | None = None) -> MultiPoly:
    """sum over partially labeled paths of q^dinv t^area x^P prod(1 + z t^-a_i).

    variant selects the zero-label dinv ("dinv") or the empty-row variant
    ("dinvp"); a genuinely negative statistic raises, since the polynomial
    would leave N[q].
    """
    if N is None:
        N = n
    stat = P.dinv_partial if variant == "dinv" else P.dinv_prime_partial
    if variant not in ("dinv", "dinvp"):
        raise ValueError(f"unknown dinv variant {variant!r}")
    acc: dict = {}
    for a, labels in P.partial_paths(n, ell, N):
        dv = stat(a, labels)
        if dv < 0:
            raise ValueError(f"negative {variant} at a={a} labels={labels}")
        ar = P.area(a)
        rises = [a[i] for i in range(1, len(a)) if a[i] == a[i - 1] + 1]
        dp = _subset_dp(rises)
        xk = _xkey(labels, skip_zero=True)
        for zd, bag in enumerate(dp):
            for off, cnt in bag.items():
                _bump(acc, (dv, ar - off, zd, 0, 0) + xk, cnt)
    return MultiPoly(acc)


@lru_cache(maxsize=None)
def partial_touch_gf(n: int, ell: int, variant: str = "dinv", N: int | None = None) -> dict:
    """{r: sum over touch-r paths of q^dinv t^area x^P} (no z product)."""
    if N is None:
        N = n
    stat = P.dinv_partial if variant == "dinv" else P.dinv_prime_partial
    acc: dict = {}
    for a, labels in P.partial_paths(n, ell, N):
        dv = stat(a, labels)
        if dv < 0:
            raise ValueError(f"negative {variant} at a={a} labels={labels}")
        r = P.touch(a, labels)
        _bump(acc.setdefault(r, {}), (dv, P.area(a), 0, 0, 0) + _xkey(labels, skip_zero=True))
    return {r: MultiPoly(v) for r, v in acc.items()}
