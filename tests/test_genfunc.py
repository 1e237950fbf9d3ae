"""Generating functions: rise/valley forms, Catalan polynomials, partial paths."""

import gc
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

import deltaops.paths as P
from deltaops.genfunc import (
    _m_contents,
    _pair_openers,
    _rise_all,
    _rise_fall_all,
    _subset_dp,
    _val_all,
    cat4,
    cat4_touch,
    catmod4,
    catmod4_comp,
    catmod4_comp_table,
    catmod4_touch,
    dinv_prime_minimum,
    dyck_run_type_counts,
    is_yamanouchi,
    k1_formula,
    llt,
    partial_gf,
    partial_touch_gf,
    q1_formula,
    rise_gf,
    rise_gf_qt1,
    rise_via_llt,
    run_type_count_formula,
    val_gf,
    yamanouchi_schur,
)
from deltaops.partitions import partitions
from deltaops.poly import MultiPoly, ONE, Q, RatFunc, T, W, Z
from deltaops.symfunc import (
    SymFunc,
    convert,
    expand_basis_elem,
    expand_vars,
    from_expansion,
    qsym_coeff,
)


def test_rise_examples():
    r21 = rise_gf(2, 1, 2)
    assert qsym_coeff(r21, (2,)) == ONE
    assert qsym_coeff(r21, (1, 1)) == ONE + Q + T
    for n in range(1, 6):
        assert rise_gf(n, 0, n) == expand_vars(SymFunc.s((1,) * n), n)


def test_route_agreement():
    for n in range(1, 6):
        for k in range(n):
            z = rise_gf(n, k, n)
            assert z == rise_gf(n, k, n, route="fall")
            assert z == rise_gf(n, k, n, route="stack")
            v = val_gf(n, k, n)
            assert v == val_gf(n, k, n, route="stack")
            assert v == val_gf(n, k, n, route="dense")
            assert z.subs({"q": 1}) == v.subs({"q": 1})


def _full_word_agg(a: tuple, N: int) -> dict:
    """{(valley z offsets, dinv, content key): count} over every column-strict
    labeling of path a in {1..N}^n: the sweep that packed words replaced."""
    n = len(a)
    rel = _pair_openers(a)
    strict = [bool(i and a[i] == a[i - 1] + 1) for i in range(n)]
    labels, content, dvec = [0] * n, [0] * N, [0] * n
    agg: dict = {}

    def rec(i: int) -> None:
        if i == n:
            m = N
            while m and content[m - 1] == 0:
                m -= 1
            offs = tuple(dvec[j] + 1 for j in range(1, n)
                         if a[j] < a[j - 1] or (a[j] == a[j - 1] and labels[j] > labels[j - 1]))
            key = (offs, sum(dvec), tuple(content[:m]))
            agg[key] = agg.get(key, 0) + 1
            return
        for v in range(labels[i - 1] + 1 if strict[i] else 1, N + 1):
            touched = [j for j, primary in rel[i]
                       if ((labels[j] < v) if primary else (labels[j] > v))]
            for j in touched:
                dvec[j] += 1
            labels[i] = v
            content[v - 1] += 1
            rec(i + 1)
            content[v - 1] -= 1
            for j in touched:
                dvec[j] -= 1

    rec(0)
    return agg


def _full_word_routes(n: int, N: int) -> dict:
    """{route: [polynomial for k = 0..n-1]} for the rise ("z"), fall and
    valley z-routes, summed over full words."""
    acc: dict = {route: [{} for _ in range(n)] for route in ("z", "fall", "val")}
    for a in P.dyck_paths(n):
        cols = P.col_areas(a)
        fixed = {"z": (P.area(a), [a[i - 1] for i in P.rise_rows(a)]),
                 "fall": (sum(cols), [cols[j - 1] for j in P.fall_cols(a)])}
        for (voffs, dv, xk), cnt in _full_word_agg(a, N).items():
            for route, (ar, offs) in fixed.items():
                for j, bag in enumerate(_subset_dp(offs)):
                    for off, c in bag.items():
                        key = (dv, ar - off, 0, 0, 0) + xk
                        bucket = acc[route][n - j - 1]
                        bucket[key] = bucket.get(key, 0) + cnt * c
            for j, bag in enumerate(_subset_dp(voffs)):
                for off, c in bag.items():
                    key = (dv - off, P.area(a), 0, 0, 0) + xk
                    bucket = acc["val"][n - j - 1]
                    bucket[key] = bucket.get(key, 0) + cnt * c
    return {route: [MultiPoly(d) for d in polys] for route, polys in acc.items()}


@pytest.mark.parametrize("n, Ns", [(n, range(1, n + 3)) for n in range(1, 6)] + [(6, (2, 3))])
def test_packed_words_match_full_words(n, Ns):
    for N in Ns:
        ref = _full_word_routes(n, N)
        for k in range(n):
            assert rise_gf(n, k, N) == ref["z"][k]
            assert rise_gf(n, k, N, route="fall") == ref["fall"][k]
            assert val_gf(n, k, N) == ref["val"][k]


def test_m_contents_sum_to_monomial_symmetric():
    for n in range(1, 7):
        for lam in partitions(n):
            for N in range(1, n + 2):
                got: dict = {}
                for b in set(permutations(lam)):
                    for xk in _m_contents(b, N):
                        key = (0, 0, 0, 0, 0) + xk
                        assert key not in got
                        got[key] = 1
                assert MultiPoly(got) == expand_basis_elem("m", lam, N)


def test_near_staircase_shortcut():
    # From n = 8 on, rise_gf sweeps only the paths with at least n - k - 1
    # rises.  For k = 1 those have at most two vertical runs, so at least
    # 4 values; for k = 0 only the staircase, with all 8, is left.
    part = rise_gf(8, 1, 4)
    assert not part.is_zero() and part == _rise_all(8, 4)[1]
    assert rise_gf(8, 0, 8) == expand_vars(SymFunc.s((1,) * 8), 8)


def test_sweeps_leave_no_garbage_cycles():
    P.dyck_paths(5)
    gc.collect()
    gc.disable()
    try:
        for sweep in (_rise_all, _rise_fall_all, _val_all):
            sweep.__wrapped__(5, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_qt1_shortcut_matches_brute():
    for n in range(1, 6):
        for k in range(n):
            assert rise_gf(n, k, n).subs({"q": 1, "t": 1}) == rise_gf_qt1(n, k, n)


def test_q1_formula():
    for n in range(1, 6):
        for k in range(1, n + 1):
            lhs = rise_gf_qt1(n, k - 1, n)
            if k < n:
                lhs = lhs + rise_gf_qt1(n, k, n)
            assert lhs == expand_vars(q1_formula(n, k, n), n)
    # k = n pairs the top rise form with the binomial formula alone
    for n in range(2, 6):
        assert rise_gf_qt1(n, n - 1, n) == expand_vars(q1_formula(n, n, n), n)


def test_run_type_counts():
    for n in range(1, 8):
        counts = dyck_run_type_counts(n)
        assert sum(counts.values()) == comb(2 * n, n) // (n + 1)
        for lam in partitions(n):
            assert Fraction(counts.get(lam, 0)) == run_type_count_formula(n, lam)


def test_k1_formula():
    assert convert(k1_formula(1), "s").coeffs == {(1,): RatFunc.one()}
    f2 = k1_formula(2)
    assert f2.coeffs[(1, 1)] == RatFunc.from_poly(ONE + Q + T)
    assert f2.coeffs[(2,)] == RatFunc.one()
    for n in range(2, 6):
        lhs = rise_gf(n, 0, n) + rise_gf(n, 1, n)
        assert lhs == expand_vars(k1_formula(n), n)


def test_cat4_small():
    assert cat4(1) == ONE
    assert cat4(2) == Q + T + Z + W
    assert catmod4(2) == Q + T + Z + W
    for n in range(1, 7):
        c, cm = cat4(n), catmod4(n)
        cn = comb(2 * n, n) // (n + 1)
        assert c.subs({"q": 1, "t": 1, "z": 0, "w": 0}) == MultiPoly.const(cn)
        assert c.subs({"q": 1, "t": 1, "z": 1, "w": 1}) == MultiPoly.const(2 ** (n - 1) * cn)
        assert c == cm
        assert c.subs({"q": 1, "t": 1}) == c.subs({"q": 1, "t": 1, "z": W, "w": Z})
        assert (c.subs({"q": Q, "t": 1, "z": 0, "w": W})
                == c.subs({"q": 1, "t": Q, "z": W, "w": 0}))


def test_cat_touch_and_comp():
    for n in range(1, 6):
        total = MultiPoly.zero()
        for r in range(1, n + 1):
            total = total + cat4_touch(n, r)
        assert total == cat4(n)
        totalm = MultiPoly.zero()
        for r in range(1, n + 1):
            totalm = totalm + catmod4_touch(n, r)
        assert totalm == catmod4(n)
        table = catmod4_comp_table(n)
        for ell in range(0, n):
            got = MultiPoly.zero()
            for alpha, poly in table.items():
                if sum(alpha) == n - ell:
                    got = got + poly
            assert got == catmod4(n).coeff_extract("w", ell)


def test_cat_comp_figure_composition():
    # the starred path with areas (0,1,1,0,0) and one star on row 2 sits in
    # the alpha = (2,1,1) slice
    table = catmod4_comp_table(5)
    assert (2, 1, 1) in table
    poly = catmod4_comp(5, (2, 1, 1))
    assert not poly.is_zero()
    assert poly == table[(2, 1, 1)]


def test_llt_decomposition():
    for n in range(1, 6):
        for k in range(n):
            assert rise_via_llt(n, k, n) == rise_gf(n, k, n)


def test_llt_symmetric_instances():
    from deltaops.symfunc import symmetry_violation
    for n in range(2, 6):
        for k in range(n):
            for diag in P.stacks(n, k):
                for a in P.stack_area_vectors(diag, n):
                    assert symmetry_violation(llt(diag, a, n), n) is None


def test_yamanouchi():
    assert is_yamanouchi((2, 1))
    assert not is_yamanouchi((1, 2))
    assert is_yamanouchi((6, 5, 2, 4, 1, 3, 2, 1))


def test_yamanouchi_schur_two_column():
    for n in range(2, 6):
        for diag in P.stacks(n, 1):
            for a in P.stack_area_vectors(diag, n):
                table = yamanouchi_schur(diag, a, n)
                schur = convert(from_expansion(llt(diag, a, n), n), "s")
                expect = {lam: RatFunc.from_poly(p) for lam, p in table.items()}
                assert {k: v for k, v in schur.coeffs.items()} == expect
                assert all(set(lam) <= {1, 2} for lam in table)


def test_partial_gf_small():
    # no unlabeled valleys: z^k selects k decorated rises, the (n-k-1) form
    for n in range(1, 5):
        gf = partial_gf(n, 0, "dinv", n)
        for k in range(n):
            assert gf.coeff_extract("z", k) == rise_gf(n, n - k - 1, n)
    assert dinv_prime_minimum(3, 2) >= 0
    for variant in ("dinv", "dinvp"):
        table = partial_touch_gf(2, 1, variant, 2)
        total = MultiPoly.zero()
        for poly in table.values():
            total = total + poly
        assert total == partial_gf(2, 1, variant, 2).coeff_extract("z", 0)
