"""Acceptance suite: every exit criterion at its stated cap, exact equality.

One test per criterion; each prints a pass/fail line.  The operator-side
criteria run at n <= 6 and the combinatorial sweeps at n <= 8, so the whole
module is the long pole of the test suite (on the order of fifteen minutes).
"""

from fractions import Fraction
from math import comb, gcd

import pytest

import deltaops.osp as O
import deltaops.xy as X
from deltaops.checks import run_check, run_suite
from deltaops.config import Config
from deltaops.genfunc import (
    cat4,
    cat4_touch,
    catmod4,
    catmod4_comp_table,
    catmod4_touch,
    dinv_prime_minimum,
    dyck_run_type_counts,
    k1_formula,
    partial_gf,
    partial_touch_gf,
    q1_formula,
    rise_gf,
    rise_gf_qt1,
    rise_via_llt,
    run_type_count_formula,
    val_gf,
)
from deltaops.macdonald import (
    MacdonaldCache,
    delta,
    delta_h,
    delta_identity_check,
    delta_prime,
    delta_t_recip,
    expand_in_htilde,
    h_inner_table,
    hexp_inner,
    htilde_raw,
    specialize_symfunc_t_recip,
    validate_htilde_inner_products,
    validate_htilde_symmetry,
)
from deltaops.partitions import compositions, hook, partitions
from deltaops.poly import (
    MultiPoly,
    ONE,
    Q,
    RatFunc,
    T,
    W,
    Z,
    poly_divides,
    qbinom,
    qint,
)
from deltaops.symfunc import (
    SymFunc,
    convert,
    expand_vars,
    from_expansion,
    hall_inner,
    qsym_coeff,
    schur_expand,
    symmetry_violation,
)

OP_CAP = 6        # operator-side criteria
COMB_CAP = 8      # combinatorial sweeps
SYM_CAP = 7       # symmetry sweeps
OMP_CAP = 6       # coefficient identities over compositions
EQUI_CAP = 7      # four-statistic equidistribution
GAMMA_CAP = 6     # insertion bijection
BIJ_CAP = 6       # phi, psi and theta sweeps
XY_CAP = 10       # two-column diagrams


def report(criterion: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("htilde-cache")
    return MacdonaldCache(str(directory))


_DP_MEMO: dict = {}


def dprime_en(n, k, cache):
    if (n, k) not in _DP_MEMO:
        _DP_MEMO[(n, k)] = delta_prime(SymFunc.e(k), SymFunc.e(n), cache)
    return _DP_MEMO[(n, k)]


_DELTA_MEMO: dict = {}


def delta_ek_en(n, k, cache):
    if (n, k) not in _DELTA_MEMO:
        _DELTA_MEMO[(n, k)] = delta(SymFunc.e(k), SymFunc.e(n), cache)
    return _DELTA_MEMO[(n, k)]


def test_criterion_01_delta_conjecture_desk_scale(cache):
    ok = True
    for n in range(1, OP_CAP + 1):
        for k in range(0, n):
            op = expand_vars(dprime_en(n, k, cache), n)
            if rise_gf(n, k, n) != op or val_gf(n, k, n) != op:
                ok = False
    report("1 (rise = valley = operator, n <= 6)", ok)


def test_criterion_02_ek_identity(cache):
    ok = all(
        delta_identity_check(n, k, cache)
        for n in range(1, OP_CAP + 1)
        for k in range(1, n + 3)
    )
    report("2 (e_k eigenoperator identity and vanishing)", ok)


def test_criterion_03_macdonald_battery(cache):
    ok = True
    for m in range(1, OP_CAP + 1):
        for mu in partitions(m):
            contents = htilde_raw(mu)
            validate_htilde_symmetry(mu, contents)
            h = cache.htilde(mu)
            validate_htilde_inner_products(mu, h)
            if hall_inner(h, SymFunc.s((m,))) != RatFunc.one():
                ok = False
    e2 = cache.htilde((1, 1)).scale(RatFunc(ONE, T - Q)) + \
        cache.htilde((2,)).scale(-RatFunc(ONE, T - Q))
    ok = ok and e2 == SymFunc.e(2)
    report("3 (Macdonald validation battery, m <= 6)", ok)


def test_criterion_04_t_recip(cache):
    ok = True
    for n in range(2, OP_CAP + 1):
        for k in range(1, n):
            lhs = specialize_symfunc_t_recip(delta_ek_en(n, k, cache))
            if lhs != delta_t_recip(SymFunc.e(k), n):
                ok = False
    for n in range(1, 6):
        for k in range(1, 4):
            lhs = specialize_symfunc_t_recip(delta(SymFunc.h(k), SymFunc.e(n), cache))
            if lhs != delta_t_recip(SymFunc.h(k), n):
                ok = False
    report("4 (t = 1/q closed form, e_k and h_k)", ok)


def test_criterion_05_schur_positivity(cache):
    ok = True
    for n in range(2, OP_CAP + 1):
        for k in range(1, n):
            f = specialize_symfunc_t_recip(delta_ek_en(n, k, cache))
            f = f.scale(RatFunc.from_poly(MultiPoly.monomial((k * (n - 1) - comb(k, 2),))))
            _, rep = schur_expand(f)
            if not rep.positive:
                ok = False
    for n in range(1, 13):
        for k in range(0, n):
            d = gcd(k + 1, n)
            if d > 1 and not poly_divides(qint(d), qbinom(n, k)):
                ok = False
    report("5 (Schur positivity at t = 1/q; divisibility to n = 12)", ok)


def test_criterion_06_k1_theorem(cache):
    ok = True
    for n in range(1, OP_CAP + 1):
        if delta(SymFunc.e(1), SymFunc.e(n), cache) != convert(k1_formula(n), "m"):
            ok = False
    for n in range(1, COMB_CAP + 1):
        lhs = rise_gf(n, 0, n)
        if n >= 2:
            lhs = lhs + rise_gf(n, 1, n)
        if lhs != expand_vars(k1_formula(n), n):
            ok = False
    report("6 (k = 1 closed form, operator n <= 6 and paths n <= 8)", ok)


def test_criterion_07_q_t_one(cache):
    ok = True
    for n in range(1, COMB_CAP + 1):
        for k in range(1, n + 1):
            lhs = rise_gf_qt1(n, k - 1, n)
            if k < n:
                lhs = lhs + rise_gf_qt1(n, k, n)
            if lhs != expand_vars(q1_formula(n, k, n), n):
                ok = False
    report("7 (q = t = 1 binomial formula, n <= 8)", ok)


def test_criterion_08_zero_specializations(cache):
    ok = True
    for n in range(1, OP_CAP + 1):
        alpha = (1,) * n
        for k in range(0, n):
            rise = rise_gf(n, k, n)
            val = val_gf(n, k, n)
            c = dprime_en(n, k, cache).coeffs.get(alpha, RatFunc.zero())
            inv_poly = MultiPoly.zero()
            for pi in O.enumerate_osp(alpha, k + 1):
                inv_poly = inv_poly + MultiPoly.monomial((O.inv(pi),))
            vals = [
                qsym_coeff(rise.subs({"t": 0}), alpha),
                qsym_coeff(rise.subs({"q": 0, "t": Q}), alpha),
                qsym_coeff(val.subs({"t": 0}), alpha),
                c.subs({"t": 0}).as_poly(),
                c.subs({"q": 0, "t": RatFunc.from_poly(Q)}).as_poly(),
            ]
            if any(v != inv_poly for v in vals):
                ok = False
    stats = ((O.dinv, "t0r"), (O.maj, "q0r"), (O.inv, "t0v"), (O.minimaj, "q0v"))
    for n in range(1, OMP_CAP + 1):
        for k in range(0, n):
            rise = rise_gf(n, k, n)
            val = val_gf(n, k, n)
            spec = [rise.subs({"t": 0}), rise.subs({"q": 0, "t": Q}),
                    val.subs({"t": 0}), val.subs({"q": 0, "t": Q})]
            for alpha in compositions(n):
                gens = [MultiPoly.zero() for _ in stats]
                for pi in O.enumerate_osp(alpha, k + 1):
                    for i, (fn, _) in enumerate(stats):
                        gens[i] = gens[i] + MultiPoly.monomial((fn(pi),))
                for i in range(4):
                    if qsym_coeff(spec[i], alpha) != gens[i]:
                        ok = False
    report("8 (five zero specializations; coefficient identities, |alpha| <= 6)", ok)


def test_criterion_09_equidistribution(cache):
    ok = True
    for n in range(1, EQUI_CAP + 1):
        for alpha in compositions(n):
            for k in range(1, n + 1):
                gens = [{}, {}, {}, {}]
                for pi in O.enumerate_osp(alpha, k):
                    for g, fn in zip(gens, (O.inv, O.dinv, O.maj, O.minimaj)):
                        v = fn(pi)
                        g[v] = g.get(v, 0) + 1
                if not gens[0] == gens[1] == gens[2] == gens[3]:
                    ok = False
    report("9 (four-statistic equidistribution, |alpha| <= 7)", ok)


def test_criterion_10_bijection_suite(cache):
    cfg = Config.full(cache_dir=cache.directory, bij_cap=BIJ_CAP, gamma_cap=GAMMA_CAP)
    results = run_check("bijections", cfg, cache).results
    assert results
    failed = [r.line() for r in results if not r.ok]
    for line in failed:
        print(line)
    report(f"10 (phi/psi/theta exhaustive n <= {BIJ_CAP}; gamma |alpha| <= {GAMMA_CAP})",
           not failed)


def test_criterion_11_catalan_suite(cache):
    ok = True
    for n in range(1, COMB_CAP + 1):
        c, cm = cat4(n), catmod4(n)
        if c != cm:
            ok = False
        catalan = comb(2 * n, n) // (n + 1)
        if (c.subs({"q": 1, "t": 1, "z": 0, "w": 0}) != MultiPoly.const(catalan)
                or c.subs({"q": 1, "t": 1, "z": 1, "w": 1})
                != MultiPoly.const(2 ** (n - 1) * catalan)):
            ok = False
        if (c.subs({"q": 1, "t": 1}) != c.subs({"q": 1, "t": 1, "z": W, "w": Z})
                or c.subs({"q": Q, "t": 1, "z": 0, "w": W})
                != c.subs({"q": 1, "t": Q, "z": W, "w": 0})
                or cm.subs({"q": 1, "t": 1}) != cm.subs({"q": 1, "t": 1, "z": W, "w": Z})
                or cm.subs({"q": Q, "t": 1, "z": 0, "w": W})
                != cm.subs({"q": 1, "t": Q, "z": W, "w": 0})):
            ok = False
        total = MultiPoly.zero()
        totalm = MultiPoly.zero()
        for r in range(1, n + 1):
            total = total + cat4_touch(n, r)
            totalm = totalm + catmod4_touch(n, r)
        if total != c or totalm != cm:
            ok = False
        table = catmod4_comp_table(n)
        for ell in range(0, n):
            got = MultiPoly.zero()
            for alpha, poly in table.items():
                if sum(alpha) == n - ell:
                    got = got + poly
            if got != cm.coeff_extract("w", ell):
                ok = False
    for n in range(1, OP_CAP + 1):
        c = cat4(n)
        for k in range(0, n):
            m = n - k
            hc = expand_in_htilde(SymFunc.e(m), cache)
            nab = delta_h(SymFunc.e(m), hc)
            for ell in range(0, n - k):
                coeff = RatFunc.from_poly(c.coeff_extract("z", k).coeff_extract("w", ell))
                chain1 = delta_h(SymFunc.h(k), nab)
                rhs1 = hexp_inner(chain1, h_inner_table(m, SymFunc.s(hook(ell, m)), cache))
                chain2 = delta_h(SymFunc.h(k), delta_h(SymFunc.e(m - ell - 1), hc, prime=True))
                rhs2 = hexp_inner(chain2, h_inner_table(m, SymFunc.e(m), cache))
                if coeff != rhs1 or coeff != rhs2:
                    ok = False
    for m in range(1, OP_CAP + 1):
        for fname, f in (("e", SymFunc.e(m)), ("h", SymFunc.h(m))):
            hc = expand_in_htilde(f, cache)
            for g in (None, SymFunc.h(1), SymFunc.h(2)):
                for k in range(1, m):
                    lhs_ops = delta_h(SymFunc.e(m), hc)
                    rhs_ops = delta_h(SymFunc.e(m - k - 1), hc, prime=True)
                    if g is not None:
                        lhs_ops = delta_h(g, lhs_ops)
                        rhs_ops = delta_h(g, rhs_ops)
                    lhs = hexp_inner(lhs_ops, h_inner_table(m, SymFunc.s(hook(k, m)), cache))
                    rhs = hexp_inner(rhs_ops, h_inner_table(m, SymFunc.e(m), cache))
                    if lhs != rhs:
                        ok = False
    report("11 (Catalan suite: equality n <= 8, operator forms n <= 6)", ok)


def test_criterion_12_partial_paths(cache):
    ok = True
    for total in range(2, 6):
        for ell in range(1, total):
            n = total - ell
            for variant in ("dinv", "dinvp"):
                gf = partial_gf(n, ell, variant, n)
                for k in range(0, n):
                    op = delta(SymFunc.h(ell), dprime_en(n, n - k - 1, cache), cache)
                    if gf.coeff_extract("z", k) != expand_vars(op, n):
                        ok = False
                table = partial_touch_gf(n, ell, variant, n)
                tot = MultiPoly.zero()
                for poly in table.values():
                    tot = tot + poly
                if tot != gf.coeff_extract("z", 0):
                    ok = False
            if dinv_prime_minimum(n, ell) < 0:
                ok = False
    report("12 (partially labeled paths vs operators, n + l <= 5)", ok)


def test_criterion_13_symmetry(cache):
    ok = True
    for n in range(1, SYM_CAP + 1):
        for k in range(0, n):
            if symmetry_violation(rise_gf(n, k, n), n) is not None:
                ok = False
            if symmetry_violation(val_gf(n, k, n), n) is not None:
                ok = False
    for n in range(1, 6):
        for k in range(0, n):
            if rise_via_llt(n, k, n) != rise_gf(n, k, n):
                ok = False
    report("13 (rise and valley forms symmetric, n <= 7)", ok)


def test_criterion_14_xy_classification(cache):
    ok = True
    for n in range(2, XY_CAP + 1):
        for m in range(0, n // 2 + 1):
            cont = tuple([2] * m + [1] * (n - 2 * m))
            per_j: dict = {}
            for tc in X.yamanouchi_two_col(n, cont):
                d = X.xy_diagram(tc)
                cls = X.classify(d)
                if cls.a != tc.area() or X.diagram_hdinv(d) != tc.hdinv():
                    ok = False
                back = X.xy_inverse(d)
                if (back.left, back.right, back.p, back.s) != (
                        tc.left, tc.right, tc.p, tc.s):
                    ok = False
                bucket = per_j.setdefault(tc.area(), {})
                bucket[(tc.hdinv(),)] = bucket.get((tc.hdinv(),), 0) + 1
            for j in range(0, n - m):
                got = MultiPoly(per_j.get(j, {}))
                lo = max(0, m - j - 1)
                if m == 0 and j == 0:
                    lo = 1  # the i = 0 diagram has no stack offset within n
                expect = MultiPoly([((i,), 1) for i in range(lo, n - m - j)])
                if got != expect:
                    ok = False
    report("14 (two-column diagram classification and counts, n <= 10)", ok)


def test_criterion_15_determinism(cache, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    MacdonaldCache(str(d1)).degree(4)
    MacdonaldCache(str(d2)).degree(4)
    ok = ((d1 / "htilde_4.txt").read_bytes() == (d2 / "htilde_4.txt").read_bytes())
    cfg = Config.quick(n_max_op=2, n_max_comb=3, sym_cap=3, omp_cap=3,
                       osp_equi_cap=3, gamma_cap=3, xy_cap=4, eh_cap=3,
                       lucas_cap=6, bij_cap=3)
    r1 = run_suite(cfg, names=["k1", "cat4"], cache=MacdonaldCache(str(d1)))
    r2 = run_suite(cfg, names=["k1", "cat4"], cache=MacdonaldCache(str(d1)))
    ok = ok and r1.format_structured() == r2.format_structured()
    report("15 (bit-identical cache files and reports)", ok)
