"""The named check catalog behind the verifier CLI.

Each check verifies one statement (an identity, a proposition, or a
conjecture) at the configured desk-scale caps.  Theorem-status failures are
build failures; conjecture-status mismatches are findings to report.  All
comparisons are exact.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .config import Config
from .partitions import compositions, hook, partitions
from .poly import (
    MultiPoly,
    Q,
    RatFunc,
    W,
    Z,
    poly_divides,
    q_lucas_check,
    qbinom,
    qint,
)
from .symfunc import (
    SymFunc,
    convert,
    expand_vars,
    from_expansion,
    qsym_coeff,
    schur_expand,
    symmetry_violation,
)
from .macdonald import (
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
    validate_degree,
    validate_htilde_inner_products,
    validate_htilde_symmetry,
)
from . import genfunc as G
from . import osp as O
from . import paths as P
from . import xy as X


@dataclass
class CheckResult:
    check: str
    params: dict
    status: str  # "theorem" or "conjecture"
    ok: bool
    detail: str = ""

    def key(self) -> tuple:
        return (self.check, tuple(sorted(self.params.items())))

    def line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        state = "pass" if self.ok else ("fail" if self.status == "theorem" else "mismatch")
        out = f"check={self.check} {params} status={state}".rstrip()
        if self.detail and not self.ok:
            out += f" detail={self.detail!r}"
        return out


@dataclass
class Report:
    results: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)

    def extend(self, results) -> None:
        self.results.extend(results)

    def sort(self) -> None:
        self.results.sort(key=lambda r: r.key())

    def theorem_failures(self) -> list:
        return [r for r in self.results if r.status == "theorem" and not r.ok]

    def conjecture_mismatches(self) -> list:
        return [r for r in self.results if r.status == "conjecture" and not r.ok]

    def format_structured(self) -> str:
        return "\n".join(r.line() for r in self.results) + "\n"

    def format_text(self) -> str:
        lines = []
        by_check: dict = {}
        for r in self.results:
            by_check.setdefault(r.check, []).append(r)
        for name in sorted(by_check):
            rs = by_check[name]
            bad = [r for r in rs if not r.ok]
            state = "PASS" if not bad else (
                "FAIL" if any(r.status == "theorem" for r in bad) else "MISMATCH"
            )
            lines.append(f"{state:8s} {name}  ({len(rs) - len(bad)}/{len(rs)} instances)")
            for r in bad:
                lines.append("         " + r.line())
        nfail = len(self.theorem_failures())
        nconj = len(self.conjecture_mismatches())
        lines.append(
            f"total: {len(self.results)} results, "
            f"{nfail} theorem failures, {nconj} conjecture mismatches"
        )
        return "\n".join(lines) + "\n"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# shared helpers (memoized on the cache object)
# ---------------------------------------------------------------------------

def _delta_prime_en(n: int, k: int, cache: MacdonaldCache) -> SymFunc:
    return cache.memo(("dprime_en", n, k),
                      lambda: delta_prime(SymFunc.e(k), SymFunc.e(n), cache))


def _inner_table(n: int, g: SymFunc, key: str, cache: MacdonaldCache) -> dict:
    return cache.memo(("inner_table", n, key), lambda: h_inner_table(n, g, cache))


def _chain_inner(n: int, ops: list, target: SymFunc, target_key: str,
                 cache: MacdonaldCache) -> RatFunc:
    """<op_r ... op_1 e_n, target> through eigenvalue chains."""
    hc = expand_in_htilde(SymFunc.e(n), cache)
    for f, prime in ops:
        hc = delta_h(f, hc, prime=prime)
    return hexp_inner(hc, _inner_table(n, target, target_key, cache))


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------

def check_delta_rise(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_op + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            _progress(f"delta-rise n={n} k={k}")
            lhs = G.rise_gf(n, k, N)
            rhs = expand_vars(_delta_prime_en(n, k, cache), N)
            yield CheckResult(
                "delta-rise", {"n": n, "k": k}, "conjecture", lhs == rhs,
                "" if lhs == rhs else f"rise={lhs.to_text()} op={rhs.to_text()}",
            )


def check_delta_valley(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_op + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            _progress(f"delta-valley n={n} k={k}")
            lhs = G.val_gf(n, k, N)
            rhs = expand_vars(_delta_prime_en(n, k, cache), N)
            yield CheckResult(
                "delta-valley", {"n": n, "k": k}, "conjecture", lhs == rhs,
                "" if lhs == rhs else f"val={lhs.to_text()} op={rhs.to_text()}",
            )


def check_ek_identity(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_op + 1):
        _progress(f"ek-identity n={n}")
        for k in range(1, n + 3):
            ok = delta_identity_check(n, k, cache)
            yield CheckResult("ek-identity", {"n": n, "k": k}, "theorem", ok)


def check_macdonald(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_op + 1):
        for mu in partitions(n):
            _progress(f"macdonald battery mu={mu}")
            detail = ""
            ok = True
            try:
                contents = htilde_raw(mu)
                validate_htilde_symmetry(mu, contents)
                validate_htilde_inner_products(mu, cache.htilde(mu))
            except Exception as exc:  # battery failures carry their own message
                ok, detail = False, str(exc)
            yield CheckResult("macdonald", {"mu": mu}, "theorem", ok, detail)
        if n == 2:
            try:
                validate_degree(2, cache.degree(2))
                ok, detail = True, ""
            except Exception as exc:
                ok, detail = False, str(exc)
            yield CheckResult("macdonald", {"identity": "e2", "n": 2}, "theorem", ok, detail)


def check_zero_special(cfg: Config, cache: MacdonaldCache):
    """The five M_(1^n) quantities agree (and equal the inv generating poly)."""
    cap = min(cfg.n_max_op, cfg.n_max_comb)
    for n in range(1, cap + 1):
        N = n
        alpha = (1,) * n
        for k in range(0, n):
            _progress(f"zero-special n={n} k={k}")
            rise = G.rise_gf(n, k, N)
            val = G.val_gf(n, k, N)
            quantities = {
                "rise(q,0)": qsym_coeff(rise.subs({"t": 0}), alpha),
                "rise(0,q)": qsym_coeff(rise.subs({"q": 0, "t": Q}), alpha),
                "val(q,0)": qsym_coeff(val.subs({"t": 0}), alpha),
            }
            dp = _delta_prime_en(n, k, cache)
            c = dp.coeffs.get(alpha, RatFunc.zero()) if dp.basis == "m" else \
                convert(dp, "m").coeffs.get(alpha, RatFunc.zero())
            try:
                quantities["op(t=0)"] = c.subs({"t": 0}).as_poly()
                quantities["op(q=0,t=q)"] = c.subs(
                    {"q": 0, "t": RatFunc.from_poly(Q)}).as_poly()
            except (ValueError, ZeroDivisionError) as exc:
                yield CheckResult("zero-special", {"n": n, "k": k}, "theorem",
                                  False, f"specialization failed: {exc}")
                continue
            inv_poly = MultiPoly.zero()
            for pi in O.enumerate_osp(alpha, k + 1):
                inv_poly = inv_poly + MultiPoly.monomial((O.inv(pi),))
            quantities["osp-inv"] = inv_poly
            base = quantities["osp-inv"]
            bad = [name for name, v in quantities.items() if v != base]
            yield CheckResult(
                "zero-special", {"n": n, "k": k}, "theorem", not bad,
                "" if not bad else "; ".join(
                    f"{name}={quantities[name].to_text()}" for name in ["osp-inv"] + bad
                ),
            )


def check_omp(cfg: Config, cache: MacdonaldCache):
    stats = (("dinv", O.dinv), ("maj", O.maj), ("inv", O.inv), ("minimaj", O.minimaj))
    for n in range(1, cfg.omp_cap + 1):
        for k in range(0, n):
            _progress(f"omp n={n} k={k}")
            rise = G.rise_gf(n, k, n)
            val = G.val_gf(n, k, n)
            spec = {
                "dinv": rise.subs({"t": 0}),
                "maj": rise.subs({"q": 0, "t": Q}),
                "inv": val.subs({"t": 0}),
                "minimaj": val.subs({"q": 0, "t": Q}),
            }
            for alpha in compositions(n):
                gens = {name: MultiPoly.zero() for name, _ in stats}
                for pi in O.enumerate_osp(alpha, k + 1):
                    for name, fn in stats:
                        gens[name] = gens[name] + MultiPoly.monomial((fn(pi),))
                bad = []
                for name, _ in stats:
                    if qsym_coeff(spec[name], alpha) != gens[name]:
                        bad.append(name)
                yield CheckResult(
                    "omp", {"n": n, "k": k, "alpha": alpha}, "theorem", not bad,
                    "" if not bad else f"statistics {bad} disagree",
                )


def check_minimaj_equi(cfg: Config, cache: MacdonaldCache):
    stats = (O.inv, O.dinv, O.maj, O.minimaj)
    for n in range(1, cfg.osp_equi_cap + 1):
        _progress(f"minimaj-equi |alpha|={n}")
        for alpha in compositions(n):
            for k in range(1, n + 1):
                gens = [{} for _ in stats]
                for pi in O.enumerate_osp(alpha, k):
                    for g, fn in zip(gens, stats):
                        v = fn(pi)
                        g[v] = g.get(v, 0) + 1
                ok = gens[0] == gens[1] == gens[2] == gens[3]
                yield CheckResult(
                    "minimaj-equi", {"alpha": alpha, "k": k}, "theorem", ok,
                )


def check_t_recip(cfg: Config, cache: MacdonaldCache):
    for n in range(2, cfg.n_max_op + 1):
        for k in range(1, n):
            _progress(f"t-recip e_{k} n={n}")
            lhs = specialize_symfunc_t_recip(delta(SymFunc.e(k), SymFunc.e(n), cache))
            rhs = delta_t_recip(SymFunc.e(k), n)
            yield CheckResult("t-recip", {"f": f"e{k}", "n": n}, "theorem", lhs == rhs)
    for n in range(1, min(5, cfg.n_max_op) + 1):
        for k in range(1, 4):
            _progress(f"t-recip h_{k} n={n}")
            lhs = specialize_symfunc_t_recip(delta(SymFunc.h(k), SymFunc.e(n), cache))
            rhs = delta_t_recip(SymFunc.h(k), n)
            yield CheckResult("t-recip", {"f": f"h{k}", "n": n}, "theorem", lhs == rhs)
    # The e_k display constant: q^(binom(k,2)-k(n-1)) [n choose k]_q / [k+1]_q
    for n in range(2, cfg.n_max_op + 1):
        for k in range(1, n):
            lhs = specialize_symfunc_t_recip(delta(SymFunc.e(k), SymFunc.e(n), cache))
            scal = RatFunc(
                MultiPoly.monomial((comb(k, 2),)) * qbinom(n, k),
                MultiPoly.monomial((k * (n - 1),)) * qint(k + 1),
            )
            from .macdonald import x_qint_alphabet
            from .symfunc import plethysm
            body = plethysm(SymFunc.e(n), x_qint_alphabet(n, k + 1))
            rhs = from_expansion(body, n).scale(scal)
            yield CheckResult(
                "t-recip", {"f": f"e{k}", "n": n, "form": "display"}, "theorem", lhs == rhs
            )


def check_schur_pos(cfg: Config, cache: MacdonaldCache):
    for n in range(2, cfg.n_max_op + 1):
        for k in range(1, n):
            _progress(f"schur-pos n={n} k={k}")
            f = specialize_symfunc_t_recip(delta(SymFunc.e(k), SymFunc.e(n), cache))
            f = f.scale(RatFunc.from_poly(MultiPoly.monomial((k * (n - 1) - comb(k, 2),))))
            _, rep = schur_expand(f)
            yield CheckResult(
                "schur-pos", {"n": n, "k": k}, "theorem", rep.positive,
                "" if rep.positive else str(rep.failures[:3]),
            )
    for n in range(1, cfg.lucas_cap + 1):
        for k in range(0, n):
            d = gcd(k + 1, n)
            ok = poly_divides(qint(d), qbinom(n, k)) if d > 1 else True
            yield CheckResult("schur-pos", {"divisibility": f"[{d}]|[{n} ch {k}]",
                                            "n": n, "k": k}, "theorem", ok)
    for p in range(2, 7):
        for n in range(0, cfg.lucas_cap + 1):
            for k in range(0, n + 1):
                ok = q_lucas_check(n, k, p)
                yield CheckResult("schur-pos", {"q-lucas": f"p={p}", "n": n, "k": k},
                                  "theorem", ok)


def check_k1(cfg: Config, cache: MacdonaldCache):
    conv = cfg.qtint_convention
    for n in range(1, cfg.n_max_op + 1):
        _progress(f"k1 operator n={n}")
        lhs = delta(SymFunc.e(1), SymFunc.e(n), cache)
        ok = lhs == convert(G.k1_formula(n, convention=conv), "m")
        yield CheckResult("k1", {"n": n, "side": "operator"}, "theorem", ok)
    for n in range(1, cfg.n_max_comb + 1):
        _progress(f"k1 combinatorial n={n}")
        N = cfg.vars_for(n)
        lhs = G.rise_gf(n, 0, N)
        if n >= 2:
            lhs = lhs + G.rise_gf(n, 1, N)
        rhs = expand_vars(G.k1_formula(n, convention=conv), N)
        yield CheckResult("k1", {"n": n, "side": "paths"}, "theorem", lhs == rhs)


def check_qt_one(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_comb + 1):
        N = cfg.vars_for(n)
        _progress(f"qt-one n={n}")
        for k in range(1, n + 1):
            lhs = G.rise_gf_qt1(n, k - 1, N)
            if k < n:
                lhs = lhs + G.rise_gf_qt1(n, k, N)
            rhs = expand_vars(G.q1_formula(n, k, N), N)
            yield CheckResult("qt-one", {"n": n, "k": k}, "theorem", lhs == rhs)
    # vertical-run refinement counts against the multinomial formula
    for n in range(1, cfg.n_max_comb + 1):
        counts = G.dyck_run_type_counts(n)
        for lam in partitions(n):
            ok = Fraction(counts.get(lam, 0)) == G.run_type_count_formula(n, lam)
            yield CheckResult("qt-one", {"n": n, "runs": lam}, "theorem", ok)


def check_llt_sym(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.sym_cap + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            _progress(f"llt-sym n={n} k={k}")
            r = G.rise_gf(n, k, N)
            i = symmetry_violation(r, N)
            yield CheckResult(
                "llt-sym", {"n": n, "k": k}, "theorem", i is None,
                "" if i is None else f"swap x{i}<->x{i + 1} changes rise form",
            )
    for n in range(1, min(cfg.sym_cap, 6) + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            ok = G.rise_via_llt(n, k, N) == G.rise_gf(n, k, N)
            yield CheckResult("llt-sym", {"n": n, "k": k, "part": "decomposition"},
                              "theorem", ok)


def check_val_sym(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.sym_cap + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            _progress(f"val-sym n={n} k={k}")
            v = G.val_gf(n, k, N)
            i = symmetry_violation(v, N)
            yield CheckResult(
                "val-sym", {"n": n, "k": k}, "conjecture", i is None,
                "" if i is None else f"swap x{i}<->x{i + 1} changes valley form",
            )


def check_decorating(cfg: Config, cache: MacdonaldCache):
    for n in range(1, min(cfg.sym_cap, cfg.n_max_comb) + 1):
        N = cfg.vars_for(n)
        for k in range(0, n):
            _progress(f"decorating n={n} k={k}")
            z = G.rise_gf(n, k, N)
            ok = z == G.rise_gf(n, k, N, route="fall")
            yield CheckResult("decorating", {"n": n, "k": k, "form": "rise-fall"},
                              "theorem", ok)


def check_bijections(cfg: Config, cache: MacdonaldCache):
    cap = min(cfg.n_max_comb, cfg.bij_cap)
    for n in range(1, cap + 1):
        _progress(f"bijections n={n}")
        ok_phi = ok_psi = True
        detail = ""
        try:
            for a in P.dyck_paths(n):
                # (F, area of phi's image) for every set F of double falls.
                cols = P.col_areas(a)
                falls = P.fall_cols(a)
                decorations = [
                    (F, sum(cols) - sum(cols[j - 1] for j in F))
                    for size in range(len(falls) + 1)
                    for F in itertools.combinations(falls, size)
                ]
                area = P.area(a)
                for labels in P.label_vectors(a, n):
                    dvec = P.d_vector(a, labels)
                    dv = sum(dvec)
                    for F, farea in decorations:
                        sp = P.phi(a, labels, F)
                        if (P.phi_inverse(sp) != (a, labels, F)
                                or sp.area() != farea or sp.hdinv() != dv):
                            ok_phi = False
                    vals = P.val_rows(a, labels)
                    for size in range(len(vals) + 1):
                        for V in itertools.combinations(vals, size):
                            sp = P.psi(a, labels, V)
                            if (P.psi_inverse(sp) != (a, labels, V)
                                    or sp.area() != area
                                    or sp.wdinv() != dv - sum(dvec[i - 1] + 1 for i in V)):
                                ok_psi = False
        except ValueError as exc:
            ok_phi = ok_psi = False
            detail = str(exc)
        yield CheckResult("bijections", {"n": n, "map": "phi"}, "theorem", ok_phi, detail)
        yield CheckResult("bijections", {"n": n, "map": "psi"}, "theorem", ok_psi, detail)
        ok_theta = True
        for k in range(0, n):
            stack_count = 0
            for sp in P.stack_paths(n, k, n):
                stack_count += 1
                dp = P.theta(sp)
                if (P.theta_inverse(dp) != sp or dp.area() != sp.area()
                        or dp.wdinv() != sp.wdinv()):
                    ok_theta = False
            dense_count = 0
            for dp in P.dense_paths(n, k, n):
                dense_count += 1
                if P.theta(P.theta_inverse(dp)) != dp:
                    ok_theta = False
            # theta is injective with a left inverse, so equal counts close
            # the bijection without materializing either side.
            if stack_count != dense_count:
                ok_theta = False
        yield CheckResult("bijections", {"n": n, "map": "theta"}, "theorem", ok_theta)
    for n in range(1, cfg.gamma_cap + 1):
        _progress(f"bijections gamma |alpha|={n}")
        ok = True
        detail = ""
        for alpha in compositions(n):
            for k in range(0, n):
                images = set()
                for pi in O.enumerate_osp(alpha, k + 1):
                    d = O.gamma(pi)
                    if (d.wdinv() != 0 or d.area() != O.minimaj(pi)
                            or d.content_key() != alpha
                            or O.gamma_inverse(d) != pi):
                        ok = False
                        detail = f"failed at {O.emit_blocks(pi)}"
                    images.add(d)
                target = {d for d in P.dense_paths(n, k, len(alpha), content=alpha)
                          if d.wdinv() == 0}
                if images != target:
                    ok = False
                    detail = f"image mismatch at alpha={alpha} k={k}"
        yield CheckResult("bijections", {"alpha_size": n, "map": "gamma"},
                          "theorem", ok, detail)


def check_cat4(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_comb + 1):
        _progress(f"cat4 n={n}")
        c = G.cat4(n)
        cm = G.catmod4(n)
        catalan = comb(2 * n, n) // (n + 1)
        ok = (c.subs({"q": 1, "t": 1, "z": 0, "w": 0}) == MultiPoly.const(catalan)
              and cm.subs({"q": 1, "t": 1, "z": 0, "w": 0}) == MultiPoly.const(catalan)
              and c.subs({"q": 1, "t": 1, "z": 1, "w": 1})
              == MultiPoly.const(2 ** (n - 1) * catalan)
              and cm.subs({"q": 1, "t": 1, "z": 1, "w": 1})
              == MultiPoly.const(2 ** (n - 1) * catalan))
        yield CheckResult("cat4", {"n": n, "part": "evaluations"}, "theorem", ok)
        swz = {"q": 1, "t": 1, "z": W, "w": Z}
        ok = (c.subs({"q": 1, "t": 1}) == c.subs(swz)
              and cm.subs({"q": 1, "t": 1}) == cm.subs(swz)
              and c.subs({"q": Q, "t": 1, "z": 0, "w": W})
              == c.subs({"q": 1, "t": Q, "z": W, "w": 0})
              and cm.subs({"q": Q, "t": 1, "z": 0, "w": W})
              == cm.subs({"q": 1, "t": Q, "z": W, "w": 0}))
        yield CheckResult("cat4", {"n": n, "part": "symmetries"}, "theorem", ok)
        same = c == cm
        yield CheckResult(
            "cat4", {"n": n, "part": "equality"}, "conjecture", same,
            "" if same else f"diff={(c - cm).to_text()}",
        )
        # peak characterization: b ascends exactly at the peaks other than the
        # first one in reading order, matching the valley count
        ok = True
        for a in P.dyck_paths(n):
            order, b = G.reading_b_vector(a)
            ascents = {order[m] for m in range(1, n) if b[m] > b[m - 1]}
            peak_rows = {i + 1 for i in range(n) if i == n - 1 or a[i + 1] <= a[i]}
            peaks_in_reading = [row for row in order if row in peak_rows]
            if ascents != set(peaks_in_reading[1:]):
                ok = False
            if len(ascents) != len(P.val_rows(a)):
                ok = False
        yield CheckResult("cat4", {"n": n, "part": "peaks"}, "theorem", ok)


def check_cat_touch(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_comb + 1):
        _progress(f"cat-touch n={n}")
        total = MultiPoly.zero()
        totalm = MultiPoly.zero()
        for r in range(1, n + 1):
            total = total + G.cat4_touch(n, r)
            totalm = totalm + G.catmod4_touch(n, r)
        yield CheckResult("cat-touch", {"n": n, "variant": "cat"}, "theorem",
                          total == G.cat4(n))
        yield CheckResult("cat-touch", {"n": n, "variant": "catmod"}, "theorem",
                          totalm == G.catmod4(n))


def check_cat_comp(cfg: Config, cache: MacdonaldCache):
    for n in range(1, cfg.n_max_comb + 1):
        _progress(f"cat-comp n={n}")
        table = G.catmod4_comp_table(n)
        cm = G.catmod4(n)
        ok = True
        for ell in range(0, n):
            target = cm.coeff_extract("w", ell)
            total = MultiPoly.zero()
            for alpha, poly in table.items():
                if sum(alpha) == n - ell:
                    total = total + poly
            if total != target:
                ok = False
        extra = any(sum(alpha) > n or not all(p > 0 for p in alpha) for alpha in table)
        yield CheckResult("cat-comp", {"n": n}, "theorem", ok and not extra)


def check_cat_op(cfg: Config, cache: MacdonaldCache):
    cap = min(cfg.n_max_op, cfg.n_max_comb)
    for n in range(1, cap + 1):
        c = G.cat4(n)
        _progress(f"cat-op n={n}")
        for k in range(0, n):
            for ell in range(0, n - k):
                coeff = c.coeff_extract("z", k).coeff_extract("w", ell)
                coeff = RatFunc.from_poly(coeff)
                m = n - k
                hookt = SymFunc.s(hook(ell, m))
                rhs1 = _chain_inner(
                    m, [(SymFunc.e(m), False), (SymFunc.h(k), False)],
                    hookt, f"s{hook(ell, m)}", cache)
                rhs2 = _chain_inner(
                    m, [(SymFunc.e(m - ell - 1), True), (SymFunc.h(k), False)],
                    SymFunc.e(m), f"e{m}", cache)
                ok1, ok2 = coeff == rhs1, coeff == rhs2
                yield CheckResult(
                    "cat-op", {"n": n, "k": k, "l": ell}, "conjecture", ok1 and ok2,
                    "" if ok1 and ok2 else
                    f"coeff={coeff.to_text()} nabla-form={rhs1.to_text()} "
                    f"dprime-form={rhs2.to_text()}",
                )


def check_cat_sym(cfg: Config, cache: MacdonaldCache):
    gammas = [("id", None), ("dh1", SymFunc.h(1)), ("dh2", SymFunc.h(2))]
    for m in range(1, cfg.n_max_op + 1):
        _progress(f"cat-sym m={m}")
        for fname, f in (("e", SymFunc.e(m)), ("h", SymFunc.h(m))):
            hc0 = expand_in_htilde(f, cache)
            for gname, g in gammas:
                for k in range(1, m):
                    lhs_ops = delta_h(SymFunc.e(m), hc0)  # nabla
                    rhs_ops = delta_h(SymFunc.e(m - k - 1), hc0, prime=True)
                    if g is not None:
                        lhs_ops = delta_h(g, lhs_ops)
                        rhs_ops = delta_h(g, rhs_ops)
                    lhs = hexp_inner(lhs_ops, _inner_table(
                        m, SymFunc.s(hook(k, m)), f"s{hook(k, m)}", cache))
                    rhs = hexp_inner(rhs_ops, _inner_table(m, SymFunc.e(m), f"e{m}", cache))
                    yield CheckResult(
                        "cat-sym", {"m": m, "k": k, "f": fname, "gamma": gname},
                        "theorem", lhs == rhs,
                    )


def check_eh(cfg: Config, cache: MacdonaldCache):
    for total in range(2, cfg.eh_cap + 1):
        for ell in range(1, total):
            n = total - ell
            if n < 1:
                continue
            N = cfg.vars_for(n)
            for variant in ("dinv", "dinvp"):
                _progress(f"eh n={n} ell={ell} {variant}")
                try:
                    gf = G.partial_gf(n, ell, variant, N)
                except ValueError as exc:
                    yield CheckResult("eh", {"n": n, "l": ell, "variant": variant},
                                      "conjecture", False, str(exc))
                    continue
                for k in range(0, n):
                    op = delta(SymFunc.h(ell),
                               delta_prime(SymFunc.e(n - k - 1), SymFunc.e(n), cache),
                               cache)
                    ok = gf.coeff_extract("z", k) == expand_vars(op, N)
                    yield CheckResult(
                        "eh", {"n": n, "l": ell, "k": k, "variant": variant},
                        "conjecture", ok,
                    )


def check_eh_touch(cfg: Config, cache: MacdonaldCache):
    for total in range(2, cfg.eh_cap + 1):
        for ell in range(1, total):
            n = total - ell
            if n < 1:
                continue
            N = cfg.vars_for(n)
            for variant in ("dinv", "dinvp"):
                _progress(f"eh-touch n={n} ell={ell} {variant}")
                table = G.partial_touch_gf(n, ell, variant, N)
                total_gf = MultiPoly.zero()
                for poly in table.values():
                    total_gf = total_gf + poly
                plain = G.partial_gf(n, ell, variant, N).coeff_extract("z", 0)
                yield CheckResult(
                    "eh-touch", {"n": n, "l": ell, "variant": variant}, "theorem",
                    total_gf == plain,
                )
            low = G.dinv_prime_minimum(n, ell)
            yield CheckResult(
                "eh-touch", {"n": n, "l": ell, "part": "dinvp-nonneg"}, "conjecture",
                low >= 0, "" if low >= 0 else f"min dinv' = {low}",
            )


def check_xy(cfg: Config, cache: MacdonaldCache):
    for n in range(2, cfg.xy_cap + 1):
        _progress(f"xy n={n}")
        for m in range(0, n // 2 + 1):
            content = tuple([2] * m + [1] * (n - 2 * m))
            per_j: dict = {}
            ok = True
            detail = ""
            for tc in X.yamanouchi_two_col(n, content):
                d = X.xy_diagram(tc)
                try:
                    cls = X.classify(d)
                except ValueError as exc:
                    ok, detail = False, str(exc)
                    continue
                if cls.a != tc.area() or X.diagram_hdinv(d) != tc.hdinv():
                    ok, detail = False, f"statistics mismatch at {tc}"
                back = X.xy_inverse(d)
                if (back.left, back.right, back.p, back.s) != (tc.left, tc.right, tc.p, tc.s):
                    ok, detail = False, f"round trip failed at {tc}"
                bucket = per_j.setdefault(tc.area(), {})
                bucket[(tc.hdinv(),)] = bucket.get((tc.hdinv(),), 0) + 1
            yield CheckResult("xy", {"n": n, "m": m, "part": "classify"},
                              "theorem", ok, detail)
            okc = True
            for j in range(0, n - m):
                got = MultiPoly(per_j.get(j, {}))
                lo = max(0, m - j - 1)
                if m == 0 and j == 0:
                    # The all-left column needs a stack offset beyond n, so the
                    # i = 0 diagram has no path; the sum starts at q^1 here.
                    lo = 1
                expect = MultiPoly([((i,), 1) for i in range(lo, n - m - j)])
                if got != expect:
                    okc = False
                    detail = f"j={j}: got {got.to_text()} expected {expect.to_text()}"
            yield CheckResult("xy", {"n": n, "m": m, "part": "coefficients"},
                              "theorem", okc, "" if okc else detail)


CHECKS = {
    "delta-rise": (check_delta_rise, "conjecture",
                   "rise form equals the primed Delta image of e_n"),
    "delta-valley": (check_delta_valley, "conjecture",
                     "valley form equals the primed Delta image of e_n"),
    "ek-identity": (check_ek_identity, "theorem",
                    "Delta_{e_k} = Delta'_{e_k} + Delta'_{e_(k-1)} on e_n, zero past n"),
    "macdonald": (check_macdonald, "theorem",
                  "validation battery for the cached Macdonald expansions"),
    "zero-special": (check_zero_special, "theorem",
                     "the five M_(1^n) specializations agree"),
    "omp": (check_omp, "theorem",
            "M_alpha coefficients match the four ordered-partition statistics"),
    "minimaj-equi": (check_minimaj_equi, "theorem",
                     "inv, dinv, maj, minimaj are equidistributed"),
    "t-recip": (check_t_recip, "theorem",
                "eigenoperator at t=1/q equals the plethystic closed form"),
    "schur-pos": (check_schur_pos, "theorem",
                  "scaled t=1/q image is Schur positive; q-binomial divisibility"),
    "k1": (check_k1, "theorem",
           "k=1 closed form for both the operator and the path sum"),
    "qt-one": (check_qt_one, "theorem",
               "q=t=1 binomial formula and vertical-run counts"),
    "llt-sym": (check_llt_sym, "theorem",
                "rise form is symmetric; stack/LLT decomposition reassembles it"),
    "val-sym": (check_val_sym, "conjecture",
                "valley form is symmetric in the x variables"),
    "decorating": (check_decorating, "theorem",
                   "z-coefficient form equals the fall-decorated sum"),
    "bijections": (check_bijections, "theorem",
                   "phi, psi, theta, gamma round-trip with exact statistic transport"),
    "cat4": (check_cat4, "theorem",
             "4-variable Catalan evaluations, symmetries, equality, peaks"),
    "cat-touch": (check_cat_touch, "theorem",
                  "touchpoint refinements reassemble the Catalan polynomials"),
    "cat-comp": (check_cat_comp, "theorem",
                 "compositional refinement reassembles the w-coefficients"),
    "cat-op": (check_cat_op, "conjecture",
               "Catalan z^k w^l coefficients match both operator forms"),
    "cat-sym": (check_cat_sym, "theorem",
                "the two operator forms agree for any eigenoperator"),
    "eh": (check_eh, "conjecture",
           "partially labeled path sum matches the h-then-e' operator image"),
    "eh-touch": (check_eh_touch, "theorem",
                 "touch refinement reassembles the partial sum; dinv' sign scan"),
    "xy": (check_xy, "theorem",
           "two-column diagrams classify, round-trip, and count hook coefficients"),
}


def run_check(name: str, cfg: Config, cache: MacdonaldCache | None = None) -> Report:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    cache = cache if cache is not None else MacdonaldCache(cfg.cache_dir)
    runner, _, _ = CHECKS[name]
    report = Report()
    t0 = time.monotonic()
    report.extend(runner(cfg, cache))
    report.seconds[name] = time.monotonic() - t0
    report.sort()
    return report


def run_suite(cfg: Config, names=None, cache: MacdonaldCache | None = None) -> Report:
    cache = cache if cache is not None else MacdonaldCache(cfg.cache_dir)
    report = Report()
    for name in sorted(names if names is not None else CHECKS):
        _progress(f"=== {name} ===")
        sub = run_check(name, cfg, cache)
        report.extend(sub.results)
        report.seconds.update(sub.seconds)
    report.sort()
    return report
