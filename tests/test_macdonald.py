"""Macdonald expansions, the validation battery, Delta operators, caching."""

import hashlib
import os
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaops.macdonald import (
    MacdonaldCache,
    MacdonaldError,
    arm,
    bmu,
    cells,
    delta,
    delta_h,
    delta_identity_check,
    delta_prime,
    delta_t_recip,
    expand_in_htilde,
    from_h_expansion,
    h_inner_table,
    hexp_inner,
    leg,
    nabla,
    specialize_symfunc_t_recip,
    tmu,
)
from deltaops.cli import main
from deltaops.partitions import hook, partitions
from deltaops.poly import MultiPoly, ONE, Q, RatFunc, T
from deltaops.symfunc import SymFunc, convert, hall_inner, schur_expand


@pytest.fixture(scope="module")
def cache():
    c = MacdonaldCache()
    c.degree(4)
    return c


def test_bmu_tmu():
    assert bmu((1,)) == ONE
    assert bmu((2, 2)) == ONE + Q + T + Q * T
    assert tmu((2,)) == Q and tmu((1, 1)) == T
    # the product of the B monomials: {1, q, t, qt} multiplies to q^2 t^2
    assert tmu((2, 2)) == Q ** 2 * T ** 2
    # Fig-style cell with two cells left and one below contributes q^2 t
    assert bmu((4, 3)).coeff_of((2, 1)) == 1


def test_small_htilde(cache):
    assert cache.htilde((1,)) == SymFunc.s(1)
    assert convert(cache.htilde((2,)), "s").coeffs == {
        (2,): RatFunc.one(), (1, 1): RatFunc.from_poly(Q)}
    assert convert(cache.htilde((1, 1)), "s").coeffs == {
        (2,): RatFunc.one(), (1, 1): RatFunc.from_poly(T)}


def test_hook_inner_products(cache):
    from deltaops.macdonald import validate_htilde_inner_products
    for n in range(1, 5):
        for mu in partitions(n):
            validate_htilde_inner_products(mu, cache.htilde(mu))
            assert hall_inner(cache.htilde(mu), SymFunc.s((n,))) == RatFunc.one()


def test_e2_expansion(cache):
    exp = expand_in_htilde(SymFunc.e(2), cache)
    tq = RatFunc(ONE, T - Q)
    assert exp == {(1, 1): tq, (2,): -tq}
    assert expand_in_htilde(cache.htilde((2, 1)), cache) == {(2, 1): RatFunc.one()}


def _garsia_haiman_en(mu):
    """The coefficient of H_mu in e_n: M B_mu Pi_mu / w_mu (Garsia-Haiman).

    M = (1-q)(1-t), Pi_mu = prod over cells other than (0,0) of
    (1 - q^coarm t^coleg), w_mu = prod over cells of
    (q^arm - t^(leg+1)) (t^leg - q^(arm+1)).
    """
    num = (ONE - Q) * (ONE - T) * bmu(mu)
    den = ONE
    for r, c in cells(mu):
        if (r, c) != (0, 0):
            num = num * (ONE - Q ** c * T ** r)
        a, l = arm(mu, (r, c)), leg(mu, (r, c))
        den = den * (Q ** a - T ** (l + 1)) * (T ** l - Q ** (a + 1))
    return RatFunc(num, den)


def test_expand_matches_garsia_haiman_closed_form(cache):
    for n in range(1, 6):
        expected = {mu: _garsia_haiman_en(mu) for mu in partitions(n)}
        assert expand_in_htilde(SymFunc.e(n), cache) == expected


def test_expansion_fails_back_substitution_on_a_tampered_table():
    c = MacdonaldCache()
    table = c.degree(3)
    table[(2, 1)] = table[(2, 1)] + table[(3,)]
    with pytest.raises(MacdonaldError, match="back-substitution"):
        expand_in_htilde(SymFunc.e(3), c)


def test_delta_examples(cache):
    n2 = convert(nabla(SymFunc.e(2), cache), "s")
    assert n2.coeffs == {(2,): RatFunc.one(), (1, 1): RatFunc.from_poly(Q + T)}
    d2 = convert(delta(SymFunc.e(1), SymFunc.e(2), cache), "s")
    assert d2.coeffs == {(2,): RatFunc.one(), (1, 1): RatFunc.from_poly(ONE + Q + T)}
    assert delta_prime(SymFunc.e(0), SymFunc.e(3), cache) == SymFunc.e(3)
    # nabla acts by T_mu
    hc = expand_in_htilde(SymFunc.e(3), cache)
    scaled = {mu: c * RatFunc.from_poly(tmu(mu)) for mu, c in hc.items()}
    assert from_h_expansion(scaled, cache) == nabla(SymFunc.e(3), cache)


def test_delta_identities(cache):
    for n in range(1, 5):
        for k in range(1, n + 3):
            assert delta_identity_check(n, k, cache)


def test_t_recip(cache):
    for n in range(2, 5):
        for k in range(1, n):
            lhs = specialize_symfunc_t_recip(delta(SymFunc.e(k), SymFunc.e(n), cache))
            assert lhs == delta_t_recip(SymFunc.e(k), n)
    for n in range(1, 4):
        for k in range(1, 4):
            lhs = specialize_symfunc_t_recip(delta(SymFunc.h(k), SymFunc.e(n), cache))
            assert lhs == delta_t_recip(SymFunc.h(k), n)


def test_schur_positivity_small(cache):
    for n in range(2, 5):
        for k in range(1, n):
            f = specialize_symfunc_t_recip(delta(SymFunc.e(k), SymFunc.e(n), cache))
            f = f.scale(RatFunc.from_poly(MultiPoly.monomial((k * (n - 1) - comb(k, 2),))))
            _, rep = schur_expand(f)
            assert rep.positive


def test_inner_tables(cache):
    table = h_inner_table(3, SymFunc.e(3), cache)
    hc = expand_in_htilde(SymFunc.e(3), cache)
    direct = hall_inner(SymFunc.e(3), SymFunc.e(3))
    assert hexp_inner(hc, table) == direct
    # chaining eigenvalues equals applying delta then pairing
    chained = hexp_inner(delta_h(SymFunc.e(1), hc), table)
    assert chained == hall_inner(delta(SymFunc.e(1), SymFunc.e(3), cache), SymFunc.e(3))


def test_cache_persistence(tmp_path):
    d1 = tmp_path / "c1"
    c1 = MacdonaldCache(str(d1))
    c1.degree(3)
    data1 = (d1 / "htilde_3.txt").read_bytes()
    # warm load agrees
    c2 = MacdonaldCache(str(d1))
    assert c2.htilde((2, 1)) == c1.htilde((2, 1))
    # regeneration in a fresh directory is bit-identical
    d2 = tmp_path / "c2"
    MacdonaldCache(str(d2)).degree(3)
    assert (d2 / "htilde_3.txt").read_bytes() == data1


def test_cache_corruption(tmp_path):
    d = tmp_path / "c"
    MacdonaldCache(str(d)).degree(2)
    path = d / "htilde_2.txt"
    text = path.read_text().replace("1*q^1", "1*q^2", 1)
    path.write_text(text)
    with pytest.raises(MacdonaldError, match="checksum"):
        MacdonaldCache(str(d)).degree(2)


def test_battery_rejects_wrong_convention():
    from deltaops.macdonald import validate_htilde_inner_products
    wrong = SymFunc("m", {(2,): RatFunc.one(),
                          (1, 1): RatFunc.from_poly(ONE + T)})  # q<->t swapped H_2
    with pytest.raises(MacdonaldError):
        validate_htilde_inner_products((2,), wrong)


def _rewrite_cache_file(path, edit):
    """Apply edit to the lines of a cache file and give it a valid checksum."""
    lines = edit(path.read_text().splitlines()[:-1])
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"checksum={digest}\n")


def test_load_rejects_a_missing_shape(tmp_path, capsys):
    MacdonaldCache(str(tmp_path)).degree(2)
    _rewrite_cache_file(tmp_path / "htilde_2.txt",
                        lambda lines: [l for l in lines if not l.startswith("(1,1)|")])
    with pytest.raises(MacdonaldError, match="missing"):
        MacdonaldCache(str(tmp_path)).degree(2)
    rc = main(["--check", "delta-rise", "--n-max", "2", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "missing [(1, 1)]" in capsys.readouterr().err


def test_load_rejects_swapped_q_and_t(tmp_path, capsys):
    MacdonaldCache(str(tmp_path)).degree(3)
    swap = {"q": T, "t": Q}

    def edit(lines):
        out = []
        for line in lines:
            mu_text, _, body = line.partition("|")
            h = SymFunc.from_text(body).map_coeffs(
                lambda c: RatFunc.from_poly(c.num.subs(swap)))
            out.append(f"{mu_text}|{h.to_text()}")
        return out

    _rewrite_cache_file(tmp_path / "htilde_3.txt", edit)
    with pytest.raises(MacdonaldError, match="htilde_3.txt"):
        MacdonaldCache(str(tmp_path)).degree(3)
    rc = main(["--check", "ek-identity", "--n-max", "3", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "PASS" not in capsys.readouterr().out


def test_load_rejects_a_rational_coefficient(tmp_path):
    MacdonaldCache(str(tmp_path)).degree(2)
    _rewrite_cache_file(
        tmp_path / "htilde_2.txt",
        lambda lines: [l.replace("(1,1)->1*q^1 + 1", "(1,1)->(1*q^1 + 1)/(1*t^1 + 1)")
                       for l in lines])
    with pytest.raises(MacdonaldError, match="polynomial"):
        MacdonaldCache(str(tmp_path)).degree(2)


# -- the common-denominator H-expansion sums against per-term RatFunc sums ---

# Denominator factors of the shape the H-expansion of e_n produces.
# Q + T and ONE + Q + T also divide some hook pairings e_k[B_mu - 1], so
# the sums can cancel against the common denominator.
_FACTORS = (Q - T, ONE - Q, ONE - T, Q ** 2 - T, Q - T ** 3, ONE - Q * T,
            ONE + Q, Q + T, ONE + Q + T, MultiPoly.const(3))


@st.composite
def ratfuncs(draw):
    """A random element of Q(q,t) whose denominator is a product of _FACTORS."""
    num = MultiPoly(draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=2)),
        max_size=3)))
    den = ONE
    for f in draw(st.lists(st.sampled_from(_FACTORS), max_size=3)):
        den = den * f
    return RatFunc(num, den)


@st.composite
def h_coeffs(draw, n):
    """Random c_mu for the shapes of degree n, with mixed denominators."""
    return {mu: draw(ratfuncs()) for mu in partitions(n) if draw(st.booleans())}


def _per_term_sum(coeffs, rows):
    """The sum the common-denominator route replaced, one RatFunc op a term."""
    out = {}
    for mu, c in coeffs.items():
        for key, v in rows(mu).items():
            add = c * v
            out[key] = out[key] + add if key in out else add
    return {key: v for key, v in out.items() if not v.is_zero()}


def _exact(coeffs):
    return {key: (c.num.terms, c.den.terms) for key, c in coeffs.items()}


_SHAPES_TO_4 = [lam for n in range(5) for lam in partitions(n)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_h_expansion_reconstructs_f(cache, data):
    basis = data.draw(st.sampled_from(["m", "e", "h", "p", "s"]))
    shapes = data.draw(st.lists(st.sampled_from(_SHAPES_TO_4), min_size=1,
                                max_size=4, unique=True))
    f = SymFunc(basis, {lam: data.draw(ratfuncs()) for lam in shapes})
    assert from_h_expansion(expand_in_htilde(f, cache), cache) == f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_from_h_expansion_matches_per_term_sum(cache, data):
    n = data.draw(st.integers(1, 4))
    coeffs = data.draw(h_coeffs(n))
    if data.draw(st.booleans()):
        coeffs[()] = RatFunc(Q + 2, ONE - Q)
    one = SymFunc.one().coeffs
    oracle = _per_term_sum(coeffs, lambda mu: cache.htilde(mu).coeffs if mu else one)
    assert _exact(from_h_expansion(coeffs, cache).coeffs) == _exact(oracle)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hexp_inner_matches_per_term_sum(cache, data):
    n = data.draw(st.integers(1, 4))
    coeffs = data.draw(h_coeffs(n))
    g = data.draw(st.sampled_from(
        [SymFunc.e(n), SymFunc.h(n)] + [SymFunc.s(hook(k, n)) for k in range(n)]))
    table = h_inner_table(n, g, cache)
    del table[data.draw(st.sampled_from(sorted(table)))]
    oracle = _per_term_sum(coeffs, lambda mu: {(): table[mu]} if mu in table else {})
    assert _exact({(): hexp_inner(coeffs, table)}) == _exact(
        oracle or {(): RatFunc.zero()})


def test_hexp_inner_cancels_the_common_denominator(cache):
    # <H_(2,1), s_(2,1)> = q + t cancels the q + t of c_(2,1)
    table = h_inner_table(3, SymFunc.s((2, 1)), cache)
    coeffs = {(2, 1): RatFunc(ONE, Q + T), (3,): RatFunc(ONE, ONE - Q)}
    got = hexp_inner(coeffs, table)
    assert _exact({(): got}) == _exact(_per_term_sum(coeffs, lambda mu: {(): table[mu]}))
    assert got == RatFunc(ONE + Q ** 2, ONE - Q)


# -- the integer star-pairing table, the norms, and the gcd-free shortcuts ---

def _fraction_dual_basis(n, cache):
    """The star-pairing table as built before it was integer: Fraction
    p-coefficients of H_mu times z_lam and the twist, d_mu summed directly."""
    from deltaops.macdonald import _zee
    rows, dens = {}, {}
    for mu, h in cache.degree(n).items():
        d = MultiPoly.zero()
        for lam, c in convert(h, "p").coeffs.items():
            w = MultiPoly.const(_zee(lam) * (-1) ** (n - len(lam)))
            for part in lam:
                w = w * (ONE - Q ** part) * (ONE - T ** part)
            g = c.as_poly() * w
            rows.setdefault(lam, {})[mu] = g
            d = d + c.as_poly() * g
        dens[mu] = d
    return rows, dens


def _exact_poly(p):
    return {k: (type(c), c) for k, c in p.terms.items()}


def test_integer_dual_basis_matches_the_fraction_route(cache):
    from deltaops.macdonald import _dual_basis
    for n in range(1, 5):
        rows, dens = _dual_basis(n, cache)
        want_rows, want_dens = _fraction_dual_basis(n, cache)
        assert {lam: {mu: _exact_poly(g.num) for mu, g in row.items()}
                for lam, row in rows.items()} == {
            lam: {mu: _exact_poly(g) for mu, g in row.items()}
            for lam, row in want_rows.items()}
        assert all(g.is_poly() for row in rows.values() for g in row.values())
        assert {mu: _exact_poly(d) for mu, d in dens.items()} == {
            mu: _exact_poly(d) for mu, d in want_dens.items()}


def test_star_pairing_norm_is_the_garsia_haiman_product():
    # d_mu = w_mu = prod over cells (q^arm - t^(leg+1)) (t^leg - q^(arm+1))
    from deltaops.macdonald import _dual_basis
    c = MacdonaldCache()
    for n in range(1, 6):
        _, dens = _dual_basis(n, c)
        for mu in partitions(n):
            w = ONE
            for cell in cells(mu):
                a, l = arm(mu, cell), leg(mu, cell)
                w = w * (Q ** a - T ** (l + 1)) * (T ** l - Q ** (a + 1))
            assert dens[mu] == w, mu


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_divide_first_gives_the_reduced_form(f, g):
    # _quotient divides num by den first; the gcd route is the oracle, on a
    # divisible pair (num = f.num * den) and on f's own, reduced, pair.
    from deltaops.macdonald import _quotient
    den = f.den * g.den
    for num in (f.num * den, f.num * g.den):
        got, want = _quotient(num, den), RatFunc(num, den)
        assert _exact({(): got}) == _exact({(): want})


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_is_sum_matches_ratfunc_addition(a, b, c):
    from deltaops.macdonald import _is_sum
    assert _is_sum(a, b, c) == (a == b + c)
    assert _is_sum(b + c, b, c)
    assert _is_sum(a, a - c, c)
