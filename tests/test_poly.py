"""Exact polynomial/rational kernel tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltaops import poly as P
from deltaops.poly import (
    MultiPoly,
    ONE,
    Q,
    RatFunc,
    T,
    U,
    W,
    Z,
    ZERO,
    cyclotomic,
    poly_divides,
    poly_gcd_qt,
    poly_mod_q,
    q_lucas_check,
    qbinom,
    qfact,
    qint,
    qtint,
    specialize,
    xvar,
)


@st.composite
def qt_polys(draw, max_terms=4, max_exp=3):
    items = draw(st.lists(
        st.tuples(
            st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
            st.integers(-4, 4),
        ),
        max_size=max_terms,
    ))
    return MultiPoly(items)


def test_basic_arithmetic():
    assert (Q + T) + (Q - T) == 2 * Q
    assert (T ** 2 - Q ** 2).divexact(T - Q) == T + Q
    assert RatFunc((ONE + T) - (ONE + Q), T - Q) == RatFunc.one()


def test_coeff_extract():
    p = Q + T * Z + Z ** 2
    assert p.coeff_extract("z", 1) == T
    assert (Q + T + Z + W).coeff_extract("z", 0) == Q + T + W
    prod = (ONE + Z) * (ONE + Z * RatFunc(ONE, T).num)  # (1+z)(1+z) placeholder
    expanded = (ONE + Z) * (T + Z)  # t*(1+z)(1+z/t)
    assert expanded.coeff_extract("z", 1) == T + ONE


def test_specialize():
    assert specialize(Q + T, {"t": "1/q"}) == RatFunc(Q ** 2 + ONE, Q)
    assert specialize(qtint(3), {"t": 1}) == qint(3)
    assert specialize(Q * T - ONE, {"q": 1, "t": 1}) == ZERO
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, T - Q).subs({"t": RatFunc.from_poly(Q)})


@given(qt_polys(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_specialize_composes(p, exps):
    extra = MultiPoly.monomial((0, 0, exps[0], exps[1]))
    p = p * extra
    once = specialize(specialize(p, {"z": 0}), {"w": 0})
    both = specialize(p, {"z": 0, "w": 0})
    assert once == both


def test_q_integers():
    assert qtint(2) == Q + T
    assert qbinom(4, 2) == MultiPoly([((0,), 1), ((1,), 1), ((2,), 2), ((3,), 1), ((4,), 1)])
    assert qtint(0, "zero") == ZERO
    assert qtint(0, "one") == ONE
    with pytest.raises(ValueError):
        qtint(0)
    with pytest.raises(ValueError):
        qbinom(3, 4)
    for p in range(1, 11):
        assert (T ** p - Q ** p).divexact(T - Q) == qtint(p)


def test_qbinom_symmetry_and_positivity():
    for n in range(9):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert b == qbinom(n, n - k)
            assert all(isinstance(c, int) and c > 0 for c in b.terms.values())


def test_cyclotomic_and_lucas():
    assert cyclotomic(2) == Q + ONE
    assert cyclotomic(6) == Q ** 2 - Q + ONE
    prod = MultiPoly.const(1)
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic(d)
    assert prod == Q ** 6 - ONE
    assert q_lucas_check(4, 2, 2)
    assert q_lucas_check(6, 3, 3)
    # the q = -1 residue of [4 choose 2] is 2 = binom(2, 1)
    assert poly_mod_q(qbinom(4, 2), cyclotomic(2)) == MultiPoly.const(2)


def test_poly_divides():
    assert poly_divides(qint(2), qbinom(4, 1))
    assert qbinom(4, 1).divexact(qint(2)) == ONE + Q ** 2
    assert not poly_divides(qint(2), qint(3))
    assert poly_divides(ONE, qint(5))
    with pytest.raises(ValueError):
        poly_divides(ZERO, qint(2))


@given(qt_polys(), qt_polys(), qt_polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_ratfunc_cross_multiplication_matches_canonical():
    rng = random.Random(2024)

    def rnd():
        return MultiPoly(
            [((rng.randrange(4), rng.randrange(4)), rng.randrange(-4, 5))
             for _ in range(rng.randrange(1, 5))]
        )

    checked = 0
    while checked < 1000:
        a, b, g = rnd(), rnd(), rnd()
        if b.is_zero() or g.is_zero():
            continue
        checked += 1
        r1 = RatFunc(a, b)
        r2 = RatFunc(a * g, b * g)
        assert r1 == r2
        assert (r1.num, r1.den) == (r2.num, r2.den)


def test_gcd_divides_both():
    rng = random.Random(7)

    def rnd():
        return MultiPoly(
            [((rng.randrange(4), rng.randrange(4)), rng.randrange(-3, 4))
             for _ in range(4)]
        )

    for _ in range(200):
        a, b, g = rnd(), rnd(), rnd()
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        big = poly_gcd_qt(a * g, b * g)
        assert big.divides(a * g) and big.divides(b * g)
        assert g.divides(big)


@given(qt_polys())
def test_poly_serialization_roundtrip(p):
    assert MultiPoly.from_text(p.to_text()) == p


def test_serialization_examples():
    p = MultiPoly([((1, 2, 0, 0, 1, 3), Fraction(3, 2))])
    text = p.to_text()
    assert text == "3/2*q^1*t^2*u^1*x1^3"
    assert MultiPoly.from_text(text) == p
    assert ZERO.to_text() == "0"
    for rf in [RatFunc.zero(), RatFunc.one(), RatFunc(ONE, T - Q), RatFunc(Q + T, (T - Q) * (T - Q ** 2))]:
        assert RatFunc.from_text(rf.to_text()) == rf


def test_exponent_overflow_guard():
    with pytest.raises(OverflowError):
        MultiPoly([((2 ** 70,), 1)])


def test_x_variables():
    p = xvar(1) * xvar(2) + U
    assert p.coeff_extract("u", 1) == ONE
    assert p.degree("x1") == 1


# -- differential tests of the multiplication and exact-division kernels ----

@st.composite
def polys(draw, max_terms=5, max_exp=3, width=8):
    """Polynomials over q, t, z, w, u and x-variables, Fraction coefficients."""
    items = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, max_exp), max_size=width).map(tuple),
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
        ),
        max_size=max_terms,
    ))
    return MultiPoly(items)


def naive_product(a, b):
    """Term-by-term product through the normalizing constructor."""
    items = []
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            width = max(len(ka), len(kb))
            ka2 = ka + (0,) * (width - len(ka))
            kb2 = kb + (0,) * (width - len(kb))
            items.append((tuple(x + y for x, y in zip(ka2, kb2)), ca * cb))
    return MultiPoly(items)


def canonical(p):
    """Terms with exact coefficient types, so int/Fraction drift shows."""
    return {k: (type(c), c) for k, c in p.terms.items()}


@given(polys(), polys())
def test_mul_matches_naive_product(a, b):
    prod = a * b
    assert canonical(prod) == canonical(naive_product(a, b))
    assert all(not k or k[-1] for k in prod.terms)


@given(polys(), polys())
def test_divexact_inverts_mul(a, b):
    assume(not b.is_zero())
    assert canonical((a * b).divexact(b)) == canonical(a)


@given(polys(), polys(), polys(max_terms=3, max_exp=1))
def test_divexact_raises_when_the_divisor_does_not_divide(a, b, r):
    # A nonzero r of lower total degree than b is no multiple of b, so b
    # does not divide a*b + r.
    assume(not r.is_zero() and r.degree() < b.degree())
    with pytest.raises(ValueError):
        (a * b + r).divexact(b)



# -- the integer q,t kernel against the routes it replaces -------------------
#
# The dict product, the heap long division and the primitive PRS stay as the
# oracles of the Kronecker product, the Kronecker quotient and GCDHEU.

_COEFFS = st.one_of(st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def int_qt_polys(draw, max_terms=12, max_exp=5, shape="qt", coeffs=_COEFFS):
    """Nonzero q,t-polynomials with int coefficients; shape "q" or "t" keeps
    one variable, "const" gives a constant."""
    if shape == "const":
        return MultiPoly.const(draw(coeffs.filter(bool)))
    exps = st.integers(0, max_exp)
    key = {"qt": st.tuples(exps, exps), "q": st.tuples(exps), "t": st.tuples(st.just(0), exps)}
    p = MultiPoly(draw(st.lists(st.tuples(key[shape], coeffs), min_size=1, max_size=max_terms)))
    assume(not p.is_zero())
    return p


def _dict_product(a, b):
    if len(a.terms) > len(b.terms):
        a, b = b, a
    return P._dict_mul(a.terms, b.terms, 2)


@given(int_qt_polys(), int_qt_polys())
def test_kronecker_product_matches_dict_product(a, b):
    # Negative coefficients and coefficients far above 2^64 (slots wider
    # than a machine word) are both in the strategy.
    assert P._kron_mul(a.terms, b.terms) == _dict_product(a, b)


@given(st.sampled_from(["const", "q", "t", "qt"]), st.sampled_from(["const", "q", "t", "qt"]),
       st.data())
def test_kronecker_product_on_constant_and_one_variable_operands(sa, sb, data):
    a = data.draw(int_qt_polys(shape=sa))
    b = data.draw(int_qt_polys(shape=sb))
    assert P._kron_mul(a.terms, b.terms) == _dict_product(a, b)


@given(int_qt_polys(max_terms=4, max_exp=3), st.integers(1, 12), st.data())
def test_kronecker_product_with_cancelling_terms(a, m, data):
    # (1 - x) (1 + x + ... + x^(m-1)) = 1 - x^m for a monomial x, and
    # a*b + (-a)*b = 0: most product slots cancel to zero.
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    assume(i or j)
    x = MultiPoly.monomial((i, j))
    geo = MultiPoly([((i * e, j * e), 1) for e in range(m)])
    got = P._kron_mul((ONE - x).terms, geo.terms)
    assert got == (ONE - x ** m).terms == _dict_product(ONE - x, geo)
    pos, neg = P._kron_mul(a.terms, geo.terms), P._kron_mul((-a).terms, geo.terms)
    assert MultiPoly._raw(pos) + MultiPoly._raw(neg) == ZERO


@given(int_qt_polys(max_terms=16, max_exp=3), int_qt_polys(max_terms=16, max_exp=3))
def test_product_dispatch_gives_the_dict_product(a, b):
    # Whichever route MultiPoly.__mul__ takes, it gives the dict product,
    # with int coefficients.
    prod = a * b
    assert prod.terms == _dict_product(a, b)
    assert all(type(c) is int for c in prod.terms.values())


@pytest.fixture(scope="module")
def kron_only_for_int_qt():
    """Makes a Kronecker product of anything but int q,t-terms an error."""
    real = P._kron_mul

    def guarded(a, b):
        for terms in (a, b):
            assert max(map(len, terms)) <= 2, "Kronecker product of x-variable terms"
            assert all(type(c) is int for c in terms.values()), \
                "Kronecker product of Fraction coefficients"
        return real(a, b)

    mp = pytest.MonkeyPatch()
    mp.setattr(P, "_kron_mul", guarded)
    yield
    mp.undo()


@given(polys(max_terms=16, max_exp=3), polys(max_terms=16, max_exp=3))
def test_fraction_and_x_operands_take_the_dict_route(kron_only_for_int_qt, a, b):
    assert canonical(a * b) == canonical(naive_product(a, b))


def test_fraction_and_x_operands_above_the_threshold_take_the_dict_route(kron_only_for_int_qt):
    big = MultiPoly([((i, j), 1 + i + j) for i in range(12) for j in range(12)])
    half = MultiPoly([((i, j), Fraction(1, 2 + i)) for i in range(12) for j in range(12)])
    xs = big * MultiPoly.monomial((0, 0, 0, 0, 0, 1)) + ONE
    assert len(big.terms) * len(half.terms) >= P.KRONECKER_MIN_PAIRS
    assert canonical(big * half) == canonical(naive_product(big, half))
    assert canonical(big * xs) == canonical(naive_product(big, xs))
    assert P._use_kronecker(big.terms, big.terms, 2)
    assert not P._use_kronecker(half.terms, big.terms, 2)
    assert not P._use_kronecker(big.terms, xs.terms, 6)


@given(int_qt_polys(), int_qt_polys(max_terms=6))
def test_kronecker_quotient_inverts_the_product(a, b):
    assume(not b.is_constant())
    assert P._kron_quotient((a * b).terms, b.terms) == a.terms


@given(int_qt_polys(max_terms=6), int_qt_polys(max_terms=6), int_qt_polys(max_terms=2, max_exp=1))
def test_kronecker_quotient_refuses_a_non_divisor(a, b, r):
    # As in the heap test above: r of lower total degree than b is no
    # multiple of b, so b does not divide a*b + r.
    assume(not b.is_constant() and r.degree() < b.degree())
    assert P._kron_quotient((a * b + r).terms, b.terms) is None
    with pytest.raises(ValueError):
        (a * b + r).divexact(b)


def test_kronecker_quotient_checks_the_quotient_it_reads_back():
    # q does not divide t + q^2, but with t in the slot after q^2 the
    # images X^3 + X^2 and X divide; the quotient read back, q^2 + q,
    # fails the check by multiplying out.
    a, g = T + Q ** 2, Q
    assert P._kron_quotient(a.terms, g.terms) is None
    big = (T + Q ** 2) * MultiPoly([((i, j), 1) for i in range(12) for j in range(12)])
    with pytest.raises(ValueError):
        big.divexact(Q * (ONE + T))


def _monic(g):
    _, lc = g.leading()
    return g.divexact(MultiPoly.const(lc))


def _check_heu_against_prs(a, b):
    """GCDHEU on (a, b) gives the PRS gcd, and cofactors that multiply back."""
    ia, ib = P._int_terms(a)[0], P._int_terms(b)[0]
    got = P._heu_gcd(ia, ib)
    assert got is not None
    g, ca, cb = (MultiPoly._raw(t) for t in got)
    assert _monic(g) == _monic(P._prs_gcd(a, b))
    assert g * ca == MultiPoly._raw(ia) and g * cb == MultiPoly._raw(ib)


@settings(max_examples=200)
@given(int_qt_polys(max_terms=6, max_exp=4, coeffs=st.integers(-50, 50)),
       int_qt_polys(max_terms=6, max_exp=4, coeffs=st.integers(-50, 50)),
       int_qt_polys(max_terms=4, max_exp=3, coeffs=st.integers(-50, 50)))
def test_heuristic_gcd_matches_prs(a, b, g):
    a, b = a * g, b * g
    assume(len(a.terms) > 1 and len(b.terms) > 1)
    _check_heu_against_prs(a, b)


def test_heuristic_gcd_matches_prs_on_unequal_heights():
    # The evaluation point follows the smaller height, so the larger
    # operand's cofactor does not fit its digits and is found by division.
    a = MultiPoly([((1, 0), 1118179), ((2, 0), -385319)]) * (Q + T)
    b = MultiPoly([((1, 0), 429870455086152), ((2, 1), 2831552630584961)]) * (Q + T)
    _check_heu_against_prs(a, b)


def test_heuristic_gcd_inner_point_is_coprime_to_outer(monkeypatch):
    # Both operands vanish at q = t = 0.  At t = 32 the heights give q = 94;
    # both even, so every image is even and the lift fails until a point
    # coprime to 32 (and, less 1, to 31) is used.  That point comes first.
    points = []
    evaluate = P._evaluate

    def spy(terms, var, xi):
        points.append((var, xi))
        return evaluate(terms, var, xi)

    monkeypatch.setattr(P, "_evaluate", spy)
    a = (T - ONE) * (Q - ONE) * (Q ** 2 - T)
    b = (T - ONE) * (ONE + Q + T) * (Q - T)
    _check_heu_against_prs(a, b)
    assert sorted(set(points)) == [(0, 95), (1, 32)]


_BINOMIALS = [Q - T, ONE - Q, ONE - T, Q ** 2 - T, Q - T ** 2, ONE - Q * T,
              Q ** 3 - T ** 2, T ** 3 - Q]


@pytest.fixture(scope="module")
def degree5():
    from deltaops.macdonald import MacdonaldCache
    cache = MacdonaldCache()
    cache.degree(5)
    return cache


def test_heuristic_gcd_on_htilde_sized_operands(degree5):
    # Products of H-tilde coefficients of degree 5 and the binomial factors
    # of Macdonald denominators: 20-130 term operands with a shared factor.
    rng = random.Random(11)
    coeffs = [c.num for h in degree5.degree(5).values() for c in h.coeffs.values()
              if len(c.num.terms) > 8]
    for _ in range(12):
        shared = rng.choice(_BINOMIALS) * rng.choice(_BINOMIALS)
        a = rng.choice(coeffs) * rng.choice(_BINOMIALS) * shared
        b = rng.choice(coeffs) * shared
        _check_heu_against_prs(a, b)


def test_heuristic_gcd_on_the_operator_gcd_pairs(degree5, monkeypatch):
    # Every non-trivial gcd that Delta'_{e_k} e_5 (k = 0..4) asks for.
    from deltaops import macdonald as M
    from deltaops.symfunc import SymFunc
    pairs = []
    real = P.poly_gcd_qt

    def record(a, b, cofactors=None):
        pairs.append((a, b))
        return real(a, b, cofactors)

    monkeypatch.setattr(P, "poly_gcd_qt", record)
    monkeypatch.setattr(M, "poly_gcd_qt", record)
    hc = M.expand_in_htilde(SymFunc.e(5), degree5)
    for k in range(5):
        M.from_h_expansion(M.delta_h(SymFunc.e(k), hc, prime=True), degree5)
    monkeypatch.undo()
    hard = [(a, b) for a, b in pairs if len(a.terms) > 1 and len(b.terms) > 1
            and not a.is_constant() and not b.is_constant()]
    assert len(hard) >= 20
    for a, b in hard:
        _check_heu_against_prs(a, b)


def test_gcd_falls_back_to_prs_when_the_heuristic_fails(monkeypatch):
    a = (Q ** 2 - T) * (ONE + Q * T) * (Q - 2 * T)
    b = (Q ** 2 - T) * (ONE - Q * T ** 2)
    cof = []
    want = poly_gcd_qt(a, b, cof)
    monkeypatch.setattr(P, "_heu_gcd", lambda a, b: None)
    cof2 = []
    assert poly_gcd_qt(a, b, cof2) == want == Q ** 2 - T
    assert cof2 == cof == [a.divexact(want), b.divexact(want)]


@given(int_qt_polys(max_terms=5, max_exp=3, coeffs=st.integers(-9, 9)),
       int_qt_polys(max_terms=5, max_exp=3, coeffs=st.integers(-9, 9)),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_gcd_cofactors(a, b, s):
    # Fraction coefficients are scaled to Z for the heuristic and back.
    a = a * s
    cof = []
    g = poly_gcd_qt(a, b, cof)
    assert g * cof[0] == a and g * cof[1] == b
