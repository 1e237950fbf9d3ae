"""Exact polynomial/rational kernel tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

