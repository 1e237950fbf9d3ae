"""Exact sparse polynomial and rational-function arithmetic over Q.

A polynomial lives in Q[q, t, z, w, u, x1, x2, ...].  It is stored as a dict
mapping exponent tuples to nonzero rational coefficients:

    q^2*t + 3  ->  {(2, 1): 1, (): 3}

Exponent tuples are trimmed of trailing zeros, so the same monomial always
has the same key regardless of how many variables are "in play".  Slot 0 is
q, slot 1 is t, slots 2-4 are z, w, u and slot 5+i is x(i+1).

Rational functions (RatFunc) are restricted to the two variables q and t,
which is all the coefficient field Q(q,t) needs.  They are kept reduced by a
genuine bivariate gcd, but equality never relies on reduction quality: it is
decided by cross-multiplication.

q,t-polynomials with int coefficients have an integer kernel:
- products with enough term pairs are one product of Python integers
  (Kronecker substitution, q^i t^j -> X^(i + width*j) for a power of two X
  above every product coefficient); others go term by term;
- exact division tries one integer division of the same images first, and
  falls back to long division;
- the gcd is GCDHEU (Char-Geddes-Gonnet): integer gcds of evaluations at
  t = xi, then q = xi', rebuilt from symmetric digits and kept only when it
  divides both operands exactly, which also gives the cofactors.  After
  HEU_TRIES evaluation points it falls back to content / primitive part over
  Z[q] and a primitive pseudo-remainder sequence in t.
The term-by-term product, the long division and the PRS are the routes the
tests compare the fast ones with.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from math import comb, gcd as int_gcd
from operator import add, itemgetter, sub

# Slot names for the five fixed variables; slot 5+i is x{i+1}.
FIXED_VARS = ("q", "t", "z", "w", "u")

# Exponents must stay below this bound (a machine word); anything larger is a
# runaway computation, not a desk-scale instance.
EXP_LIMIT = 2 ** 63


def var_index(name: str) -> int:
    if name in FIXED_VARS:
        return FIXED_VARS.index(name)
    if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
        return 4 + int(name[1:])
    raise ValueError(f"unknown variable {name!r}")


def var_name(index: int) -> str:
    return FIXED_VARS[index] if index < 5 else f"x{index - 4}"


def _trim(exps) -> tuple:
    exps = tuple(exps)
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _finish(data: dict) -> dict:
    """Drop zero coefficients, trim padded keys and coerce integral values."""
    out = {}
    for k, c in data.items():
        if c:
            if k and not k[-1]:
                k = _trim(k)
            out[k] = c if type(c) is int else _coerce(c)
    return out


def _coerce(c):
    """Coerce a coefficient to int when integral, Fraction otherwise."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"bad coefficient {c!r}")


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            c = _coerce(c)
            if c == 0:
                continue
            key = _trim(exps)
            for e in key:
                if e < 0 or e >= EXP_LIMIT:
                    raise OverflowError(f"exponent {e} out of range")
            if key in data:
                c2 = data[key] + c
                if c2 == 0:
                    del data[key]
                else:
                    data[key] = _coerce(c2)
            else:
                data[key] = c
        self.terms = data
        self._hash = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, data: dict) -> "MultiPoly":
        """Wrap an already-normalized dict without copying (internal)."""
        p = cls.__new__(cls)
        p.terms = data
        p._hash = None
        return p

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = _coerce(c)
        return cls._raw({(): c} if c != 0 else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        i = var_index(name)
        if power == 0:
            return cls.const(1)
        return cls._raw({_trim((0,) * i + (power,)): 1})

    @classmethod
    def monomial(cls, exps, c=1) -> "MultiPoly":
        return cls((( _trim(exps), c),))

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self.terms[()])
        raise ValueError("not a constant polynomial")

    def vars_used(self) -> set:
        out = set()
        for key in self.terms:
            for i, e in enumerate(key):
                if e:
                    out.add(i)
        return out

    def degree(self, name: str | None = None) -> int:
        """Total degree, or degree in one variable.  Zero poly has degree -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(k) for k in self.terms)
        i = var_index(name)
        return max((k[i] if i < len(k) else 0) for k in self.terms)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        data = dict(self.terms)
        for k, c in other.terms.items():
            s = data.get(k, 0) + c
            if s == 0:
                data.pop(k, None)
            else:
                data[k] = s if type(s) is int else _coerce(s)
        return MultiPoly._raw(data)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        width = max(max(map(len, a)), max(map(len, b)))
        if _use_kronecker(a, b, width):
            return MultiPoly._raw(_kron_mul(a, b))
        return MultiPoly._raw(_dict_mul(a, b, width))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset((k, Fraction(c)) for k, c in self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- structure -------------------------------------------------------------

    def leading(self) -> tuple:
        """(exponents, coeff) of the lex-largest monomial (q > t > z > w > u > x1 > ...)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        width = max(len(k) for k in self.terms)
        key = max(self.terms, key=lambda k: k + (0,) * (width - len(k)))
        return key, self.terms[key]

    def coeff_extract(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, with that variable removed."""
        i = var_index(name)
        data = {}
        for k, c in self.terms.items():
            e = k[i] if i < len(k) else 0
            if e == power:
                k2 = list(k)
                if i < len(k2):
                    k2[i] = 0
                data[_trim(k2)] = c
        return MultiPoly._raw(data)

    def coeff_of(self, exps) -> Fraction:
        return Fraction(self.terms.get(_trim(exps), 0))

    def subs(self, bindings: dict) -> "MultiPoly":
        """Substitute polynomials (or constants) for variables, exactly."""
        binds = {}
        for name, val in bindings.items():
            i = var_index(name)
            binds[i] = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
        out = MultiPoly.zero()
        pow_cache = {}
        for k, c in self.terms.items():
            term = MultiPoly.const(c)
            rest = []
            for i, e in enumerate(k):
                if not e:
                    continue
                if i in binds:
                    pc = pow_cache.get((i, e))
                    if pc is None:
                        pc = pow_cache[(i, e)] = binds[i] ** e
                    term = term * pc
                else:
                    rest.append((i, e))
            if rest:
                mono = [0] * (max(i for i, _ in rest) + 1)
                for i, e in rest:
                    mono[i] = e
                term = term * MultiPoly.monomial(mono)
            out = out + term
        return out

    def subs_rat(self, bindings: dict) -> "RatFunc":
        """Substitute rational functions; result must live in Q(q,t)."""
        binds = {var_index(name): _as_rat(val) for name, val in bindings.items()}
        out = RatFunc.zero()
        pow_cache = {}
        for k, c in self.terms.items():
            term = RatFunc.from_poly(MultiPoly.const(c))
            for i, e in enumerate(k):
                if not e:
                    continue
                if i in binds:
                    pc = pow_cache.get((i, e))
                    if pc is None:
                        pc = pow_cache[(i, e)] = binds[i] ** e
                    term = term * pc
                else:
                    term = term * RatFunc.from_poly(MultiPoly.var(var_name(i), e))
            out = out + term
        return out

    def divexact(self, d: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when d does not divide self.

        Large q,t-operands with int coefficients try one integer division of
        their Kronecker images first (_kron_quotient).  Otherwise, and when
        that finds no quotient in Z[q,t], long division by the lex-leading
        term of d.  The remainder's keys
        sit in a heap of negated padded keys, so each step pops the leading
        remainder term instead of rescanning the remainder; a key whose
        term cancelled stays in the heap and is skipped when popped.
        """
        if not d.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_constant():
            inv = Fraction(1) / d.const_value()
            return MultiPoly._raw({k: _coerce(c * inv) for k, c in self.terms.items()})
        if not self.terms:
            return MultiPoly.zero()
        a, b = self.terms, d.terms
        width = max(max(map(len, b)), max(map(len, a)))
        if _use_kronecker(b, a, width):
            quo = _kron_quotient(a, b)
            if quo is not None:
                return MultiPoly._raw(quo)
        zeros = (0,) * width
        lead, dc = d.leading()
        dk = lead + zeros[len(lead):]
        tail = [(k + zeros[len(k):], c) for k, c in d.terms.items() if k != lead]
        rem = {k + zeros[len(k):]: c for k, c in self.terms.items()}
        heap = [tuple(-e for e in k) for k in rem]
        heapq.heapify(heap)
        quo = {}
        while rem:
            k = tuple(-e for e in heapq.heappop(heap))
            c = rem.pop(k, 0)
            if not c:
                continue
            qk = tuple(map(sub, k, dk))
            if min(qk) < 0:
                raise ValueError("not divisible")
            if type(c) is int and type(dc) is int and c % dc == 0:
                qc = c // dc
            else:
                qc = _coerce(Fraction(c) / dc)
            quo[qk] = qc
            for k2, c2 in tail:
                ksum = tuple(map(add, qk, k2))
                old = rem.get(ksum)
                if old is None:
                    rem[ksum] = -qc * c2
                    heapq.heappush(heap, tuple(-e for e in ksum))
                else:
                    rem[ksum] = old - qc * c2
        return MultiPoly._raw(_finish(quo))

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.divexact(self)
            return True
        except ValueError:
            return False

    # -- canonical text form -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical serialization: terms in descending lex order."""
        if not self.terms:
            return "0"
        width = max(len(k) for k in self.terms)
        keys = sorted(self.terms, key=lambda k: k + (0,) * (width - len(k)), reverse=True)
        parts = []
        for k in keys:
            factors = [str(Fraction(self.terms[k]))]
            factors += [f"{var_name(i)}^{e}" for i, e in enumerate(k) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "MultiPoly":
        text = text.strip()
        if text == "0":
            return cls.zero()
        items = []
        for part in text.split(" + "):
            factors = part.split("*")
            c = Fraction(factors[0])
            exps = {}
            for f in factors[1:]:
                name, _, e = f.partition("^")
                exps[var_index(name)] = int(e)
            key = [0] * (max(exps) + 1 if exps else 0)
            for i, e in exps.items():
                key[i] = e
            items.append((tuple(key), c))
        return cls(items)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def _as_poly(v):
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MultiPoly.const(v)
    return NotImplemented


# ---------------------------------------------------------------------------
# products: term by term, or one big-integer product (Kronecker substitution)
# ---------------------------------------------------------------------------

# A product of two q,t-polynomials with int coefficients goes through one
# product of packed integers when it has at least KRONECKER_MIN_PAIRS term
# pairs and its result has at most KRONECKER_SLOTS_PER_PAIR dense slots per
# pair; every other product is taken term by term.  See CHANGES.md for the
# measured crossover.
KRONECKER_MIN_PAIRS = 128
KRONECKER_SLOTS_PER_PAIR = 2

_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _use_kronecker(a: dict, b: dict, width: int) -> bool:
    """Whether the product of a and b, a the shorter, or the quotient of b
    by a goes through Kronecker substitution; width is the longest key.

    Only q,t-terms with int coefficients qualify.  A monomial a only shifts
    keys, and a product with few term pairs, or with far more dense slots
    than term pairs, is cheaper term by term.
    """
    pairs = len(a) * len(b)
    if width > 2 or len(a) < 2 or pairs < KRONECKER_MIN_PAIRS:
        return False
    if not all(type(c) is int for c in a.values()):
        return False
    if not all(type(c) is int for c in b.values()):
        return False
    (qa, ta), (qb, tb) = _qt_degrees(a), _qt_degrees(b)
    return (qa + qb + 1) * (ta + tb + 1) <= KRONECKER_SLOTS_PER_PAIR * pairs


def _dict_mul(a: dict, b: dict, width: int) -> dict:
    """Term-by-term product of two nonzero polynomials' terms."""
    zeros = (0,) * width
    pb = [(k + zeros[len(k):], c) for k, c in b.items()]
    data = {}
    get = data.get
    for ka, ca in a.items():
        ka += zeros[len(ka):]
        for kb, cb in pb:
            k = tuple(map(add, ka, kb))
            data[k] = get(k, 0) + ca * cb
    return _finish(data)


_T_EXPONENT = itemgetter(slice(1, 2))


def _qt_degrees(terms: dict) -> tuple:
    """(degree in q, degree in t) of nonzero q,t-only terms.

    Keys compare as tuples, so the largest key holds the q-degree, and the
    largest of the slices k[1:2] the t-degree.
    """
    q, t = max(terms), max(map(_T_EXPONENT, terms))
    return (q[0] if q else 0, t[0] if t else 0)


def _slot_bytes(bound: int) -> int:
    """Bytes per slot that hold any signed value of magnitude <= bound,
    rounded up to a machine word size where one exists."""
    nbytes = (bound.bit_length() + 8) // 8
    return next((w for w in _SLOT_FORMATS if w >= nbytes), nbytes)


def _offset(count: int, nbytes: int) -> int:
    """sum X^s / 2 over count slots, X = 2^(8*nbytes)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _kron_pack(terms: dict, width: int, nbytes: int) -> int:
    """sum c * X^(i + width*j) over the terms c q^i t^j, X = 2^(8*nbytes).

    Every slot holds its coefficient plus X/2, so the slots are written as
    unsigned digits; the offset comes off the packed value afterwards.
    """
    slots = [k[0] + width * k[1] if len(k) == 2 else (k[0] if k else 0)
             for k in terms]
    count = max(slots) + 1
    half = 1 << (8 * nbytes - 1)
    digits = [half] * count
    for s, c in zip(slots, terms.values()):
        digits[s] = half + c
    if nbytes in _SLOT_FORMATS:
        raw = struct.pack(f"<{count}{_SLOT_FORMATS[nbytes]}", *digits)
    else:
        raw = b"".join(d.to_bytes(nbytes, "little") for d in digits)
    return int.from_bytes(raw, "little") - _offset(count, nbytes)


def _kron_unpack(v: int, width: int, rows: int, nbytes: int) -> dict:
    """The terms c q^i t^j of v = sum c * X^(i + width*j), X = 2^(8*nbytes),
    with i < width, j < rows and every |c| < X/2.

    Adding X/2 to every slot makes each digit nonnegative, so the slots
    are read straight off the bytes and shifted back.
    """
    count = width * rows
    half = 1 << (8 * nbytes - 1)
    raw = (v + _offset(count, nbytes)).to_bytes(count * nbytes, "little")
    if nbytes in _SLOT_FORMATS:
        digits = struct.unpack(f"<{count}{_SLOT_FORMATS[nbytes]}", raw)
    else:
        digits = [int.from_bytes(raw[o:o + nbytes], "little")
                  for o in range(0, len(raw), nbytes)]
    out = {}
    for j in range(rows):
        for i, c in enumerate(digits[j * width:(j + 1) * width]):
            if c != half:
                out[(i, j) if j else (i,) if i else ()] = c - half
    return out


def _kron_mul(a: dict, b: dict) -> dict:
    """Product of two nonzero q,t-polynomials with int coefficients by
    Kronecker substitution.

    q^i t^j maps to X^(i + width*j) with width one past the product's
    q-degree, so no two product terms share a slot, and X = 2^(8*nbytes)
    with X/2 above the largest possible product coefficient, so no slot
    overflows into the next.
    """
    (qa, ta), (qb, tb) = _qt_degrees(a), _qt_degrees(b)
    width, rows = qa + qb + 1, ta + tb + 1
    bound = (min(len(a), len(b)) * max(map(abs, a.values()))
             * max(map(abs, b.values())))
    nbytes = _slot_bytes(bound)
    prod = _kron_pack(a, width, nbytes) * _kron_pack(b, width, nbytes)
    return _kron_unpack(prod, width, rows, nbytes)


# Convenient generators.
Q = MultiPoly.var("q")
T = MultiPoly.var("t")
Z = MultiPoly.var("z")
W = MultiPoly.var("w")
U = MultiPoly.var("u")
ONE = MultiPoly.const(1)
ZERO = MultiPoly.zero()


def xvar(i: int) -> MultiPoly:
    """The variable x_i (1-based)."""
    return MultiPoly.var(f"x{i}")


def _kron_times_is(g: dict, f: dict, a: dict) -> bool:
    """g * f == a for q,t-terms with int coefficients, decided on their
    Kronecker images at one slot width that holds every coefficient."""
    bound = min(len(g), len(f)) * max(map(abs, g.values())) * max(map(abs, f.values()))
    nbytes = _slot_bytes(max(bound, max(map(abs, a.values()))))
    width = max(_qt_degrees(g)[0] + _qt_degrees(f)[0], _qt_degrees(a)[0]) + 1
    return (_kron_pack(g, width, nbytes) * _kron_pack(f, width, nbytes)
            == _kron_pack(a, width, nbytes))


def _kron_quotient(a: dict, g: dict, guess: dict | None = None):
    """a / g for q,t-terms with int coefficients when g divides a in
    Z[q,t], else None.

    guess, a candidate quotient, is checked first.  Otherwise the Kronecker
    images are divided as integers and the quotient read back from the
    slots is checked by multiplying out: first with slots sized for the
    coefficients of a, then above the Mignotte bound 2^(deg_q(a) +
    deg_t(a)) * |a|_2 on any factor of a.  The images keep divisibility,
    so a remainder proves that g does not divide a.
    """
    if guess and _kron_times_is(g, guess, a):
        return guess
    (qa, ta), (qg, tg) = _qt_degrees(a), _qt_degrees(g)
    if qg > qa or tg > ta:
        return None
    height = max(max(map(abs, a.values())) * len(a), max(map(abs, g.values())))
    for bound in (height, height << (qa + ta)):
        nbytes = _slot_bytes(bound)
        f, r = divmod(_kron_pack(a, qa + 1, nbytes), _kron_pack(g, qa + 1, nbytes))
        if r:
            return None
        try:
            f = _kron_unpack(f, qa + 1, ta + 1, nbytes)
        except OverflowError:
            continue
        if f and _kron_times_is(g, f, a):
            return f
    return None


# ---------------------------------------------------------------------------
# gcd in Q[q,t] via content + primitive pseudo-remainder sequence in t
# (all PRS work happens over Z to keep coefficient arithmetic on machine ints)
# ---------------------------------------------------------------------------

def _int_terms(p: MultiPoly) -> tuple:
    """(terms, scale): p's terms times the lcm of its denominators, all int."""
    scale = 1
    for c in p.terms.values():
        if isinstance(c, Fraction):
            d = c.denominator
            scale = scale * d // int_gcd(scale, d)
    if scale == 1:
        return p.terms, 1
    return {k: int(c * scale) for k, c in p.terms.items()}, scale


def _to_qt_int(p: MultiPoly) -> dict:
    """View a q,t-polynomial as {t_exp: {q_exp: coeff}}, scaled to integer
    coefficients (gcd ignores units)."""
    out = {}
    for k, c in _int_terms(p)[0].items():
        if len(k) > 2:
            raise ValueError("polynomial not in q,t only")
        qe = k[0] if len(k) >= 1 else 0
        te = k[1] if len(k) >= 2 else 0
        out.setdefault(te, {})[qe] = c
    return out


# -- univariate integer polynomials as {exp: int} ---------------------------

def _iu_content(a: dict) -> int:
    g = 0
    for v in a.values():
        g = int_gcd(g, v)
        if g == 1:
            return 1
    return g


def _iu_primitive(a: dict) -> dict:
    if not a:
        return a
    g = _iu_content(a)
    if a[max(a)] < 0:
        g = -g
    if g == 1:
        return a
    return {e: v // g for e, v in a.items()}


def _iu_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _iu_prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of integer univariate polynomials."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new = {}
        for e, v in r.items():
            new[e] = v * lb
        for e, v in b.items():
            e2 = dr - db + e
            s = new.get(e2, 0) - lr * v
            if s:
                new[e2] = s
            else:
                new.pop(e2, None)
        r = new
    return r


def _iu_gcd(a: dict, b: dict) -> dict:
    """Primitive gcd in Z[q], positive leading coefficient."""
    a = _iu_primitive({e: v for e, v in a.items() if v})
    b = _iu_primitive({e: v for e, v in b.items() if v})
    if not a:
        return b
    if not b:
        return a
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _iu_prem(a, b)
        a, b = b, _iu_primitive(r)
    return a


def _iu_divexact(a: dict, b: dict) -> dict:
    """Exact division in Z[q]; exactness is the caller's guarantee."""
    if not a:
        return {}
    db, lb = max(b), b[max(b)]
    rem = dict(a)
    quo = {}
    while rem:
        dr = max(rem)
        lr = rem[dr]
        if dr < db or lr % lb:
            raise ValueError("inexact integer division")
        c = lr // lb
        quo[dr - db] = c
        for e, v in b.items():
            e2 = dr - db + e
            s = rem.get(e2, 0) - c * v
            if s:
                rem[e2] = s
            else:
                rem.pop(e2, None)
    return quo


def _from_qt(d: dict) -> MultiPoly:
    items = []
    for te, row in d.items():
        for qe, c in row.items():
            items.append(((qe, te), c))
    return MultiPoly(items)


def _u_deg(a: dict) -> int:
    return max(a) if a else -1


def _u_divmod(a: dict, b: dict) -> tuple:
    if not b:
        raise ZeroDivisionError
    db = _u_deg(b)
    lb = Fraction(b[db])
    rem = dict(a)
    quo = {}
    while rem and _u_deg(rem) >= db:
        dr = _u_deg(rem)
        c = Fraction(rem[dr]) / lb
        quo[dr - db] = c
        for e, v in b.items():
            e2 = dr - db + e
            s = rem.get(e2, 0) - c * v
            if s == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = s
    return quo, rem


def _t_content(p: dict) -> dict:
    """Primitive gcd over Z[q] of the t-coefficients."""
    g: dict = {}
    for row in p.values():
        g = _iu_gcd(g, row)
        if g == {0: 1}:
            break
    return g


def _t_primitive(p: dict) -> dict:
    cont = _t_content(p)
    if not cont or cont == {0: 1}:
        return p
    return {te: _iu_divexact(row, cont) for te, row in p.items()}


def _t_prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b as polynomials in t over Z[q]."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new = {te: _iu_mul(row, lb) for te, row in r.items()}
        for te, row in b.items():
            te2 = dr - db + te
            tgt = new.setdefault(te2, {})
            for qe, c in _iu_mul(row, lr).items():
                s = tgt.get(qe, 0) - c
                if s:
                    tgt[qe] = s
                else:
                    tgt.pop(qe, None)
            if not tgt:
                del new[te2]
        r = new
    return r


def _prs_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd of two q,t-polynomials by content and primitive PRS, up to a unit."""
    pa, pb = _to_qt_int(a), _to_qt_int(b)
    ca, cb = _t_content(pa), _t_content(pb)
    cg = _iu_gcd(ca, cb)
    fa, fb = _t_primitive(pa), _t_primitive(pb)
    if max(fa) < max(fb):
        fa, fb = fb, fa
    while fb:
        r = _t_prem(fa, fb)
        fa, fb = fb, _t_primitive(r) if r else {}
    prim = _t_primitive(fa)
    merged = {te: _iu_mul(row, cg) for te, row in prim.items()} if cg else prim
    return _from_qt(merged)


# ---------------------------------------------------------------------------
# heuristic gcd (GCDHEU, Char-Geddes-Gonnet 1989): evaluate t, then q, at
# integers, take an integer gcd, and rebuild the polynomial gcd from its
# symmetric digits.  A candidate is kept only when it times its cofactors
# gives back both operands exactly; with the evaluation point above twice
# the smaller height, a primitive candidate that divides both operands is
# the gcd (Geddes-Czapor-Labahn, Algorithms for Computer Algebra, 7.7).
# ---------------------------------------------------------------------------

# Evaluation points tried at each level before giving up on the heuristic;
# each next point is about e times the last.  See CHANGES.md for how often
# the first point already works.
HEU_TRIES = 6


def _content(values) -> int:
    g = 0
    for v in values:
        g = int_gcd(g, v)
        if g == 1:
            break
    return g


def _first_point(a, b) -> int:
    """The first evaluation point for coefficient values a and b: above
    twice the smaller height plus 29, where GCDHEU needs plus 2."""
    return 2 * min(max(map(abs, a)), max(map(abs, b))) + 30


def _next_point(xi: int) -> int:
    return xi * 73794 // 27011


def _digits(v: int, xi: int) -> list:
    """The base-xi digits d_0, d_1, ... of v with every |d| <= xi/2."""
    out = []
    half = xi // 2
    while v:
        d = v % xi
        if d > half:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def _evaluate(terms: dict, var: int, xi: int) -> dict:
    """q,t-terms with variable var (0 for q, 1 for t), the last one they
    use, set to xi."""
    out: dict = {}
    for k, c in terms.items():
        e = k[var] if len(k) > var else 0
        key = _trim(k[:var])
        out[key] = out.get(key, 0) + c * xi ** e
    return {k: v for k, v in out.items() if v}


def _lift(image: dict, var: int, xi: int) -> dict:
    """The terms whose value at variable var = xi is image, read off as
    symmetric base-xi digits."""
    out = {}
    for k, v in image.items():
        pad = k + (0,) * (var - len(k))
        for j, d in enumerate(_digits(v, xi)):
            if d:
                out[_trim(pad + (j,))] = d
    return out


def _heu_gcd(a: dict, b: dict, var: int = 1, outer: int = 0):
    """(g, a/g, b/g) for the gcd g in Z[q,t] of nonzero q,t-terms a and b
    with int coefficients, or None when GCDHEU found no gcd.

    Sets variable var (1 for t, then 0 for q) to xi, takes the gcd of the
    images (one variable fewer, or integers), and lifts it and the image
    cofactors back from their digits; outer is the t-point (0 at the top).
    """
    ka, kb = _content(a.values()), _content(b.values())
    c = int_gcd(ka, kb)
    pa = {k: v // ka for k, v in a.items()}
    pb = {k: v // kb for k, v in b.items()}
    xi = _first_point(pa.values(), pb.values())
    # If xi = outer = 0 (or 1) mod p, p divides the image of every polynomial
    # vanishing at q = t = 0 (or 1): a spurious factor that spoils the lift.
    while outer and (int_gcd(xi, outer) > 1 or int_gcd(xi - 1, outer - 1) > 1):
        xi += 1
    for _ in range(HEU_TRIES):
        ea, eb = _evaluate(pa, var, xi), _evaluate(pb, var, xi)
        got = None
        if ea and eb and var:
            got = _heu_gcd(ea, eb, var - 1, xi)
        elif ea and eb:
            h = int_gcd(ea[()], eb[()])
            got = {(): h}, {(): ea[()] // h}, {(): eb[()] // h}
        if got is not None:
            gi, ai, bi = got
            g = _lift(gi, var, xi)
            cg = _content(g.values())
            g = {k: v // cg for k, v in g.items()}
            # g takes the values gi / cg at xi, so pa / g takes ai * cg.
            fa = _kron_quotient(pa, g, _lift({k: v * cg for k, v in ai.items()}, var, xi))
            fb = None if fa is None else _kron_quotient(
                pb, g, _lift({k: v * cg for k, v in bi.items()}, var, xi))
            if fb is not None:
                return ({k: c * v for k, v in g.items()},
                        {k: ka // c * v for k, v in fa.items()},
                        {k: kb // c * v for k, v in fb.items()})
        xi = _next_point(xi)
    return None


def _scaled(terms: dict, f) -> MultiPoly:
    """The polynomial with terms times the rational f."""
    if f == 1:
        return MultiPoly._raw(terms)
    return MultiPoly._raw({k: _coerce(v * f) for k, v in terms.items()})


def poly_gcd_qt(a: MultiPoly, b: MultiPoly, cofactors: list | None = None) -> MultiPoly:
    """gcd in Q[q,t], normalized with leading coefficient +1 (lex q > t).

    GCDHEU first, the primitive PRS when it fails.  When cofactors is a
    list, a/g and b/g are appended to it: the heuristic has them already,
    so callers that reduce by g need not divide again.
    """
    cof = None
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    elif a.is_constant() or b.is_constant():
        g = ONE
    elif len(a.terms) == 1 or len(b.terms) == 1:
        keys = list(a.terms) + list(b.terms)
        width = max(len(k) for k in keys)
        mins = [min(k[i] if i < len(k) else 0 for k in keys) for i in range(width)]
        g = MultiPoly.monomial(mins)
    else:
        (ia, sa), (ib, sb) = _int_terms(a), _int_terms(b)
        got = _heu_gcd(ia, ib) if max(map(len, ia)) <= 2 and max(map(len, ib)) <= 2 else None
        if got is None:
            g = _prs_gcd(a, b)
        else:
            g, ca, cb = got
            g = MultiPoly._raw(g)
            _, lc = g.leading()
            # a = ia / sa = (g / lc) * (lc * ca / sa)
            cof = (_scaled(ca, Fraction(lc, sa)), _scaled(cb, Fraction(lc, sb)))
    if not g.is_zero():
        _, lc = g.leading()
        if lc != 1:
            g = g.divexact(MultiPoly.const(lc))
    if cofactors is not None:
        if cof is None:
            cof = (a, b) if g.is_constant() else (a.divexact(g), b.divexact(g))
        cofactors.extend(cof)
    return g


# ---------------------------------------------------------------------------
# Rational functions over Q(q,t)
# ---------------------------------------------------------------------------

def _as_rat(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, MultiPoly):
        return RatFunc.from_poly(v)
    if isinstance(v, (int, Fraction)):
        return RatFunc.from_poly(MultiPoly.const(v))
    raise TypeError(f"cannot coerce {v!r} to RatFunc")


def _reduce_pair(a: MultiPoly, b: MultiPoly) -> tuple:
    """(a/g, b/g) for g = gcd(a, b); cheap when either side is constant."""
    if a.is_constant() or b.is_constant() or a.is_zero() or b.is_zero():
        return a, b
    cof = []
    if poly_gcd_qt(a, b, cof).is_constant():
        return a, b
    return tuple(cof)


class RatFunc:
    """Reduced ratio of q,t-polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        bad = (num.vars_used() | den.vars_used()) - {0, 1}
        if bad:
            names = ", ".join(sorted(var_name(i) for i in bad))
            raise ValueError(f"RatFunc must live in Q(q,t); saw {names}")
        if num.is_zero():
            num, den = MultiPoly.zero(), MultiPoly.const(1)
        elif reduce and not den.is_constant():
            cof = []
            if not poly_gcd_qt(num, den, cof).is_constant():
                num, den = cof
        _, lc = den.leading()
        if lc != 1:
            inv = MultiPoly.const(Fraction(1) / Fraction(lc))
            num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_poly(MultiPoly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.from_poly(MultiPoly.const(1))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFunc":
        r = cls.__new__(cls)
        bad = p.vars_used() - {0, 1}
        if bad:
            names = ", ".join(sorted(var_name(i) for i in bad))
            raise ValueError(f"RatFunc must live in Q(q,t); saw {names}")
        r.num = p
        r.den = MultiPoly.const(1)
        return r

    @classmethod
    def _make(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Build from an already-coprime pair, normalizing the denominator."""
        if num.is_zero():
            return cls.zero()
        r = cls.__new__(cls)
        if den.is_constant():
            c = den.const_value()
            if c != 1:
                num = num.divexact(MultiPoly.const(c))
            den = MultiPoly.const(1)
        else:
            _, lc = den.leading()
            if lc != 1:
                inv = MultiPoly.const(Fraction(1) / Fraction(lc))
                num, den = num * inv, den * inv
        r.num, r.den = num, den
        return r

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == ONE

    def as_poly(self) -> MultiPoly:
        """The underlying polynomial; exact-divides num by den if needed."""
        if self.den == ONE:
            return self.num
        return self.num.divexact(self.den)

    def __add__(self, other):
        other = _as_rat(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den == other.den:
            return RatFunc._make(*_reduce_pair(self.num + other.num, self.den))
        d1, d2 = self.den, other.den
        if d1.is_constant() or d2.is_constant():
            return RatFunc._make(*_reduce_pair(self.num * d2 + other.num * d1, d1 * d2))
        cof = []
        g = poly_gcd_qt(d1, d2, cof)
        if g.is_constant():
            return RatFunc._make(self.num * d2 + other.num * d1, d1 * d2)
        e1, e2 = cof
        num = self.num * e2 + other.num * e1
        cof = []
        if poly_gcd_qt(num, g, cof).is_constant():
            return RatFunc._make(num, d1 * e2)
        return RatFunc._make(cof[0], e1 * cof[1] * e2)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        return self + (-_as_rat(other))

    def __mul__(self, other):
        other = _as_rat(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        n1, d2 = _reduce_pair(self.num, other.den)
        n2, d1 = _reduce_pair(other.num, self.den)
        return RatFunc._make(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        n1, n2 = _reduce_pair(self.num, other.num)
        d1, d2 = _reduce_pair(self.den, other.den)
        return RatFunc._make(n1 * d2, d1 * n2)

    def __rtruediv__(self, other):
        return _as_rat(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.one() / (self ** (-n))
        out = RatFunc.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = _as_rat(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # Canonical form is good enough to hash: reduce fully by construction.
        return hash((self.num, self.den))

    def subs(self, bindings: dict) -> "RatFunc":
        num = self.num.subs_rat(bindings)
        den = self.den.subs_rat(bindings)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes denominator zero")
        return num / den

    def to_text(self) -> str:
        if self.den == ONE:
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    @classmethod
    def from_text(cls, text: str) -> "RatFunc":
        text = text.strip()
        if text.startswith("(") and ")/(" in text:
            left, right = text[1:-1].split(")/(")
            return cls(MultiPoly.from_text(left), MultiPoly.from_text(right))
        return cls.from_poly(MultiPoly.from_text(text))

    def __repr__(self):
        return f"RatFunc({self.to_text()})"


RAT_ONE = RatFunc.one()
RAT_ZERO = RatFunc.zero()


def specialize(p, bindings: dict):
    """Exact substitution on a MultiPoly or RatFunc.

    Values may be MultiPoly, RatFunc, rationals, or the string "1/q".  The
    result is a MultiPoly when no division is involved, RatFunc otherwise.
    """
    binds = {}
    rational = False
    for name, val in bindings.items():
        if isinstance(val, str):
            if val == "1/q":
                val = RatFunc(ONE, Q)
            else:
                raise ValueError(f"bad binding {val!r}")
        if isinstance(val, RatFunc):
            if val.is_poly():
                val = val.as_poly()
            else:
                rational = True
        binds[name] = val
    if isinstance(p, RatFunc):
        return p.subs({k: _as_rat(v) for k, v in binds.items()})
    if rational:
        return p.subs_rat({k: _as_rat(v) for k, v in binds.items()})
    return p.subs(binds)


# ---------------------------------------------------------------------------
# q- and q,t-integers, binomials, cyclotomics
# ---------------------------------------------------------------------------

def qint(n: int) -> MultiPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("qint of negative n")
    return MultiPoly(((i,), 1) for i in range(n))


def qtint(n: int, convention: str | None = None) -> MultiPoly:
    """[n]_{q,t} = sum q^i t^(n-1-i).

    The value at n = 0 is convention-dependent ("zero" or "one"); callers must
    choose explicitly, since both appear in the literature.
    """
    if n < 0:
        raise ValueError("qtint of negative n")
    if n == 0:
        if convention == "zero":
            return MultiPoly.zero()
        if convention == "one":
            return MultiPoly.const(1)
        raise ValueError('qtint(0) needs convention="zero" or "one"')
    return MultiPoly(((i, n - 1 - i), 1) for i in range(n))


def qfact(n: int) -> MultiPoly:
    out = MultiPoly.const(1)
    for i in range(1, n + 1):
        out = out * qint(i)
    return out


def qbinom(n: int, k: int) -> MultiPoly:
    """Gaussian binomial [n choose k]_q; always an exact polynomial."""
    if k < 0 or k > n:
        raise ValueError(f"qbinom({n},{k}) out of range")
    return qfact(n).divexact(qfact(k) * qfact(n - k))


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


_CYCLO_CACHE: dict = {}


def cyclotomic(p: int) -> MultiPoly:
    """The p-th cyclotomic polynomial in q."""
    if p < 1:
        raise ValueError("cyclotomic index must be positive")
    if p in _CYCLO_CACHE:
        return _CYCLO_CACHE[p]
    num = MultiPoly((((p,), 1), ((), -1)))  # q^p - 1
    for d in _divisors(p)[:-1]:
        num = num.divexact(cyclotomic(d))
    _CYCLO_CACHE[p] = num
    return num


def poly_mod_q(a: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Remainder of a by m, both univariate in q."""
    if a.vars_used() - {0} or m.vars_used() - {0}:
        raise ValueError("poly_mod_q expects univariate polynomials in q")
    ua = {k[0] if k else 0: Fraction(c) for k, c in a.terms.items()}
    um = {k[0] if k else 0: Fraction(c) for k, c in m.terms.items()}
    _, r = _u_divmod(ua, um)
    return MultiPoly((((e,), c) for e, c in r.items()))


def q_lucas_check(n: int, k: int, p: int) -> bool:
    """qbinom(n,k) = binom(n1,k1) * qbinom(n0,k0) mod the p-th cyclotomic."""
    n1, n0 = divmod(n, p)
    k1, k0 = divmod(k, p)
    phi = cyclotomic(p)
    lhs = poly_mod_q(qbinom(n, k), phi)
    if k0 > n0:
        rhs = MultiPoly.zero()
    else:
        rhs = MultiPoly.const(comb(n1, k1)) * qbinom(n0, k0)
    return lhs == poly_mod_q(rhs, phi)


def poly_divides(a: MultiPoly, b: MultiPoly) -> bool:
    """True iff a divides b exactly in Q[q]."""
    if a.is_zero():
        raise ValueError("zero divisor")
    return a.divides(b)

