"""Exact sparse polynomial and rational-function arithmetic over Q.

A polynomial lives in Q[q, t, z, w, u, x1, x2, ...].  It is stored as a dict
mapping exponent tuples to nonzero rational coefficients:

    q^2*t + 3  ->  {(2, 1): 1, (): 3}

Exponent tuples are trimmed of trailing zeros, so the same monomial always
has the same key regardless of how many variables are "in play".  Slot 0 is
q, slot 1 is t, slots 2-4 are z, w, u and slot 5+i is x(i+1).

Rational functions (RatFunc) are restricted to the two variables q and t,
which is all the coefficient field Q(q,t) needs.  They are kept reduced by a
genuine bivariate gcd (content / primitive-part over Q[q], then a primitive
pseudo-remainder sequence in t), but equality never relies on reduction
quality: it is decided by cross-multiplication.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd as int_gcd
from operator import add, sub

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
                data[k] = _coerce(s)
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
        zeros = (0,) * max(max(map(len, a)), max(map(len, b)))
        pb = [(k + zeros[len(k):], c) for k, c in b.items()]
        data = {}
        get = data.get
        for ka, ca in a.items():
            ka += zeros[len(ka):]
            for kb, cb in pb:
                k = tuple(map(add, ka, kb))
                data[k] = get(k, 0) + ca * cb
        return MultiPoly._raw(_finish(data))

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

        Long division by the lex-leading term of d.  The remainder's keys
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
        zeros = (0,) * max(max(map(len, d.terms)), max(map(len, self.terms)))
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


# ---------------------------------------------------------------------------
# gcd in Q[q,t] via content + primitive pseudo-remainder sequence in t
# (all PRS work happens over Z to keep coefficient arithmetic on machine ints)
# ---------------------------------------------------------------------------

def _to_qt_int(p: MultiPoly) -> dict:
    """View a q,t-polynomial as {t_exp: {q_exp: coeff}}, scaled to integer
    coefficients (gcd ignores units)."""
    scale = 1
    for c in p.terms.values():
        if isinstance(c, Fraction):
            d = c.denominator
            scale = scale * d // int_gcd(scale, d)
    out = {}
    for k, c in p.terms.items():
        if len(k) > 2:
            raise ValueError("polynomial not in q,t only")
        qe = k[0] if len(k) >= 1 else 0
        te = k[1] if len(k) >= 2 else 0
        out.setdefault(te, {})[qe] = int(c * scale)
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


def poly_gcd_qt(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd in Q[q,t], normalized with leading coefficient +1 (lex q > t)."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    elif a.is_constant() or b.is_constant():
        return MultiPoly.const(1)
    elif len(a.terms) == 1 or len(b.terms) == 1:
        keys = list(a.terms) + list(b.terms)
        width = max(len(k) for k in keys)
        mins = [min(k[i] if i < len(k) else 0 for k in keys) for i in range(width)]
        g = MultiPoly.monomial(mins)
    else:
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
        g = _from_qt(merged)
    if g.is_zero():
        return g
    _, lc = g.leading()
    if lc != 1:
        g = g.divexact(MultiPoly.const(lc))
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
    g = poly_gcd_qt(a, b)
    if g.is_constant():
        return a, b
    return a.divexact(g), b.divexact(g)


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
            g = poly_gcd_qt(num, den)
            if not g.is_constant():
                num, den = num.divexact(g), den.divexact(g)
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
        g = poly_gcd_qt(d1, d2)
        if g.is_constant():
            return RatFunc._make(self.num * d2 + other.num * d1, d1 * d2)
        e1, e2 = d1.divexact(g), d2.divexact(g)
        num = self.num * e2 + other.num * e1
        r = poly_gcd_qt(num, g)
        if r.is_constant():
            return RatFunc._make(num, d1 * e2)
        return RatFunc._make(num.divexact(r), d1.divexact(r) * e2)

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

