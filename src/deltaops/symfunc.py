"""Symmetric functions over Q(q,t).

A SymFunc is a finite coefficient map from partitions to RatFunc values,
tagged with the basis it is written in ('m', 'e', 'h', 'p' or 's').  All
conversions go through the monomial basis; transition matrices are built by
brute-force expansion in enough variables, which keeps one self-validating
code path.

Plethysm works through the power-sum basis on alphabets of signed monic
monomials, exactly as f[A] is defined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .partitions import (
    check_partition,
    conjugate,
    partition_from_text,
    partition_text,
    partitions,
    reverse_lex_sorted,
    sort_to_partition,
)
from .poly import MultiPoly, ONE, RatFunc, ZERO, _as_rat

CLASSICAL_BASES = ("m", "e", "h", "p", "s")


def _x_key(exps) -> tuple:
    """Exponent key for a pure x-monomial  x1^e1 x2^e2 ...  (trailing zeros ok)."""
    return (0, 0, 0, 0, 0) + tuple(exps)


# ---------------------------------------------------------------------------
# expansions of basis elements in N variables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _expand_m(lam: tuple, N: int) -> MultiPoly:
    if len(lam) > N:
        return MultiPoly.zero()
    padded = tuple(lam) + (0,) * (N - len(lam))
    return MultiPoly((_x_key(p), 1) for p in set(itertools.permutations(padded)))


@lru_cache(maxsize=None)
def _expand_one(basis: str, k: int, N: int) -> MultiPoly:
    """e_k, h_k or p_k in N variables."""
    if basis == "e":
        items = []
        for sub in itertools.combinations(range(N), k):
            exps = [0] * N
            for i in sub:
                exps[i] = 1
            items.append((_x_key(exps), 1))
        return MultiPoly(items)
    if basis == "h":
        items = []
        for sub in itertools.combinations_with_replacement(range(N), k):
            exps = [0] * N
            for i in sub:
                exps[i] += 1
            items.append((_x_key(exps), 1))
        return MultiPoly(items)
    if basis == "p":
        if k == 0:
            return MultiPoly.const(1)
        return MultiPoly((_x_key((0,) * i + (k,)), 1) for i in range(N))
    raise ValueError(f"bad one-row basis {basis}")


def _ssyt_fillings(shape: tuple, N: int):
    """Yield semistandard tableaux of the given shape with entries in 1..N.

    Rows weakly increase left to right, columns strictly increase top to
    bottom (English notation); yields content vectors.
    """
    rows = len(shape)

    def fill(r: int, tableau: list):
        if r == rows:
            content = [0] * N
            for row in tableau:
                for v in row:
                    content[v - 1] += 1
            yield tuple(content)
            return
        above = tableau[r - 1] if r else None

        def fill_row(c: int, row: list):
            if c == shape[r]:
                yield from fill(r + 1, tableau + [row])
                return
            lo = row[c - 1] if c else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, N + 1):
                yield from fill_row(c + 1, row + [v])

        yield from fill_row(0, [])

    yield from fill(0, [])


@lru_cache(maxsize=None)
def _expand_s(lam: tuple, N: int) -> MultiPoly:
    if len(lam) > N:
        return MultiPoly.zero()
    counts: dict = {}
    for content in _ssyt_fillings(lam, N):
        key = _x_key(content)
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(counts)


@lru_cache(maxsize=None)
def expand_basis_elem(basis: str, lam: tuple, N: int) -> MultiPoly:
    """The N-variable expansion of one basis element, exact."""
    lam = check_partition(lam)
    if basis == "m":
        return _expand_m(lam, N)
    if basis == "s":
        return _expand_s(lam, N)
    if basis in ("e", "h", "p"):
        out = MultiPoly.const(1)
        for part in lam:
            out = out * _expand_one(basis, part, N)
        return out
    raise ValueError(f"no direct expansion for basis {basis!r}")


@lru_cache(maxsize=None)
def kostka(lam: tuple, mu: tuple) -> int:
    """Number of SSYT of shape lam and content mu."""
    n = sum(lam)
    return int(expand_basis_elem("s", lam, n).coeff_of(_x_key(mu)))


# ---------------------------------------------------------------------------
# transition matrices through the monomial basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def to_m_matrix(basis: str, n: int) -> dict:
    """{lam: {mu: integer coeff of m_mu in basis_lam}} for degree n."""
    mus = partitions(n)
    out = {}
    for lam in mus:
        expansion = expand_basis_elem(basis, lam, n)
        row = {}
        for mu in mus:
            c = expansion.coeff_of(_x_key(mu))
            if c:
                row[mu] = c
        out[lam] = row
    return out


@lru_cache(maxsize=None)
def from_m_matrix(basis: str, n: int) -> dict:
    """{mu: {lam: Fraction}} expressing m_mu in the given basis."""
    mus = list(reverse_lex_sorted(partitions(n)))
    idx = {mu: i for i, mu in enumerate(mus)}
    k = len(mus)
    fwd = to_m_matrix(basis, n)
    # Invert the k x k integer matrix with exact Gaussian elimination.
    mat = [[Fraction(fwd[lam].get(mu, 0)) for mu in mus] for lam in mus]
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = mat[col][col]
        mat[col] = [v / scale for v in mat[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(k):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    # Row mu of the inverse gives m_mu in the basis.
    out = {}
    for mu in mus:
        row = inv[idx[mu]]
        out[mu] = {mus[c]: row[c] for c in range(k) if row[c] != 0}
    return out


# ---------------------------------------------------------------------------
# the SymFunc value type
# ---------------------------------------------------------------------------

class SymFunc:
    """A symmetric function with RatFunc coefficients in a named basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs=()):
        if basis not in CLASSICAL_BASES:
            raise ValueError(f"unknown basis {basis!r}")
        data = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for lam, c in items:
            lam = check_partition(lam)
            c = _as_rat(c)
            if c.is_zero():
                continue
            data[lam] = data[lam] + c if lam in data else c
        self.basis = basis
        self.coeffs = {k: v for k, v in data.items() if not v.is_zero()}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, basis: str = "m") -> "SymFunc":
        return cls(basis)

    @classmethod
    def one(cls, basis: str = "m") -> "SymFunc":
        return cls(basis, {(): 1})

    @classmethod
    def elem(cls, basis: str, lam, coeff=1) -> "SymFunc":
        if isinstance(lam, int):
            lam = (lam,) if lam else ()
        return cls(basis, {tuple(lam): coeff})

    @classmethod
    def e(cls, lam) -> "SymFunc":
        return cls.elem("e", lam)

    @classmethod
    def h(cls, lam) -> "SymFunc":
        return cls.elem("h", lam)

    @classmethod
    def p(cls, lam) -> "SymFunc":
        return cls.elem("p", lam)

    @classmethod
    def s(cls, lam) -> "SymFunc":
        return cls.elem("s", lam)

    @classmethod
    def m(cls, lam) -> "SymFunc":
        return cls.elem("m", lam)

    # -- basics -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> tuple:
        return tuple(sorted({sum(lam) for lam in self.coeffs}))

    def degree(self) -> int:
        """Degree of a homogeneous SymFunc (0 for the zero function)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("not homogeneous")
        return degs[0] if degs else 0

    def component(self, n: int) -> "SymFunc":
        return SymFunc(self.basis, {k: v for k, v in self.coeffs.items() if sum(k) == n})

    def map_coeffs(self, fn) -> "SymFunc":
        return SymFunc(self.basis, {k: fn(v) for k, v in self.coeffs.items()})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if other.basis != self.basis:
            other = convert(other, self.basis)
        data = dict(self.coeffs)
        for k, v in other.coeffs.items():
            data[k] = data[k] + v if k in data else v
        return SymFunc(self.basis, data)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        c = _as_rat(c)
        return SymFunc(self.basis, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        a = convert(self, "m").coeffs
        b = convert(other, "m").coeffs
        if set(a) != set(b):
            return False
        return all(a[k] == b[k] for k in a)

    def __hash__(self):
        raise TypeError("SymFunc is not hashable")

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("serialize homogeneous components separately")
        deg = degs[0] if degs else 0
        parts = [f"basis={self.basis}", f"deg={deg}"]
        for lam in reverse_lex_sorted(self.coeffs):
            parts.append(f"{partition_text(lam)}->{self.coeffs[lam].to_text()}")
        return "; ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "SymFunc":
        fields = [f.strip() for f in text.split(";")]
        basis = fields[0].split("=", 1)[1]
        coeffs = {}
        for f in fields[2:]:
            if not f:
                continue
            lam_text, _, coeff_text = f.partition("->")
            coeffs[partition_from_text(lam_text)] = RatFunc.from_text(coeff_text)
        return cls(basis, coeffs)

    def __repr__(self):
        if not self.coeffs:
            return f"SymFunc({self.basis}; 0)"
        body = " + ".join(
            f"[{self.coeffs[lam].to_text()}]*{self.basis}{lam}"
            for lam in reverse_lex_sorted(self.coeffs)
        )
        return f"SymFunc({body})"


# ---------------------------------------------------------------------------
# conversions, inner product, omega
# ---------------------------------------------------------------------------

def convert(f: SymFunc, target: str) -> SymFunc:
    if f.basis == target:
        return f
    # to monomial
    if f.basis == "m":
        fm = f
    else:
        data: dict = {}
        for n in f.degrees():
            mat = to_m_matrix(f.basis, n)
            for lam, c in f.component(n).coeffs.items():
                for mu, k in mat[lam].items():
                    add = c * k
                    data[mu] = data[mu] + add if mu in data else add
        fm = SymFunc("m", data)
    if target == "m":
        return fm
    data = {}
    for n in fm.degrees():
        mat = from_m_matrix(target, n)
        for mu, c in fm.component(n).coeffs.items():
            for lam, k in mat[mu].items():
                add = c * k
                data[lam] = data[lam] + add if lam in data else add
    return SymFunc(target, data)


def hall_inner(f: SymFunc, g: SymFunc) -> RatFunc:
    """Hall inner product, via <h_lam, m_mu> = delta."""
    fh = convert(f, "h").coeffs
    gm = convert(g, "m").coeffs
    out = RatFunc.zero()
    for lam, c in fh.items():
        if lam in gm:
            out = out + c * gm[lam]
    return out


def omega(f: SymFunc) -> SymFunc:
    """The involution sending e_lam to h_lam."""
    fe = convert(f, "e")
    return convert(SymFunc("h", fe.coeffs), f.basis)


# ---------------------------------------------------------------------------
# variable expansion and its inverse
# ---------------------------------------------------------------------------

def expand_vars(f: SymFunc, N: int) -> MultiPoly:
    """Expand into x1..xN; requires polynomial (denominator-free) coefficients."""
    fm = convert(f, "m")
    out = MultiPoly.zero()
    for lam, c in fm.coeffs.items():
        if not c.is_poly():
            raise ValueError(f"coefficient of m{lam} is not polynomial: {c.to_text()}")
        out = out + c.as_poly() * _expand_m(lam, N)
    return out


def symmetry_violation(p: MultiPoly, N: int):
    """Index i if p is not invariant under swapping x_i <-> x_(i+1), else None."""
    for i in range(1, N):
        a, b = 4 + i, 5 + i
        swapped = {}
        for k, c in p.terms.items():
            kk = list(k) + [0] * (max(a, b) + 1 - len(k))
            kk[a], kk[b] = kk[b], kk[a]
            n = len(kk)
            while n and kk[n - 1] == 0:
                n -= 1
            swapped[tuple(kk[:n])] = c
        if swapped != p.terms:
            return i
    return None


def from_expansion(p: MultiPoly, N: int, check: bool = True) -> SymFunc:
    """Read a symmetric N-variable expansion back into the monomial basis.

    Raises when the input is not symmetric, naming the violated swap.
    """
    if check:
        i = symmetry_violation(p, N)
        if i is not None:
            raise ValueError(f"expansion not symmetric: swapping x{i} <-> x{i + 1} changes it")
    coeffs: dict = {}
    for k, c in p.terms.items():
        xpart = k[5:]
        lam = sort_to_partition(e for e in xpart if e)
        if xpart != lam:
            continue  # only the sorted representative of each orbit contributes
        qt = k[:5]
        cur = coeffs.setdefault(lam, {})
        cur[qt] = cur.get(qt, 0) + c
    return SymFunc("m", {lam: RatFunc.from_poly(MultiPoly(d)) for lam, d in coeffs.items()})


def qsym_coeff(p: MultiPoly, alpha: tuple) -> MultiPoly:
    """Coefficient of x1^a1 ... xl^al (all other x's absent) in an expansion."""
    alpha = tuple(alpha)
    target = tuple(alpha)
    out = {}
    for k, c in p.terms.items():
        xpart = k[5:]
        if _trim_zeros(xpart) == _trim_zeros(target):
            out[k[:5]] = c
    return MultiPoly(out)


def _trim_zeros(t: tuple) -> tuple:
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


# ---------------------------------------------------------------------------
# plethysm
# ---------------------------------------------------------------------------

def alphabet_from_poly(p: MultiPoly) -> tuple:
    """Turn an integer-coefficient polynomial into a signed monomial alphabet."""
    entries = []
    for k, c in sorted(p.terms.items()):
        if isinstance(c, Fraction):
            raise ValueError("alphabet needs integer multiplicities")
        sign = 1 if c > 0 else -1
        entries.extend([(sign, k)] * abs(c))
    return tuple(entries)


def x_alphabet(N: int) -> tuple:
    """The plain variable alphabet x1 + ... + xN."""
    return tuple((1, _trim_zeros(_x_key((0,) * i + (1,)))) for i in range(N))


def _pk_of_alphabet(alphabet: tuple, k: int) -> MultiPoly:
    """p_k[A]: k-th powers of the signed monomials (sign preserved)."""
    items = {}
    for sign, key in alphabet:
        kk = tuple(e * k for e in key)
        items[kk] = items.get(kk, 0) + sign
    return MultiPoly(items)


def plethysm(f: SymFunc, alphabet):
    """f[A] for an alphabet of signed monic monomials.

    Returns a MultiPoly when the result is polynomial (it always is for the
    uses in this package), otherwise a RatFunc in q,t.
    """
    if isinstance(alphabet, MultiPoly):
        alphabet = alphabet_from_poly(alphabet)
    alphabet = tuple(alphabet)
    fp = convert(f, "p")
    pk_cache: dict = {}

    def pk(k: int) -> MultiPoly:
        if k not in pk_cache:
            pk_cache[k] = _pk_of_alphabet(alphabet, k)
        return pk_cache[k]

    num, den = MultiPoly.zero(), MultiPoly.const(1)
    for lam, c in fp.coeffs.items():
        term = MultiPoly.const(1)
        for part in lam:
            term = term * pk(part)
        num = num * c.den + (c.num * term) * den
        den = den * c.den
    if den.is_constant():
        return num.divexact(den)
    try:
        return num.divexact(den)
    except ValueError:
        if num.vars_used() - {0, 1}:
            raise ValueError("non-polynomial plethysm outside Q(q,t)")
        return RatFunc(num, den)


# ---------------------------------------------------------------------------
# Schur expansion with positivity report
# ---------------------------------------------------------------------------

@dataclass
class PositivityReport:
    positive: bool
    failures: list = field(default_factory=list)


def schur_expand(f: SymFunc):
    """Schur coefficients plus a positivity report.

    A coefficient passes when it reduces to a polynomial in q,t with
    nonnegative coefficients.
    """
    fs = convert(f, "s")
    failures = []
    for lam, c in fs.coeffs.items():
        if not c.is_poly():
            failures.append((lam, f"not a polynomial: {c.to_text()}"))
            continue
        p = c.as_poly()
        if any(v < 0 for v in p.terms.values()):
            failures.append((lam, f"negative coefficient in {p.to_text()}"))
    return dict(fs.coeffs), PositivityReport(not failures, failures)
