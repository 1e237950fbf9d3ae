"""Modified Macdonald polynomials and the Delta eigenoperators.

H-tilde is built from the combinatorial filling formula (fillings of the
French-notation diagram weighted by q^inv t^maj).  That construction is an
implementation choice, so every computed expansion must pass a validation
battery built from independently-stated identities (coefficient symmetry,
the hook inner products <H_mu, s_(k+1,1^...)> = e_...[B_mu - 1], and the
degree-2 expansion of e_2) before it is cached or used.

Delta operators act diagonally on the H basis: expand the argument once by
the star pairing, checked by exact back-substitution against the cached
monomial expansions, then scale each coefficient by the plethystic
eigenvalue f[B_mu] (or f[B_mu - 1]).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile
from functools import lru_cache

from .config import ENV_CACHE_DIR
from .partitions import (
    check_partition,
    conjugate,
    hook,
    partition_from_text,
    partition_text,
    partitions,
    reverse_lex_sorted,
)
from .poly import MultiPoly, ONE, Q, RatFunc, poly_gcd_qt, qint
from .symfunc import (
    SymFunc,
    alphabet_from_poly,
    convert,
    from_expansion,
    hall_inner,
    plethysm,
)


class MacdonaldError(Exception):
    """A validation-battery failure or a corrupted cache file."""


# ---------------------------------------------------------------------------
# diagram statistics
# ---------------------------------------------------------------------------

def cells(mu: tuple) -> tuple:
    """Cells (row, col) of the French-notation diagram, row 0 at the bottom."""
    return tuple((r, c) for r, part in enumerate(mu) for c in range(part))


def arm(mu: tuple, cell: tuple) -> int:
    r, c = cell
    return mu[r] - c - 1


def leg(mu: tuple, cell: tuple) -> int:
    r, c = cell
    return conjugate(mu)[c] - r - 1


def bmu(mu: tuple) -> MultiPoly:
    """B_mu(q,t) = sum over cells of q^coarm t^coleg."""
    mu = check_partition(mu)
    if not mu:
        raise ValueError("bmu of the empty partition")
    return MultiPoly((((c, r), 1) for r, c in cells(mu)))


def tmu(mu: tuple) -> MultiPoly:
    """T_mu(q,t): the product of the B_mu monomials."""
    mu = check_partition(mu)
    qe = sum(c for _, c in cells(mu))
    te = sum(r for r, _ in cells(mu))
    return MultiPoly.monomial((qe, te))


# ---------------------------------------------------------------------------
# the filling formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shape_data(mu: tuple):
    """Reading order, attack pairs, descent targets, arms and legs for mu."""
    # Reading order: rows top to bottom, cells left to right.
    order = [(r, c) for r in range(len(mu) - 1, -1, -1) for c in range(mu[r])]
    index = {cell: i for i, cell in enumerate(order)}
    n = len(order)
    attack = []
    for i in range(n):
        ri, ci = order[i]
        for j in range(i + 1, n):
            rj, cj = order[j]
            # Same row, or adjacent rows with the upper cell strictly right
            # of the lower one; reading order visits the upper row first.
            # (The battery pinned this chirality: the mirrored rule fails
            # content symmetry already at shape (2,1).)
            if ri == rj or (ri == rj + 1 and ci > cj):
                attack.append((i, j))
    below = []
    for i, (r, c) in enumerate(order):
        below.append(index[(r - 1, c)] if r >= 1 else -1)
    legp1 = [leg(mu, cell) + 1 for cell in order]
    arms = [arm(mu, cell) for cell in order]
    return order, tuple(attack), tuple(below), tuple(legp1), tuple(arms)


def _filling_weight(vals: tuple, attack, below, legp1, arms) -> tuple:
    """(inv, maj) of one filling given in reading order."""
    maj = 0
    armsum = 0
    for i, b in enumerate(below):
        if b >= 0 and vals[i] > vals[b]:
            maj += legp1[i]
            armsum += arms[i]
    inv = -armsum
    for i, j in attack:
        if vals[i] > vals[j]:
            inv += 1
    return inv, maj


def htilde_raw(mu: tuple, progress: bool = False) -> dict:
    """Coefficient of x^content for every content vector in {1..n}^n.

    Returns {content tuple (length n): MultiPoly in q,t}.  Enumerating all
    contents (not just partitions) is what lets the battery check that the
    filling formula really is symmetric.
    """
    mu = check_partition(mu)
    n = sum(mu)
    _, attack, below, legp1, arms = _shape_data(mu)
    out: dict = {}
    total = n ** n
    step = max(1, total // 8)
    for count, vals in enumerate(itertools.product(range(1, n + 1), repeat=n)):
        if progress and count % step == 0:
            print(f"  htilde{mu}: filling {count}/{total}", file=sys.stderr)
        inv, maj = _filling_weight(vals, attack, below, legp1, arms)
        content = [0] * n
        for v in vals:
            content[v - 1] += 1
        key = tuple(content)
        bucket = out.setdefault(key, {})
        bucket[(inv, maj)] = bucket.get((inv, maj), 0) + 1
    return {k: MultiPoly(v) for k, v in out.items()}


def _htilde_from_contents(mu: tuple, contents: dict) -> SymFunc:
    n = sum(mu)
    coeffs = {}
    for lam in partitions(n):
        key = tuple(lam) + (0,) * (n - len(lam))
        c = contents.get(key, MultiPoly.zero())
        if not c.is_zero():
            coeffs[lam] = RatFunc.from_poly(c)
    return SymFunc("m", coeffs)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def validate_htilde_symmetry(mu: tuple, contents: dict) -> None:
    n = sum(mu)
    for content, coeff in contents.items():
        sorted_key = tuple(sorted(content, reverse=True))
        if contents.get(sorted_key, MultiPoly.zero()) != coeff:
            raise MacdonaldError(
                f"htilde{mu}: coefficient at content {content} differs from "
                f"its sorted representative; filling formula not symmetric"
            )


def validate_htilde_inner_products(mu: tuple, h: SymFunc) -> None:
    m = sum(mu)
    b_minus_one = alphabet_from_poly(bmu(mu) - ONE)
    for k in range(m):
        lhs = hall_inner(h, SymFunc.s(hook(k, m)))
        rhs = plethysm(SymFunc.e(m - k - 1), b_minus_one)
        if lhs != RatFunc.from_poly(rhs):
            raise MacdonaldError(
                f"htilde{mu}: <H, s_{hook(k, m)}> = {lhs.to_text()} but "
                f"e_{m - k - 1}[B_mu - 1] = {rhs.to_text()}"
            )


def validate_degree(n: int, table: dict) -> None:
    """Degree-wide battery items (runs after all shapes of degree n exist)."""
    if n == 2:
        tq = RatFunc(ONE, MultiPoly.var("t") - Q)
        e2 = SymFunc("m", {k: v * tq for k, v in table[(1, 1)].coeffs.items()})
        e2 = e2 + SymFunc("m", {k: v * (-tq) for k, v in table[(2,)].coeffs.items()})
        if e2 != SymFunc.e(2):
            raise MacdonaldError("degree-2 battery: (H_11 - H_2)/(t-q) != e_2")


def validate_loaded_degree(n: int, table: dict, source: str) -> None:
    """The checks a degree read back from disk passes before any use.

    A file whose checksum matches may still hold the wrong table: shapes
    missing, a rational coefficient, or q and t swapped.  The H-expansion
    sums need every shape of degree n with polynomial coefficients, and the
    hook inner products pin the q, t convention of each shape.
    """
    if set(table) != set(partitions(n)):
        missing = sorted(set(partitions(n)) - set(table))
        extra = sorted(set(table) - set(partitions(n)))
        raise MacdonaldError(
            f"{source}: shapes differ from the partitions of {n} "
            f"(missing {missing}, unexpected {extra})"
        )
    for mu, h in table.items():
        if h.basis != "m" or not all(c.is_poly() for c in h.coeffs.values()):
            raise MacdonaldError(
                f"{source}: htilde{mu} is not a monomial expansion with "
                f"polynomial coefficients"
            )
        try:
            validate_htilde_inner_products(mu, h)
        except MacdonaldError as exc:
            raise MacdonaldError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class MacdonaldCache:
    """Monomial expansions of H-tilde, kept per degree, persisted to disk.

    Files are one per degree (htilde_<n>.txt) with a trailing checksum line;
    rebuilding a degree always reproduces the same bytes.  A file read back
    must also pass validate_loaded_degree before any use.  Values derived
    from the tables (expansions, pairing tables, Delta images) are memoized
    through memo() under tagged-tuple keys.
    """

    def __init__(self, directory: str | None = None, progress: bool = False):
        self.directory = directory
        self.progress = progress
        self._mem: dict = {}
        self._memo: dict = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    # -- public API ------------------------------------------------------------

    def degree(self, n: int) -> dict:
        if n not in self._mem:
            table = self._load(n) if self.directory else None
            if table is None:
                table = self._build(n)
                if self.directory:
                    self._store(n, table)
            self._mem[n] = table
        return self._mem[n]

    def htilde(self, mu: tuple) -> SymFunc:
        mu = check_partition(mu)
        return self.degree(sum(mu))[mu]

    def memo(self, key: tuple, compute):
        """The value stored under key, computed by compute() on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- build -------------------------------------------------------------------

    def _build(self, n: int) -> dict:
        table = {}
        for mu in partitions(n):
            if self.progress:
                print(f"building htilde{mu}", file=sys.stderr)
            contents = htilde_raw(mu, progress=self.progress)
            validate_htilde_symmetry(mu, contents)
            h = _htilde_from_contents(mu, contents)
            validate_htilde_inner_products(mu, h)
            table[mu] = h
        validate_degree(n, table)
        return table

    # -- persistence ---------------------------------------------------------------

    def _path(self, n: int) -> str:
        return os.path.join(self.directory, f"htilde_{n}.txt")

    def _store(self, n: int, table: dict) -> None:
        lines = [
            f"{partition_text(mu)}|{table[mu].to_text()}"
            for mu in reverse_lex_sorted(table)
        ]
        body = "\n".join(lines) + "\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        data = body + f"checksum={digest}\n"
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".htilde_{n}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, self._path(n))
        except BaseException:
            os.unlink(tmp)
            raise

    def _load(self, n: int):
        path = self._path(n)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        if not lines or not lines[-1].startswith("checksum="):
            raise MacdonaldError(f"cache file {path} has no checksum line")
        body = "\n".join(lines[:-1]) + "\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        if lines[-1] != f"checksum={digest}":
            raise MacdonaldError(f"cache file {path} is corrupted (checksum mismatch)")
        table = {}
        try:
            for line in lines[:-1]:
                mu_text, _, body_text = line.partition("|")
                table[partition_from_text(mu_text)] = SymFunc.from_text(body_text)
        except (ValueError, IndexError, ArithmeticError) as exc:
            raise MacdonaldError(f"cache file {path} is unreadable: {exc}") from exc
        validate_loaded_degree(n, table, path)
        return table


_DEFAULT_CACHE: MacdonaldCache | None = None


def default_cache() -> MacdonaldCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = MacdonaldCache(os.environ.get(ENV_CACHE_DIR))
    return _DEFAULT_CACHE


def _cache_or_default(cache) -> MacdonaldCache:
    return cache if cache is not None else default_cache()


# ---------------------------------------------------------------------------
# expansion in the H basis (star pairing, checked by back-substitution)
# ---------------------------------------------------------------------------

def expand_in_htilde(f: SymFunc, cache: MacdonaldCache | None = None) -> dict:
    """Coefficients c_mu with f = sum c_mu H_mu, one degree at a time.

    Pairs f against the twisted dual basis omega(H_mu[X(1-q)(1-t)]) and
    divides by <H_mu, dual>; the result is verified by exact
    back-substitution, and a failure raises MacdonaldError.
    """
    cache = _cache_or_default(cache)
    fm = convert(f, "m")
    out: dict = {}
    for n in fm.degrees():
        comp = fm.component(n)
        if n == 0:
            out[()] = comp.coeffs.get((), RatFunc.zero())
            continue
        out.update(cache.memo(("hexp", comp.to_text()),
                              lambda: _star_expand_degree(n, comp, cache)))
    return {mu: c for mu, c in out.items() if not c.is_zero()}


def _zee(lam: tuple) -> int:
    out = 1
    mult: dict = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part ** m
        for i in range(1, m + 1):
            out *= i
    return out


def _dual_basis(n: int, cache: MacdonaldCache) -> tuple:
    """The star-pairing table of degree n: ({lam: {mu: g_mu[lam]}}, {mu: d_mu}).

    The twist X -> X(1-q)(1-t) followed by omega is diagonal on power sums:
    p_lam picks up (-1)^(|lam|-len(lam)) prod (1-q^part)(1-t^part), so the
    dual basis never needs a variable expansion.  g_mu[lam] is z_lam times
    that factor times the p_lam coefficient of H_mu, so the pairing of
    f = sum f_lam p_lam with the dual of H_mu is sum_lam f_lam g_mu[lam], and
    d_mu = <H_mu, dual>.  Every entry is a polynomial.
    """
    def build():
        twist = {}
        for lam in partitions(n):
            w = MultiPoly.const(_zee(lam) * (-1) ** (n - len(lam)))
            for part in lam:
                qp, tp = MultiPoly.monomial((part,)), MultiPoly.monomial((0, part))
                w = w * (ONE - qp) * (ONE - tp)
            twist[lam] = w
        rows: dict = {}
        dens = {}
        for mu, h in cache.degree(n).items():
            d = MultiPoly.zero()
            for lam, c in convert(h, "p").coeffs.items():
                hp = c.as_poly()
                g = hp * twist[lam]
                rows.setdefault(lam, {})[mu] = RatFunc.from_poly(g)
                d = d + hp * g
            if d.is_zero():
                raise MacdonaldError("degenerate star pairing (corrupted cache?)")
            dens[mu] = d
        return rows, dens

    return cache.memo(("dual", n), build)


def _star_expand_degree(n: int, fm: SymFunc, cache: MacdonaldCache) -> dict:
    rows, dens = _dual_basis(n, cache)
    nums, den = _h_sum(convert(fm, "p").coeffs, lambda lam: rows.get(lam, {}))
    sol = {mu: RatFunc(nums[mu], den * d) for mu, d in dens.items() if mu in nums}
    # Exact back-substitution guard.  The H_mu are orthogonal under the star
    # pairing, so with a correct table the pairing expands every f exactly;
    # a failure means the table is wrong, e.g. changed after validation.
    table = cache.degree(n)
    nums, den = _h_sum(sol, lambda mu: table[mu].coeffs)
    target = fm.coeffs
    if set(nums) != set(target) or any(
        nums[lam] * c.den != c.num * den for lam, c in target.items()
    ):
        raise MacdonaldError(f"degree {n}: H-expansion fails back-substitution "
                             f"(corrupted cache?)")
    return sol


def _h_sum(coeffs: dict, row) -> tuple:
    """sum_mu c_mu * row(mu) over one common denominator.

    row(mu) is a {key: RatFunc} table with polynomial entries: the monomial
    expansion of H_mu, one pairing-table entry, or (keyed by lam) the
    star-pairing entries g_mu[lam] of every mu.  Returns (nums, L) with
    sum_mu c_mu * row(mu)[key] = nums[key] / L for every key, zero numerators
    dropped.  L is the lcm of the denominators of the c_mu that contribute,
    so the sum runs in polynomial arithmetic: gcds are taken only to build
    L, never per term.
    """
    rows = [(c, row(mu)) for mu, c in coeffs.items()]
    rows = [(c, r) for c, r in rows if r]
    den = ONE
    # In the c_mu order: the cost of poly_gcd_qt depends on its operands,
    # and taking the same lcm in set order made it 6x slower at n = 5.
    for d in dict.fromkeys(c.den for c, _ in rows):
        den = den * d.divexact(poly_gcd_qt(den, d))
    nums: dict = {}
    for c, r in rows:
        scale = c.num * den.divexact(c.den)
        for key, v in r.items():
            if not v.is_poly():
                raise ValueError(f"H-expansion sum: entry {key} is not a polynomial")
            add = scale * v.num
            nums[key] = nums[key] + add if key in nums else add
    return {key: v for key, v in nums.items() if not v.is_zero()}, den


def from_h_expansion(coeffs: dict, cache: MacdonaldCache | None = None) -> SymFunc:
    """sum c_mu H_mu in the monomial basis; c_() is the constant term."""
    cache = _cache_or_default(cache)
    one = SymFunc.one().coeffs
    nums, den = _h_sum(coeffs, lambda mu: cache.htilde(mu).coeffs if mu else one)
    return SymFunc("m", {lam: RatFunc(num, den) for lam, num in nums.items()})


# ---------------------------------------------------------------------------
# Delta operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eigenvalue_elem(basis: str, lam: tuple, mu: tuple, prime: bool) -> RatFunc:
    if mu == ():
        # B_mu is empty; f[0] keeps only f's degree-0 part.
        val = plethysm(SymFunc.elem(basis, lam), ())
    else:
        b = bmu(mu) - ONE if prime else bmu(mu)
        val = plethysm(SymFunc.elem(basis, lam), alphabet_from_poly(b))
    return RatFunc.from_poly(val)


def _eigenvalue(f: SymFunc, mu: tuple, prime: bool) -> RatFunc:
    out = RatFunc.zero()
    for lam, c in f.coeffs.items():
        out = out + c * _eigenvalue_elem(f.basis, lam, mu, prime)
    return out


def delta_h(f: SymFunc, hcoeffs: dict, prime: bool = False) -> dict:
    """Scale an H-expansion by the eigenvalues f[B_mu] (or f[B_mu - 1])."""
    out = {}
    for mu, c in hcoeffs.items():
        v = c * _eigenvalue(f, mu, prime)
        if not v.is_zero():
            out[mu] = v
    return out


def delta(f: SymFunc, g: SymFunc, cache: MacdonaldCache | None = None,
          prime: bool = False) -> SymFunc:
    """Delta_f g (or Delta'_f g with prime=True) in the monomial basis."""
    cache = _cache_or_default(cache)
    hc = expand_in_htilde(g, cache)
    return from_h_expansion(delta_h(f, hc, prime), cache)


def delta_prime(f: SymFunc, g: SymFunc, cache: MacdonaldCache | None = None) -> SymFunc:
    return delta(f, g, cache, prime=True)


def nabla(g: SymFunc, cache: MacdonaldCache | None = None) -> SymFunc:
    """nabla = Delta_{e_n} on the degree-n component."""
    cache = _cache_or_default(cache)
    out = SymFunc.zero("m")
    for n in g.degrees():
        out = out + delta(SymFunc.e(n), g.component(n), cache)
    return out


def delta_identity_check(n: int, k: int, cache: MacdonaldCache | None = None) -> bool:
    """Delta_{e_k} e_n = Delta'_{e_k} e_n + Delta'_{e_(k-1)} e_n; zero for k > n.

    Compared coefficientwise in the H basis, which is exact equality of the
    symmetric functions since the basis expansions are linearly independent.
    """
    cache = _cache_or_default(cache)
    hc = expand_in_htilde(SymFunc.e(n), cache)
    ek, ek1 = SymFunc.e(k), SymFunc.e(k - 1)
    lhs = delta_h(ek, hc, prime=False)
    rhs_a = delta_h(ek, hc, prime=True)
    rhs_b = delta_h(ek1, hc, prime=True)
    if k > n:
        return not lhs and not rhs_b
    mus = set(lhs) | set(rhs_a) | set(rhs_b)
    zero = RatFunc.zero()
    return all(
        lhs.get(mu, zero) == rhs_a.get(mu, zero) + rhs_b.get(mu, zero) for mu in mus
    )


def h_inner_table(n: int, g: SymFunc, cache: MacdonaldCache | None = None) -> dict:
    """{mu: <H_mu, g>} for mu of size n; lets checks pair H-expansions cheaply."""
    cache = _cache_or_default(cache)
    return {mu: hall_inner(h, g) for mu, h in cache.degree(n).items()}


def hexp_inner(hcoeffs: dict, table: dict) -> RatFunc:
    """<sum c_mu H_mu, g> given the precomputed pairing table.

    The table's entries <H_mu, g> must be polynomials, as they are for the
    Schur-positive g the checks pair against; shapes missing from the
    table pair to zero.
    """
    nums, den = _h_sum(hcoeffs, lambda mu: {(): table[mu]} if mu in table else {})
    return RatFunc(nums[()], den) if nums else RatFunc.zero()


# ---------------------------------------------------------------------------
# the t = 1/q closed form
# ---------------------------------------------------------------------------

def qint_alphabet(n: int) -> tuple:
    """[n]_q as the alphabet 1 + q + ... + q^(n-1)."""
    return tuple((1, (j,)) for j in range(n))


def x_qint_alphabet(N: int, k_plus_1: int) -> tuple:
    """X * [k+1]_q as the alphabet {x_i q^j : i <= N, j <= k}."""
    out = []
    for i in range(1, N + 1):
        for j in range(k_plus_1):
            key = (j, 0, 0, 0, 0) + (0,) * (i - 1) + (1,)
            out.append((1, key))
    return tuple(out)


def delta_t_recip(f: SymFunc, n: int, N: int | None = None) -> SymFunc:
    """Closed form for Delta_f e_n at t = 1/q, as an N-variable symmetric function.

    f must be homogeneous of degree k >= 1; the result is
    f[[n]_q] * e_n[X [k+1]_q] / (q^(k(n-1)) [k+1]_q).
    """
    k = f.degree()
    if k < 1:
        raise ValueError("need deg f >= 1")
    if N is None:
        N = n
    scal_num = plethysm(f, qint_alphabet(n))
    scal = RatFunc(scal_num, MultiPoly.monomial((k * (n - 1),)) * qint(k + 1))
    body = plethysm(SymFunc.e(n), x_qint_alphabet(N, k + 1))
    return from_expansion(body, N).scale(scal)


def specialize_symfunc_t_recip(f: SymFunc) -> SymFunc:
    """Substitute t -> 1/q in every coefficient."""
    binding = {"t": RatFunc(ONE, Q)}
    return f.map_coeffs(lambda c: c.subs(binding))
