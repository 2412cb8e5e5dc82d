"""The polynomial ring F_q[x]: arithmetic, predicates, primes, families.

MonicPoly is the public carrier (monic by construction, coefficients from
degree 0 upward, each an element index of its field).  Internally most
routines work on "index vectors": plain Python lists of element indices
with trailing zeros stripped, driven by a field's dense add/mul tables.
For a prime field the index of a residue is the residue itself, so the hot
paths are pure small-int arithmetic.  The product of two index vectors mod
a third (_iv_mulmod) is also how an extension field multiplies its
elements (ffield.FieldHandle.mul).  Prime factors are found in one way,
_prime_factor: the primes of degree d dividing f are those of
gcd(f, x^(q^d) - x), and is_irreducible and von_mangoldt both read the
least d at which that gcd is not 1.

No symbol is computed here.  The package reads the Jacobi symbol (F/P) at
a prime P from curvezeta's symbol tables, filled from the squares mod P;
this module gives that route the primes of each degree in code order
(_irreducible_ivs) and the reduction of a block of F mod all of them at
once (_residues).  F -> F mod f is F_p-linear in the base-p digits of F's
coefficients, in a prime field and in a tower alike, since an index
sum_j c_j p^j adds digit by digit: _residues multiplies a block's digits
by one float64 matrix per field, moduli and width (_residue_map), takes
each sum mod p by an exact floor, and reads the digits back as indices.
A reciprocity reduction and an Euler-criterion route stay in the tests as
independent references (tests/reference.py), beside a gather on the add
and mul tables for the reduction itself.

Family enumeration is total-ordered: coefficient vectors of monic
square-free polynomials read as base-q integers, degree-0 digit least
significant.  Sampling is rejection from all monic polynomials of the
requested degree: draw i is the first square-free code of its own stream
of codes (_draws), a pure function of (seed, i).  Both modes test
membership on batches of codes with one test (_squarefree_rows): F of
degree gamma is square-free iff no P^2 with 2 deg P <= gamma divides it,
and each batch is reduced mod every such P^2 at once (_residues, the
reduction the character route reads its symbols with).  A family with too
many P^2 for that to pay tests gcd(F, F') = 1 code by code instead, on
Python-int codes, which past SIEVE_MODULI can exceed int64.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import ffield
from .countfast import dense_tables
from .errors import BudgetError, DomainError, PolyParseError
from .ffield import FieldHandle


class MonicPoly:
    """A monic polynomial over a FieldHandle; immutable.

    coeffs holds the element indices of the coefficients, degree 0 first.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldHandle, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1] != 1:
            raise DomainError("leading coefficient must be 1")
        self.field = field
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        if other.field is not self.field:
            raise DomainError("polynomials over different fields")
        return MonicPoly(self.field, _iv_mul(self.coeffs, other.coeffs, self.field))

    def __pow__(self, e: int) -> "MonicPoly":
        result = MonicPoly(self.field, (1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MonicPoly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"MonicPoly({self.field!r}, {list(self.coeffs)})"


# -- text format: comma-separated coefficients, degree 0 first, leading 1 --

def parse_poly(field: FieldHandle, text: str) -> MonicPoly:
    """Parse "c0,c1,...,1" with prime-field coefficients as decimals in [0,p)."""
    parts = [s.strip() for s in text.split(",")]
    indices = []
    for i, part in enumerate(parts):
        try:
            v = int(part)
        except ValueError:
            raise PolyParseError(f"coefficient {i} is not an integer: {part!r}", i) from None
        if not 0 <= v < field.order:
            raise PolyParseError(
                f"coefficient {i} out of range [0, {field.order}): {v}", i)
        indices.append(v)
    if len(indices) < 2:
        raise PolyParseError("need at least two coefficients (degree >= 1)", 0)
    if indices[-1] != 1:
        raise PolyParseError(f"coefficient {len(indices) - 1} (leading) must be 1",
                             len(indices) - 1)
    return MonicPoly(field, indices)


def format_poly(f: MonicPoly, sep: str = ",") -> str:
    return sep.join(map(str, f.coeffs))


# -- index-vector helpers (trailing zeros stripped; [] is the zero poly) --

def _iv(f: MonicPoly) -> list[int]:
    return list(f.coeffs)


def _iv_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _iv_mod(u: list[int], v: list[int], add, mul, neg, n: int) -> list[int]:
    """u mod v in place; v monic (last index 1)."""
    dv = len(v) - 1
    while len(u) > dv:
        c = u.pop()
        if c == 0:
            continue
        base = len(u) - dv
        cn = neg[c]
        for j in range(dv):
            vj = v[j]
            if vj:
                u[base + j] = add[u[base + j] * n + mul[cn * n + vj]]
    return _iv_trim(u)


def _iv_make_monic(u: list[int], mul, inv, n: int) -> int:
    """Scale u monic in place, returning the original leading index."""
    c = u[-1]
    if c != 1:
        ic = inv[c]
        for i, a in enumerate(u):
            if a:
                u[i] = mul[ic * n + a]
    return c


def _iv_gcd(u: list[int], v: list[int], K: FieldHandle) -> list[int]:
    add, mul, inv, _chi, neg = K.tables()
    n = K.order
    u, v = list(u), list(v)
    while v:
        _iv_make_monic(v, mul, inv, n)
        u, v = v, _iv_mod(u, v, add, mul, neg, n)
    if u:
        _iv_make_monic(u, mul, inv, n)
    return u


def _iv_deriv(u: list[int], K: FieldHandle) -> list[int]:
    add, mul, _inv, _chi, _neg = K.tables()
    n = K.order
    p = K.p
    out = []
    for i in range(1, len(u)):
        k = i % p
        ci = u[i]
        if k == 0 or ci == 0:
            out.append(0)
        else:
            out.append(mul[k * n + ci])  # constant k has element index k (< p)
    return _iv_trim(out)


def _iv_mul(a, b, K: FieldHandle) -> list[int]:
    """The product of two index vectors (any sequences of indices)."""
    add, mul = K.tables()[:2]
    n = K.order
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = ai * n
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = add[prod[i + j] * n + mul[row + bj]]
    return prod


def _iv_mulmod(a: list[int], b: list[int], m: list[int], K: FieldHandle) -> list[int]:
    add, mul, _inv, _chi, neg = K.tables()
    return _iv_mod(_iv_mul(a, b, K), m, add, mul, neg, K.order)


def _iv_powmod(a: list[int], e: int, m: list[int], K: FieldHandle) -> list[int]:
    add, mul, _inv, _chi, neg = K.tables()
    n = K.order
    result = [1]
    a = _iv_mod(list(a), m, add, mul, neg, n)
    while e:
        if e & 1:
            result = _iv_mulmod(result, a, m, K)
        a = _iv_mulmod(a, a, m, K)
        e >>= 1
    return result


# -- predicates ------------------------------------------------------------

def is_squarefree(f: MonicPoly) -> bool:
    """gcd(f, f') = 1; equivalent to square-freeness in odd characteristic."""
    if f.degree < 1:
        raise DomainError("degree must be >= 1")
    return _iv_squarefree(_iv(f), f.field)


def is_irreducible(f: MonicPoly) -> bool:
    """No prime factor of degree <= deg f / 2 (_prime_factor)."""
    if f.degree < 1:
        raise DomainError("degree must be >= 1")
    return _prime_factor(_iv(f), f.field, f.degree // 2) is None


def _iv_sub_x(t: list[int], K: FieldHandle) -> list[int]:
    add, _mul, _inv, _chi, neg = K.tables()
    n = K.order
    t = list(t)
    while len(t) < 2:
        t.append(0)
    t[1] = add[t[1] * n + neg[1]]
    return _iv_trim(t)


def _prime_factor(u: list[int], K: FieldHandle, dmax: int) -> tuple[int, list[int]] | None:
    """(d, P) for the least d <= dmax at which u has a prime factor of degree d,
    P the product of its distinct prime factors of that degree; None if it has
    none.  The first step of distinct-degree factorization: the primes of
    degree dividing d are those of gcd(u, x^(q^d) - x)."""
    t = [0, 1]
    for d in range(1, dmax + 1):
        t = _iv_powmod(t, K.order, u, K)
        P = _iv_gcd(u, _iv_sub_x(t, K), K)
        if len(P) > 1:
            return d, P
    return None


def von_mangoldt(f: MonicPoly) -> int:
    """deg P if f = P^k for an irreducible P, else 0."""
    if f.degree < 1:
        raise DomainError("degree must be >= 1")
    d, P = _prime_factor(_iv(f), f.field, f.degree)
    return d if len(P) == d + 1 and MonicPoly(f.field, P) ** (f.degree // d) == f else 0


# base-p residue digits (rows x moduli x degree x digits per element) reduced
# at once: one float64 matrix product's output, small enough to stay in cache
RESIDUE_SUB_BLOCK = 2**14
# a family is sieved by its squares P^2 when it has at most this many.  Each
# widens every row's product, so the sieve's cost per code grows like
# q^(gamma/2) and meets the gcd test's near 250 (2-core x86 host, us per
# code on 2048 codes, sieve against gcd: H_{7,7} has 140 at 5.5 against
# 10.7, H_{13,3} 196 at 12.2 against 22.7, H_{9,5} 205 at 9.0 against 15.3,
# H_{3,241} 241 at 5.0 against 5.2; H_{3,251} 251 at 5.6 against 5.3 and
# H_{5,31} 496 at 13.7 against 9.8).  Every family within it has
# q^gamma <= 243^3 (F_243 at gamma = 3), about 1.4e7, so its codes fit int64.
SIEVE_MODULI = 250
# codes (or draws) of the family walked at once: a block of _members, and a
# chunk of a sweep (sweep.chunk_bounds)
CHUNK = 1024


@functools.lru_cache(maxsize=None)
def _residue_map(K: FieldHandle, mods: tuple, D: int) -> np.ndarray:
    """float64 (D k, len(mods) e k) for |K| = p^k and mods all of degree e: row
    (i, j) holds the base-p digits of p^j (x^i mod f), for each f and each
    coefficient of the residue.  An index sum_j c_j p^j adds digit by digit
    mod p, so F mod f is this map of F's digits, mod p."""
    add, mul, _inv, _chi, neg = dense_tables(K)
    p, n, e = K.p, K.order, len(mods[0]) - 1
    pk = p ** np.arange(K.digits)
    if D * len(pk) * (p - 1) ** 2 >= 2**50:  # pragma: no cover
        raise BudgetError(f"a residue digit past 2^50 is not exact in float64 (p = {p}, D = {D})")
    low = np.array(mods)[:, :e]
    powers = np.zeros((D, len(mods), e + 1), dtype=np.int64)  # x^i mod f, and a carry
    powers[0, :, 0] = 1
    for i in range(1, D):  # x^i = x x^(i-1): shifted up into the carry c, less c (f - x^e)
        powers[i, :, 1:] = powers[i - 1, :, :e]
        powers[i, :, :e] = add[powers[i, :, :e] * n + mul[neg[powers[i, :, e:]] * n + low]]
    digits = mul[pk[:, None, None, None] * n + powers[..., :e]][..., None] // pk % p
    return digits.transpose(1, 0, 2, 3, 4).reshape(D * len(pk), -1).astype(np.float64)


def _residues(K: FieldHandle, rows: np.ndarray, mods: tuple):
    """Reduce each row F of a (B, D) array of K-indices mod each monic f of mods, all of
    degree e: F's base-p digits times _residue_map, each sum a taken mod p as
    a - p floor((a + 1/2) fl(1/p)), exact below 2^50 (the half keeps an exact multiple
    of p off the integer below), and the digits read back as K-indices.  Yields, for
    each sub-block of rows in turn, the (b, len(mods), e) K-indices of each F mod each f."""
    p, e = K.p, len(mods[0]) - 1
    M = _residue_map(K, mods, rows.shape[1])
    k = len(M) // rows.shape[1]
    digits = (rows[..., None] // p ** np.arange(k) % p).reshape(len(rows), -1).astype(np.float64)
    step = max(1, RESIDUE_SUB_BLOCK // M.shape[1])
    for lo in range(0, len(rows), step):
        a = digits[lo:lo + step] @ M
        a -= p * np.floor((a + 0.5) * (1 / p))
        acc = a[:, ::k]
        for j in range(1, k):
            acc += p**j * a[:, j::k]
        yield acc.astype(np.int64).reshape(len(a), len(mods), e)


def _indivisible(K: FieldHandle, rows: np.ndarray, mods: tuple) -> np.ndarray:
    """Whether each row F of a (B, D) array of K-indices is divisible by no f of
    mods (monic, all of one degree)."""
    return np.concatenate([acc.any(axis=-1).all(axis=-1) for acc in _residues(K, rows, mods)])


# -- counting and listing irreducibles --------------------------------------

def _moebius(n: int) -> int:
    ps = ffield._prime_divisors(n)
    return (-1) ** len(ps) if math.prod(ps) == n else 0


@functools.lru_cache(maxsize=None)
def prime_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (Gauss/Moebius)."""
    if n < 1:
        raise DomainError("degree must be >= 1")
    total = 0
    d = 1
    while d <= n:
        if n % d == 0:
            total += _moebius(d) * q ** (n // d)
        d += 1
    return total // n


def _code_iv(code: int, q: int, degree: int) -> list[int]:
    """Indices of the monic polynomial of the given degree numbered `code`."""
    indices = []
    for _ in range(degree):
        code, rem = divmod(code, q)
        indices.append(rem)
    indices.append(1)
    return indices


def _code_rows(codes, q: int, degree: int) -> np.ndarray:
    """(len(codes), degree + 1) int64 rows: the indices of the monic polynomial
    of the given degree numbered by each code; every code must be below 2^63."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.ones((len(codes), degree + 1), dtype=np.int64)
    rows[:, :degree] = codes[:, None] // q ** np.arange(degree) % q
    return rows


@functools.lru_cache(maxsize=None)
def _irreducible_ivs(K: FieldHandle, e: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducibles of degree e over K in code order, sieved by the primes of degree <= e/2."""
    q = K.order
    rows = _code_rows(np.arange(q**e), q, e)
    keep = np.ones(q**e, dtype=bool)
    for d in range(1, e // 2 + 1):
        keep &= _indivisible(K, rows, _irreducible_ivs(K, d))
    out = tuple(map(tuple, rows[keep].tolist()))
    if len(out) != prime_count(q, e):  # pragma: no cover
        raise AssertionError(f"irreducible enumeration disagrees with the "
                             f"Moebius count for q={q}, n={e}")
    return out


# -- the family of monic square-free polynomials ----------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One family H_{gamma,q}: all monic square-free F of degree gamma.

    enumerate mode walks every member once, ordered by the coefficient
    vector read as a base-q integer; sample mode draws `count` members
    uniformly, draw i depending only on (seed, i).
    """

    field: FieldHandle
    gamma: int
    mode: str = "enumerate"
    count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("enumerate", "sample"):
            raise DomainError(f"unknown family mode {self.mode!r}")
        if self.mode == "sample" and (self.count is None or self.count < 1):
            raise DomainError("sample mode needs a positive count")
        if self.mode == "enumerate" and self.count is not None:
            raise DomainError("enumerate mode takes no count")
        if not 0 <= self.seed < 2**64:
            raise DomainError("the seed must lie in [0, 2^64)")


def poly_from_code(K: FieldHandle, code: int, gamma: int) -> MonicPoly:
    return MonicPoly(K, _code_iv(code, K.order, gamma))


def _iv_squarefree(u: list[int], K: FieldHandle) -> bool:
    d = _iv_deriv(list(u), K)
    return bool(d) and len(_iv_gcd(u, d, K)) == 1


@functools.lru_cache(maxsize=None)
def _square_moduli(K: FieldHandle, gamma: int) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
    """The squares P^2 of the monic primes P with 2 deg P <= gamma, one tuple
    per degree of P: F of degree gamma is square-free iff none divides it.
    None when there are more than SIEVE_MODULI of them, and the family is
    tested code by code."""
    degrees = range(1, gamma // 2 + 1)
    if sum(prime_count(K.order, d) for d in degrees) > SIEVE_MODULI:
        return None
    return tuple(tuple(tuple(_iv_mul(P, P, K)) for P in _irreducible_ivs(K, d)) for d in degrees)


def _squarefree_rows(K: FieldHandle, codes, gamma: int, squares) -> tuple[list, list]:
    """(rows, keep) for a batch of codes: the K-indices of each monic F of
    degree gamma, and whether F is square-free.  squares is _square_moduli's:
    the batch is sieved by its P^2 at once, or, when it is None, each
    Python-int code is tested by gcd(F, F') on its own."""
    if squares is None:
        rows = [_code_iv(code, K.order, gamma) for code in codes]
        return rows, [_iv_squarefree(row, K) for row in rows]
    rows = _code_rows(codes, K.order, gamma)
    keep = np.ones(len(rows), dtype=bool)
    for mods in squares:
        keep &= _indivisible(K, rows, mods)
    return rows.tolist(), keep.tolist()


def _draws(spec: FamilySpec, i: int, skip: int = 0):
    """The codes draw i tries in turn, past its first skip; a pure function of (seed, i)."""
    rng = random.Random((spec.seed << 64) | i)
    space = spec.field.order**spec.gamma
    for _ in range(skip):
        rng.randrange(space)
    while True:
        yield rng.randrange(space)


def sample_member(spec: FamilySpec, i: int) -> MonicPoly:
    """Draw i of the sample stream of spec's field, degree and seed, whatever
    its mode; a pure function of (seed, i)."""
    return MonicPoly(spec.field, next(_members(replace(spec, mode="sample", count=i + 1), i)))


def _members(spec: FamilySpec, start: int = 0, stop: int | None = None):
    """The K-indices of each member with code (or draw) in [start, stop), in order.

    One loop for both modes: CHUNK codes or draws at a time, each
    batch tested together by _squarefree_rows.  Enumerate mode keeps the
    codes that pass.  In sample mode every rejected draw takes the next
    code of its own stream, and the rejects are tested together again
    until every draw of the block has its member, so draw i is the first
    square-free code of _draws(spec, i) whatever the block.
    """
    if spec.gamma < 3:
        raise DomainError("family degree must be >= 3")
    K, gamma = spec.field, spec.gamma
    squares = _square_moduli(K, gamma)
    sample = spec.mode == "sample"
    stop = (spec.count if sample else K.order**gamma) if stop is None else stop
    for lo in range(start, stop, CHUNK):
        members = dict.fromkeys(range(lo, min(lo + CHUNK, stop)))
        todo, tried = list(members), 0
        while todo:
            # a pending draw's stream is made anew each round, past the codes it
            # has tried: holding a block's streams, a Random each, costs MBs
            codes = [next(_draws(spec, i, tried)) for i in todo] if sample else todo
            rows, keep = _squarefree_rows(K, codes, gamma, squares)
            members.update((i, row) for i, row, ok in zip(todo, rows, keep) if ok)
            todo = [i for i, ok in zip(todo, keep) if not ok] if sample else ()
            tried += 1
        yield from filter(None, members.values())


def family(spec: FamilySpec, start: int = 0, stop: int | None = None):
    """Deterministic stream of the members with code (or draw) in [start, stop)."""
    K = spec.field
    return (MonicPoly(K, iv) for iv in _members(spec, start, stop))
