"""Finite fields F_q of odd order and their extensions.

A field is represented by a FieldHandle, and an element by its index in
0 .. order-1.  A prime field numbers its residues as themselves.  An
extension E = K[y]/(m) numbers the element sum_i c_i y^i as sum_i c_i q^i,
q = |K|, with c_i the K-index of each coordinate (degree 0 least
significant), so an element of K keeps its index in E.  Two elements of E
multiply as polynomials mod m over K's dense tables (FieldHandle.mul).

Handles are interned: make_field and extend_field cache on their
arguments, make_field(p, m) is extend_field(make_field(p), m), and the
defining modulus of an extension is found by a deterministic search
(smallest candidate in coefficient-code order that the polynomial ring's
is_irreducible accepts), so two runs always build identical fields.

A field of order at most TABLE_LIMIT has dense index-based add/mul/
inverse/character/negation tables, built once per field as numpy arrays
from its discrete-log table (countfast.dense_tables); the handle keeps them
as lists (tables()) for the scalar loops of the polynomial ring.
"""

from __future__ import annotations

import functools

from .errors import BudgetError, InternalConsistencyError, InvalidCharacteristicError

ORDER_BUDGET = 10**7
TABLE_LIMIT = 4096


class FieldHandle:
    """A finite field F_q, q = p^m odd, possibly built as a tower step.

    Immutable after construction; safe to share between workers.
    """

    __slots__ = ("p", "base", "modulus", "degree", "order", "digits", "_tables")

    def __init__(self, p: int, base: "FieldHandle | None", modulus: tuple[int, ...], degree: int):
        self.p = p
        self.base = base
        self.modulus = modulus          # base indices of the monic modulus; () for prime fields
        self.degree = degree            # extension degree over base (1 for prime)
        self.order = p if base is None else base.order**degree
        self.digits = 1 if base is None else base.digits * degree  # order = p^digits
        self._tables = None

    def mul(self, a: int, b: int) -> int:
        """The product of two element indices."""
        if self.base is None:
            return a * b % self.p
        from .polyring import _iv_mulmod  # the one product mod m, on the base's tables

        q = self.base.order
        a, b = ([x // q**i % q for i in range(self.degree)] for x in (a, b))
        prod = _iv_mulmod(a, b, list(self.modulus), self.base)
        return sum(c * q**i for i, c in enumerate(prod))

    def tables(self):
        """(add, mul, inv, chi, neg) tables on element indices as lists, for
        the scalar routines; small fields only (countfast.dense_tables).

        add/mul are flat lists indexed by a*order+b; inv[0] is unused.
        """
        if self._tables is None:
            from .countfast import dense_tables  # built from the field's discrete logs

            self._tables = tuple(t.tolist() for t in dense_tables(self))
        return self._tables

    def __repr__(self):
        if self.base is None:
            return f"F_{self.p}"
        return f"F_{self.order}({self.base!r}[x]/deg{self.degree})"


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for n < 2."""
    ds = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ds.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        ds.append(n)
    return ds


def _least_irreducible(K: FieldHandle, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of this degree in coefficient-code order."""
    from .polyring import MonicPoly, _code_iv, is_irreducible

    for code in range(K.order**degree):
        iv = _code_iv(code, K.order, degree)
        if is_irreducible(MonicPoly(K, iv)):
            return tuple(iv)
    raise InternalConsistencyError(  # pragma: no cover
        f"no irreducible of degree {degree} over order {K.order}")


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FieldHandle:
    """F_{p^m} for an odd prime p: extend_field(make_field(p), m) for m > 1.

    An odd p with p^m past ORDER_BUDGET is refused as a budget error before
    the trial division that tells whether p is prime."""
    if p % 2 and p**m > ORDER_BUDGET:
        raise BudgetError(f"field order {p}^{m} exceeds budget {ORDER_BUDGET}")
    if p % 2 == 0 or _prime_divisors(p) != [p]:
        raise InvalidCharacteristicError(f"characteristic must be an odd prime, got {p}")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return FieldHandle(p, None, (), 1)
    return extend_field(make_field(p), m)


@functools.lru_cache(maxsize=None)
def extend_field(base: FieldHandle, r: int) -> FieldHandle:
    """Degree-r extension of `base` with the canonical embedding; r=1 is base."""
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if r == 1:
        return base
    if base.order**r > ORDER_BUDGET:
        raise BudgetError(f"field order {base.order}^{r} exceeds budget {ORDER_BUDGET}")
    modulus = _least_irreducible(base, r)
    return FieldHandle(base.p, base, modulus, r)
