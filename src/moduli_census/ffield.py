"""Finite fields F_q of odd order and their extensions.

A field is represented by a FieldHandle.  Elements are stored in a "raw"
form: an integer in [0, p) for a prime field, and a tuple of base-field
raws (coordinates of degree 0 upward) for an extension.  FieldElement is
a thin immutable wrapper pairing a raw with its owning handle; arithmetic
goes through the handle so towers F_q < F_{q^r} work uniformly.

Handles are interned: make_field and extend_field cache on their
arguments, and the defining modulus of an extension is found by a
deterministic search (smallest candidate in coefficient-code order that
passes the polynomial ring's Rabin irreducibility test), so two runs
always build identical fields.

Every handle also numbers its elements 0 .. order-1 (mixed-radix over the
base field's numbering).  For small orders a handle lazily builds dense
index-based add/mul/inverse/character tables from its discrete-log table
(countfast); the polynomial-ring module leans on those for its hot loops.
"""

from __future__ import annotations

import functools

from .errors import (
    BudgetError,
    FieldMismatchError,
    InternalConsistencyError,
    InvalidCharacteristicError,
)

ORDER_BUDGET = 10**7
TABLE_LIMIT = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldHandle:
    """A finite field F_q, q = p^m odd, possibly built as a tower step.

    Immutable after construction; safe to share between workers.
    """

    __slots__ = (
        "p", "base", "modulus", "degree", "order",
        "_zero", "_one", "_tables", "_chi_list",
    )

    def __init__(self, p: int, base: "FieldHandle | None", modulus: tuple, degree: int):
        self.p = p
        self.base = base
        self.modulus = modulus          # () for prime fields
        self.degree = degree            # extension degree over base (1 for prime)
        if base is None:
            self.order = p
            self._zero = 0
            self._one = 1
        else:
            self.order = base.order ** degree
            self._zero = (base._zero,) * degree
            one = [base._zero] * degree
            one[0] = base._one
            self._one = tuple(one)
        self._tables = None
        self._chi_list = None

    # -- raw arithmetic -------------------------------------------------

    @property
    def zero_raw(self):
        return self._zero

    @property
    def one_raw(self):
        return self._one

    def add_raw(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        ba = self.base.add_raw
        return tuple(ba(x, y) for x, y in zip(a, b))

    def sub_raw(self, a, b):
        if self.base is None:
            return (a - b) % self.p
        bs = self.base.sub_raw
        return tuple(bs(x, y) for x, y in zip(a, b))

    def neg_raw(self, a):
        if self.base is None:
            return (-a) % self.p
        bn = self.base.neg_raw
        return tuple(bn(x) for x in a)

    def mul_raw(self, a, b):
        if self.base is None:
            return (a * b) % self.p
        base = self.base
        r = self.degree
        prod = [base._zero] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai == base._zero:
                continue
            for j, bj in enumerate(b):
                prod[i + j] = base.add_raw(prod[i + j], base.mul_raw(ai, bj))
        # reduce modulo the (monic) defining polynomial
        mod = self.modulus
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c == base._zero:
                continue
            prod[k] = base._zero
            for j in range(r):
                prod[k - r + j] = base.sub_raw(prod[k - r + j], base.mul_raw(c, mod[j]))
        return tuple(prod[:r])

    def pow_raw(self, a, e: int):
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        result = self._one
        while e:
            if e & 1:
                result = self.mul_raw(result, a)
            a = self.mul_raw(a, a)
            e >>= 1
        return result

    def inv_raw(self, a):
        if a == self._zero:
            raise ZeroDivisionError("inverse of zero field element")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        # a^(q-2); extensions are small enough that this beats ext-gcd
        return self.pow_raw(a, self.order - 2)

    def chi_raw(self, a) -> int:
        """Quadratic character: 0 on zero, +1 on squares, -1 otherwise."""
        if a == self._zero:
            return 0
        if self._chi_list is not None:
            return self._chi_list[self.index_of_raw(a)]
        r = self.pow_raw(a, (self.order - 1) // 2)
        return 1 if r == self._one else -1

    # -- element numbering ----------------------------------------------

    def index_of_raw(self, a) -> int:
        if self.base is None:
            return a
        base = self.base
        idx = 0
        for comp in reversed(a):
            idx = idx * base.order + base.index_of_raw(comp)
        return idx

    def raw_of_index(self, idx: int):
        if self.base is None:
            return idx
        base = self.base
        comps = []
        for _ in range(self.degree):
            idx, rem = divmod(idx, base.order)
            comps.append(base.raw_of_index(rem))
        return tuple(comps)

    def element(self, k: int) -> "FieldElement":
        """The image of the integer k under Z -> F_q (constant element)."""
        if self.base is None:
            return FieldElement(self, k % self.p)
        raw = list(self._zero)
        raw[0] = self.base.element(k).raw
        return FieldElement(self, tuple(raw))

    def embed_raw(self, a):
        """Embed a base-field raw as a constant of this extension."""
        if self.base is None:
            raise FieldMismatchError("prime field has no proper base field")
        raw = list(self._zero)
        raw[0] = a
        return tuple(raw)

    def embed(self, a: "FieldElement") -> "FieldElement":
        if a.field is not self.base:
            raise FieldMismatchError("element does not belong to the base field")
        return FieldElement(self, self.embed_raw(a.raw))

    def elements(self):
        """All elements in index order."""
        return [FieldElement(self, self.raw_of_index(i)) for i in range(self.order)]

    # -- dense tables for small fields ------------------------------------

    def tables(self):
        """(add, mul, inv, chi, neg) tables on element indices; small fields only.

        add/mul are flat lists indexed by a*order+b; inv[0] is unused.
        """
        if self._tables is None:
            if self.order > TABLE_LIMIT:
                raise BudgetError(f"field of order {self.order} exceeds table limit")
            from .countfast import dense_tables  # built from the field's discrete logs

            self._tables = dense_tables(self)
            self._chi_list = self._tables[3]
        return self._tables

    def __repr__(self):
        if self.base is None:
            return f"F_{self.p}"
        return f"F_{self.order}({self.base!r}[x]/deg{self.degree})"


class FieldElement:
    """An element of a FieldHandle, kept in canonical reduced form."""

    __slots__ = ("field", "raw")

    def __init__(self, field: FieldHandle, raw):
        self.field = field
        self.raw = raw

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            if isinstance(other, int):
                return self.field.element(other)
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatchError("elements from different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_raw(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_raw(self.raw, other.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_raw(self.raw))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_raw(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_raw(self.raw, self.field.inv_raw(other.raw)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_raw(self.raw, e))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.raw == self.raw
        )

    def __hash__(self):
        return hash((id(self.field), self.raw))

    @property
    def index(self) -> int:
        return self.field.index_of_raw(self.raw)

    def is_zero(self) -> bool:
        return self.raw == self.field.zero_raw

    def __repr__(self):
        return f"<{self.raw} in {self.field!r}>"


def _prime_divisors(n: int) -> list[int]:
    ds = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ds.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        ds.append(n)
    return ds


def _least_irreducible(K: FieldHandle, degree: int) -> tuple:
    """The first monic irreducible of this degree in coefficient-code order."""
    from .polyring import _iv_irreducible  # the one Rabin test, on element indices

    q = K.order
    for code in range(q**degree):
        iv = [code // q**i % q for i in range(degree)] + [1]
        if _iv_irreducible(iv, K):
            return tuple(K.raw_of_index(i) for i in iv)
    raise InternalConsistencyError(  # pragma: no cover
        f"no irreducible of degree {degree} over order {K.order}")


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FieldHandle:
    """F_{p^m} for an odd prime p; deterministic modulus for m > 1."""
    if p % 2 == 0 or not _is_prime(p):
        raise InvalidCharacteristicError(f"characteristic must be an odd prime, got {p}")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p**m > ORDER_BUDGET:
        raise BudgetError(f"field order {p}^{m} exceeds budget {ORDER_BUDGET}")
    if m == 1:
        return FieldHandle(p, None, (), 1)
    prime = make_field(p, 1)
    modulus = _least_irreducible(prime, m)
    return FieldHandle(p, prime, modulus, m)


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


def quadratic_character(K: FieldHandle, a: FieldElement) -> int:
    """Legendre symbol on K: +1 for nonzero squares, -1 otherwise, 0 at 0."""
    if a.field is not K:
        raise FieldMismatchError("element does not belong to the given field")
    return K.chi_raw(a.raw)
