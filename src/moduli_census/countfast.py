"""Affine character sums sum_x chi(F(x)) over F_{q^r} from discrete-log tables.

Each field E = extend_field(K, r), K = F_q prime or a tower step, gets one
table built from its smallest-index primitive element g (Lidl &
Niederreiter, Finite Fields, ch. 9): the base-p digit rows of g^k, built
in numpy by repeated doubling of the F_p-linear map "multiply by g^(2^j)";
the log of every element index, so chi(y) = (-1)^log(y); and the orbits of
Frobenius k -> q k mod (Q - 1).  Digit rows add mod p like field elements,
and an element of K keeps its index in E, so c_i x^i at x = g^k is
antilog[log c_i + i k].  F has coefficients in K, so chi(F(x)) is constant
on Frobenius orbits: the sum over E* visits one x per orbit, about Q / r
of them, weighted by orbit size; x = 0 adds chi(c_0).

There is one kernel, LogTable.chi_sums, for a block of polynomials of one
degree: a (B, D) array of K-indices in, B character sums out.  Zero has
its own log, 2 (Q - 1), which points past the doubled antilog table into
Q - 1 rows of zero digits, so every row gathers steps + log c alike, with
no per-polynomial term filtering.  The rows are gathered and digit-summed
in sub-blocks of about SUB_BLOCK exponents, so the transient arrays stay
under 1 MB whatever B is.  While a digit sum fits a byte (D (p - 1) <
256), the 8 digit bytes of a padded row add as one uint64 word.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalConsistencyError
from .ffield import FieldHandle, _prime_divisors, extend_field, make_field

SUB_BLOCK = 2**15  # exponents (rows x coefficients x orbits) gathered at once


def _primitive_element(E: FieldHandle):
    """The generator of E* with the smallest element index."""
    n = E.order - 1
    exps = [n // ell for ell in _prime_divisors(n)]
    for i in range(2, E.order):
        g = E.raw_of_index(i)
        if all(E.pow_raw(g, e) != E.one_raw for e in exps):
            return g
    raise InternalConsistencyError(f"no primitive element in {E!r}")  # pragma: no cover


class LogTable:
    """Discrete-log tables and Frobenius orbits of E = extend_field(K, r)."""

    __slots__ = ("p", "Q", "pvec", "antilog", "log", "chi", "reps", "sizes", "_steps")

    def __init__(self, K: FieldHandle, r: int):
        E = extend_field(K, r)
        p, Q, q = E.p, E.order, K.order
        n = 1  # base-p digits of an element index
        while p**n < Q:
            n += 1
        self.p, self.Q = p, Q
        self.pvec = p ** np.arange(n, dtype=np.int64)
        g = _primitive_element(E)
        # row j: the digits of (basis element j) * g^len(rows)
        step = np.array([E.index_of_raw(E.mul_raw(E.raw_of_index(p**j), g))
                         for j in range(n)])[:, None] // self.pvec % p
        rows = np.zeros((1, n), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < Q - 1:
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        rows = rows[: Q - 1]
        idx = rows @ self.pvec
        k = np.arange(Q - 1)
        self.log = np.zeros(Q, dtype=np.int64)
        self.log[idx] = k
        if not (idx.all() and (self.log[idx] == k).all()):
            raise InternalConsistencyError(f"powers of g do not exhaust {E!r}")
        self.chi = np.zeros(Q, dtype=np.int64)
        self.chi[idx] = 1 - 2 * (k & 1)
        # twice over, so log c + i k (both reduced mod Q - 1) needs no reduction,
        # then Q - 1 zero rows for the log of zero
        self.log[0] = 2 * (Q - 1)
        # digit rows padded to whole 64-bit words; pvec pads with 0
        width = -(-n // 8) * 8
        self.pvec = np.pad(self.pvec, (0, width - n))
        rows = np.pad(rows, ((0, 0), (0, width - n)))
        self.antilog = np.concatenate([rows, rows, np.zeros_like(rows)]).astype(
            np.uint8 if p < 256 else np.int64)
        rep, cur = k.copy(), k
        for _ in range(r - 1):
            cur = cur * q % (Q - 1)
            np.minimum(rep, cur, out=rep)
        self.reps = np.flatnonzero(rep == k)
        self.sizes = np.bincount(rep)[self.reps]
        self._steps = np.zeros((0, len(self.reps)), dtype=np.int64)

    def chi_sums(self, rows) -> np.ndarray:
        """sum over x in E of chi(F(x)) for each row of F's K-indices, degree 0 first.

        All rows have one length D; the result is an int64 array of len(rows).
        """
        rows = np.asarray(rows, dtype=np.int64)
        D = rows.shape[1]
        if D > len(self._steps):
            self._steps = np.arange(D)[:, None] * self.reps % (self.Q - 1)
        steps = self._steps[:D]
        logs = self.log[rows][:, :, None]
        # Digit sums stay below p * D.  While they fit a byte, a row of 8 digit
        # bytes adds as one uint64 with no carry between bytes.
        bytewise = self.antilog.dtype == np.uint8 and D * (self.p - 1) <= 255
        digits, dtype = ((self.antilog.view(np.uint64), np.uint64) if bytewise
                         else (self.antilog, np.int64))
        sums = np.empty(len(rows), dtype=np.int64)
        b = max(1, SUB_BLOCK // steps.size)
        for lo in range(0, len(rows), b):
            y = digits.take(logs[lo:lo + b] + steps, axis=0).sum(axis=1, dtype=dtype)
            if bytewise:
                y = y.view(np.uint8)
            y %= self.p
            sums[lo:lo + b] = self.chi.take(y @ self.pvec) @ self.sizes
        return sums + self.chi[rows[:, 0]]


# keyed by (p, r) over a prime field, by (K, r) over a tower step K
_tables: dict[tuple, LogTable] = {}


def _cached(key: tuple, K: FieldHandle, r: int) -> LogTable:
    tab = _tables.get(key)
    if tab is None:
        tab = _tables[key] = LogTable(K, r)
    return tab


def field_table(p: int, r: int, deg: int) -> LogTable:
    """The table of F_{p^r} over F_p; it serves polynomials of any degree `deg`.

    This name, its signature and affine_chi_sum are what perfbench/tracing.py
    wraps to time the table builds and the character sums.
    """
    return _cached((p, r), make_field(p), r)


def table(K: FieldHandle, r: int) -> LogTable:
    """The table of extend_field(K, r); over a prime field, field_table's."""
    return field_table(K.p, r, 1) if K.base is None else _cached((K, r), K, r)


def affine_chi_sum(p: int, r: int, coeffs: list[int]) -> int:
    """The one-row case over F_p: sum over x in F_{p^r} of chi(F(x))."""
    return int(field_table(p, r, len(coeffs) - 1).chi_sums([coeffs])[0])


def dense_tables(K: FieldHandle) -> tuple[list[int], ...]:
    """FieldHandle.tables() of K, computed from the log table of K."""
    t = table(K, 1)
    n, p = K.order, K.p
    dig = t.antilog[t.log].astype(np.int64)  # the digits of every element index
    power = t.antilog[: n - 1].astype(np.int64) @ t.pvec  # element index of g^k
    mul = power[(t.log[:, None] + t.log) % (n - 1)]
    mul[0] = mul[:, 0] = 0
    inv = power[-t.log % (n - 1)]
    inv[0] = 0
    add = (dig[:, None] + dig) % p @ t.pvec
    neg = -dig % p @ t.pvec
    return add.ravel().tolist(), mul.ravel().tolist(), inv.tolist(), t.chi.tolist(), neg.tolist()
