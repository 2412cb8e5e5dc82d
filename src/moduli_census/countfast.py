"""Affine character sums sum_x chi(F(x)) over F_{q^r} from discrete-log tables.

Each field E = extend_field(K, r), K = F_q prime or a tower step, gets one
table built from its smallest-index primitive element g (Lidl &
Niederreiter, Finite Fields, ch. 9).  The build is numpy on the F_p-linear
map "multiply by g", a matrix on the n base-p digits of an element index:
candidates g are tested in batches by raising their matrices to
(Q - 1) / l by repeated squaring, and the digit rows of every g^k come from
repeated doubling.  The table holds the log of every element index, so
chi(y) = (-1)^log(y); the orbits of Frobenius k -> q k mod (Q - 1); and the
look-up tables below, all built before any sum, so a pool forked after
the build shares them.  An element of K keeps its index in E, so c_i x^i
at x = g^k is g^(log c_i + i k).  F has coefficients in K, so chi(F(x)) is
constant on Frobenius orbits: the sum over E* visits one x per orbit,
about Q / r of them, weighted by orbit size; x = 0 adds chi(c_0).

Digits add mod p like field elements.  The table writes each g^k in radix
M = 2p - 1, one radix-M digit per base-p digit, so two reduced values add
as integers with no carry: every digit of the sum stays below M.  The n
digits go in parts of equal width, each part a code below M^width <=
LUT_SIZE (one digit per part once M > LUT_SIZE), held in uint16 while
M^width fits.  One look-up table of M^width entries reduces a part's
digits mod p, for every part alike; one per part maps a part to its share
of the field index, and a single part maps straight to chi.  Zero has its
own log, 2 (Q - 1), which points past the doubled code table into Q - 1
zero codes, so every column reads code[log c_i + i k] alike.

There is one kernel, LogTable.chi_sums, for a block of polynomials of one
degree: a (B, D) array of K-indices in, B character sums out.  It splits
the columns in two halves, F = L + H.  A half that can take fewer codes
than the block has rows (q^width < B) keeps only the codes present and
works on those: in H_{9,3} at most 243 and 81 against 1024 rows, in
H_{5,5} 125 and 25.  A half's value table is built the same way, split
again while it has more than SPLIT_ROWS rows, else by gathering all its
columns at once and folding them in halves, one reduction per fold.  Per
curve and orbit the kernel then makes two row gathers, one add, the
look-ups to chi and the weighted sum.  Rows go in slices of at most
SUB_BLOCK / D and orbits in slices sized so that no transient array holds
more than SUB_BLOCK entries (under 1 MB), whatever B is; a block's value
tables live for one slice.  The step rows i k mod (Q - 1) are kept on the
table for the largest degree seen.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalConsistencyError
from .ffield import FieldHandle, _prime_divisors, extend_field, make_field

SUB_BLOCK = 2**15  # entries (rows x columns x orbits) of one transient array
SPLIT_ROWS = 64  # a set of at most this many rows folds its columns without a split
LUT_SIZE = 2**16  # entries of one look-up table, at least 2p - 1
CANDIDATES = 64  # primitive-element candidates tested at once


def _primitive_element(E: FieldHandle, n: int) -> np.ndarray:
    """The matrix of "multiply by g" on the n base-p digits of an element
    index, g the generator of E* with the smallest element index: row j
    holds the digits of (element index p^j) * g.

    Multiplication is F_p-linear in g, so the candidates are tested in
    batches: each one's matrix is its digits times the matrices of the
    basis elements p^t, and g^((Q - 1) / l) comes from the squares.
    """
    p, Q = E.p, E.order
    pvec = p ** np.arange(n)
    one = (pvec == 1).astype(np.int64)  # the digits of 1
    exps = [(Q - 1) // ell for ell in _prime_divisors(Q - 1)]
    basis = [np.eye(n, dtype=np.int64)]  # basis[t]: the matrix of "multiply by element index p^t"
    for lo in range(2, Q, CANDIDATES):
        cand = np.arange(lo, min(Q, lo + CANDIDATES))
        while len(basis) < n and p ** len(basis) <= cand[-1]:
            b = p ** len(basis)
            basis.append(np.array([E.mul(a, b) for a in pvec.tolist()])[:, None] // pvec % p)
        mats = (cand[:, None] // pvec[:len(basis)] % p @ np.reshape(basis, (len(basis), -1))
                % p).reshape(-1, n, n)
        powers = np.broadcast_to(one, (len(exps), len(cand), n)).copy()
        square, bit = mats, 1
        while bit <= max(exps):
            for m, e in enumerate(exps):
                if e & bit:
                    powers[m] = (powers[m][:, None, :] @ square)[:, 0] % p
            square, bit = square @ square % p, 2 * bit
        primitive = (powers != one).any(axis=2).all(axis=0)
        if primitive.any():
            return mats[primitive.argmax()]
    raise InternalConsistencyError(f"no primitive element in {E!r}")  # pragma: no cover


class LogTable:
    """Discrete-log tables, Frobenius orbits and radix-M codes of E = extend_field(K, r)."""

    __slots__ = ("p", "q", "Q", "log", "chi", "reps", "sizes", "codes", "_reduce", "_to_chi",
                 "_steps")

    def __init__(self, K: FieldHandle, r: int):
        E = extend_field(K, r)
        p, Q, q = E.p, E.order, K.order
        n = 1  # base-p digits of an element index
        while p**n < Q:
            n += 1
        self.p, self.q, self.Q = p, q, Q
        step = _primitive_element(E, n)
        rows = np.zeros((1, n), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < Q - 1:
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        rows = rows[: Q - 1]
        idx = rows @ p ** np.arange(n)
        k = np.arange(Q - 1)
        self.log = np.zeros(Q, dtype=np.int64)
        self.log[idx] = k
        if not (idx.all() and (self.log[idx] == k).all()):
            raise InternalConsistencyError(f"powers of g do not exhaust {E!r}")
        self.chi = np.zeros(Q, dtype=np.int8)
        self.chi[idx] = 1 - 2 * (k & 1)
        self.log[0] = 2 * (Q - 1)
        # the n digits in parts of `width`, each part a radix-M code below M^width
        M = 2 * p - 1
        width = 1
        while width < n and M ** (width + 1) <= LUT_SIZE:
            width += 1
        parts = -(-n // width)
        width = -(-n // parts)
        dtype = np.uint16 if M**width <= 2**16 else np.int64
        weight = np.zeros((n, parts), dtype=np.int64)  # digit j counts M^(j % width) in its part
        weight[np.arange(n), np.arange(n) // width] = M ** (np.arange(n) % width)
        code = (rows @ weight).astype(dtype)
        # twice over, so log c + i k (both reduced mod Q - 1) needs no reduction,
        # then Q - 1 zero codes for the log of zero
        self.codes = np.concatenate([code, code, np.zeros_like(code)])
        # each radix-M code below M^width, as its digits mod p: in radix M, and in base p
        reduced, index, digit = np.zeros(1, np.int64), np.zeros(1, np.int64), np.arange(M) % p
        for t in range(width):
            reduced = (digit[:, None] * M**t + reduced).ravel()
            index = (digit[:, None] * p**t + index).ravel()
        self._reduce = reduced.astype(dtype)
        index = [(index * p ** (j * width)).astype(np.int32) for j in range(parts)]
        self._to_chi = [self.chi[index[0]]] if parts == 1 else index
        rep, cur = k.copy(), k
        for _ in range(r - 1):
            cur = cur * q % (Q - 1)
            np.minimum(rep, cur, out=rep)
        self.reps = np.flatnonzero(rep == k)
        # int32, so that weighting the int8 chi values makes no int64 copy of them
        self.sizes = np.bincount(rep)[self.reps].astype(np.int32)
        self._steps = np.zeros((0, len(self.reps)), dtype=np.int64)

    def _plan(self, rows: np.ndarray) -> tuple:
        """(node, entries per orbit) for the sum of the columns of rows.

        A node is the (columns, rows) array of logs, folded whole, or a split
        (half, [(node, inv), (node, inv)]) at column `half`: each half's node
        covers its distinct codes when it can take fewer of those than there
        are rows (inv maps the rows to them), else every row.
        """
        u, s = rows.shape
        half = (s + 1) // 2
        if s < 2 or u <= SPLIT_ROWS or self.q ** (s - half) >= u:
            return self.log[rows.T], rows.size
        kids, entries = [], u
        for part in (rows[:, :half], rows[:, half:]):
            inv, span = None, self.q ** part.shape[1]
            if span < u:  # the distinct codes, found by marking them
                qpow = self.q ** np.arange(part.shape[1])
                code = part @ qpow
                seen = np.zeros(span, dtype=bool)
                seen[code] = True
                inv = (np.cumsum(seen) - 1)[code]
                part = np.flatnonzero(seen)[:, None] // qpow % self.q
            node, size = self._plan(part)
            kids.append((node, inv))
            entries = max(entries, size)
        return (half, kids), entries

    def _sum(self, node, steps: np.ndarray) -> np.ndarray:
        """The codes of sum_i c_i x^i for a node's rows at the orbits of steps
        (columns, orbits): a (rows, orbits, parts) array, each digit below M."""
        if isinstance(node, np.ndarray):
            vals = self.codes.take(node[:, :, None] + steps[:, None, :], axis=0)
            s = len(vals)
            while s > 2:
                h = s // 2
                self._reduce.take(vals[:h] + vals[s - h:s], out=vals[:h])
                s -= h
            return vals[0] + vals[1] if s == 2 else vals[0]
        half, kids = node
        out = None
        for (kid, inv), st in zip(kids, (steps[:half], steps[half:])):
            t = self._reduce.take(self._sum(kid, st))
            t = t if inv is None else t[inv]
            out = t if out is None else out + t
        return out

    def chi_sums(self, rows) -> np.ndarray:
        """sum over x in E of chi(F(x)) for each row of F's K-indices, degree 0 first.

        All rows have one length D; the result is an int64 array of len(rows).
        """
        rows = np.asarray(rows, dtype=np.int64)
        B, D = rows.shape
        if D > len(self._steps):
            self._steps = np.arange(D)[:, None] * self.reps % (self.Q - 1)
        steps = self._steps[:D]
        sums = np.zeros(B, dtype=np.int64)
        b = min(B, max(1, SUB_BLOCK // D))
        for lo in range(0, B, b):
            node, entries = self._plan(rows[lo:lo + b])
            w = max(1, SUB_BLOCK // entries)
            for o in range(0, len(self.reps), w):
                y = self._sum(node, steps[:, o:o + w])
                idx = self._to_chi[0].take(y[..., 0])
                for j, lut in enumerate(self._to_chi[1:], 1):
                    idx += lut.take(y[..., j])
                y = idx if len(self._to_chi) == 1 else self.chi.take(idx)
                sums[lo:lo + b] += y @ self.sizes[o:o + w]
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
    m = 1  # base-p digits of an element index
    while p**m < n:
        m += 1
    pvec = p ** np.arange(m)
    dig = np.arange(n)[:, None] // pvec % p  # the digits of every element index
    power = np.zeros(n - 1, dtype=np.int64)  # element index of g^k
    power[t.log[1:]] = np.arange(1, n)
    mul = power[(t.log[:, None] + t.log) % (n - 1)]
    mul[0] = mul[:, 0] = 0
    inv = power[-t.log % (n - 1)]
    inv[0] = 0
    add = (dig[:, None] + dig) % p @ pvec
    neg = -dig % p @ pvec
    return add.ravel().tolist(), mul.ravel().tolist(), inv.tolist(), t.chi.tolist(), neg.tolist()
