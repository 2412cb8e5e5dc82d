"""Hyperelliptic curves y^2 = F(x) and their complete zeta data.

The numerator P(t) of the zeta function is built from the point counts
N_1..N_g over F_q .. F_{q^g} through Newton's identities (exact integer
arithmetic; any non-integer intermediate aborts), extended by the
functional equation c_{2g-i} = q^(g-i) c_i, and then validated.  One
routine, _newton, writes the identities: it solves c_1..c_g from the
counted p_1..p_g, and, once P(t) is complete, extends the power sums to
p_{2g} (and, for CurveZeta.power_sums, past it).  The checks:

  * reciprocal roots sit on |alpha| = sqrt(q) (an exact Sturm count on
    the real Weil polynomial, in integer arithmetic),
  * P(1) > 0 and P(1) P(-1) > 0 (Jacobian counts over F_q and F_{q^2}),
  * the point counts N_m that P(t) predicts for g < m <= 2g match direct
    enumeration whenever q^m fits the check budget.

An independent construction of the same polynomial from prime Jacobi
symbols, l_poly_via_characters, must agree with it exactly.  It reduces a
block of F modulo every prime P of one degree at once (polyring._residues,
one matrix product of base-p digits and an exact floor-mod) and reads (F/P)
at the residue's number in a table per field and degree that holds (u / P)
for every residue u, filled from the squares mod P by the same reduction:
no discrete log, point count or reciprocity step.  The Lambda-weighted
character sums of lambda_character_identity and stats.character_sum read
the same tables through one helper, _lambda_sums.

N_r counts points of the smooth projective model: one point above
x = infinity for odd deg F, two for even deg F (monic leading 1 is a
square in every extension).  The affine part q^r + sum_x chi(F(x)) comes
from the discrete-log kernel of countfast, over prime and tower base
fields alike, for a whole block of curves (one field, one degree) at a
time: point_counts makes one kernel call per r, and zeta_data_block
counts every N_m a block needs that way before it validates the block.
point_count and zeta_data are the one-curve blocks.

P(t) is a function of N_1..N_g alone (Newton's identities and the
functional equation), and so is everything that reads only (q, P(t)).
Sharing it is per run: a sweep (sweep.run_sweep) or a validate call
(validate.run_suite) owns one L-polynomial registry for as long as it runs,
{(N_1..N_g): [z, k]}, and a forked pool worker keeps its copy across its
chunks.  Both fill it through the one walk of the family,
sweep.count_chunk, which counts each chunk with zeta_data_block (or, for
bare counts keyed by p_1..p_Z, point_counts).  z is the zeta data of the
run's first curve with that key, validated there (Newton, the RH test,
Jacobian positivity) and nowhere else; k counts the run's curves that
have it.  Every later curve with the key shares z's N,
psums and coeffs tuples.  The run keeps what else it derives from P(t)
alone in the same entries: the sweep appends its first record, and
validate's suites read the [z, k] pairs as their groups.  Nothing outlives
its run: a call outside one starts a registry of its own.  A CurveZeta
holds its curve, N, power sums and P(t), and no cache: zeta_value and the
moduli layer's values are functions of (q, P(t)), and the moduli layer
keeps its integers of P(t) in a cache of its own.  What reads F stays per
curve: every curve's own recounts N_m, m > g, are compared with the
prediction, and the F column, the 2-torsion flag and the character route
read each curve, the flag a block at a time from the residues of F mod the
primes of degree 1 (moduli._full_2_torsion).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import countfast
from .errors import BudgetError, DomainError, InternalConsistencyError
from .polyring import (FamilySpec, MonicPoly, _irreducible_ivs, _members, _residues, format_poly,
                       is_squarefree, prime_count)

POINT_BUDGET = 10**6
# entries of one degree's symbol table (one int8 per prime and residue); a
# route that needs a larger one is refused before any work.  The largest
# table within it, degree 9 over F_3 (43 M entries), fills in about 10 s on
# a 2-core x86 host; the size is kept so that the same families are refused.
SYMBOL_BUDGET = 2**26


class HyperellipticCurve:
    """y^2 = F(x) with F monic square-free of degree gamma >= 3 over odd F_q."""

    __slots__ = ("field", "F", "gamma", "genus", "delta")

    def __init__(self, F: MonicPoly):
        if F.degree < 3:
            raise DomainError("curve polynomial must have degree >= 3")
        if not is_squarefree(F):
            raise DomainError("curve polynomial must be square-free")
        self._set(F)

    def _set(self, F: MonicPoly) -> None:
        self.field = F.field
        self.F = F
        self.gamma = F.degree
        self.genus = (F.degree - 1) // 2
        self.delta = 1 if F.degree % 2 == 0 else 0

    @property
    def points_at_infinity(self) -> int:
        return 2 if self.delta else 1

    def __repr__(self):
        return f"HyperellipticCurve(q={self.field.order}, F={list(self.F.coeffs)})"


def family_curves(spec: FamilySpec, start: int = 0, stop: int | None = None):
    """The curves y^2 = F of the family's members F with code (or draw) in
    [start, stop), in family order.  The family's stream is square-free by
    construction, so no member is checked again."""
    K = spec.field
    for row in _members(spec, start, stop):
        curve = HyperellipticCurve.__new__(HyperellipticCurve)
        curve._set(MonicPoly(K, row))
        yield curve


def count_tables(K, rs) -> dict:
    """{r: the countfast table of F_{q^r}}, built only once every q^r fits POINT_BUDGET."""
    for r in rs:
        if r < 1:
            raise DomainError("extension degree must be >= 1")
        if K.order**r > POINT_BUDGET:
            raise BudgetError(f"q^r = {K.order}^{r} exceeds point budget {POINT_BUDGET}")
    return {r: countfast.table(K, r) for r in rs}


def _block_rows(curves: list[HyperellipticCurve]):
    """(K, the (B, gamma + 1) array of each F's K-indices) for a block of
    curves over one field K, all of one degree."""
    K, gamma = curves[0].field, curves[0].gamma
    if any(c.field is not K or c.gamma != gamma for c in curves):
        raise DomainError("a block of curves needs one field and one degree")
    return K, np.array([c.F.coeffs for c in curves], dtype=np.int64)


def point_counts(curves: list[HyperellipticCurve], rs) -> dict[int, list[int]]:
    """{r: N_r of each curve} for a block of curves over one field, all of one degree.

    Each r is one call of the countfast kernel for the whole block.
    """
    K, rows = _block_rows(curves)
    base = curves[0].points_at_infinity
    return {r: (t.chi_sums(rows) + (K.order**r + base)).tolist()
            for r, t in count_tables(K, rs).items()}


def point_count(curve: HyperellipticCurve, r: int) -> int:
    """N_r, the number of points of the smooth model over F_{q^r}."""
    return point_counts([curve], [r])[r][0]


@dataclass(frozen=True, slots=True)
class CurveZeta:
    """A curve together with its validated zeta data."""

    curve: HyperellipticCurve
    N: tuple[int, ...]          # N_1..N_{2g}
    psums: tuple[int, ...]      # p_1..p_{2g},  p_m = q^m + 1 - N_m
    coeffs: tuple[int, ...]     # c_0..c_{2g} of P(t)

    @property
    def q(self) -> int:
        return self.curve.field.order

    @property
    def genus(self) -> int:
        return self.curve.genus

    def power_sums(self, upto: int) -> list[int]:
        """p_1..p_upto, extended past 2g by one run of the Newton recurrence."""
        p = list(self.psums[:upto])
        if upto > len(p):
            _newton(list(self.coeffs), p, upto)
        return p


def _newton(c: list[int], p: list[int], upto: int) -> None:
    """Newton's identities m c_m + sum_{0<i<m} c_i p_{m-i} + p_m = 0 for P(t) =
    c_0 + c_1 t + ... and its power sums p = [p_1, p_2, ...], in place, for m
    from min(len(c), len(p) + 1) to upto.  With s = sum_{0<i<m} c_i p_{m-i},
    a known p_m solves c_m = -(s + p_m)/m, exactly (a non-integer aborts);
    otherwise p_m = -s - m c_m is appended, c_m = 0 past the end of c."""
    for m in range(min(len(c), len(p) + 1), upto + 1):
        s = sum(c[i] * p[m - i - 1] for i in range(1, min(m, len(c))))
        if m <= len(p):
            if (s + p[m - 1]) % m:
                raise InternalConsistencyError(
                    f"newton-noninteger: c_{m} would be {-(s + p[m - 1])}/{m}")
            c.append(-(s + p[m - 1]) // m)
        else:
            p.append(-s - m * (c[m] if m < len(c) else 0))


def _negprem(a: list[int], b: list[int]) -> list[int]:
    """-rem(a, b) times a positive integer, made primitive (ascending)."""
    a = list(a)
    while len(a) >= len(b):  # a <- lc(b)^2 a - lc(b) a_top x^shift b
        t, shift = b[-1] * a[-1], len(a) - len(b)
        a = [b[-1] ** 2 * x for x in a]
        for i, y in enumerate(b):
            a[shift + i] -= t * y
        while a and a[-1] == 0:
            a.pop()
    content = math.gcd(*a)
    return [-x // content for x in a]


def _value(p, x: int) -> int:
    """p_0 + p_1 x + ... + p_n x^n for integer coefficients p_0..p_n (Horner)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def check_riemann_hypothesis(coeffs, q: int) -> None:
    """Raise unless every reciprocal root of P(t) has absolute value sqrt(q).

    With P(t) = prod (1 - a_i t + q t^2), RH says every a_i is real with
    a_i^2 <= 4q.  t^-g P(t) = h(qt + 1/t) for the real Weil polynomial
    h(u) = prod (u - a_i) = c_g + sum_j c_{g-j} D_j(u), D_j = t^-j + (qt)^j,
    and K(u^2) = (-1)^g h(u) h(-u) = prod (u^2 - a_i^2).  Once its factors
    y^k and (y - 4q)^l are divided out, K passes when its Sturm chain, in
    integer arithmetic, counts deg K - deg gcd(K, K') distinct roots in
    (0, 4q) (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
    """
    g = (len(coeffs) - 1) // 2
    h = [coeffs[g]] + [0] * g
    d_prev, d = [2], [0, 1]
    for j in range(1, g + 1):
        for i, x in enumerate(d):
            h[i] += coeffs[g - j] * x
        d_next = [0] + d  # D_{j+1} = u D_j - q D_{j-1}
        for i, x in enumerate(d_prev):
            d_next[i] -= q * x
        d_prev, d = d, d_next
    K = [(-1) ** g * sum((-1) ** i * h[i] * h[2 * k - i]
                         for i in range(max(0, 2 * k - g), min(2 * k, g) + 1))
         for k in range(g + 1)]
    while K[0] == 0:  # roots y = 0
        del K[0]
    while _value(K, 4 * q) == 0:  # roots y = 4q: divide by y - 4q
        K = [sum(c * (4 * q) ** (j - i - 1) for j, c in enumerate(K) if j > i)
             for i in range(len(K) - 1)]
    chain = [K, [i * x for i, x in enumerate(K)][1:]]
    while chain[-1]:
        chain.append(_negprem(chain[-2], chain[-1]))
    chain.pop()  # the chain now ends in gcd(K, K')
    distinct = len(K) - len(chain[-1])
    inside = (_sign_changes(p[0] for p in chain)
              - _sign_changes(_value(p, 4 * q) for p in chain))
    if inside != distinct:
        raise InternalConsistencyError(
            f"riemann-hypothesis: {distinct - inside} of the {distinct} distinct roots"
            f" of prod (y - a_i^2) other than 0 and 4q lie outside (0, 4q) for P = {list(coeffs)}")


def zeta_degrees(q: int, g: int, check_budget: int) -> list[int]:
    """The m of every N_m that zeta data counts: m <= g, and the recounts
    g < m <= 2g with q^m <= check_budget."""
    return [m for m in range(1, 2 * g + 1) if m <= g or q**m <= check_budget]


def zeta_data_block(curves, check_budget: int = 10**4, registry: dict | None = None):
    """zeta_data of each curve of a block (one field, one degree), in order.

    Every N_m of zeta_degrees is counted for the whole block at once.  The
    run's first curve with a given N_1..N_g builds P(t), validates it once
    its own recounts pass, and enters the run's registry (see the module
    docstring; a block without one starts its own); every later curve with
    it shares that P(t).  Each curve's own recounts are compared with its
    prediction, and a failure is raised when its curve's turn comes.
    """
    curves = list(curves)
    if not curves:
        return
    registry = {} if registry is None else registry
    g = curves[0].genus
    degrees = zeta_degrees(curves[0].field.order, g, check_budget)
    counts = point_counts(curves, degrees)
    for curve, N in zip(curves, zip(*(counts[m] for m in degrees))):
        entry = registry.get(N[:g])
        z = (_from_counts(curve, N[:g]) if entry is None
             else CurveZeta(curve, entry[0].N, entry[0].psums, entry[0].coeffs))
        for m, n in zip(degrees[g:], N[g:]):
            if n != z.N[m - 1]:
                raise InternalConsistencyError(
                    f"predicted-count-mismatch: N_{m} predicted {z.N[m-1]}, counted {n}")
        if entry is None:
            _validated(z)
            entry = registry[N[:g]] = [z, 0]
        entry[1] += 1
        yield z


def zeta_data(curve: HyperellipticCurve, check_budget: int = 10**4) -> CurveZeta:
    """Count N_1..N_g, build and validate P(t), predict N_m up to 2g."""
    return next(zeta_data_block([curve], check_budget))


def _from_counts(curve: HyperellipticCurve, low: tuple[int, ...]) -> CurveZeta:
    """The zeta data that N_1..N_g = low determine; no check is made.

    Newton's identities solve c_1..c_g from p_1..p_g, the functional
    equation gives c_{g+1}..c_{2g}, and the same recurrence extends the
    power sums to p_{2g}."""
    g, q = curve.genus, curve.field.order
    p, c = [q**m + 1 - n for m, n in enumerate(low, 1)], [1]
    _newton(c, p, g)
    c += [q ** (g - i) * c[i] for i in range(g - 1, -1, -1)]
    _newton(c, p, 2 * g)
    return CurveZeta(curve, tuple(q**m + 1 - x for m, x in enumerate(p, 1)), tuple(p), tuple(c))


def _validated(z: CurveZeta) -> None:
    """Raise unless P(t) passes the RH test and Jacobian positivity."""
    check_riemann_hypothesis(z.coeffs, z.q)
    if jacobian_count(z, 1) <= 0 or jacobian_count(z, 2) <= 0:
        raise InternalConsistencyError("jacobian-positivity: P(1) or P(1)P(-1) <= 0")


def zeta_value(z: CurveZeta, k: int) -> Fraction:
    """Exact zeta value at integer k >= 2: P(q^-k) / ((1-q^-k)(1-q^(1-k)))."""
    if k <= 1:
        raise DomainError("zeta value has a pole at k <= 1; need k >= 2")
    scale = zeta_scale(z.q, z.genus, k)
    return Fraction(zeta_numerator(z.q, z.coeffs, k) * scale.numerator, scale.denominator)


def log_frac(x: Fraction) -> float:
    """log x of an exact rational, read as log(numerator) - log(denominator),
    so past the binary64 range too; NaN when x <= 0."""
    if x <= 0:
        return math.nan
    return math.log(x.numerator) - math.log(x.denominator)


@functools.lru_cache(maxsize=256)
def zeta_scale(q: int, g: int, k: int) -> Fraction:
    """zeta_value(z, k) / zeta_numerator(z, k) for every genus-g curve over F_q:
    q^(2k-1) / (q^(2gk) (q^k-1) (q^(k-1)-1))."""
    return Fraction(q ** (2 * k - 1), q ** (2 * g * k) * (q**k - 1) * (q ** (k - 1) - 1))


def zeta_numerator(q: int, coeffs: tuple[int, ...], k: int) -> int:
    """Z_k = q^(2gk) P(q^-k) = sum c_i q^(k(2g-i)) for P(t) = coeffs, the
    integer that zeta_value is built on."""
    return _value(coeffs[::-1], q**k)


def jacobian_count(z: CurveZeta, r: int) -> int:
    """N_{q^r}(J) for r in {1, 2}: P(1), respectively P(1)P(-1)."""
    c = z.coeffs
    p1 = sum(c)
    if r == 1:
        return p1
    if r == 2:
        return p1 * sum((-1) ** i * ci for i, ci in enumerate(c))
    raise DomainError("jacobian count implemented for r in {1, 2}")


def epsilon_terms(z: CurveZeta, k: int, Z: int) -> tuple[Fraction, float]:
    """Exact truncated log-zeta term and its binary64 remainder.

    eps1 = -sum_{m<=Z} p_m / (m q^(km)); eps2 completes the identity
    log zeta(k) - (2k-1) log q + log((q^k-1)(q^(k-1)-1)) = eps1 + eps2.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    if Z < 1:
        raise DomainError("need Z >= 1")
    q = z.q
    weights, den = _eps1_weights(q, k, Z)
    eps1 = Fraction(-sum(w * p for w, p in zip(weights, z.power_sums(Z))), den)
    log_lhs = (log_frac(zeta_value(z, k)) - (2 * k - 1) * math.log(q)
               + math.log((q**k - 1) * (q ** (k - 1) - 1)))
    eps2 = log_lhs - float(eps1)
    return eps1, eps2


@functools.lru_cache(maxsize=256)
def _eps1_weights(q: int, k: int, Z: int) -> tuple[tuple[int, ...], int]:
    """(w_1..w_Z, D): D = lcm(m q^(km)) over m <= Z and w_m = D / (m q^(km))."""
    dens = [m * q ** (k * m) for m in range(1, Z + 1)]
    den = math.lcm(*dens)
    return tuple(den // d for d in dens), den


def epsilon_bounds(z: CurveZeta, k: int, Z: int) -> tuple[float, float]:
    """Envelopes |eps1| and |eps2| must satisfy (degree-2 cover, N = 2)."""
    q = z.q
    g = z.genus
    if Z == 1:
        b1 = 1.0 / q ** (k - 1) + 1.0 / q**k
    else:
        b1 = 1.0 / (q - 1) + (1.5 + math.log(Z) - math.log(2)) / q**k
    b2 = (2.0 * g / (Z + 1)) * q ** (-(2 * k - 1) * (Z + 1) / 2.0) \
        / (1.0 - q ** (-(2 * k - 1) / 2.0))
    return b1, b2


@dataclass(frozen=True)
class IdentityReport:
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def check_symbol_budget(q: int, degrees) -> None:
    """Refuse a symbol table of prime_count(q, e) q^e > SYMBOL_BUDGET entries."""
    for e in degrees:
        if (size := prime_count(q, e) * q**e) > SYMBOL_BUDGET:
            raise BudgetError(f"the character route's symbol table of {prime_count(q, e)} moduli"
                              f" of degree {e} over F_{q} has {size} entries, more than the"
                              f" budget {SYMBOL_BUDGET}")


def _entries(n: int, acc: np.ndarray) -> np.ndarray:
    """The symbol-table index j n^e + (base-n number of u) of each residue
    u = acc[..., j, :], given as the K-indices of a polynomial mod the j-th
    prime of degree e over K, n = K.order."""
    e = acc.shape[-1]
    return acc @ n ** np.arange(e) + np.arange(acc.shape[-2]) * n**e


@functools.lru_cache(maxsize=None)
def _symbol_table(K, e: int) -> np.ndarray:
    """int8 (u/P) at (index of P) q^e + (number of u), for each prime P of
    degree e and each residue u of degree < e.  (u/P) = 1 iff u != 0 is a
    square mod P, and the squares are s (v^2 mod P) for the square constants
    s of F_q^* and the monic v of degree < e; every other u != 0 takes -1."""
    n = K.order
    add, mul, _inv, chi, _neg = countfast.dense_tables(K)
    mods = _irreducible_ivs(K, e)
    table = np.full(len(mods) * n**e, -1, dtype=np.int8)
    table[::n**e] = 0
    monic = np.concatenate([np.arange(n**d, 2 * n**d) for d in range(e)])
    v = monic[:, None] // n ** np.arange(e) % n
    squares = np.zeros((len(v), 2 * e - 1), dtype=np.int64)
    for i, j in np.ndindex(e, e):
        squares[:, i + j] = add[squares[:, i + j] * n + mul[v[:, i] * n + v[:, j]]]
    s = np.flatnonzero(chi == 1)[:, None, None, None]
    for acc in _residues(K, squares, mods):
        table[_entries(n, mul[s * n + acc])] = 1
    return table


def _jacobi_block(K, rows: np.ndarray, e: int) -> np.ndarray:
    """(F/P) for each row F of K-indices and each prime P of degree e, in the
    order of _irreducible_ivs: the table's symbol at F mod P."""
    symbols = _symbol_table(K, e)
    return np.concatenate([symbols[_entries(K.order, acc)]
                           for acc in _residues(K, rows, _irreducible_ivs(K, e))])


def _lambda_sums(K, rows: np.ndarray, m: int) -> np.ndarray:
    """sum_{deg f = m} Lambda(f) (F/f) for each row F of K-indices (one degree).

    Only prime powers f = P^j carry Lambda(f) = deg P, and (F/P^j) = (F/P)^j,
    so the sum is sum_{e | m} e sum_{deg P = e} (F/P)^(m/e): the symbols of
    the primes of each degree e | m, from the same tables as the Euler
    product of l_poly_via_characters.
    """
    degrees = [e for e in range(1, m + 1) if m % e == 0]  # f = P^(m/e), deg P = e
    check_symbol_budget(K.order, degrees)
    totals = np.zeros(len(rows), dtype=np.int64)
    for e in degrees:
        totals += e * (_jacobi_block(K, rows, e) ** (m // e)).sum(axis=1, dtype=np.int64)
    return totals


def lambda_character_identity(zs, m: int) -> list[IdentityReport]:
    """Check -p_m = sum_{deg f = m} Lambda(f) (F/f) + delta exactly, for
    each curve of a block of CurveZeta (one field, one degree).

    The right side is _lambda_sums of the block, from the prime symbol
    tables; the left side comes from the point-count route.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    zs = list(zs)
    if not zs:
        return []
    K, rows = _block_rows([z.curve for z in zs])
    totals = _lambda_sums(K, rows, m) + zs[0].curve.delta
    return [IdentityReport(lhs=-z.power_sums(m)[-1], rhs=total)
            for z, total in zip(zs, totals.tolist())]


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def xz_bound_check(z: CurveZeta, ks: tuple[int, ...] = (2, 3)):
    """Jacobian log bound and the two-sided zeta envelope.

    Returns a dict with the N=2 Jacobian bound
        |log N_q(J) - g log q| <= log max(1, log(7g)/log q) + 3
    and, for each k, the envelope |log zeta(k)| <= 2c'(1/sqrt(q) +
    loglog(g)/q^k) at c' = 8.
    """
    q = z.q
    g = z.genus
    nj = jacobian_count(z, 1)
    lhs = abs(math.log(nj) - g * math.log(q))
    rhs = math.log(max(1.0, math.log(7 * g) / math.log(q))) + 3.0
    report = {"xz": BoundReport("xz", lhs, rhs)}
    for k in ks:
        if g < 2:
            raise DomainError("needs genus >= 2")
        lz = abs(log_frac(zeta_value(z, k)))
        scale = 2.0 * (1.0 / math.sqrt(q) + math.log(math.log(g)) / q**k)
        report[f"zeta_envelope_k{k}"] = BoundReport(f"zeta_envelope_k{k}", lz, 8.0 * scale)
    return report


def l_poly_via_characters(zs) -> list[list[int]]:
    """P(t) of each curve of a block of CurveZeta (one field, one degree),
    assembled from the prime Jacobi symbols (F/P).

    The Euler product over monic irreducibles of the character (F/.)
    gives the full character sum sum_f (F/f) t^deg f; for even deg F it
    carries the split infinite place as an exact (1 - t) factor, divided
    out by taking running sums: through degree gamma - 1 they are P(t)
    followed by the sum at t = 1, which must be 0.  Each P of degree
    e <= gamma - 1 multiplies the whole block's series by
    1 / (1 - (F/P) t^e).  Every result must match its z, from the point
    counts, exactly.
    """
    zs = list(zs)
    if not zs:
        return []
    curve = zs[0].curve
    g = curve.genus
    M = curve.gamma - 1  # 2g for odd gamma, 2g+1 for even gamma
    check_symbol_budget(curve.field.order, range(1, M + 1))
    K, rows = _block_rows([z.curve for z in zs])
    b = np.zeros((len(zs), M + 1), dtype=np.int64)
    b[:, 0] = 1
    for e in range(1, M + 1):
        for s in _jacobi_block(K, rows, e).T:
            for m in range(e, M + 1):
                b[:, m] += s * b[:, m - e]
    if curve.delta:  # divide out (1 - t): the running sums, the last one the sum at t = 1
        b = np.cumsum(b, axis=1)
    c = b.tolist()
    for z, ci in zip(zs, c):
        if tuple(ci) != z.coeffs + (0,) * curve.delta:
            raise InternalConsistencyError(
                f"character-route mismatch for F = {format_poly(z.curve.F)}:"
                f" {ci} vs {list(z.coeffs) + [0] * curve.delta}")
    return [ci[: 2 * g + 1] for ci in c]


def curve_zeta_json_dict(z: CurveZeta) -> dict:
    """JSON-ready view: q, gamma, genus, F, N, L_poly, jacobians, zeta(2..4)."""
    return {
        "q": z.q,
        "gamma": z.curve.gamma,
        "genus": z.genus,
        "F": format_poly(z.curve.F),
        "N": list(z.N),
        "L_poly": list(z.coeffs),
        "jacobian_q": jacobian_count(z, 1),
        "jacobian_q2": jacobian_count(z, 2),
        "zeta": {k: zeta_value(z, k) for k in (2, 3, 4)},
    }
