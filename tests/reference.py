"""Independent references the tests compare the package against.

None of these runs in the CLI, a sweep or validate.  The Jacobi symbol
comes in two routes that the tests play against each other and against the
package's prime symbol tables: _iv_jacobi, a Euclidean reduction using the
monic reciprocity law

    (f/g) = (g/f) * (-1)^((q-1)/2 * deg f * deg g),   (c/g) = chi(c)^deg g,

and jacobi_symbol_via_factorization, which factors the modulus and applies
Euler's criterion prime by prime.  Its trial division is _iv_divexact,
the exact division that test_polyring's brute-force irreducibility oracle
also uses.  The reduction of a block of F mod many moduli, which the
package makes as one F_p-linear map of base-p digits, has a reference on
the field's add and mul tables (residues_by_gather), and the full
2-torsion flag one by divisibility (full_2_torsion).  The rank-2 counts
have two references read from the symmetric powers of the curve alone:
Thaddeus' flips for m_21 (thaddeus_m21) and the C*-fixed loci for the
Higgs count (higgs_by_fixed_loci).
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from moduli_census.errors import DomainError
from moduli_census.ffield import FieldHandle
from moduli_census.polyring import (MonicPoly, _code_iv, _irreducible_ivs, _iv, _iv_mod,
                                    _iv_powmod, _iv_trim, is_squarefree, von_mangoldt)


def code(f: MonicPoly) -> int:
    """Coefficient vector read as a base-q integer (leading 1 dropped)."""
    q = f.field.order
    c = 0
    for i in reversed(f.coeffs[:-1]):
        c = c * q + i
    return c


def norm(f: MonicPoly) -> int:
    """|f| = q^deg f."""
    return f.field.order ** f.degree


def _iv_jacobi(u: list[int], v: list[int], K: FieldHandle) -> int:
    """(u/v) for a monic index vector v; u need not be reduced or monic."""
    add, mul, inv, chi, neg = K.tables()
    n = K.order
    twist = K.order % 4 == 3
    result = 1
    u = list(u)
    v = list(v)
    while True:
        dv = len(v) - 1
        if dv == 0:
            return result
        u = _iv_mod(u, v, add, mul, neg, n)
        if not u:
            return 0
        c = u[-1]
        if c != 1:
            # (c*u1/v) = chi(c)^deg(v) * (u1/v)
            if dv & 1 and chi[c] < 0:
                result = -result
            ic = inv[c]
            u = [mul[ic * n + a] if a else 0 for a in u]
        du = len(u) - 1
        if du == 0:
            return result
        if twist and (du & 1) and (dv & 1):
            result = -result
        u, v = v, u


def jacobi_symbol(f: MonicPoly, F: MonicPoly) -> int:
    """(f/F): product of quadratic-residue symbols over the factors of F.

    0 exactly when gcd(f, F) != 1.  Computed by reciprocity reduction.
    """
    if f.field is not F.field:
        raise DomainError("polynomials over different fields")
    if F.degree < 1 or not is_squarefree(F):
        raise DomainError("modulus must be monic square-free of degree >= 1")
    return _iv_jacobi(_iv(f), _iv(F), f.field)


def _iv_divexact(u: list[int], v: list[int], K: FieldHandle) -> list[int] | None:
    """u / v for monic index vectors, or None if the division is not exact."""
    add, mul, _inv, _chi, neg = K.tables()
    n = K.order
    u = list(u)
    dv = len(v) - 1
    du = len(u) - 1
    if du < dv:
        return None
    quot = [0] * (du - dv + 1)
    for pos in range(du - dv, -1, -1):
        c = u[pos + dv]
        quot[pos] = c
        if c:
            cn = neg[c]
            for j in range(dv + 1):
                vj = v[j]
                if vj:
                    u[pos + j] = add[u[pos + j] * n + mul[cn * n + vj]]
    return quot if not _iv_trim(u) else None


def factor_squarefree(F: MonicPoly) -> list[MonicPoly]:
    """Factor a monic square-free polynomial by cached trial division."""
    K = F.field
    u = _iv(F)
    out = []
    e = 1
    while 2 * e <= len(u) - 1:
        for piv in _irreducible_ivs(K, e):
            if len(u) - 1 < 2 * e:
                break
            quot = _iv_divexact(u, list(piv), K)
            if quot is not None:
                out.append(MonicPoly(K, piv))
                u = quot
        e += 1
    if len(u) - 1 >= 1:
        out.append(MonicPoly(K, u))
    return out


def jacobi_symbol_via_factorization(f: MonicPoly, F: MonicPoly) -> int:
    """(f/F) by factoring F and applying Euler's criterion per factor.

    Independent of the reciprocity route; used as its cross-check.
    """
    if f.field is not F.field:
        raise DomainError("polynomials over different fields")
    if F.degree < 1 or not is_squarefree(F):
        raise DomainError("modulus must be monic square-free of degree >= 1")
    K = f.field
    q = K.order
    result = 1
    minus_one = K.tables()[4][1]  # neg[1]
    for P in factor_squarefree(F):
        t = _iv_powmod(_iv(f), (q**P.degree - 1) // 2, _iv(P), K)
        if not t:
            return 0
        if t == [1]:
            continue
        if t == [minus_one]:
            result = -result
        else:  # pragma: no cover
            raise AssertionError("Euler criterion produced a non-unit")
    return result


@functools.lru_cache(maxsize=None)
def prime_powers(K: FieldHandle, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(indices, Lambda(f)) for every monic prime power f of degree m over K,
    found by running von_mangoldt on all q^m monic polynomials."""
    ivs = (_code_iv(code, K.order, m) for code in range(K.order**m))
    lams = ((tuple(iv), von_mangoldt(MonicPoly(K, iv))) for iv in ivs)
    return tuple((iv, lam) for iv, lam in lams if lam)


def lambda_character_sum(F: MonicPoly, m: int) -> int:
    """sum over the prime powers f of degree m of Lambda(f) (F/f): one
    reciprocity symbol per prime power, no prime table."""
    K, F_iv = F.field, _iv(F)
    return sum(lam * _iv_jacobi(F_iv, list(f), K) for f, lam in prime_powers(K, m))


def irreducible_polys(K: FieldHandle, e: int) -> list[MonicPoly]:
    """All monic irreducibles of degree e over K, in code order."""
    return [MonicPoly(K, iv) for iv in _irreducible_ivs(K, e)]


def family_size(q: int, gamma: int) -> int:
    """|H_{gamma,q}| = q^gamma - q^(gamma-1) for gamma >= 2."""
    return q**gamma - q ** (gamma - 1)


def residues_by_gather(K: FieldHandle, rows: np.ndarray, mods) -> np.ndarray:
    """(B, len(mods), e): each row F of a (B, D) array of K-indices mod each monic
    f of mods, all of degree e, as sum_i F_i (x^i mod f), accumulated one digit
    i at a time by a gather on K's add and mul tables."""
    add, mul, _inv, _chi, neg = K.tables()
    n, e = K.order, len(mods[0]) - 1
    powers = np.zeros((len(mods), rows.shape[1], e), dtype=np.int64)
    for j, f in enumerate(mods):
        for i in range(rows.shape[1]):
            r = _iv_mod([0] * i + [1], list(f), add, mul, neg, n)
            powers[j, i, :len(r)] = r
    add, mul = np.array(add), np.array(mul)
    acc = np.zeros((len(rows), len(mods), e), dtype=np.int64)
    for i in range(rows.shape[1]):
        acc = add[acc * n + mul[rows[:, i, None, None] * n + powers[:, i]]]
    return acc


def full_2_torsion(F: MonicPoly) -> bool:
    """F square-free splits into distinct linear factors over F_q iff it divides x^q - x."""
    K = F.field
    return _iv_powmod([0, 1], K.order, list(F.coeffs), K) == [0, 1]


def projective_count(q: int, m: int) -> Fraction:
    """N(P^m) = (q^(m+1) - 1)/(q - 1); 0 for m < 0."""
    return Fraction(q ** (m + 1) - 1, q - 1) if m >= 0 else Fraction(0)


def symmetric_power_count(q: int, coeffs, m: int) -> Fraction:
    """N(Sym^m C) = sum_{i <= min(m, 2g)} c_i (q^(m-i+1) - 1)/(q - 1): the
    coefficient of t^m in Z(C, t) = P(t) / ((1 - t)(1 - q t))."""
    return sum((c * projective_count(q, m - i) for i, c in enumerate(coeffs[:m + 1])),
               Fraction(0))


def thaddeus_m21(q: int, coeffs, d: int) -> Fraction:
    """N(M(2, 1)) from Thaddeus' flips (Thaddeus, Invent. Math. 1994), for odd
    d >= 4g - 3.  The pairs (E, s) of degree d pass through spaces M_1 ..
    M_{w+1}, w = (d - 1)/2: M_1 = P^(d+g-2), and each flip trades a
    P^(i-1)-bundle over Sym^i C for a P^(d+g-2-2i)-bundle over it, so
    N(M_{i+1}) = N(M_i) + N(Sym^i C)(N(P^(d+g-2-2i)) - N(P^(i-1))).  M_{w+1}
    is a P^(d+1-2g)-bundle over the moduli space."""
    g = (len(coeffs) - 1) // 2
    if d % 2 == 0 or d < 4 * g - 3:
        raise DomainError(f"Thaddeus' flips need an odd d >= 4g - 3, got {d}")
    n = projective_count(q, d + g - 2)
    for i in range(1, (d - 1) // 2 + 1):
        n += symmetric_power_count(q, coeffs, i) * (projective_count(q, d + g - 2 - 2 * i)
                                                    - projective_count(q, i - 1))
    return n / projective_count(q, d + 1 - 2 * g)


def higgs_by_fixed_loci(q: int, coeffs, m21: Fraction) -> Fraction:
    """The rank-2 odd-degree Higgs count from the C*-fixed loci:
    q^(4g-3) P(1) [m_21 + sum_{d1=1}^{g-1} N(Sym^(2g-1-2 d1) C)].  C* scales
    the field, and each attracting set is an affine bundle of rank half the
    dimension, 4g - 3.  The fixed loci are M(2, 1), with P(1) m_21 points,
    and for d1 = 1..g-1 copies of J x Sym^(2g-1-2 d1) C: L1 + L2 with
    deg L1 = d1 and the field L1 -> L2 K, read by L1 and its divisor."""
    g = (len(coeffs) - 1) // 2
    return q ** (4 * g - 3) * sum(coeffs) * (
        m21 + sum(symmetric_power_count(q, coeffs, 2 * g - 1 - 2 * d1) for d1 in range(1, g)))


def residual_envelope(q: int, g: int) -> float:
    """Decay envelope 10 q^(-g/2) for residual magnitude checks."""
    return 10.0 * q ** (-0.5 * g)


def parse_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))
