"""Hyperelliptic curves y^2 = F(x) and their complete zeta data.

The numerator P(t) of the zeta function is built from the point counts
N_1..N_g over F_q .. F_{q^g} through Newton's identities (exact integer
arithmetic; any non-integer intermediate aborts), extended by the
functional equation c_{2g-i} = q^(g-i) c_i, and then validated:

  * reciprocal roots sit on |alpha| = sqrt(q) (an exact Sturm count on
    the real Weil polynomial, in integer arithmetic),
  * P(1) > 0 and P(1) P(-1) > 0 (Jacobian counts over F_q and F_{q^2}),
  * the point counts N_m that P(t) predicts for g < m <= 2g match direct
    enumeration whenever q^m fits the check budget.

An entirely independent construction of the same polynomial from prime
Jacobi-symbol data lives in l_poly_via_characters; the two must agree
coefficient by coefficient.

N_r counts points of the smooth projective model: one point above
x = infinity for odd deg F, two for even deg F (monic leading 1 is a
square in every extension).  The affine part q^r + sum_x chi(F(x)) comes
from the discrete-log kernel of countfast, over prime and tower base
fields alike, for a whole block of curves (one field, one degree) at a
time: point_counts makes one kernel call per r, and zeta_data_block
counts every N_m a block needs that way before it runs each curve
through the validation above.  point_count and zeta_data are the
one-curve blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import countfast
from .errors import BudgetError, DomainError, InternalConsistencyError
from .polyring import (MonicPoly, _code_iv, _irreducible_ivs, _iv, _iv_jacobi, is_squarefree,
                       von_mangoldt)

POINT_BUDGET = 10**6


class HyperellipticCurve:
    """y^2 = F(x) with F monic square-free of degree gamma >= 3 over odd F_q."""

    __slots__ = ("field", "F", "gamma", "genus", "delta")

    def __init__(self, F: MonicPoly):
        if F.degree < 3:
            raise DomainError("curve polynomial must have degree >= 3")
        if not is_squarefree(F):
            raise DomainError("curve polynomial must be square-free")
        self.field = F.field
        self.F = F
        self.gamma = F.degree
        self.genus = (F.degree - 1) // 2
        self.delta = 1 if F.degree % 2 == 0 else 0

    @property
    def points_at_infinity(self) -> int:
        return 2 if self.delta else 1

    def __repr__(self):
        return f"HyperellipticCurve(q={self.field.order}, F={self.F.indices()})"


def count_tables(K, rs, budget: int = POINT_BUDGET) -> dict:
    """{r: the countfast table of F_{q^r}}, built only once every q^r fits the budget."""
    for r in rs:
        if r < 1:
            raise DomainError("extension degree must be >= 1")
        if K.order**r > budget:
            raise BudgetError(f"q^r = {K.order}^{r} exceeds point budget {budget}")
    return {r: countfast.table(K, r) for r in rs}


def point_counts(curves: list[HyperellipticCurve], rs, budget: int = POINT_BUDGET) -> dict[int, list[int]]:
    """{r: N_r of each curve} for a block of curves over one field, all of one degree.

    Each r is one call of the countfast kernel for the whole block.
    """
    K, gamma = curves[0].field, curves[0].gamma
    if any(c.field is not K or c.gamma != gamma for c in curves):
        raise DomainError("a block of curves needs one field and one degree")
    rows = [c.F.indices() for c in curves]
    base = curves[0].points_at_infinity
    return {r: (t.chi_sums(rows) + (K.order**r + base)).tolist()
            for r, t in count_tables(K, rs, budget).items()}


def point_count(curve: HyperellipticCurve, r: int, budget: int = POINT_BUDGET) -> int:
    """N_r, the number of points of the smooth model over F_{q^r}."""
    return point_counts([curve], [r], budget)[r][0]


@dataclass(frozen=True)
class CurveZeta:
    """A curve together with its validated zeta data."""

    curve: HyperellipticCurve
    N: tuple[int, ...]          # N_1..N_{2g}
    psums: tuple[int, ...]      # p_1..p_{2g},  p_m = q^m + 1 - N_m
    coeffs: tuple[int, ...]     # c_0..c_{2g} of P(t)
    # zeta values by k, and the moduli layer's "full_2_torsion" flag
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_coeffs(cls, curve: HyperellipticCurve, coeffs) -> "CurveZeta":
        """The zeta data that P(t) = coeffs determines; no check is made."""
        q = curve.field.order
        psums = _psums_from_coeffs(list(coeffs), 2 * curve.genus)
        N = tuple(q**m + 1 - p for m, p in enumerate(psums, 1))
        return cls(curve, N, tuple(psums), tuple(coeffs))

    @property
    def q(self) -> int:
        return self.curve.field.order

    @property
    def genus(self) -> int:
        return self.curve.genus

    def power_sum(self, m: int) -> int:
        """p_m for any m >= 1 (extends past 2g by the Newton recurrence)."""
        if m <= len(self.psums):
            return self.psums[m - 1]
        return _psums_from_coeffs(list(self.coeffs), m)[m - 1]


def _newton_coeffs(psums: list[int], g: int) -> list[int]:
    c = [1]
    for m in range(1, g + 1):
        acc = sum(c[i] * psums[m - i - 1] for i in range(m))
        if acc % m:
            raise InternalConsistencyError(
                f"newton-noninteger: c_{m} would be {-acc}/{m}")
        c.append(-acc // m)
    return c


def _psums_from_coeffs(coeffs: list[int], upto: int) -> list[int]:
    p: list[int] = []
    for m in range(1, upto + 1):
        s = m * coeffs[m] if m < len(coeffs) else 0
        for i in range(1, min(m, len(coeffs))):
            s += coeffs[i] * p[m - i - 1]
        p.append(-s)
    return p


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


def _value(p: list[int], x: int) -> int:
    return sum(c * x**i for i, c in enumerate(p))


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


def zeta_data_block(curves, check_budget: int = 10**4):
    """zeta_data of each curve of a block (one field, one degree), in order.

    Every N_m of zeta_degrees is counted for the whole block at once.  The
    curves then pass the validation tail one at a time, as they are yielded.
    """
    curves = list(curves)
    if not curves:
        return
    degrees = zeta_degrees(curves[0].field.order, curves[0].genus, check_budget)
    counts = point_counts(curves, degrees)
    for i, curve in enumerate(curves):
        yield _validated(curve, {m: N[i] for m, N in counts.items()})


def zeta_data(curve: HyperellipticCurve, check_budget: int = 10**4) -> CurveZeta:
    """Count N_1..N_g, build and validate P(t), predict N_m up to 2g."""
    return next(zeta_data_block([curve], check_budget))


def _validated(curve: HyperellipticCurve, N: dict[int, int]) -> CurveZeta:
    """P(t) from N_1..N_g, checked against the recounts N_m, m > g, in N."""
    g = curve.genus
    q = curve.field.order
    psums_low = [q**m + 1 - N[m] for m in range(1, g + 1)]
    c = _newton_coeffs(psums_low, g)
    c += [q ** (g - i) * c[i] for i in range(g - 1, -1, -1)]
    z = CurveZeta.from_coeffs(curve, c)
    if list(z.psums[:g]) != psums_low:  # pragma: no cover
        raise InternalConsistencyError("newton-roundtrip: power sums drift")
    for m in range(g + 1, 2 * g + 1):
        if m in N and N[m] != z.N[m - 1]:
            raise InternalConsistencyError(
                f"predicted-count-mismatch: N_{m} predicted {z.N[m-1]}, counted {N[m]}")
    check_riemann_hypothesis(c, q)
    if jacobian_count(z, 1) <= 0 or jacobian_count(z, 2) <= 0:
        raise InternalConsistencyError("jacobian-positivity: P(1) or P(1)P(-1) <= 0")
    return z


def zeta_value(z: CurveZeta, k: int) -> Fraction:
    """Exact zeta value at integer k >= 2: P(q^-k) / ((1-q^-k)(1-q^(1-k)))."""
    if k <= 1:
        raise DomainError("zeta value has a pole at k <= 1; need k >= 2")
    cached = z._cache.get(k)
    if cached is None:
        # q^(nk) P(q^-k) = sum c_i q^(k(n-i)) is an integer, n = deg P = 2g
        q, n = z.q, len(z.coeffs) - 1
        num = sum(c * q ** (k * (n - i)) for i, c in enumerate(z.coeffs))
        cached = Fraction(num * q ** (2 * k - 1),
                          q ** (n * k) * (q**k - 1) * (q ** (k - 1) - 1))
        z._cache[k] = cached
    return cached


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
    eps1 = -sum(Fraction(z.power_sum(m), m * q ** (k * m)) for m in range(1, Z + 1))
    zk = zeta_value(z, k)
    log_lhs = (math.log(zk.numerator) - math.log(zk.denominator)
               - (2 * k - 1) * math.log(q)
               + math.log((q**k - 1) * (q ** (k - 1) - 1)))
    eps2 = log_lhs - float(eps1)
    return eps1, eps2


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


@functools.lru_cache(maxsize=None)
def _prime_powers(K, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(indices, Lambda(f)) for every monic prime power f of degree m over K."""
    ivs = (_code_iv(code, K.order, m) for code in range(K.order**m))
    lams = ((tuple(iv), von_mangoldt(MonicPoly.from_indices(K, iv))) for iv in ivs)
    return tuple((iv, lam) for iv, lam in lams if lam)


def lambda_character_identity(z: CurveZeta, m: int) -> IdentityReport:
    """Check -p_m = sum_{deg f = m} Lambda(f) (F/f) + delta exactly.

    The right side runs over every monic polynomial of degree m (the prime
    powers among them, with their Lambda, are listed once per field and m)
    and uses the curve's quadratic character (F/f); the left side comes
    from the point-count route.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    K = z.curve.field
    q = K.order
    if q**m > POINT_BUDGET:
        raise BudgetError(f"enumerating q^m = {q**m} monic polynomials exceeds budget")
    F_iv = _iv(z.curve.F)
    total = sum(lam * _iv_jacobi(F_iv, indices, K) for indices, lam in _prime_powers(K, m))
    return IdentityReport(lhs=-z.power_sum(m), rhs=total + z.curve.delta)


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def xz_bound_check(z: CurveZeta, cprime: float = 8.0, ks: tuple[int, ...] = (2, 3)):
    """Jacobian log bound and the two-sided zeta envelope.

    Returns a dict with the N=2 Jacobian bound
        |log N_q(J) - g log q| <= log max(1, log(7g)/log q) + 3
    and, for each k, the envelope |log zeta(k)| <= 2c'(1/sqrt(q) +
    loglog(g)/q^k), together with the smallest c' that would do.
    """
    q = z.q
    g = z.genus
    nj = jacobian_count(z, 1)
    lhs = abs(math.log(nj) - g * math.log(q))
    rhs = math.log(max(1.0, math.log(7 * g) / math.log(q))) + 3.0
    report = {"xz": BoundReport("xz", lhs, rhs)}
    for k in ks:
        zk = zeta_value(z, k)
        lz = abs(math.log(zk.numerator) - math.log(zk.denominator))
        scale = 2.0 * (1.0 / math.sqrt(q) + math.log(math.log(g)) / q**k) if g > 1 else 0.0
        envelope = cprime * scale
        required = lz / scale if scale > 0 else math.inf
        report[f"zeta_envelope_k{k}"] = BoundReport(f"zeta_envelope_k{k}", lz, envelope)
        report[f"zeta_cprime_required_k{k}"] = required
    return report


def l_poly_via_characters(curve: HyperellipticCurve, z: CurveZeta) -> list[int]:
    """P(t) assembled from the prime Jacobi symbols (F/P).

    The Euler product over monic irreducibles of the character (F/.)
    gives the full character sum sum_f (F/f) t^deg f; for even deg F it
    carries the split infinite place as an exact (1 - t) factor which is
    divided out.  The result must match z, from the point counts, exactly.
    """
    K = curve.field
    gamma = curve.gamma
    g = curve.genus
    M = gamma - 1  # 2g for odd gamma, 2g+1 for even gamma
    F_iv = _iv(curve.F)
    b = [0] * (M + 1)
    b[0] = 1
    for e in range(1, M + 1):
        for piv in _irreducible_ivs(K, e):
            s = _iv_jacobi(F_iv, list(piv), K)
            if s == 0:
                continue
            for m in range(e, M + 1):
                b[m] += s * b[m - e]
    if curve.delta:
        if sum(b) != 0:
            raise InternalConsistencyError(
                "character-route: raw sum does not vanish at t = 1")
        c = []
        acc = 0
        for m in range(2 * g + 1):
            acc += b[m]
            c.append(acc)
    else:
        c = b[: 2 * g + 1]
    if tuple(c) != z.coeffs:
        raise InternalConsistencyError(
            f"character-route mismatch: {c} vs {list(z.coeffs)}")
    return c


def curve_zeta_json_dict(z: CurveZeta, zeta_ks: tuple[int, ...] = (2, 3, 4)) -> dict:
    """JSON-ready view: q, gamma, genus, F, N, L_poly, jacobians, zeta values."""
    from .emit import frac_str
    from .polyring import format_poly

    return {
        "q": z.q,
        "gamma": z.curve.gamma,
        "genus": z.genus,
        "F": format_poly(z.curve.F),
        "N": list(z.N),
        "L_poly": list(z.coeffs),
        "jacobian_q": jacobian_count(z, 1),
        "jacobian_q2": jacobian_count(z, 2),
        "zeta": {str(k): frac_str(zeta_value(z, k)) for k in zeta_ks},
    }
