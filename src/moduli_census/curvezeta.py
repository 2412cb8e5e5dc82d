"""Hyperelliptic curves y^2 = F(x) and their complete zeta data.

The numerator P(t) of the zeta function is built from the point counts
N_1..N_g over F_q .. F_{q^g} through Newton's identities (exact integer
arithmetic; any non-integer intermediate aborts), extended by the
functional equation c_{2g-i} = q^(g-i) c_i, and then validated:

  * reciprocal roots sit on |alpha| = sqrt(q) (binary64 companion roots),
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
fields alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import countfast
from .errors import BudgetError, DomainError, InternalConsistencyError
from .polyring import MonicPoly, _iv, _iv_jacobi, _irreducible_ivs, is_squarefree, von_mangoldt

POINT_BUDGET = 10**6
RH_TOL = 1e-9


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


def point_count(curve: HyperellipticCurve, r: int, budget: int = POINT_BUDGET) -> int:
    """N_r, the number of points of the smooth model over F_{q^r}."""
    if r < 1:
        raise DomainError("extension degree must be >= 1")
    K = curve.field
    if K.order**r > budget:
        raise BudgetError(f"q^r = {K.order}^{r} exceeds point budget {budget}")
    s = countfast.chi_sum(K, r, curve.F.indices())
    return K.order**r + s + curve.points_at_infinity


@dataclass(frozen=True)
class CurveZeta:
    """A curve together with its validated zeta data."""

    curve: HyperellipticCurve
    N: tuple[int, ...]          # N_1..N_{2g}
    psums: tuple[int, ...]      # p_1..p_{2g},  p_m = q^m + 1 - N_m
    coeffs: tuple[int, ...]     # c_0..c_{2g} of P(t)
    _zeta_cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def lpoly_eval(self, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

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
            if m - i >= 1:
                s += coeffs[i] * p[m - i - 1]
        p.append(-s)
    return p


def _squarefree_part(coeffs: tuple[int, ...]) -> list[Fraction]:
    """Square-free part of an integer polynomial, over Q (ascending)."""
    a = [Fraction(x) for x in coeffs]
    b = [i * Fraction(x) for i, x in enumerate(coeffs)][1:]

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    def pmod(u, v):
        u = list(u)
        dv = len(v) - 1
        lead = v[-1]
        while len(u) - 1 >= dv and u:
            c = u[-1] / lead
            if c:
                for j in range(dv):
                    u[len(u) - 1 - dv + j] -= c * v[j]
            u.pop()
            trim(u)
        return u

    u, v = list(a), trim(list(b))
    while v:
        u, v = v, pmod(u, v)
    g = u  # gcd up to scalar
    if len(g) - 1 == 0:
        return a
    # exact division a / g
    quot = [Fraction(0)] * (len(a) - len(g) + 1)
    rem = list(a)
    lead = g[-1]
    for pos in range(len(quot) - 1, -1, -1):
        c = rem[pos + len(g) - 1] / lead
        quot[pos] = c
        if c:
            for j in range(len(g)):
                rem[pos + j] -= c * g[j]
    return quot


def zeta_data(curve: HyperellipticCurve, check_budget: int = 10**4,
              rh_tol: float = RH_TOL) -> CurveZeta:
    """Count N_1..N_g, build and validate P(t), predict N_m up to 2g."""
    g = curve.genus
    q = curve.field.order
    if g < 1:
        raise DomainError("genus must be >= 1")
    counted = [point_count(curve, m) for m in range(1, g + 1)]
    psums_low = [q**m + 1 - counted[m - 1] for m in range(1, g + 1)]
    c = _newton_coeffs(psums_low, g)
    for i in range(g - 1, -1, -1):
        c.append(q ** (g - i) * c[i])
    z = CurveZeta.from_coeffs(curve, c)
    if list(z.psums[:g]) != psums_low:  # pragma: no cover
        raise InternalConsistencyError("newton-roundtrip: power sums drift")
    # direct recount of the predicted values while q^m stays affordable
    for m in range(g + 1, 2 * g + 1):
        if q**m <= check_budget:
            direct = point_count(curve, m)
            if direct != z.N[m - 1]:
                raise InternalConsistencyError(
                    f"predicted-count-mismatch: N_{m} predicted {z.N[m-1]}, counted {direct}")
    # Riemann hypothesis: reciprocal roots on the sqrt(q) circle.  Root-find
    # the square-free part (repeated roots would cost half the precision)
    # and polish with Newton so binary64 roots carry ~1e-14 accuracy.
    sf = [float(x) for x in _squarefree_part(tuple(c))]
    roots = np.roots(list(reversed(sf)))
    dsf = [i * sf[i] for i in range(1, len(sf))]
    for _ in range(2):
        vals = np.polyval(list(reversed(sf)), roots)
        dvals = np.polyval(list(reversed(dsf)), roots)
        roots = roots - vals / dvals
    sq = math.sqrt(q)
    for t in roots:
        if abs(1.0 / abs(t) - sq) >= rh_tol:
            raise InternalConsistencyError(
                f"riemann-hypothesis: |alpha| = {1.0 / abs(t)!r} vs sqrt(q) = {sq!r}")
    p1 = sum(c)
    pm1 = sum((-1) ** i * ci for i, ci in enumerate(c))
    if p1 <= 0 or p1 * pm1 <= 0:
        raise InternalConsistencyError("jacobian-positivity: P(1) or P(1)P(-1) <= 0")
    return z


def zeta_value(z: CurveZeta, k: int) -> Fraction:
    """Exact zeta value at integer k >= 2: P(q^-k) / ((1-q^-k)(1-q^(1-k)))."""
    if k <= 1:
        raise DomainError("zeta value has a pole at k <= 1; need k >= 2")
    cached = z._zeta_cache.get(k)
    if cached is None:
        q = z.q
        num = z.lpoly_eval(Fraction(1, q**k))
        cached = num * q ** (2 * k - 1) / ((q**k - 1) * (q ** (k - 1) - 1))
        z._zeta_cache[k] = cached
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


def lambda_character_identity(z: CurveZeta, m: int) -> IdentityReport:
    """Check -p_m = sum_{deg f = m} Lambda(f) (F/f) + delta exactly.

    The right side enumerates every monic polynomial of degree m and uses
    the curve's quadratic character (F/f); the left side comes from the
    point-count route.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    K = z.curve.field
    q = K.order
    if q**m > POINT_BUDGET:
        raise BudgetError(f"enumerating q^m = {q**m} monic polynomials exceeds budget")
    F_iv = _iv(z.curve.F)
    total = 0
    for code in range(q**m):
        indices = []
        cc = code
        for _ in range(m):
            cc, rem = divmod(cc, q)
            indices.append(rem)
        indices.append(1)
        f = MonicPoly.from_indices(K, indices)
        lam = von_mangoldt(f)
        if lam:
            total += lam * _iv_jacobi(F_iv, indices, K)
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


def l_poly_via_characters(curve: HyperellipticCurve, z: CurveZeta | None = None) -> list[int]:
    """P(t) assembled from the prime Jacobi symbols (F/P).

    The Euler product over monic irreducibles of the character (F/.)
    gives the full character sum sum_f (F/f) t^deg f; for even deg F it
    carries the split infinite place as an exact (1 - t) factor which is
    divided out.  The result must match the point-count route exactly.
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
    if z is None:
        z = zeta_data(curve)
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
