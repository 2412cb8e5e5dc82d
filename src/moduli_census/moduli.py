"""Exact moduli-space point counts driven by a curve's zeta data.

Everything here is exact rational arithmetic on top of CurveZeta: the
Siegel mass of fixed-determinant rank-r bundles, the Harder-Narasimhan
strata of unstable bundles as closed-form geometric lattice sums, the
semistable masses beta(r, d), the stable counts for gcd(r, d) = 1, the
strictly-semistable analysis of the trivial-determinant rank-2 space, the
desingularized rank-4 space, and the rank-2 Higgs count via geometrically
indecomposable bundles.

Formulas are evaluated exactly as published.  Where two published routes
to the same quantity disagree (the four-term closed form for the stable
(2,0) count versus its component assembly; the two expansions of the
strictly-semistable stratum Y), the report carries both values and the
residual; nothing is silently reconciled.  The 4^g terms assume every
2-torsion class of the Jacobian is rational over F_q; the report flags
whether that hypothesis actually holds for the curve.

Each count's value comes from count_value: an integer polynomial in the
curve's own integers (MONOMIALS) over a denominator that depends only on
(q, g, target, r, d mod r), both cached per key.  The count_* reports
build their components and cross-checks around that value from the value
route: siegel_mass, BetaTable, unstable_mass and the component
assemblies.  That route also runs on integer numerators over cached
denominators, keyed by (q, g, r) for the Siegel mass and by
(q, g, partition, d) for each Harder-Narasimhan stratum, and builds one
Fraction per returned value.  It stays apart from count_value: its
constants are its own, and BetaTable runs the Harder-Narasimhan recursion
on the curve's values instead of reading count_value's forms, so every
cross-check still compares two different computations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .curvezeta import CurveZeta, _value, jacobian_count, zeta_numerator, zeta_scale, zeta_value
from .errors import DomainError, UnsupportedRankError

SUPPORTED_PARTITIONS = ((1, 1), (2, 1), (1, 2), (1, 1, 1))
EXACT_RANKS = (2, 3)  # the ranks r >= 2 whose HN strata, beta and stable counts are exact


@dataclass
class ModuliReport:
    """One target count with its hypotheses, components and cross-checks."""

    target: str
    value: Fraction
    hypotheses: dict = dc_field(default_factory=dict)
    cross_checks: dict = dc_field(default_factory=dict)
    components: dict = dc_field(default_factory=dict)

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def to_json_dict(self) -> dict:
        from .emit import frac_str

        def conv(x):
            return frac_str(x) if isinstance(x, Fraction) else x

        return {
            "target": self.target,
            "value": frac_str(self.value),
            "is_integer": self.is_integer,
            "hypotheses": dict(self.hypotheses),
            "cross_checks": {
                name: {k: conv(v) for k, v in chk.items()}
                for name, chk in self.cross_checks.items()
            },
            "components": {k: conv(v) for k, v in self.components.items()},
        }


def _check(expected: Fraction, got: Fraction) -> dict:
    return {"expected": expected, "got": got, "residual": expected - got}


def siegel_mass(z: CurveZeta, r: int) -> Fraction:
    """Total mass of rank-r fixed-determinant bundles:
    q^((r^2-1)(g-1)) zeta(2)...zeta(r) / (q-1)."""
    return Fraction(*_siegel_pair(z, r))


class BetaTable:
    """Memo of semistable masses beta(r, d) for one curve; r <= 3.

    beta depends only on d mod r (twisting by a line bundle of degree 1),
    so the memo is keyed that way.  It runs the Harder-Narasimhan recursion
    on the curve's own integers: each entry is the integer numerator of
    beta(r, d) over a denominator cached per (q, g, r, d mod r), and the
    rank-3 strata read the rank-2 numerators.  It never reads count_value's
    forms, so count_stable_fixed_det's beta_table check still compares two
    computations.
    """

    def __init__(self, z: CurveZeta):
        self.z = z
        self.q, self.g, self.nj = z.q, z.genus, jacobian_count(z, 1)
        self._memo: dict[tuple[int, int], int] = {}
        self.siegel: dict[int, tuple[int, int]] = {}  # r -> siegel_mass(z, r) as (N, D)

    def beta(self, r: int, d: int) -> Fraction:
        if r == 1:
            return Fraction(1, self.q - 1)
        if r not in EXACT_RANKS:
            raise UnsupportedRankError("beta implemented for ranks 1..3")
        d %= r
        return Fraction(self.numerator(r, d), _beta_const(self.q, self.g, r, d)[1])

    def numerator(self, r: int, d: int) -> int:
        """beta(r, d) times _beta_const's denominator, for r in EXACT_RANKS and 0 <= d < r."""
        val = self._memo.get((r, d))
        if val is None:
            self.siegel[r] = _siegel_pair(self.z, r)
            nums = [self.siegel[r][0]] + [_stratum_pair(self, p, d)[0] for p in _STRATA[r]]
            mults, _ = _beta_const(self.q, self.g, r, d)
            val = sum(m * n for m, n in zip(mults, nums))
            self._memo[(r, d)] = val
        return val


def unstable_mass(z: CurveZeta, partition: tuple[int, ...], d: int,
                  table: BetaTable | None = None) -> Fraction:
    """Mass of the Harder-Narasimhan stratum with the given rank partition.

    The lattice sum over strictly decreasing slopes is grouped into
    finitely many residue classes with closed-form geometric tails, so the
    value is exact.  Supported partitions: (1,1), (2,1), (1,2), (1,1,1).
    """
    partition = tuple(partition)
    if partition not in SUPPORTED_PARTITIONS:
        raise UnsupportedRankError(f"partition {partition} not supported"
                                   " (total rank must be <= 3)")
    if table is None:
        table = BetaTable(z)
    return Fraction(*_stratum_pair(table, partition, d))


def beta(z: CurveZeta, r: int, d: int, table: BetaTable | None = None) -> Fraction:
    """Semistable mass beta(r, d) = Siegel mass minus the unstable strata."""
    if table is None:
        table = BetaTable(z)
    return table.beta(r, d)


# -- the value route: integer numerators over cached denominators --------------
#
# Each curve-independent factor of siegel_mass, beta and unstable_mass is a
# constant cached per (q, g, r) or (q, g, partition, d): integers a_i over
# one denominator D.  A curve multiplies them by its own integers (P(1),
# Z_k = q^(2gk) P(q^-k) and the numerators of its beta(2, e)) and builds one
# Fraction per returned value.  count_value's forms (_beta_form) share only
# the geometric tails with these constants: one wrong constant shared by
# both would reach both sides of the beta_table check and pass it.

_STRATA = {2: ((1, 1),), 3: ((1, 1, 1), (2, 1), (1, 2))}  # the HN strata of rank r


def _common_den(*coefs) -> tuple[tuple[int, ...], int]:
    """(a_i, D) with coefs[i] = a_i / D, D the lcm of their denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in coefs))
    return tuple(int(c * den) for c in coefs), den


def _siegel_pair(z: CurveZeta, r: int) -> tuple[int, int]:
    """siegel_mass as (a Z_2 ... Z_r, D)."""
    if not 2 <= r <= 4:
        raise DomainError("rank must be between 2 and 4")
    g = z.genus
    if g < 2:
        raise DomainError("needs genus >= 2")
    (num,), den = _siegel_const(z.q, g, r)
    for k in range(2, r + 1):
        num *= zeta_numerator(z, k)
    return num, den


@functools.lru_cache(maxsize=256)
def _siegel_const(q: int, g: int, r: int) -> tuple[tuple[int], int]:
    """q^((r^2-1)(g-1)) / (q-1) times zeta(k) / Z_k for k = 2..r."""
    c = Fraction(q) ** ((r * r - 1) * (g - 1)) / (q - 1)
    for k in range(2, r + 1):
        c *= zeta_scale(q, g, k)
    return _common_den(c)


def _stratum_pair(table: BetaTable, partition: tuple[int, ...], d: int) -> tuple[int, int]:
    """unstable_mass of the table's curve as (numerator, D), D cached with _stratum_const."""
    nj = table.nj
    w, den = _stratum_const(table.q, table.g, partition, d)
    if len(partition) == 3:
        return nj * nj * w[0], den
    if partition == (1, 1):
        return nj * w[0], den
    return nj * (w[0] * table.numerator(2, 0) + w[1] * table.numerator(2, 1)), den


@functools.lru_cache(maxsize=1024)
def _stratum_const(q: int, g: int, partition: tuple[int, ...], d: int) -> tuple[tuple[int, ...], int]:
    """(w, W): the stratum's mass is nj^2 w_0 / W for (1,1,1), nj w_0 / W for
    (1,1), and nj (w_0 B_0 + w_1 B_1) / W for (2,1) and (1,2), B_e being the
    curve's BetaTable numerator of beta(2, e).

    For two steps, w_e / W sums Q^(n1 n2 (g-1) + d n1) times the tail of
    each residue class whose rank-2 factor has degree e mod 2, with the
    rank-1 factors 1/(q-1) and the rank-2 denominators folded in.
    """
    if len(partition) == 3:
        return _common_den(Fraction(q) ** (3 * (g - 1)) / (q - 1) ** 3 * _three_step_total(q, d % 3))
    n1, n2 = partition
    scale = Fraction(q) ** (n1 * n2 * (g - 1) + d * n1)
    w = [Fraction(0), Fraction(0)]
    for first, tail in _two_step_tails(q, n1, n2, d):
        c, e = scale * tail, 0
        for n, deg in ((n1, first), (n2, d - first)):
            if n == 1:
                c /= q - 1
            else:
                e = deg % 2
                c /= _beta_const(q, g, 2, e)[1]
        w[e] += c
    return _common_den(*w)


@functools.lru_cache(maxsize=256)
def _beta_const(q: int, g: int, r: int, d: int) -> tuple[tuple[int, ...], int]:
    """(m, D) for 0 <= d < r: D beta(r, d) = m_0 S - m_1 U_1 - m_2 U_2 - ...,
    S and U_i the numerators of the Siegel pair and of the _STRATA[r] pairs."""
    dens = [_siegel_const(q, g, r)[1]] + [_stratum_const(q, g, p, d)[1] for p in _STRATA[r]]
    den = math.lcm(*dens)
    return tuple(den // dd if i == 0 else -(den // dd) for i, dd in enumerate(dens)), den


@functools.lru_cache(maxsize=256)
def _two_step_tails(q: int, n1: int, n2: int, d: int) -> tuple[tuple[int, Fraction], ...]:
    """(first, Q^(-r first) / (1 - Q^(-r L))) for each residue class of d1 mod L.

    d1 runs over d1 > d n1 / r; class rho starts at `first`, and its
    geometric tail does not depend on the curve.
    """
    r = n1 + n2
    d1_min = (d * n1) // r + 1
    L = n1 if n1 == n2 else n1 * n2  # lcm of the two ranks
    Q = Fraction(q)
    firsts = (d1_min + ((rho - d1_min) % L) for rho in range(L))
    return tuple((first, Q ** (-r * first) / (1 - Q ** (-r * L))) for first in firsts)


@functools.lru_cache(maxsize=256)
def _three_step_total(q: int, d: int) -> Fraction:
    """(1,1,1): gaps a = d1-d2 >= 1, b = d2-d3 >= 1 with a-b = d (mod 3)."""
    x = Fraction(1, q**2)
    geom = [x**3 / (1 - x**3), x / (1 - x**3), x**2 / (1 - x**3)]
    return sum((geom[(s + d) % 3] * geom[s] for s in range(3)), Fraction(0))


def genus2_oracle(z: CurveZeta) -> int:
    """Independent count of the stable (2, odd) space for genus 2:
    a smooth intersection of two quadrics has q^3+q^2+q+1 - q*p_1 points."""
    if z.genus != 2:
        raise DomainError("oracle only applies to genus 2")
    q = z.q
    return q**3 + q**2 + q + 1 - q * z.psums[0]


def check_stable_domain(r: int, d: int) -> None:
    """Raise unless count_stable_fixed_det covers rank r and degree d."""
    if math.gcd(r, d) != 1:
        raise DomainError("rank and degree must be coprime"
                          " (strictly semistable handling only exists for (2,0))")
    if r not in EXACT_RANKS:
        raise UnsupportedRankError("exact counts implemented for r in {2, 3}")


# -- the integer form: each count as N / D -----------------------------------
#
# A form is a polynomial in the curve's integers nj = P(1), P(-1), P(q),
# P'(1) and Z_k = q^(2gk) P(q^-k): a tuple of (monomial, coefficient) pairs,
# a monomial being the sorted tuple of its factors' names.

def _mono(*factors: str) -> tuple[str, ...]:
    return tuple(sorted(factors))


MONOMIALS = (_mono("Z2"), _mono("Z2", "Z3"), _mono("nj", "Z2"), _mono("nj", "nj"), _mono("nj"),
             _mono("nj", "P(-1)"), _mono("nj", "P(q)"), _mono("nj", "P'(1)"), _mono())
COUNT_TARGETS = ("m_rd", "ms20", "ntilde", "higgs")


def _sum_forms(*terms) -> tuple:
    """sum of scale * form over the (scale, form) pairs."""
    out: dict = {}
    for scale, form in terms:
        for mono, coef in form:
            out[mono] = out.get(mono, 0) + scale * coef
    return tuple(out.items())


def _mul_forms(a, b) -> tuple:
    out: dict = {}
    for ma, ca in a:
        for mb, cb in b:
            m = _mono(*ma, *mb)
            out[m] = out.get(m, 0) + ca * cb
    return tuple(out.items())


@functools.lru_cache(maxsize=256)
def _beta_form(q: int, g: int, r: int, d: int) -> tuple:
    """beta(r, d) for 0 <= d < r as a form: BetaTable.beta, with the forms
    of the smaller ranks in place of their values."""
    if r == 1:
        return ((_mono(), Fraction(1, q - 1)),)
    mass = Fraction(q ** ((r * r - 1) * (g - 1)), q - 1)
    for k in range(2, r + 1):
        mass *= zeta_scale(q, g, k)
    terms = [(mass, ((_mono(*(f"Z{k}" for k in range(2, r + 1))), 1),))]
    Q = Fraction(q)
    nj = ((_mono("nj"), 1),)
    for n1, n2 in ((1, 1),) if r == 2 else ((2, 1), (1, 2)):
        scale = -Q ** (n1 * n2 * (g - 1) + d * n1)
        for first, tail in _two_step_tails(q, n1, n2, d):
            b1b2 = _mul_forms(_beta_form(q, g, n1, first % n1), _beta_form(q, g, n2, (d - first) % n2))
            terms.append((scale * tail, _mul_forms(nj, b1b2)))
    if r == 3:
        terms.append((-Q ** (3 * (g - 1)) / (q - 1) ** 3 * _three_step_total(q, d),
                      ((_mono("nj", "nj"), 1),)))
    return _sum_forms(*terms)


def _count_form(q: int, g: int, target: str, r: int, d: int) -> tuple:
    if target == "m_rd":
        return _sum_forms((q - 1, _beta_form(q, g, r, d)))
    two2g = 2 ** (2 * g)
    ms20 = ((_mono("Z2"), q ** (3 * g - 3) * zeta_scale(q, g, 2)),
            (_mono("nj"), -Fraction(q ** (g + 1) - q**2 + q, (q - 1) ** 2 * (q + 1))),
            (_mono("nj", "P(-1)"), -Fraction(1, 2 * (q + 1))),
            (_mono(), Fraction(two2g, 2 * (q + 1))))
    if target == "ms20":
        return ms20
    if target == "ntilde":
        # Y = A p_g2^2 + B p2_g2 with A = (nj - 4^g)/2 and B = (nj P(-1) - nj)/2
        p_g2 = _proj_count(q, g - 2)
        p2_g2 = Fraction(q ** (2 * (g - 1)) - 1, q**2 - 1)
        y = ((_mono("nj"), (p_g2**2 - p2_g2) / 2), (_mono("nj", "P(-1)"), p2_g2 / 2),
             (_mono(), -two2g * p_g2**2 / 2))
        rs = two2g * (q ** (g - 2) * grassmannian_count(q, 2, g) + grassmannian_count(q, 3, g))
        return _sum_forms((1, ms20), (1, y), (rs, ((_mono(), 1),)))
    # higgs: q^(4g-3) (A_1 + A_2 + A_3)
    return _sum_forms((q ** (4 * g - 3), (
        (_mono("nj", "P(q)"), Fraction(1, (q - 1) * (q**2 - 1))),
        (_mono("nj", "P(-1)"), -Fraction(1, 4 * (q + 1))),
        (_mono("nj", "nj"), Fraction(q - 3 - 4 * g * (q - 1), 4 * (q - 1) ** 2)),
        (_mono("nj", "P'(1)"), Fraction(1, 2 * (q - 1))))))


@functools.lru_cache(maxsize=256)
def _count_vector(q: int, g: int, target: str, r: int, d: int) -> tuple[tuple[int, ...], int]:
    """(N_j, D): the count is sum_j N_j m_j / D over the curve's MONOMIALS m_j."""
    form = dict(_count_form(q, g, target, r, d))
    assert set(form) <= set(MONOMIALS), set(form) - set(MONOMIALS)
    return _common_den(*(form.get(m, 0) for m in MONOMIALS))


def _monomial_values(z: CurveZeta) -> tuple[int, ...]:
    """The curve's MONOMIALS, computed once per CurveZeta."""
    vals = z._cache.get("monomials")
    if vals is None:
        q, c = z.q, z.coeffs
        f = {"nj": sum(c), "P(-1)": sum(c[0::2]) - sum(c[1::2]), "P(q)": _value(c, q),
             "P'(1)": sum(i * ci for i, ci in enumerate(c)),
             "Z2": zeta_numerator(z, 2), "Z3": zeta_numerator(z, 3)}
        vals = tuple(math.prod(f[x] for x in m) for m in MONOMIALS)
        z._cache["monomials"] = vals
    return vals


def count_value(z: CurveZeta, target: str, r: int = 2, d: int = 1) -> Fraction:
    """The value of one count of COUNT_TARGETS, as one Fraction(N, D).

    m_rd is (q-1) beta(r, d) for r in {2, 3} and gcd(r, d) = 1; ms20,
    ntilde and higgs are the values of count_ms20, count_ntilde and
    count_higgs, whatever r and d.  N is an integer polynomial in the
    curve's integers (MONOMIALS) with coefficients cached per
    (q, g, target, r, d mod r), like D.  It raises as the count_* reports do.
    """
    if target == "m_rd":
        check_stable_domain(r, d)
        d %= r
    elif target in COUNT_TARGETS:
        r, d = 2, 1
    else:
        raise DomainError(f"unknown count target {target!r}")
    g = z.genus
    if target == "ntilde" and g < 3:
        raise DomainError("requires genus >= 3")
    if g < 2:
        raise DomainError("needs genus >= 2")
    nums, den = _count_vector(z.q, g, target, r, d)
    return Fraction(sum(a * m for a, m in zip(nums, _monomial_values(z)) if a), den)


def count_stable_fixed_det(z: CurveZeta, r: int, d: int,
                           table: BetaTable | None = None) -> ModuliReport:
    """N_q of the moduli of stable fixed-determinant bundles, gcd(r,d)=1:
    (q-1) beta(r, d).

    The value comes from count_value; the beta_table check compares it with
    (q-1) beta(r, d) from BetaTable, and for r = 2 the closed form (and, in
    genus 2, the quadric-intersection oracle) are checked against it too.
    """
    value = count_value(z, "m_rd", r, d)
    if table is None:
        table = BetaTable(z)
    q = z.q
    b = table.beta(r, d)
    report = ModuliReport(target="m_rd", value=value)
    report.components["beta"] = b
    report.components["siegel_mass"] = Fraction(*table.siegel[r])  # filled by table.beta
    if r == 2:
        g = z.genus
        (c_z2, c_nj), den = _closed_form_const(q, g, d % 2)
        alt = Fraction(c_z2 * zeta_numerator(z, 2) - c_nj * jacobian_count(z, 1), den)
        report.cross_checks["closed_form"] = _check(alt, value)
        if g == 2:
            report.cross_checks["genus2_oracle"] = _check(
                Fraction(genus2_oracle(z)), value)
    report.cross_checks["beta_table"] = _check((q - 1) * b, value)
    return report


@functools.lru_cache(maxsize=256)
def _closed_form_const(q: int, g: int, parity: int) -> tuple[tuple[int, int], int]:
    """((a, b), D): q^(3g-3) zeta(2) - q^(g-1+parity) P(1) / ((q-1)^2 (q+1))
    is (a Z_2 - b P(1)) / D."""
    return _common_den(q ** (3 * g - 3) * zeta_scale(q, g, 2),
                       Fraction(q ** (g - 1 + parity), (q - 1) ** 2 * (q + 1)))


def _proj_count(q: int, m: int) -> Fraction:
    """N_q(P^m) = (q^(m+1) - 1)/(q - 1); 0 for empty projective space."""
    if m < 0:
        return Fraction(0)
    return Fraction(q ** (m + 1) - 1, q - 1)


def count_ms20(z: CurveZeta) -> ModuliReport:
    """Stable locus of the trivial-determinant rank-2 space.

    The value is the four-term closed form
    q^(3g-3) zeta(2) - (q^(g+1) - q^2 + q) P(1) / ((q-1)^2 (q+1))
    - P(1) P(-1) / (2(q+1)) + 4^g / (2(q+1)), from count_value; the
    component assembly q^(3g-3) zeta(2) - (q-1)(beta'(2,0) + beta_1 + beta_2)
    is recorded as a cross-check (the two disagree by exactly 4^g/(q+1);
    both reported).
    """
    closed = count_value(z, "ms20")
    nj = jacobian_count(z, 1)
    nj2 = jacobian_count(z, 2)
    two2g = 2 ** (2 * z.genus)
    xs = (zeta_numerator(z, 2), nj, nj2, 1)
    beta_prime, beta1, beta2, assembly = (
        Fraction(sum(a * x for a, x in zip(nums, xs)), den)
        for nums, den in _ms20_consts(z.q, z.genus))
    a_size = Fraction(nj - two2g, 2)
    b_size = Fraction(nj2 - nj, 2)
    report = ModuliReport(target="ms20", value=closed)
    report.hypotheses["full_2_torsion"] = _full_2_torsion(z)
    report.cross_checks["component_assembly"] = _check(closed, assembly)
    report.components.update({
        "beta_prime_2_0": beta_prime,
        "beta_1": beta1,
        "beta_2": beta2,
        "A_size": a_size,
        "B_size": b_size,
    })
    return report


@functools.lru_cache(maxsize=64)
def _ms20_consts(q: int, g: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """count_ms20's beta'(2,0), beta_1, beta_2 and component assembly, each as
    (a, D) with the value a . (Z_2, P(1), N_{q^2}(J), 1) / D.

    beta_1 = A/(q-1)^2 + 2 A N(P^(g-2))/(q-1) + B/(q^2-1) with
    A = (P(1) - 4^g)/2 and B = (N_{q^2}(J) - P(1))/2; beta_2 = 4^g/|GL_2(F_q)|
    + 4^g N(P^(g-1))/(q(q-1)); the assembly is
    q^(3g-3) zeta(2) - (q-1)(beta'(2,0) + beta_1 + beta_2).
    """
    two2g = 2 ** (2 * g)
    k_a = (Fraction(1, (q - 1) ** 2) + 2 * _proj_count(q, g - 2) / (q - 1)) / 2
    k_b = Fraction(1, 2 * (q**2 - 1))
    beta_prime = (0, Fraction(q ** (g - 1), (q - 1) ** 3 * (q + 1)), 0, 0)
    beta1 = (0, k_a - k_b, k_b, -two2g * k_a)
    beta2 = (0, 0, 0, Fraction(two2g, (q**2 - 1) * (q**2 - q))
             + two2g * _proj_count(q, g - 1) / (q * (q - 1)))
    main = (q ** (3 * g - 3) * zeta_scale(q, g, 2), 0, 0, 0)
    assembly = tuple(m - (q - 1) * (a + b + c) for m, a, b, c in zip(main, beta_prime, beta1, beta2))
    return tuple(_common_den(*form) for form in (beta_prime, beta1, beta2, assembly))


def _full_2_torsion(z: CurveZeta) -> bool:
    """True when F splits into deg(F) distinct roots over F_q, i.e. every
    2-torsion class of the Jacobian is already rational.  Computed once per
    CurveZeta; never when deg(F) > q, since F_q then has too few elements.

    The roots are counted by evaluating F at every element index of F_q."""
    flag = z._cache.get("full_2_torsion")
    if flag is None:
        F, n = z.curve.F, z.curve.field.order
        flag = z.curve.gamma <= n and sum(F(x) == 0 for x in range(n)) == z.curve.gamma
        z._cache["full_2_torsion"] = flag
    return flag


def grassmannian_count(q: int, k: int, n: int) -> int:
    """Gaussian binomial [n choose k]_q; 0 when k > n."""
    if k < 0 or n < 0:
        raise DomainError("need k, n >= 0")
    if k > n:
        return 0
    val = Fraction(1)
    for i in range(k):
        val *= Fraction(q ** (n - i) - 1, q ** (k - i) - 1)
    assert val.denominator == 1
    return val.numerator


def count_ntilde(z: CurveZeta) -> ModuliReport:
    """The desingularized rank-4 trivial-determinant space, genus >= 3.

    value = N(M^s) + N(Y) + 4^g N(R) + 4^g N(S) with N(Y) evaluated
    directly from the A/B strata, from count_value; the components are
    recomputed here, and the alternative expanded form of N(Y) is recorded
    as a cross-check, not reconciled.
    """
    value = count_value(z, "ntilde")
    g = z.genus
    q = z.q
    ms = count_ms20(z)
    nj = jacobian_count(z, 1)
    nj2 = jacobian_count(z, 2)
    two2g = 2 ** (2 * g)
    a_size = Fraction(nj - two2g, 2)
    b_size = Fraction(nj2 - nj, 2)
    p_g2 = _proj_count(q, g - 2)
    p2_g2 = Fraction(q ** (2 * (g - 1)) - 1, q**2 - 1)  # over F_{q^2}
    y_direct = a_size * p_g2 * p_g2 + b_size * p2_g2
    y_expanded = (Fraction(q ** (2 * g - 3) - q, 2 * (q - 1) * (q + 1)) * nj
                  + Fraction(q ** (2 * g - 2) - 1, 2 * (q - 1) * (q + 1)) * nj2
                  - Fraction(q ** (2 * g - 3) - 1, 2 * (q - 1)) * two2g)
    r_count = Fraction(q ** (g - 2) * grassmannian_count(q, 2, g))
    s_count = Fraction(grassmannian_count(q, 3, g))
    report = ModuliReport(target="ntilde", value=value)
    report.hypotheses["full_2_torsion"] = ms.hypotheses["full_2_torsion"]
    report.cross_checks["y_expansion"] = _check(y_direct, y_expanded)
    report.cross_checks["ms20_component_assembly"] = ms.cross_checks["component_assembly"]
    report.components.update({
        "ms20": ms.value,
        "Y": y_direct,
        "R": r_count,
        "S": s_count,
        "A_size": a_size,
        "B_size": b_size,
    })
    return report


def count_higgs(z: CurveZeta) -> ModuliReport:
    """Rank-2 odd-degree stable Higgs count q^(4g-3) A_{g,2}.

    A_{g,2} = A_1 + A_2 + A_3 in terms of P(1), P(q), P(-1) and the
    logarithmic derivative of P at 1; the value is degree-independent.  It
    comes from count_value; the components A_i are recomputed here.
    """
    value = count_value(z, "higgs")
    g = z.genus
    q = z.q
    c = z.coeffs
    p1 = sum(c)
    pq = sum(ci * q**i for i, ci in enumerate(c))
    pm1 = sum((-1) ** i * ci for i, ci in enumerate(c))
    dp1 = sum(i * ci for i, ci in enumerate(c))
    a1 = Fraction(p1 * pq, (q - 1) * (q**2 - 1))
    a2 = -Fraction(p1 * pm1, 4 * (q + 1))
    # p1^2 / (2(q-1)) (1/2 - 1/(q-1) - sum_l 1/(1 - alpha_l)), the sum being 2g - dp1/p1
    a3 = Fraction(p1 * (p1 * (q - 3 - 4 * g * (q - 1)) + 2 * (q - 1) * dp1), 4 * (q - 1) ** 2)
    a_g2 = a1 + a2 + a3
    report = ModuliReport(target="higgs", value=value)
    report.cross_checks["a2_jacobian_identity"] = _check(
        -Fraction(jacobian_count(z, 2), 4 * (q + 1)), a2)
    report.components.update({"A_1": a1, "A_2": a2, "A_3": a3, "A_g2": a_g2})
    return report


def log_count_estimate(z: CurveZeta, r: int) -> tuple[float, float]:
    """Logarithmic size estimate for the stable count and its envelope.

    estimate = (r^2-1)(g-1) log q + sum_{k=2}^r log zeta(k);
    envelope = 10 (A + q^(-g/2) e^A),  A = 2 (1/sqrt(q) + loglog(g)/q^2).
    """
    if r < 2:
        raise DomainError("need rank >= 2")
    g = z.genus
    if g < 2:
        raise DomainError("needs genus >= 2")
    q = z.q
    est = (r * r - 1) * (g - 1) * math.log(q)
    for k in range(2, r + 1):
        zk = zeta_value(z, k)
        est += math.log(zk.numerator) - math.log(zk.denominator)
    a = 2.0 * (1.0 / math.sqrt(q) + math.log(math.log(g)) / q**2)
    envelope = 10.0 * (a + q ** (-0.5 * g) * math.exp(a))
    return est, envelope


@functools.lru_cache(maxsize=256)
def family_constant(q: int, gamma: int, variant: str = "base", r: int = 2) -> float:
    """The centering constants of the log-count decompositions."""
    delta = 1 if gamma % 2 == 0 else 0

    def base(rr: int) -> float:
        if not 2 <= rr <= 4:
            raise DomainError("base constant supported for 2 <= r <= 4")
        denom = 1
        for k in range(2, rr + 1):
            denom *= (q ** (k - 1) - 1) * (q**k - 1)
        val = math.log(q ** (rr * rr - 1) / denom)
        val -= delta * sum(math.log(1 - q ** (-k)) for k in range(2, rr + 1))
        return val

    if variant == "base":
        return base(r)
    if variant == "thm15":
        return base(2)
    if variant == "thm16":
        return delta * math.log(1 - 1 / q**2)
    if variant == "higgs":
        return base(2) - delta * math.log(1 - 1 / q)
    raise DomainError(f"unknown constant variant {variant!r}")
