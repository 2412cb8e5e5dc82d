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

Every exact quantity here is a form: a polynomial in integers of P(t)
alone (P(1), P(-1), P(q), P'(1) and Z_k = q^(2gk) P(q^-k)) whose
coefficients depend only on (q, g) and a key.  One evaluator serves them
all: _vector caches a form as the monomials it names, with integer
numerators over one denominator, per (builder, q, g, key), and _evaluate
turns it into one Fraction from (q, g, P(t)) alone, with no curve.  The
integers of each P(t) are computed once and kept in this module's own
cache, keyed by (q, P(t)); nothing is stored on a CurveZeta.  No form is
built outside this module.  Two formulas feed it.  The counts
(count_value) use Zagier's closed sum over the compositions of r for
m_rd, and for ms20, ntilde and higgs the sum of one builder per term:
_higgs_form's A_1..A_3, _y_form's N(Y) over the A/B strata of _ab_form,
and _ntilde_rs' N(R) and N(S).  The reports evaluate those same builders
for their components, so every check of a component tests a term of the
value.  The cross-check route (siegel_mass, beta, unstable_mass, the
r = 2 closed form, the ms20 component assembly and rank3_envelopes) runs
the Harder-Narasimhan recursion on forms, so count_stable_fixed_det's
beta_table check compares two different formulas.  The checks that read the curve's integers
without the evaluator are genus2_oracle, the higgs report's
a2_jacobian_identity and the ntilde report's y_expansion (the Jacobian
counts), and validate's estimate.siegel_main_term (log_count_estimate's
zeta values, through zeta_value).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

from .curvezeta import (CurveZeta, _block_rows, _value, jacobian_count, log_frac, zeta_numerator,
                        zeta_scale, zeta_value)
from .errors import DomainError, UnsupportedRankError
from .polyring import _irreducible_ivs, _residues

_STRATA = {2: ((1, 1),), 3: ((2, 1), (1, 2), (1, 1, 1))}  # the HN strata of rank r
EXACT_RANKS = tuple(_STRATA)  # the ranks r >= 2 whose HN strata, beta and stable counts are exact
SUPPORTED_PARTITIONS = tuple(p for strata in _STRATA.values() for p in strata)


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
        return {**asdict(self), "is_integer": self.is_integer}


def _check(expected: Fraction, got: Fraction) -> dict:
    return {"expected": expected, "got": got, "residual": expected - got}


def siegel_mass(z: CurveZeta, r: int) -> Fraction:
    """Total mass of rank-r fixed-determinant bundles:
    q^((r^2-1)(g-1)) zeta(2)...zeta(r) / (q-1)."""
    if not 2 <= r <= 4:
        raise DomainError("rank must be between 2 and 4")
    return _evaluate(z, _siegel_form, r)


def unstable_mass(z: CurveZeta, partition: tuple[int, ...], d: int) -> Fraction:
    """Mass of the Harder-Narasimhan stratum with the given rank partition.

    The lattice sum over strictly decreasing slopes is grouped into
    finitely many residue classes with closed-form geometric tails, so the
    value is exact.  Supported partitions: (1,1), (2,1), (1,2), (1,1,1).
    """
    partition = tuple(partition)
    if partition not in SUPPORTED_PARTITIONS:
        raise UnsupportedRankError(f"partition {partition} not supported"
                                   " (total rank must be <= 3)")
    return _evaluate(z, _stratum_form, partition, d)


def beta(z: CurveZeta, r: int, d: int) -> Fraction:
    """Semistable mass beta(r, d) = Siegel mass minus the unstable strata.

    It depends only on d mod r (twisting by a line bundle of degree 1)."""
    if r == 1:
        return Fraction(1, z.q - 1)
    if r not in EXACT_RANKS:
        raise UnsupportedRankError("beta implemented for ranks 1..3")
    return _evaluate(z, _hn_form, r, d % r)


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


# -- forms: every exact quantity as N / D -------------------------------------
#
# A form is a polynomial in the integers of P(t) that _Integers names: a
# tuple of (monomial, coefficient) pairs, a monomial being the sorted tuple
# of its factors' names.  A builder build(q, g, *key) makes one form in
# plain Fractions; its coefficients depend only on (q, g, key).  _vector
# caches it as its monomials with integer numerators N_j over one
# denominator D, and _evaluate turns it into one Fraction per P(t).

def _mono(*factors: str) -> tuple[str, ...]:
    return tuple(sorted(factors))


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


def _common_den(*coefs) -> tuple[tuple[int, ...], int]:
    """(a_i, D) with coefs[i] = a_i / D, D the lcm of their denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in coefs))
    return tuple(int(c * den) for c in coefs), den


@functools.lru_cache(maxsize=1024)
def _vector(build, q: int, g: int, *key) -> tuple[tuple[tuple[str, ...], ...], tuple[int, ...], int]:
    """(m_j, N_j, D): build(q, g, *key) is sum_j N_j m_j / D over its
    monomials m_j with a nonzero coefficient, in sorted order."""
    form = sorted((m, c) for m, c in _sum_forms((1, build(q, g, *key))) if c)
    return (tuple(m for m, _ in form), *_common_den(*(c for _, c in form)))


class _Integers(dict):
    """The integers of one P(t) = coeffs over F_q that forms name: nj = P(1),
    P(-1), P(q), P'(1), and Zk = Z_k (curvezeta.zeta_numerator) for any
    k >= 2, computed on first use."""

    def __init__(self, q: int, c: tuple[int, ...]):
        super().__init__({"nj": sum(c), "P(-1)": _value(c, -1), "P(q)": _value(c, q),
                          "P'(1)": sum(i * ci for i, ci in enumerate(c))})
        self.q, self.coeffs = q, c

    def __missing__(self, name: str) -> int:
        value = self[name] = zeta_numerator(self.q, self.coeffs, int(name[1:]))
        return value


@functools.lru_cache(maxsize=4096)
def _integers(q: int, coeffs: tuple[int, ...]) -> _Integers:
    """The _Integers of P(t), one per (q, P(t)) for as long as the cache keeps it."""
    return _Integers(q, coeffs)


def _evaluate(z, build, *key) -> Fraction:
    """The form build(q, g, *key) at z's P(t), as one Fraction(sum_j N_j m_j, D).
    It reads z.q, z.genus and z.coeffs alone, so any object with those will do."""
    monos, nums, den = _vector(build, z.q, z.genus, *key)
    ints = _integers(z.q, z.coeffs)
    return Fraction(sum(a * math.prod(ints[f] for f in m) for m, a in zip(monos, nums)), den)


def _siegel_form(q: int, g: int, r: int) -> tuple:
    """The rank-r Siegel mass v_r: q^((r^2-1)(g-1)) / (q-1) times
    zeta(k) = zeta_scale Z_k for k = 2..r, so v_1 = 1/(q-1)."""
    if g < 2:
        raise DomainError("needs genus >= 2")
    c = Fraction(q) ** ((r * r - 1) * (g - 1)) / (q - 1)
    for k in range(2, r + 1):
        c *= zeta_scale(q, g, k)
    return ((_mono(*(f"Z{k}" for k in range(2, r + 1))), c),)


# -- the cross-check route: the Harder-Narasimhan recursion --------------------

def _hn_form(q: int, g: int, r: int, d: int) -> tuple:
    """beta(r, d) for 0 <= d < r: the Siegel mass minus each stratum of _STRATA[r]."""
    if r == 1:
        return ((_mono(), Fraction(1, q - 1)),)
    return _sum_forms((1, _siegel_form(q, g, r)),
                      *((-1, _stratum_form(q, g, p, d)) for p in _STRATA[r]))


def _stratum_form(q: int, g: int, partition: tuple[int, ...], d: int) -> tuple:
    """unstable_mass.  For two steps, the sum over the residue classes of the
    first degree d1 of nj Q^(n1 n2 (g-1) + d n1) times the class's tail times
    beta(n1, d1) beta(n2, d - d1); for (1,1,1), nj^2 times the gap sum."""
    if len(partition) == 3:
        return ((_mono("nj", "nj"),
                 Fraction(q) ** (3 * (g - 1)) / (q - 1) ** 3 * _three_step_total(q, d % 3)),)
    n1, n2 = partition
    scale = Fraction(q) ** (n1 * n2 * (g - 1) + d * n1)
    nj = ((_mono("nj"), 1),)
    return _sum_forms(*((scale * tail, _mul_forms(nj, _mul_forms(
        _hn_form(q, g, n1, first % n1), _hn_form(q, g, n2, (d - first) % n2))))
        for first, tail in _two_step_tails(q, n1, n2, d)))


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


def _three_step_total(q: int, d: int) -> Fraction:
    """(1,1,1): gaps a = d1-d2 >= 1, b = d2-d3 >= 1 with a-b = d (mod 3)."""
    x = Fraction(1, q**2)
    geom = [x**3 / (1 - x**3), x / (1 - x**3), x**2 / (1 - x**3)]
    return sum((geom[(s + d) % 3] * geom[s] for s in range(3)), Fraction(0))


# -- the count route: Zagier's closed sum ------------------------------------

def _compositions(r: int) -> list[tuple[int, ...]]:
    """Every (n_1, ..., n_k) of positive integers with sum r."""
    if r == 0:
        return [()]
    return [(n, *rest) for n in range(1, r + 1) for rest in _compositions(r - n)]


def _beta_form(q: int, g: int, r: int, d: int) -> tuple:
    """beta(r, d) by Zagier's inversion of the Harder-Narasimhan recursion:
    the sum over the compositions n_1 + ... + n_k = r of
    P(1)^(k-1) prod v_(n_i) q^((g-1) sum_{i<j} n_i n_j + E) / prod_{i<k} (1 - q^(n_i + n_(i+1))),
    v_n the rank-n Siegel mass and E = sum_{i<k} (n_i + n_(i+1)) <(n_1 + ... + n_i) d / r>.
    E is an integer, though a single term of it need not be."""
    terms = []
    for comp in _compositions(r):
        steps = list(zip(comp, comp[1:]))
        e = sum((a + b) * (s * d % r) for (a, b), s in zip(steps, itertools.accumulate(comp))) // r
        coef = Fraction(q) ** ((g - 1) * sum(a * b for a, b in itertools.combinations(comp, 2)) + e)
        factors = ["nj"] * len(steps)
        for n in comp:
            ((mono, v),) = _siegel_form(q, g, n)
            coef *= v
            factors += mono
        for a, b in steps:
            coef /= 1 - q ** (a + b)
        terms.append((coef, ((_mono(*factors), 1),)))
    return _sum_forms(*terms)


def _count_form(q: int, g: int, target: str, r: int, d: int) -> tuple:
    if target == "m_rd":
        return _sum_forms((q - 1, _beta_form(q, g, r, d)))
    if target == "higgs":  # q^(4g-3) (A_1 + A_2 + A_3)
        return _sum_forms(*((q ** (4 * g - 3), _higgs_form(q, g, part)) for part in range(3)))
    two2g = 2 ** (2 * g)
    ms20 = _sum_forms((q - 1, _siegel_form(q, g, 2)),
                      (1, ((_mono("nj"), -Fraction(q ** (g + 1) - q**2 + q, (q - 1) ** 2 * (q + 1))),
                           (_mono("nj", "P(-1)"), -Fraction(1, 2 * (q + 1))),
                           (_mono(), Fraction(two2g, 2 * (q + 1))))))
    if target == "ms20":
        return ms20
    # ntilde: N(M^s(2,0)) + N(Y) + 4^g (N(R) + N(S))
    return _sum_forms((1, ms20), (1, _y_form(q, g)), (two2g * sum(_ntilde_rs(q, g)), ((_mono(), 1),)))


def count_value(z: CurveZeta, target: str, r: int = 2, d: int = 1) -> Fraction:
    """The value of one count of COUNT_TARGETS, as one Fraction(N, D).

    m_rd is (q-1) beta(r, d) for r in {2, 3} and gcd(r, d) = 1, from
    Zagier's sum; ms20, ntilde and higgs are the values of count_ms20,
    count_ntilde and count_higgs, whatever r and d.  N is an integer
    polynomial in the integers of P(t) that its form names, with
    coefficients cached per (q, g, target, r, d mod r), like D.  It raises
    as the count_* reports do.
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
    return _evaluate(z, _count_form, target, r, d)


def count_stable_fixed_det(z: CurveZeta, r: int, d: int) -> ModuliReport:
    """N_q of the moduli of stable fixed-determinant bundles, gcd(r,d)=1:
    (q-1) beta(r, d).

    The value comes from count_value (Zagier's sum); the beta_table check
    compares it with (q-1) beta(r, d) from the Harder-Narasimhan recursion,
    and for r = 2 the closed form (and, in genus 2, the quadric-intersection
    oracle) are checked against it too.
    """
    value = count_value(z, "m_rd", r, d)
    b = beta(z, r, d)
    report = ModuliReport(target="m_rd", value=value)
    report.components["beta"] = b
    report.components["siegel_mass"] = siegel_mass(z, r)
    if r == 2:
        report.cross_checks["closed_form"] = _check(_evaluate(z, _closed_form, d % 2), value)
        if z.genus == 2:
            report.cross_checks["genus2_oracle"] = _check(
                Fraction(genus2_oracle(z)), value)
    report.cross_checks["beta_table"] = _check((z.q - 1) * b, value)
    return report


def _closed_form(q: int, g: int, parity: int) -> tuple:
    """m_rd for r = 2: q^(3g-3) zeta(2) - q^(g-1+parity) P(1) / ((q-1)^2 (q+1)),
    the first term being (q-1) v_2."""
    return _sum_forms((q - 1, _siegel_form(q, g, 2)),
                      (1, ((_mono("nj"), -Fraction(q ** (g - 1 + parity), (q - 1) ** 2 * (q + 1))),)))


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
    beta_prime, beta1, beta2, assembly = (_evaluate(z, _ms20_form, part) for part in range(4))
    a_size, b_size = (_evaluate(z, _ab_form, which) for which in (0, 1))
    report = ModuliReport(target="ms20", value=closed)
    report.hypotheses["full_2_torsion"] = _full_2_torsion([z])[0]
    report.cross_checks["component_assembly"] = _check(closed, assembly)
    report.components.update({
        "beta_prime_2_0": beta_prime,
        "beta_1": beta1,
        "beta_2": beta2,
        "A_size": a_size,
        "B_size": b_size,
    })
    return report


def _ms20_form(q: int, g: int, part: int) -> tuple:
    """count_ms20's beta'(2,0), beta_1, beta_2 or component assembly, for
    part = 0, 1, 2 or 3.

    beta_1 = A/(q-1)^2 + 2 A N(P^(g-2))/(q-1) + B/(q^2-1), A and B the strata
    of _ab_form; beta_2 = 4^g/|GL_2(F_q)| + 4^g N(P^(g-1))/(q(q-1)); the
    assembly is q^(3g-3) zeta(2) - (q-1)(beta'(2,0) + beta_1 + beta_2).
    """
    two2g = 2 ** (2 * g)
    parts = (((_mono("nj"), Fraction(q ** (g - 1), (q - 1) ** 3 * (q + 1))),),
             _sum_forms((Fraction(1, (q - 1) ** 2) + 2 * _proj_count(q, g - 2) / (q - 1),
                         _ab_form(q, g, 0)),
                        (Fraction(1, q**2 - 1), _ab_form(q, g, 1))),
             ((_mono(), Fraction(two2g, (q**2 - 1) * (q**2 - q))
               + two2g * _proj_count(q, g - 1) / (q * (q - 1))),))
    if part < 3:
        return parts[part]
    return _sum_forms((q - 1, _siegel_form(q, g, 2)), *((1 - q, form) for form in parts))


def _ab_form(q: int, g: int, which: int) -> tuple:
    """The size of the stratum A = (P(1) - 4^g)/2 or B = (N_{q^2}(J) - P(1))/2
    of the strictly semistable locus, for which = 0 or 1; N_{q^2}(J) = P(1) P(-1)."""
    if which == 0:
        return ((_mono("nj"), Fraction(1, 2)), (_mono(), Fraction(-(2 ** (2 * g)), 2)))
    return ((_mono("nj", "P(-1)"), Fraction(1, 2)), (_mono("nj"), Fraction(-1, 2)))


def _full_2_torsion(zs) -> list[bool]:
    """Whether F splits into deg(F) distinct roots over F_q, i.e. every
    2-torsion class of the Jacobian is already rational, for each CurveZeta
    of a block (one field, one degree); never when deg(F) > q, since F_q then
    has too few elements.

    F is square-free, so it splits when deg(F) of its residues mod the q
    primes x - a of degree 1 are 0: one call of polyring._residues a block."""
    if not zs:
        return []
    K, rows = _block_rows([z.curve for z in zs])
    return [split for acc in _residues(K, rows, _irreducible_ivs(K, 1))
            for split in ((acc == 0).sum(axis=(1, 2)) == rows.shape[1] - 1).tolist()]


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
    directly from the A/B strata, from count_value.  The components M^s, Y,
    R and S are the values of the same builders count_value sums
    (count_ms20, _y_form, _ntilde_rs), and A_size and B_size are the ms20
    report's own.  The alternative expanded form of
    N(Y), which reads the Jacobian counts without the evaluator, is
    recorded as a cross-check, not reconciled.
    """
    value = count_value(z, "ntilde")
    g = z.genus
    q = z.q
    ms = count_ms20(z)
    y_direct = _evaluate(z, _y_form)
    y_expanded = (Fraction(q ** (2 * g - 3) - q, 2 * (q - 1) * (q + 1)) * jacobian_count(z, 1)
                  + Fraction(q ** (2 * g - 2) - 1, 2 * (q - 1) * (q + 1)) * jacobian_count(z, 2)
                  - Fraction(q ** (2 * g - 3) - 1, 2 * (q - 1)) * 2 ** (2 * g))
    r_count, s_count = _ntilde_rs(q, g)
    report = ModuliReport(target="ntilde", value=value)
    report.hypotheses["full_2_torsion"] = ms.hypotheses["full_2_torsion"]
    report.cross_checks["y_expansion"] = _check(y_direct, y_expanded)
    report.cross_checks["ms20_component_assembly"] = ms.cross_checks["component_assembly"]
    report.components.update({
        "ms20": ms.value,
        "Y": y_direct,
        "R": r_count,
        "S": s_count,
        "A_size": ms.components["A_size"],
        "B_size": ms.components["B_size"],
    })
    return report


def _y_form(q: int, g: int) -> tuple:
    """N(Y) = A N(P^(g-2))^2 + B N_{q^2}(P^(g-2)), A and B the strata of _ab_form."""
    return _sum_forms((_proj_count(q, g - 2) ** 2, _ab_form(q, g, 0)),
                      (_proj_count(q * q, g - 2), _ab_form(q, g, 1)))


def _ntilde_rs(q: int, g: int) -> tuple[Fraction, Fraction]:
    """(N(R), N(S)) = (q^(g-2) [g 2]_q, [g 3]_q): curve-independent, so plain numbers."""
    return Fraction(q ** (g - 2) * grassmannian_count(q, 2, g)), Fraction(grassmannian_count(q, 3, g))


def count_higgs(z: CurveZeta) -> ModuliReport:
    """Rank-2 odd-degree stable Higgs count q^(4g-3) A_{g,2}.

    A_{g,2} = A_1 + A_2 + A_3 in terms of P(1), P(q), P(-1) and the
    logarithmic derivative of P at 1; the value is degree-independent.  It
    comes from count_value, and the components A_i are the values of the
    forms it sums (_higgs_form).  a2_jacobian_identity checks A_2 against
    -N_{q^2}(J)/(4(q+1)), the Jacobian count read without the evaluator.
    """
    value = count_value(z, "higgs")
    a1, a2, a3 = (_evaluate(z, _higgs_form, part) for part in range(3))
    report = ModuliReport(target="higgs", value=value)
    report.cross_checks["a2_jacobian_identity"] = _check(
        -Fraction(jacobian_count(z, 2), 4 * (z.q + 1)), a2)
    report.components.update({"A_1": a1, "A_2": a2, "A_3": a3, "A_g2": a1 + a2 + a3})
    return report


def _higgs_form(q: int, g: int, part: int) -> tuple:
    """A_1, A_2 or A_3 of count_higgs, for part = 0, 1 or 2:
    A_1 = P(1) P(q) / ((q-1)(q^2-1)), A_2 = -P(1) P(-1) / (4(q+1)) and
    A_3 = P(1)^2 / (2(q-1)) (1/2 - 1/(q-1) - sum_l 1/(1 - alpha_l)), the sum
    over the reciprocal roots being 2g - P'(1)/P(1)."""
    return (((_mono("nj", "P(q)"), Fraction(1, (q - 1) * (q**2 - 1))),),
            ((_mono("nj", "P(-1)"), -Fraction(1, 4 * (q + 1))),),
            ((_mono("nj", "nj"), Fraction(q - 3 - 4 * g * (q - 1), 4 * (q - 1) ** 2)),
             (_mono("nj", "P'(1)"), Fraction(1, 2 * (q - 1)))))[part]


def rank3_envelopes(z: CurveZeta) -> tuple[Fraction, Fraction, Fraction]:
    """(beta'(2,0), the (1,1,1) envelope, the (2,1) envelope): the closed form
    of the (1,1) stratum at d = 0 and the published bounds of the rank-3
    strata, which validate's unstable suite holds unstable_mass to."""
    return tuple(_evaluate(z, _envelope_form, which) for which in range(3))


def _envelope_form(q: int, g: int, which: int) -> tuple:
    """rank3_envelopes, for which = 0, 1 or 2: beta'(2,0) = c_bp nj (count_ms20's),
    the (1,1,1) envelope c_3 nj^2, and the (2,1) envelope
    c_41 nj (2 v_2 - (q+1) c_bp nj), v_2 the rank-2 Siegel mass."""
    beta_prime = _ms20_form(q, g, 0)
    if which == 0:
        return beta_prime
    if which == 1:
        return ((_mono("nj", "nj"), Fraction(q**5 * q ** (3 * (g - 1)),
                                             (q - 1) ** 3 * (q**2 - 1) * (q**3 - 1))),)
    ((_, c_bp),), ((_, v_2),) = beta_prime, _siegel_form(q, g, 2)
    c_41 = Fraction(q**6 * q ** (2 * (g - 1)), (q - 1) * (q**6 - 1))
    return ((_mono("nj", "Z2"), 2 * c_41 * v_2), (_mono("nj", "nj"), -c_41 * (q + 1) * c_bp))


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
        est += log_frac(zeta_value(z, k))
    a = 2.0 * (1.0 / math.sqrt(q) + math.log(math.log(g)) / q**2)
    envelope = 10.0 * (a + q ** (-0.5 * g) * math.exp(a))
    return est, envelope


def exact_log_gap(z: CurveZeta, r: int, d: int) -> float:
    """|log N(M(r,d)) - (r^2-1)(g-1) log q|, the exact stable count's distance
    from the main term of log_count_estimate, which its envelope bounds."""
    return abs(log_frac(count_value(z, "m_rd", r, d)) - (r * r - 1) * (z.genus - 1) * math.log(z.q))


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
    if variant == "thm16":
        return delta * math.log(1 - 1 / q**2)
    if variant == "higgs":
        return base(2) - delta * math.log(1 - 1 / q)
    raise DomainError(f"unknown constant variant {variant!r}")
