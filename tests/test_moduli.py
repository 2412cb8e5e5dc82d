import itertools
import math
from fractions import Fraction

import pytest

from moduli_census.errors import DomainError, UnsupportedRankError
from moduli_census.ffield import make_field
from moduli_census.polyring import FamilySpec, MonicPoly, family, parse_poly
from moduli_census.curvezeta import (HyperellipticCurve, family_curves, jacobian_count, zeta_data,
                                    zeta_data_block, zeta_value)
from moduli_census.moduli import (
    COUNT_TARGETS,
    SUPPORTED_PARTITIONS,
    beta,
    count_higgs,
    count_ms20,
    count_ntilde,
    count_stable_fixed_det,
    count_value,
    family_constant,
    genus2_oracle,
    grassmannian_count,
    log_count_estimate,
    siegel_mass,
    thaddeus_count,
    unstable_mass,
)
from reference import (family_size, full_2_torsion, higgs_by_fixed_loci, symmetric_power_count,
                       thaddeus_m21)

F3 = make_field(3)


@pytest.fixture(scope="module")
def z55():
    return zeta_data(HyperellipticCurve(parse_poly(F3, "0,1,0,0,0,1")))


@pytest.fixture(scope="module")
def z73():
    for f in family(FamilySpec(F3, 7)):
        return zeta_data(HyperellipticCurve(f))


# -- Siegel mass ---------------------------------------------------------------

def test_siegel_mass_x5x(z55):
    # (1/(q-1)) q^(3(g-1)) zeta(2) with zeta(2) = 187/108
    assert siegel_mass(z55, 2) == Fraction(27, 2) * Fraction(187, 108) == Fraction(187, 8)


def test_siegel_mass_telescopes(z55):
    assert siegel_mass(z55, 3) == siegel_mass(z55, 2) * 3 ** 5 * zeta_value(z55, 3)
    assert siegel_mass(z55, 4) == siegel_mass(z55, 3) * 3 ** 7 * zeta_value(z55, 4)


def test_siegel_mass_domain():
    g1 = zeta_data(HyperellipticCurve(parse_poly(F3, "0,2,0,1")))
    with pytest.raises(DomainError):
        siegel_mass(g1, 2)
    with pytest.raises(DomainError):
        siegel_mass(g1, 5)


# -- unstable strata -------------------------------------------------------------

def test_unstable_11_oracle(z55):
    # two-line oracle: direct truncation of the geometric lattice sum
    def brute(d, terms=200):
        q, g, nj = 3, 2, 12
        total = Fraction(0)
        for d1 in range(d // 2 + 1, d // 2 + 1 + terms):
            if 2 * d1 <= d:
                continue
            chi = (d1 - (d - d1)) + (1 - g)
            total += Fraction(nj, (q - 1) ** 2) * Fraction(q) ** (-chi)
        return total

    for d in (0, 1, 2, 5, -3):
        exact = unstable_mass(z55, (1, 1), d)
        assert abs(exact - brute(d)) < Fraction(1, 10**80)
    assert unstable_mass(z55, (1, 1), 1) == Fraction(27, 8)
    assert unstable_mass(z55, (1, 1), 0) == Fraction(9, 8)


def test_unstable_11_matches_beta_prime_closed_form(z55):
    nj = jacobian_count(z55, 1)
    assert unstable_mass(z55, (1, 1), 0) == Fraction(nj * 3, 2**3 * 4)


def test_unstable_triple_oracle(z55):
    # oracle: truncated triple lattice sum over strictly decreasing degrees
    def brute(d, span=60):
        q, g, nj = 3, 2, 12
        total = Fraction(0)
        for d1 in range(d - span, d + span):
            for d2 in range(d1 - 2 * span, d1):
                d3 = d - d1 - d2
                if d2 <= d3:
                    continue
                chi = 2 * (d1 - d3) + 3 * (1 - g)
                total += Fraction(nj**2, (q - 1) ** 3) * Fraction(q) ** (-chi)
        return total

    for d in (0, 1, 2):
        assert abs(unstable_mass(z55, (1, 1, 1), d) - brute(d)) < Fraction(1, 10**40)


def test_unstable_21_oracle(z55):
    def brute(d, partition, terms=120):
        q, g, nj = 3, 2, 12
        n1, n2 = partition
        total = Fraction(0)
        start = (d * n1) // 3 + 1
        for d1 in range(start, start + terms):
            chi = d1 * n2 - (d - d1) * n1 + n1 * n2 * (1 - g)
            b1 = beta(z55, n1, d1)
            b2 = beta(z55, n2, d - d1)
            total += nj * Fraction(q) ** (-chi) * b1 * b2
        return total

    for d in (0, 1, 2):
        for part in ((2, 1), (1, 2)):
            assert abs(unstable_mass(z55, part, d) - brute(d, part)) < Fraction(1, 10**40)


def test_unstable_mass_degree_periodicity(z55):
    # the stratum mass itself only depends on d mod (total rank): computed
    # directly at shifted degrees, not through the memo table
    for d in (0, 1, 2):
        assert unstable_mass(z55, (1, 1), d) == unstable_mass(z55, (1, 1), d + 2)
        for part in ((1, 1, 1), (2, 1), (1, 2)):
            assert unstable_mass(z55, part, d) == unstable_mass(z55, part, d + 3)


def test_unstable_transpose_duality(z55):
    for d in range(-3, 4):
        assert unstable_mass(z55, (2, 1), d) == unstable_mass(z55, (1, 2), -d)


def test_unstable_unsupported():
    z = zeta_data(HyperellipticCurve(parse_poly(F3, "0,1,0,0,0,1")))
    with pytest.raises(UnsupportedRankError):
        unstable_mass(z, (2, 2), 0)
    with pytest.raises(UnsupportedRankError):
        unstable_mass(z, (1, 1, 1, 1), 0)


# -- beta --------------------------------------------------------------------------

def test_beta_values(z55):
    assert beta(z55, 2, 1) == Fraction(187, 8) - Fraction(27, 8) == 20
    assert beta(z55, 2, 0) == Fraction(187, 8) - Fraction(9, 8) == Fraction(89, 4)
    assert beta(z55, 1, 7) == Fraction(1, 2)


def test_beta_periodicity(z55):
    for r in (2, 3):
        for d in (0, 1, 2):
            assert beta(z55, r, d) == beta(z55, r, d + r)
            assert beta(z55, r, d) == beta(z55, r, d - 3 * r)
    assert beta(z55, 2, 0) > 0 and beta(z55, 3, 1) > 0


# -- stable counts ------------------------------------------------------------------

def test_count_stable_21(z55):
    rep = count_stable_fixed_det(z55, 2, 1)
    assert rep.value == 40
    assert rep.is_integer
    assert rep.cross_checks["genus2_oracle"]["residual"] == 0
    assert rep.cross_checks["thaddeus"] == {"expected": 40, "got": 40, "residual": 0}


def test_count_stable_beta_table_check(z55, z73):
    for z in (z55, z73):
        q = z.q
        for r, d in ((2, 1), (2, -1), (3, 1), (3, 2), (3, -4)):
            rep = count_stable_fixed_det(z, r, d)
            chk = rep.cross_checks["beta_table"]
            assert chk["expected"] == (q - 1) * beta(z, r, d) == rep.value
            assert chk["got"] == rep.value and chk["residual"] == 0
    assert set(count_stable_fixed_det(z55, 3, 1).cross_checks) == {"beta_table"}


def test_count_stable_siegel_mass_built_once(z55, z73, monkeypatch):
    # the count evaluates the Siegel mass's form once, and the components
    # are the ones siegel_mass and beta give
    from moduli_census import moduli
    want = {(z, r, d): (siegel_mass(z, r), beta(z, r, d))
            for z in (z55, z73) for r, d in ((2, 1), (3, 1), (3, 2))}
    calls = []
    real = moduli._evaluate

    def counting(z, build, *key):
        calls.append((build, key))
        return real(z, build, *key)

    monkeypatch.setattr(moduli, "_evaluate", counting)
    for (z, r, d), (mass, b) in want.items():
        calls.clear()
        rep = count_stable_fixed_det(z, r, d)
        assert rep.components == {"beta": b, "siegel_mass": mass}
        assert calls.count((moduli._siegel_form, (r,))) == 1


def test_count_stable_d_periodic(z55):
    assert count_stable_fixed_det(z55, 2, 3).value == count_stable_fixed_det(z55, 2, 1).value


def test_count_stable_rejects_non_coprime(z55):
    with pytest.raises(DomainError):
        count_stable_fixed_det(z55, 2, 0)
    with pytest.raises(DomainError):
        count_stable_fixed_det(z55, 3, 3)


def test_genus2_oracle_examples(z55):
    assert genus2_oracle(z55) == 40  # 27 + 9 + 3 + 1 - 3*0
    g1 = zeta_data(HyperellipticCurve(parse_poly(F3, "0,2,0,1")))
    with pytest.raises(DomainError):
        genus2_oracle(g1)


def test_genus2_oracle_weil_band():
    q = 3
    for f in itertools.islice(family(FamilySpec(F3, 5)), 30):
        z = zeta_data(HyperellipticCurve(f))
        val = genus2_oracle(z)
        assert abs(val - (q**3 + q**2 + q + 1)) <= 4 * q * math.sqrt(q) + 1e-9
        if z.N[0] == q + 1:
            assert val == q**3 + q**2 + q + 1


# -- the stable (2,0) space ----------------------------------------------------------

def test_count_ms20_x5x(z55):
    rep = count_ms20(z55)
    # four-term closed form: 187/4 - 63/4 - 18 + 2
    assert rep.value == Fraction(187, 4) - Fraction(63, 4) - 18 + 2 == 15
    assert rep.is_integer
    assert rep.hypotheses["full_2_torsion"] is False
    assert rep.components["beta_prime_2_0"] == Fraction(9, 8)
    assert rep.components["A_size"] == -2  # negative: hypothesis violation surfaced
    assert rep.components["B_size"] == 66
    # the component assembly lands 4^g/(q+1) below the closed form, exactly
    chk = rep.cross_checks["component_assembly"]
    assert chk["got"] == 11
    assert chk["residual"] == Fraction(2**4, 4) == 4


def test_ms20_assembly_offset_is_universal():
    # closed form minus component assembly == 4^g/(q+1) on every curve
    for f in itertools.islice(family(FamilySpec(F3, 5)), 40):
        z = zeta_data(HyperellipticCurve(f))
        rep = count_ms20(z)
        assert rep.cross_checks["component_assembly"]["residual"] == Fraction(16, 4)


def test_ms20_domain():
    g1 = zeta_data(HyperellipticCurve(parse_poly(F3, "0,2,0,1")))
    with pytest.raises(DomainError):
        count_ms20(g1)


# -- grassmannians ---------------------------------------------------------------------

def brute_grassmannian(q, k, n):
    # oracle: enumerate k-dimensional subspaces of F_q^n as row spaces
    from itertools import product
    K = make_field(q) if q % 2 else None
    vectors = list(product(range(q), repeat=n))

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def scale(c, u):
        return tuple((c * a) % q for a in u)

    def span(basis):
        out = {tuple([0] * n)}
        for v in basis:
            new = set()
            for c in range(q):
                sv = scale(c, v)
                for u in out:
                    new.add(add(u, sv))
            out = new
        return frozenset(out)

    subspaces = set()
    for basis in itertools.combinations(vectors[1:], k):
        s = span(basis)
        if len(s) == q**k:
            subspaces.add(s)
    return len(subspaces)


def test_grassmannian_counts():
    assert grassmannian_count(2, 2, 4) == 35 == brute_grassmannian(2, 2, 4)
    assert grassmannian_count(3, 1, 3) == 13 == brute_grassmannian(3, 1, 3)
    assert grassmannian_count(3, 3, 2) == 0
    assert grassmannian_count(5, 3, 3) == 1
    assert grassmannian_count(3, 2, 5) == grassmannian_count(3, 3, 5)  # duality


# -- the desingularized space ------------------------------------------------------------

def test_ntilde_requires_genus3(z55):
    with pytest.raises(DomainError):
        count_ntilde(z55)


def test_ntilde_evaluates_each_form_once(monkeypatch):
    # the A/B strata sizes are the ms20 report's own, not evaluated again
    from collections import Counter
    from moduli_census import moduli
    z = zeta_data(HyperellipticCurve(parse_poly(make_field(5), "1,1,0,0,0,0,0,1")))
    calls = Counter()
    real = moduli._evaluate

    def counting(z, build, *key):
        calls[build.__name__, key] += 1
        return real(z, build, *key)

    monkeypatch.setattr(moduli, "_evaluate", counting)
    rep = count_ntilde(z)
    assert calls[("_ab_form", (0,))] == calls[("_ab_form", (1,))] == 1
    assert set(calls.values()) == {1}
    assert (rep.components["A_size"], rep.components["B_size"]) == (
        real(z, moduli._ab_form, 0), real(z, moduli._ab_form, 1))


def test_ntilde_structure(z73):
    q = 3
    g = z73.genus
    rep = count_ntilde(z73)
    assert g == 3
    assert rep.components["R"] == q ** (g - 2) * grassmannian_count(q, 2, g)
    assert rep.components["S"] == grassmannian_count(q, 3, g)
    assert rep.value == (rep.components["ms20"] + rep.components["Y"]
                         + 2 ** (2 * g) * (rep.components["R"] + rep.components["S"]))
    # the two published Y expansions genuinely differ; both are recorded
    chk = rep.cross_checks["y_expansion"]
    assert chk["expected"] == rep.components["Y"]
    a, b = rep.components["A_size"], rep.components["B_size"]
    nj, nj2 = jacobian_count(z73, 1), jacobian_count(z73, 2)
    y_direct = a * Fraction((q ** (g - 1) - 1), (q - 1)) ** 2 \
        + b * Fraction(q ** (2 * g - 2) - 1, q**2 - 1)
    assert rep.components["Y"] == y_direct


def test_ntilde_y_zero_a_branch(z73):
    # structural: if A were empty, Y reduces to the B part
    q, g = 3, z73.genus
    b = Fraction(jacobian_count(z73, 2) - jacobian_count(z73, 1), 2)
    y_when_a_zero = b * Fraction(q ** (2 * g - 2) - 1, q**2 - 1)
    rep = count_ntilde(z73)
    a = rep.components["A_size"]
    assert rep.components["Y"] == y_when_a_zero + a * Fraction(q ** (g - 1) - 1, q - 1) ** 2


# -- Higgs ---------------------------------------------------------------------------------

def test_higgs_x5x(z55):
    rep = count_higgs(z55)
    assert rep.components["A_1"] == Fraction(12 * 748, 16) == 561
    assert rep.components["A_2"] == -9
    assert rep.components["A_3"] == -24
    assert rep.components["A_g2"] == 528
    assert rep.value == 243 * 528 == 128304
    assert rep.value == 3 ** (4 * z55.genus - 3) * rep.components["A_g2"]
    assert rep.is_integer
    assert rep.cross_checks["fixed_loci"] == {"expected": 128304, "got": 128304, "residual": 0}


def test_higgs_integrality_sample():
    for f in itertools.islice(family(FamilySpec(F3, 5)), 50):
        z = zeta_data(HyperellipticCurve(f))
        a = count_higgs(z).components["A_g2"]
        assert a.denominator == 1 and a > 0


# -- estimates and constants ------------------------------------------------------------

def test_log_count_estimate(z55):
    est, env = log_count_estimate(z55, 2)
    assert est == pytest.approx(3 * math.log(3) + math.log(187 / 108), abs=1e-12)
    assert est - 3 * math.log(3) == pytest.approx(math.log(float(zeta_value(z55, 2))))
    assert env > 0


def test_envelope_decreasing_in_genus():
    zs = []
    for gamma in (5, 7, 9):
        for f in family(FamilySpec(F3, gamma)):
            zs.append(zeta_data(HyperellipticCurve(f)))
            break
    envs = [log_count_estimate(z, 2)[1] for z in zs]
    assert envs[0] > envs[1] > envs[2] > 0


def test_family_constants():
    assert family_constant(3, 5) == pytest.approx(math.log(27 / 16), abs=1e-15)
    assert family_constant(3, 6) == pytest.approx(
        math.log(27 / 16) - math.log(8 / 9), abs=1e-14)
    assert family_constant(3, 6, "higgs") == pytest.approx(
        math.log(27 / 16) - math.log(8 / 9) - math.log(2 / 3), abs=1e-14)
    assert family_constant(3, 5, "thm16") == 0.0
    assert family_constant(3, 6, "thm16") == pytest.approx(math.log(1 - 1 / 9))
    with pytest.raises(DomainError):
        family_constant(3, 5, "nope")


# -- the integer forms against the plain Fraction expressions ---------------------------

def _ref_zeta_value(z, k):
    q = z.q
    acc = Fraction(0)
    for c in reversed(z.coeffs):  # P(q^-k) by Horner in Fraction
        acc = acc * Fraction(1, q**k) + c
    return acc * q ** (2 * k - 1) / ((q**k - 1) * (q ** (k - 1) - 1))


def _ref_siegel(z, r):
    out = Fraction(z.q ** ((r * r - 1) * (z.genus - 1)), z.q - 1)
    for k in range(2, r + 1):
        out *= _ref_zeta_value(z, k)
    return out


def _ref_unstable(z, partition, d):
    q, g, nj, Q = z.q, z.genus, jacobian_count(z, 1), Fraction(z.q)
    if len(partition) == 2:
        n1, n2 = partition
        r = n1 + n2
        d1_min = (d * n1) // r + 1
        L = n1 if n1 == n2 else n1 * n2
        total = Fraction(0)
        for rho in range(L):
            first = d1_min + ((rho - d1_min) % L)
            b1 = _ref_beta(z, n1, first % n1)
            b2 = _ref_beta(z, n2, (d - first) % n2)
            total += b1 * b2 * Q ** (-r * first) / (1 - Q ** (-r * L))
        return nj * Q ** (n1 * n2 * (g - 1) + d * n1) * total
    x = Q ** (-2)
    geom = [x**3 / (1 - x**3), x / (1 - x**3), x**2 / (1 - x**3)]
    total = sum((geom[(s + d) % 3] * geom[s] for s in range(3)), Fraction(0))
    return Fraction(nj * nj, (q - 1) ** 3) * Q ** (3 * (g - 1)) * total


def _ref_beta(z, r, d):
    if r == 1:
        return Fraction(1, z.q - 1)
    parts = [(1, 1)] if r == 2 else [(1, 1, 1), (2, 1), (1, 2)]
    return _ref_siegel(z, r) - sum(_ref_unstable(z, p, d % r) for p in parts)


def test_integer_forms_match_fraction_expressions():
    for f in family(FamilySpec(F3, 5)):
        z = zeta_data(HyperellipticCurve(f))
        for k in (2, 3, 4):
            assert zeta_value(z, k) == _ref_zeta_value(z, k)
        for r, d in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
            assert beta(z, r, d) == _ref_beta(z, r, d), (f, r, d)
        for part, d in itertools.product(((1, 1), (2, 1), (1, 2), (1, 1, 1)), (-2, 0, 1, 4)):
            assert unstable_mass(z, part, d) == _ref_unstable(z, part, d), (f, part, d)
        ms = count_ms20(z)
        assert ms.value == _ref_ms20(z)
        assert ms.hypotheses["full_2_torsion"] is full_2_torsion(z.curve.F) is False
        higgs = count_higgs(z)
        assert higgs.components["A_3"] == _ref_higgs_a3(z)
        assert higgs.value == _ref_higgs(z)


def _ref_integers(q, coeffs):
    # the integers of P(t) that forms name, in plain Fractions
    def at(x):
        return sum(Fraction(x) ** i * c for i, c in enumerate(coeffs))
    g = (len(coeffs) - 1) // 2
    ints = {"nj": at(1), "P(-1)": at(-1), "P(q)": at(q),
            "P'(1)": sum(i * c for i, c in enumerate(coeffs))}
    ints.update({f"Z{k}": q ** (2 * g * k) * at(Fraction(1, q**k)) for k in range(2, 5)})
    return ints


def test_no_form_leaves_monomials(fresh_forms):
    # every key the public functions hand to the form evaluator: its cached
    # vector, evaluated at a stand-in P(t) with no curve, is the form's own
    # sum over its terms in plain Fractions
    from types import SimpleNamespace
    from moduli_census import moduli
    for q, g in itertools.product((3, 5, 7), range(2, 7)):
        low = [1] + [(-1) ** i * (i + 2) for i in range(1, g + 1)]  # c_0..c_g, not a curve's
        coeffs = tuple(low + [q ** (g - i) * low[i] for i in range(g - 1, -1, -1)])
        stand_in = SimpleNamespace(q=q, genus=g, coeffs=coeffs)
        ints = _ref_integers(q, coeffs)
        keys = [(moduli._siegel_form, r) for r in (2, 3, 4)]
        keys += [(moduli._hn_form, r, d) for r in (2, 3) for d in range(r)]
        keys += [(moduli._stratum_form, p, d) for p in SUPPORTED_PARTITIONS for d in range(-4, 5)]
        keys += [(moduli._count_form, t, r, d) for t in COUNT_TARGETS
                 for r, d in ((2, 1), (3, 1), (3, 2))]
        keys += [(moduli._ms20_form, part) for part in range(4)]
        keys += [(moduli._higgs_form, part) for part in range(3)]
        keys += [(moduli._ab_form, which) for which in range(2)] + [(moduli._y_form,)]
        keys += [(moduli._envelope_form, which) for which in range(3)]
        for build, *key in keys:
            want = sum((coef * math.prod(ints[f] for f in mono)
                        for mono, coef in build(q, g, *key)), Fraction(0))
            assert moduli._evaluate(stand_in, build, *key) == want, (q, g, build, key)
            assert moduli._vector(build, q, g, *key)[2] > 0


def test_zagier_sum_is_the_hn_recursion(fresh_forms):
    # the count route's beta (Zagier's closed sum) and the cross-check
    # route's beta (the Harder-Narasimhan recursion) are the same form for
    # every d, coprime to r or not
    from moduli_census import moduli
    for q, g in itertools.product((3, 5, 7), range(2, 6)):
        for r in (2, 3):
            for d in range(r):
                assert (moduli._vector(moduli._beta_form, q, g, r, d)
                        == moduli._vector(moduli._hn_form, q, g, r, d)), (q, g, r, d)


@pytest.mark.parametrize("q,gamma,step", [(5, 5, 25), (3, 7, 15)], ids=["H55", "H73"])
def test_value_route_matches_fraction_references(q, gamma, step):
    # siegel_mass, beta and unstable_mass on integer numerators over cached
    # denominators, against the plain Fraction expressions: every partition and
    # d in -4..4, on every step-th curve of a genus-2 family over F_5 and of a
    # genus-3 family over F_3
    zs = _family_zetas(q, gamma)[::step]
    assert len(zs) == {5: 100, 3: 98}[q]
    for z in zs:
        for r in (2, 3, 4):
            assert siegel_mass(z, r) == _ref_siegel(z, r), (z.curve.F.coeffs, r)
        ref_beta = {(r, e): _ref_beta(z, r, e) for r in (1, 2, 3) for e in range(r)}
        for d in range(-4, 5):
            for r in (1, 2, 3):
                assert beta(z, r, d) == ref_beta[r, d % r], (z.curve.F.coeffs, r, d)
            for part in SUPPORTED_PARTITIONS:
                ref = _ref_unstable(z, part, d)
                assert unstable_mass(z, part, d) == ref, (z.curve.F.coeffs, part, d)


def _ref_ms20(z):
    q, g = z.q, z.genus
    nj, nj2 = jacobian_count(z, 1), jacobian_count(z, 2)
    return (Fraction(q ** (3 * g - 3)) * _ref_zeta_value(z, 2)
            - Fraction(q ** (g + 1) - q**2 + q, (q - 1) ** 2 * (q + 1)) * nj
            - Fraction(nj2, 2 * (q + 1)) + Fraction(4**g, 2 * (q + 1)))


def _ref_higgs_a3(z):
    q, g, c = z.q, z.genus, z.coeffs
    p1 = sum(c)
    dp1 = sum(i * ci for i, ci in enumerate(c))
    return Fraction(p1 * p1, 2 * (q - 1)) * (Fraction(1, 2) - Fraction(1, q - 1)
                                             - (2 * g - Fraction(dp1, p1)))


def _ref_higgs(z):
    q, g, c = z.q, z.genus, z.coeffs
    p1 = sum(c)
    return q ** (4 * g - 3) * (
        Fraction(p1 * sum(ci * q**i for i, ci in enumerate(c)), (q - 1) * (q**2 - 1))
        - Fraction(p1 * sum((-1) ** i * ci for i, ci in enumerate(c)), 4 * (q + 1))
        + _ref_higgs_a3(z))


def _ref_ntilde(z):
    # N(M^s(2,0)) + A N(P^(g-2))^2 + B N_{q^2}(P^(g-2)) + 4^g (q^(g-2) [g 2]_q + [g 3]_q)
    q, g = z.q, z.genus
    nj, nj2 = jacobian_count(z, 1), jacobian_count(z, 2)
    a, b = Fraction(nj - 4**g, 2), Fraction(nj2 - nj, 2)
    y = (a * Fraction(q ** (g - 1) - 1, q - 1) ** 2
         + b * Fraction(q ** (2 * g - 2) - 1, q**2 - 1))
    return (_ref_ms20(z) + y
            + 4**g * (q ** (g - 2) * grassmannian_count(q, 2, g) + grassmannian_count(q, 3, g)))


def _ref_count(z, target, r, d):
    if target == "m_rd":
        return (z.q - 1) * _ref_beta(z, r, d)
    return {"ms20": _ref_ms20, "ntilde": _ref_ntilde, "higgs": _ref_higgs}[target](z)


def _family_zetas(q, gamma):
    curves = [HyperellipticCurve(f) for f in family(FamilySpec(make_field(q), gamma))]
    return list(zeta_data_block(curves))


@pytest.mark.parametrize("q,gamma", [(3, 5), (3, 6), (5, 5)])
def test_count_value_matches_fraction_route(q, gamma):
    # every target, r in {2, 3} and d in -2..4 prime to r, on the whole family
    keys = [(t, 2, 1) for t in COUNT_TARGETS if t != "m_rd"]
    keys += [("m_rd", r, d) for r in (2, 3) for d in range(-2, 5) if math.gcd(r, d) == 1]
    for z in _family_zetas(q, gamma):
        refs = {}  # the reference beta depends only on d mod r
        for target, r, d in keys:
            if target == "ntilde":  # genus 2
                with pytest.raises(DomainError):
                    count_value(z, target)
                continue
            key = (target, r, d % r)
            if key not in refs:
                refs[key] = _ref_count(z, target, r, d)
            assert count_value(z, target, r, d) == refs[key], (z.curve.F.coeffs, target, r, d)


def test_count_value_ntilde_matches_fraction_route():
    zs = _family_zetas(3, 7)[::10]
    assert len(zs) == 146
    for z in zs:
        assert count_value(z, "ntilde") == _ref_ntilde(z), z.curve.F.coeffs


def test_count_value_domain(z55):
    with pytest.raises(DomainError):
        count_value(z55, "nope")
    with pytest.raises(DomainError):
        count_value(z55, "m_rd", 2, 0)
    with pytest.raises(UnsupportedRankError):
        count_value(z55, "m_rd", 4, 1)
    g1 = zeta_data(HyperellipticCurve(parse_poly(F3, "0,2,0,1")))
    for target in COUNT_TARGETS:
        with pytest.raises(DomainError):
            count_value(g1, target)


def test_full_2_torsion_flag_matches_root_count():
    # deg F <= q, where F can split over F_q (the other case is covered
    # above), up to deg F = q, where only x^q - x splits, over prime fields
    # and F_9; the flags of a block are each curve's own, whether a curve
    # comes alone or with others
    from moduli_census.moduli import _full_2_torsion
    for q, k, gamma in ((3, 1, 3), (5, 1, 4), (5, 1, 5), (3, 2, 4), (3, 2, 9)):
        K = make_field(q, k)
        curves = list(family_curves(FamilySpec(K, gamma, "sample", 300, 1)))
        if gamma == K.order:  # x^q - x
            curves.append(HyperellipticCurve(
                MonicPoly(K, [0, K.tables()[4][1]] + [0] * (gamma - 2) + [1])))
        zs = list(zeta_data_block(curves))
        want = [full_2_torsion(c.F) for c in curves]
        assert _full_2_torsion(zs) == want, (q, k, gamma)
        assert [_full_2_torsion([z])[0] for z in zs[-50:]] == want[-50:]
        assert any(want) and not all(want)
    assert _full_2_torsion([]) == []


# (gamma, q, count, seed): the whole family when count is None, else a seeded sample
THADDEUS_FAMILIES = [(5, 3, None, 0), (5, 5, None, 0), (7, 3, None, 0),
                     (9, 3, 200, 1), (7, 5, 200, 2), (11, 3, 60, 3)]


@pytest.mark.parametrize("gamma, q, count, seed", THADDEUS_FAMILIES,
                         ids=[f"H{g}{q}" for g, q, _, _ in THADDEUS_FAMILIES])
def test_rank2_counts_match_thaddeus_flips_and_higgs_fixed_loci(gamma, q, count, seed):
    # two routes that read only the symmetric powers of the curve, against
    # Zagier's sum: Thaddeus' flips give m_21 at d = 4g - 3, the least degree
    # they cover, and at d = 4g + 1, a longer chain of flips; the C*-fixed
    # loci give the Higgs count from the flips' m_21.  The reports' thaddeus
    # and fixed_loci rows are the same two routes in src/, in integers
    from moduli_census.moduli import _sym_count
    spec = FamilySpec(make_field(q), gamma, *(("sample", count, seed) if count else ()))
    zs = list(zeta_data_block(family_curves(spec)))
    assert len(zs) == (count or family_size(q, gamma))
    for z in zs:
        g, c = z.genus, z.coeffs
        flips = [thaddeus_m21(q, c, d) for d in (4 * g - 3, 4 * g + 1)]
        assert flips == [count_value(z, "m_rd", 2, 1)] * 2, z.curve.F
        assert higgs_by_fixed_loci(q, c, flips[0]) == count_value(z, "higgs"), z.curve.F
        assert thaddeus_count(z) == flips[0], z.curve.F
        assert count_stable_fixed_det(z, 2, 1).cross_checks["thaddeus"]["residual"] == 0
        assert count_higgs(z).cross_checks["fixed_loci"]["residual"] == 0
    for c in {z.coeffs for z in zs}:
        assert [_sym_count(q, c, m) for m in range(2 * g + 3)] == [
            symmetric_power_count(q, c, m) for m in range(2 * g + 3)], c
