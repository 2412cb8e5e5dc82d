import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moduli_census.errors import DomainError, PolyParseError
from moduli_census.ffield import extend_field, make_field
from moduli_census.polyring import (
    FamilySpec,
    MonicPoly,
    family,
    format_poly,
    is_irreducible,
    is_squarefree,
    parse_poly,
    poly_from_code,
    prime_count,
    sample_member,
    von_mangoldt,
)
from reference import (
    code,
    family_size,
    irreducible_polys,
    jacobi_symbol,
    jacobi_symbol_via_factorization,
    norm,
)

F3 = make_field(3)
F5 = make_field(5)


def mp(field, *indices):
    return MonicPoly(field, indices)


# -- squarefree / irreducible ------------------------------------------------

def test_squarefree_examples():
    assert not is_squarefree(mp(F3, 0, 0, 1))          # x^2
    assert is_squarefree(mp(F3, 0, 1, 0, 0, 0, 1))     # x^5 + x
    assert is_squarefree(mp(F3, 0, 1, 0, 0, 0, 0, 1))  # x^6 + x, f' = 1
    assert not is_squarefree(mp(F3, 0, 0, 0, 1))       # x^3 = (x)^3


def test_irreducible_examples():
    assert is_irreducible(mp(F3, 0, 1))
    assert is_irreducible(mp(F3, 1, 0, 1))       # x^2+1 has no roots mod 3
    assert not is_irreducible(mp(F5, 1, 0, 1))   # 2^2 + 1 = 0 mod 5


def test_polyring_routines_need_table_sized_fields():
    from moduli_census.errors import BudgetError
    big = make_field(4099)  # above ffield.TABLE_LIMIT
    for routine in (is_irreducible, is_squarefree):
        with pytest.raises(BudgetError):
            routine(mp(big, 1, 0, 1))


def brute_force_irreducible(f: MonicPoly) -> bool:
    # oracle: trial division by every lower-degree monic polynomial
    K = f.field
    q = K.order
    for d in range(1, f.degree):
        for code in range(q**d):
            g = poly_from_code(K, code, d)
            # long division: f mod g == 0?
            from moduli_census.polyring import _iv
            from reference import _iv_divexact
            if _iv_divexact(_iv(f), _iv(g), K) is not None:
                return False
    return f.degree >= 1


@pytest.mark.parametrize("q", [3, 5])
def test_irreducible_vs_brute_force(q):
    K = make_field(q)
    rng = random.Random(1234 + q)
    for _ in range(200):
        d = rng.randrange(1, 5)
        f = poly_from_code(K, rng.randrange(q**d), d)
        assert is_irreducible(f) == brute_force_irreducible(f)


# -- von Mangoldt ------------------------------------------------------------

def test_von_mangoldt_examples():
    assert von_mangoldt(mp(F3, 0, 1)) == 1
    x2p1 = mp(F3, 1, 0, 1)
    assert von_mangoldt(x2p1**3) == 2
    assert von_mangoldt(mp(F3, 0, 1) * mp(F3, 1, 1)) == 0
    assert von_mangoldt(mp(F3, 0, 0, 0, 1)) == 1        # x^3 in char 3
    assert von_mangoldt(mp(F3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)) == 1  # x^9


@pytest.mark.parametrize("q,nmax", [(3, 6), (5, 6), (9, 4), (25, 3)])
def test_mangoldt_sum_is_qn(q, nmax):
    # sum over monic f of degree n of Lambda(f) equals q^n (finite primes)
    K = make_field(q) if q in (3, 5) else make_field(math.isqrt(q), 2)
    for n in range(1, nmax + 1):
        total = sum(von_mangoldt(poly_from_code(K, code, n))
                    for code in range(q**n))
        assert total == q**n


# the fields and degrees on which every monic f is checked against the prime
# powers P^k built from the sieve's primes (_irreducible_ivs), F_81 over F_9 a tower
MANGOLDT_CASES = [(F3, 6), (F5, 4), (make_field(3, 2), 4), (extend_field(make_field(3, 2), 2), 2)]


@pytest.mark.parametrize("K, nmax", MANGOLDT_CASES,
                         ids=[f"q{K.order}-n{nmax}" for K, nmax in MANGOLDT_CASES])
def test_von_mangoldt_matches_sieved_prime_powers(K, nmax):
    from moduli_census.polyring import _code_iv, _irreducible_ivs
    q = K.order
    want = {}
    for e in range(1, nmax + 1):
        for P in _irreducible_ivs(K, e):
            for k in range(1, nmax // e + 1):
                want[(MonicPoly(K, P) ** k).coeffs] = e
    for n in range(1, nmax + 1):
        for c in range(q**n):
            f = MonicPoly(K, _code_iv(c, q, n))
            assert von_mangoldt(f) == want.get(f.coeffs, 0), f
            assert is_irreducible(f) == (want.get(f.coeffs) == n), f


# -- Jacobi symbol -----------------------------------------------------------

def test_jacobi_examples():
    x2p1 = mp(F3, 1, 0, 1)
    assert jacobi_symbol(mp(F3, 0, 1), x2p1) == 1        # x^4 = 1 mod x^2+1
    assert jacobi_symbol(mp(F3, 2, 1), x2p1) == -1       # (x-1)^4 = -1 mod x^2+1
    # squares are residues
    h = mp(F3, 1, 1)
    F = mp(F3, 1, 0, 1)
    assert jacobi_symbol(h * h, F) == 1


def test_jacobi_rejects_non_squarefree_modulus():
    with pytest.raises(DomainError):
        jacobi_symbol(mp(F3, 0, 1), mp(F3, 0, 0, 1))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_jacobi_routes_agree(q):
    # reciprocity route vs factorization route on >= 10^4 random pairs total
    K = make_field(q)
    rng = random.Random(77 + q)
    for _ in range(3500):
        dF = rng.randrange(1, 6)
        while True:
            F = poly_from_code(K, rng.randrange(q**dF), dF)
            if is_squarefree(F):
                break
        df = rng.randrange(0, 6)
        f = poly_from_code(K, rng.randrange(q**df), df)
        assert jacobi_symbol(f, F) == jacobi_symbol_via_factorization(f, F)


def test_jacobi_symmetric_for_q_1_mod_4():
    # q = 5 = 1 mod 4 kills the reciprocity sign: (f/g) = (g/f) for coprime monics
    K = make_field(5)
    rng = random.Random(13)
    found = 0
    while found < 200:
        f = poly_from_code(K, rng.randrange(5**3), 3)
        g = poly_from_code(K, rng.randrange(5**2), 2)
        if not (is_squarefree(f) and is_squarefree(g)):
            continue
        if jacobi_symbol(f, g) == 0:
            continue
        assert jacobi_symbol(f, g) == jacobi_symbol(g, f)
        found += 1


def test_jacobi_multiplicative_in_top():
    K = make_field(3)
    rng = random.Random(5)
    for _ in range(400):
        while True:
            F = poly_from_code(K, rng.randrange(3**4), 4)
            if is_squarefree(F):
                break
        f = poly_from_code(K, rng.randrange(3**3), 3)
        g = poly_from_code(K, rng.randrange(3**2), 2)
        assert jacobi_symbol(f * g, F) == jacobi_symbol(f, F) * jacobi_symbol(g, F)


# -- prime counting ------------------------------------------------------------

def test_prime_count_values():
    assert prime_count(3, 1) == 3
    assert prime_count(3, 2) == 3
    assert prime_count(2, 4) == 3  # formula-only use of even q
    # every element of F_{q^n} has a minimal polynomial of some degree d | n
    for q in (3, 5, 7):
        for n in range(1, 13):
            assert sum(d * prime_count(q, d) for d in range(1, n + 1) if n % d == 0) == q**n


@pytest.mark.parametrize("q,nmax", [(3, 6), (5, 6)])
def test_prime_count_vs_enumeration(q, nmax):
    K = make_field(q)
    for n in range(1, nmax + 1):
        count = sum(1 for code in range(q**n)
                    if is_irreducible(poly_from_code(K, code, n)))
        assert count == prime_count(q, n)


def test_irreducible_polys_listing():
    assert len(irreducible_polys(F3, 2)) == 3
    assert all(p.degree == 2 for p in irreducible_polys(F3, 2))


# -- family enumeration and sampling -----------------------------------------

def test_family_size_examples():
    for q, gamma in [(3, 5), (3, 6), (5, 5)]:
        K = make_field(q)
        members = list(family(FamilySpec(K, gamma)))
        assert len(members) == family_size(q, gamma) == q**gamma - q ** (gamma - 1)


def test_family_order_stable():
    members = [format_poly(f) for f in family(FamilySpec(F3, 5))]
    assert members[0] == "1,0,0,0,0,1"
    assert members == sorted(members, key=lambda s: [int(c) for c in s.split(",")][::-1])
    # order equals code order
    codes = [code(f) for f in family(FamilySpec(F3, 5))]
    assert codes == sorted(codes)


def test_family_gamma_bound():
    with pytest.raises(DomainError):
        list(family(FamilySpec(F3, 2)))


def test_sampling_deterministic():
    spec = FamilySpec(F3, 5, "sample", 10, 42)
    a = [format_poly(f) for f in family(spec)]
    b = [format_poly(f) for f in family(spec)]
    assert a == b
    assert sample_member(spec, 3) == sample_member(spec, 3)
    other = FamilySpec(F3, 5, "sample", 10, 43)
    assert [format_poly(f) for f in family(other)] != a
    for f in family(spec):
        assert is_squarefree(f) and f.degree == 5


# the families the square-free sieve covers, each checked on every code
SIEVE_CASES = ([(F3, g) for g in range(3, 9)] + [(F5, g) for g in range(3, 6)]
               + [(make_field(7), g) for g in (3, 4)] + [(make_field(3, 2), g) for g in (3, 4)])


@pytest.mark.parametrize("K, gamma", SIEVE_CASES,
                         ids=[f"q{K.order}-d{gamma}" for K, gamma in SIEVE_CASES])
def test_squarefree_sieve_matches_gcd_on_every_code(K, gamma):
    from moduli_census.polyring import _code_iv, _iv_squarefree, _square_moduli, _squarefree_rows
    q = K.order
    squares = _square_moduli(K, gamma)
    assert squares is not None
    rows, keep = _squarefree_rows(K, range(q**gamma), gamma, squares)
    ivs = [_code_iv(code, q, gamma) for code in range(q**gamma)]
    assert rows == ivs
    assert keep == [_iv_squarefree(iv, K) for iv in ivs]
    # the enumerate stream is the sieved code blocks, in code order
    assert [list(f.coeffs) for f in family(FamilySpec(K, gamma))] == [
        iv for iv, ok in zip(ivs, keep) if ok]


# the fields of the residue kernel's test; 103 is the least odd prime whose
# reciprocal, times an exact multiple of it, floors one short, so the
# kernel's + 1/2 matters there and not over 3, 5 or 7
RESIDUE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (103, 1)]


@pytest.mark.parametrize("p, k", RESIDUE_FIELDS, ids=[f"q{p**k}" for p, k in RESIDUE_FIELDS])
def test_residues_match_the_gather_reference(p, k):
    # _residues, one float64 product of base-p digits and an exact floor-mod,
    # against a gather on the add and mul tables: moduli of degree e = 1..4
    # (1..2 over F_103), rows of each width the callers use (gamma + 1 for
    # the sieve and the symbols, 2e - 1 for the symbol fill), both random and
    # of the digit p - 1 alone, whose sums are the largest
    from moduli_census.polyring import _residues
    from reference import residues_by_gather
    K, rng = make_field(p, k), random.Random(p * k)
    q = K.order
    assert any(math.floor(c * p * (1 / p)) != c for c in range(1, 1000)) == (p == 103)
    split = False
    for e in range(1, 3 if p > 7 else 5):
        mods = tuple({tuple(rng.randrange(q) for _ in range(e)) + (1,) for _ in range(60)})
        for D in (e + 1, 2 * e - 1, 2 * e + 1, 10):
            rows = np.array([[rng.randrange(q) for _ in range(D)] for _ in range(300)]
                            + [[q - 1] * D] * 3)
            blocks = list(_residues(K, rows, mods))
            split |= len(blocks) > 1
            assert np.concatenate(blocks).tolist() == residues_by_gather(K, rows, mods).tolist()
    assert split  # some rows came in more than one sub-block


def reference_draw(spec, i):
    """Draw i by definition: the first code of its stream whose polynomial
    passes is_squarefree."""
    from moduli_census.polyring import _draws
    polys = (poly_from_code(spec.field, code, spec.gamma) for code in _draws(spec, i))
    return next(f for f in polys if is_squarefree(f))


@pytest.mark.parametrize("seed", range(4))
def test_sieved_sample_stream_matches_each_draw(monkeypatch, seed):
    # the draws of a block are sieved together, the rejects again on their
    # next codes; each draw is still the first square-free code of its own
    # stream, across block boundaries and across a sweep chunk boundary
    # (draws 1000..1049)
    from moduli_census import polyring
    from moduli_census.polyring import CHUNK
    for K, gamma in ((F3, 9), (F5, 5)):
        spec = FamilySpec(K, gamma, "sample", 1100, seed)
        want = [reference_draw(spec, i) for i in range(1000, 1050)]
        assert 1000 < CHUNK < 1050
        assert list(family(spec, 1000, 1050)) == want
        assert [sample_member(spec, i) for i in range(1000, 1050)] == want
        assert sample_member(FamilySpec(K, gamma, seed=seed), 1000) == want[0]  # any mode
        monkeypatch.setattr(polyring, "CHUNK", 16)
        assert list(family(spec, 1000, 1050)) == want
        monkeypatch.undo()


def test_sieved_sample_runs_no_gcd_test(monkeypatch):
    # within SIEVE_MODULI every draw, the redraws of the rejects too, is
    # tested by the sieve alone
    from moduli_census import polyring

    def no_gcd(*args):
        raise AssertionError("a draw was tested by gcd(F, F')")

    monkeypatch.setattr(polyring, "_iv_squarefree", no_gcd)
    members = list(family(FamilySpec(F3, 9, "sample", 2048, 1)))
    assert len(members) == 2048 and all(f.degree == 9 for f in members)


@pytest.mark.parametrize("K, gamma",
                         [(make_field(7), 7), (make_field(241), 3), (make_field(3, 5), 3)],
                         ids=["H77", "H3-241", "H3-243"])
def test_families_within_the_sieve_bound_are_sieved_exactly(K, gamma):
    # H_{7,7} has 140 squares P^2, H_{3,241} 241, and H_{3,243} over the tower
    # F_243 has 243 and the largest q^gamma within the bound (about 1.4e7, in
    # int64); each is sieved, and keeps what gcd(F, F') keeps on 1000 random
    # codes and the last code
    from moduli_census.polyring import SIEVE_MODULI, _square_moduli, _squarefree_rows
    squares = _square_moduli(K, gamma)
    assert squares is not None and sum(map(len, squares)) <= SIEVE_MODULI
    rng = random.Random(gamma)
    codes = [rng.randrange(K.order**gamma) for _ in range(1000)] + [K.order**gamma - 1]
    assert _squarefree_rows(K, codes, gamma, squares) == _squarefree_rows(K, codes, gamma, None)


def test_large_family_is_tested_code_by_code(monkeypatch):
    # H_{13,11} has 331364 squares P^2 to sieve by; its members are tested by
    # gcd(F, F') one code at a time
    from moduli_census import polyring
    from moduli_census.polyring import _square_moduli
    K11 = make_field(11)
    assert _square_moduli(F5, 5) is not None
    assert _square_moduli(K11, 13) is None
    assert _square_moduli(make_field(251), 3) is None  # 251 squares
    assert sum(prime_count(11, d) for d in range(1, 7)) > polyring.SIEVE_MODULI

    def no_sieve(*args):
        raise AssertionError("a family above SIEVE_MODULI was sieved")

    monkeypatch.setattr(polyring, "_residues", no_sieve)
    spec = FamilySpec(K11, 13, "sample", 40, 1)
    assert list(family(spec)) == [reference_draw(spec, i) for i in range(40)]
    first = list(family(FamilySpec(K11, 13), 0, 200))
    assert first and all(is_squarefree(f) for f in first)


# -- text format ---------------------------------------------------------------

def test_parse_format_roundtrip():
    f = parse_poly(F3, "0,1,0,0,0,1")
    assert f.degree == 5
    assert format_poly(f) == "0,1,0,0,0,1"


def test_parse_errors_carry_index():
    with pytest.raises(PolyParseError) as exc:
        parse_poly(F3, "0,x,1")
    assert exc.value.index == 1
    with pytest.raises(PolyParseError) as exc:
        parse_poly(F3, "0,5,1")
    assert exc.value.index == 1
    with pytest.raises(PolyParseError) as exc:
        parse_poly(F3, "0,1,2")
    assert exc.value.index == 2


@given(st.lists(st.integers(0, 2), min_size=1, max_size=9))
def test_poly_text_roundtrip_hypothesis(indices):
    f = MonicPoly(F3, indices + [1])
    assert parse_poly(F3, format_poly(f)) == f


def test_norm_multiplicative():
    f = mp(F3, 1, 1)
    g = mp(F3, 2, 0, 1)
    assert norm(f * g) == norm(f) * norm(g)
    assert (f * g).degree == f.degree + g.degree
