import functools
import importlib
import itertools
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_census import countfast, curvezeta, polyring
from moduli_census.errors import BudgetError, DomainError, InternalConsistencyError
from moduli_census.ffield import extend_field, make_field
from moduli_census.polyring import FamilySpec, MonicPoly, _code_iv, _irreducible_ivs, family, parse_poly
from moduli_census.curvezeta import (
    HyperellipticCurve,
    check_riemann_hypothesis,
    epsilon_bounds,
    epsilon_terms,
    jacobian_count,
    l_poly_via_characters,
    lambda_character_identity,
    point_count,
    point_counts,
    xz_bound_check,
    zeta_data,
    zeta_data_block,
    zeta_value,
)
from moduli_census.sweep import CHUNK, SweepConfig, chunk_bounds
from reference import _iv_jacobi, lambda_character_sum

F3 = make_field(3)
X5X = parse_poly(F3, "0,1,0,0,0,1")    # x^5 + x
X6X = parse_poly(F3, "0,1,0,0,0,0,1")  # x^6 + x


@pytest.fixture(scope="module")
def z55():
    return zeta_data(HyperellipticCurve(X5X), check_budget=10**6)


@functools.lru_cache(maxsize=None)
def nonzero_squares(E) -> frozenset[int]:
    return frozenset(E.mul(x, x) for x in range(1, E.order))


def brute_point_count(F: MonicPoly, r: int) -> int:
    # oracle: walk F_{q^r}, evaluate F by Horner in E's index multiplication
    # (digit-wise addition, no log table of E) and count solutions.  F's
    # coefficients keep their indices in E.
    E = extend_field(F.field, r)
    p, squares = E.p, nonzero_squares(E)

    def add(a: int, b: int) -> int:
        out, unit = 0, 1
        while a or b:
            out += (a + b) % p * unit
            a, b, unit = a // p, b // p, unit * p
        return out

    total = 2 if F.degree % 2 == 0 else 1
    for x in range(E.order):
        acc = 0
        for c in reversed(F.coeffs):
            acc = add(E.mul(acc, x), c)
        total += 1 if acc == 0 else 2 if acc in squares else 0
    return total


def test_point_count_examples():
    C = HyperellipticCurve(X5X)
    assert point_count(C, 1) == 4
    assert point_count(C, 2) == 14
    C6 = HyperellipticCurve(X6X)
    assert point_count(C6, 1) == 4  # 2 affine + 2 at infinity


def test_point_count_matches_generic_enumeration():
    cases = [
        (3, "0,1,0,0,0,1"),      # x^5 + x: c_0 = 0
        (3, "1,0,1,0,0,1"),
        (3, "0,1,0,0,0,0,1"),    # even degree
        (3, "2,2,0,1"),
        (3, "1,1,0,0,1"),        # even degree 4
        (5, "1,1,0,0,0,1"),
        (5, "0,4,0,0,1"),        # x (x^3 - 1): c_0 = 0, roots in F_5 and F_25
        (5, "1,0,0,0,0,0,1"),    # x^6 + 1: roots in F_5 and F_25
        (5, "2,1,3,0,0,1"),
        (7, "0,6,0,1"),          # x^3 - x splits over F_7
        (7, "3,0,1,0,1"),        # even degree 4
        (7, "1,2,0,4,0,1"),
    ]
    for q, text in cases:
        F = parse_poly(make_field(q), text)
        C = HyperellipticCurve(F)
        for r in (1, 2, 3):
            assert point_count(C, r) == brute_point_count(F, r), (q, text, r)
    # element digits past one byte
    F = parse_poly(make_field(257), "1,1,0,1")
    assert point_count(HyperellipticCurve(F), 1) == brute_point_count(F, 1), (257, 1)
    # over F_9 = F_3[t]/(t^2 + 1), with the coefficient t outside F_3
    F9 = extend_field(F3, 2)
    F = MonicPoly(F9, (1, 3, 0, 0, 0, 1))  # index 3 is t
    C = HyperellipticCurve(F)
    for r in (1, 2):
        assert point_count(C, r) == brute_point_count(F, r), ("F_9", r)


F9 = extend_field(F3, 2)

# (field, degree, edge cases, extension degrees): each block mixes the edge
# cases (c_0 = 0, zero coefficients, roots in F_q) with sampled members
BLOCK_CASES = [
    (F3, 5, ["0,1,0,0,0,1", "1,0,1,0,0,1"], (1, 2, 3)),
    (F3, 6, ["0,1,0,0,0,0,1"], (1, 2, 3)),
    (make_field(5), 4, ["0,4,0,0,1"], (1, 2, 3)),
    (make_field(5), 6, ["1,0,0,0,0,0,1"], (1, 2)),
    (make_field(7), 3, ["0,6,0,1"], (1, 2, 3)),
    (make_field(7), 4, ["3,0,1,0,1"], (1, 2)),
    (make_field(131), 3, ["1,1,0,1", "0,1,0,1"], (1,)),  # byte digits, sums past a byte
    (make_field(257), 3, ["1,1,0,1", "0,1,0,1"], (1,)),  # digits past a byte
    (F9, 5, [], (1, 2)),
]


@pytest.mark.parametrize("K, gamma, edge, rs", BLOCK_CASES,
                         ids=[f"q{c[0].order}-d{c[1]}" for c in BLOCK_CASES])
@pytest.mark.parametrize("sub_block", [countfast.SUB_BLOCK, 64])
def test_block_counts_match_generic_enumeration(monkeypatch, K, gamma, edge, rs, sub_block):
    monkeypatch.setattr(countfast, "SUB_BLOCK", sub_block)
    polys = [parse_poly(K, text) for text in edge]
    polys += family(FamilySpec(K, gamma, "sample", 13 - len(polys), 5))
    if K is F9:  # a coefficient outside F_3
        polys.append(MonicPoly(F9, (1, 3, 0, 0, 0, 1)))
    curves = [HyperellipticCurve(F) for F in polys]
    if sub_block == 64 and K.order == 3:
        # several row slices per block, the last one short, each walked one
        # orbit at a time
        rows_per_slice = 64 // (gamma + 1)
        assert 1 < rows_per_slice < len(curves) and len(curves) % rows_per_slice
        assert 64 // (rows_per_slice * (gamma + 1)) == 1 < len(countfast.table(K, rs[-1]).reps)
    want = {r: [brute_point_count(F, r) for F in polys] for r in rs}
    assert point_counts(curves, rs) == want
    assert point_counts(curves[:1], rs) == {r: want[r][:1] for r in rs}
    assert [point_count(C, rs[-1]) for C in curves] == want[rs[-1]]
    if K.base is None:  # the one-row sum over F_p
        affine = [n - K.order**rs[0] - C.points_at_infinity for n, C in zip(want[rs[0]], curves)]
        assert [countfast.affine_chi_sum(K.p, rs[0], list(F.coeffs)) for F in polys] == affine


def d_term_chi_sums(t, rows) -> list[int]:
    # reference: the kernel's former formula, one D-term gather per row: the
    # base-p digits of each term c_i x^i = g^(log c_i + i k) at each orbit
    # representative k, summed and reduced mod p, then chi of that element
    rows = np.asarray(rows, dtype=np.int64)
    p, Q = t.p, t.Q
    n = 1
    while p**n < Q:
        n += 1
    pvec = p ** np.arange(n)
    power = np.zeros(Q - 1, dtype=np.int64)  # element index of g^k
    power[t.log[1:]] = np.arange(1, Q)
    digits = np.vstack([power[:, None] // pvec % p, np.zeros((1, n), dtype=np.int64)])
    steps = np.arange(rows.shape[1])[:, None] * t.reps % (Q - 1)
    out = []
    for row in rows:
        e = (t.log[row][:, None] + steps) % (Q - 1)
        e[row == 0] = Q - 1  # the zero row of digits
        y = digits[e].sum(axis=0) % p @ pvec
        out.append(int(t.chi[y].astype(np.int64) @ t.sizes) + int(t.chi[row[0]]))
    return out


# (field, degree, extension degrees, block size): a census-shaped block
# exercises the split on distinct codes, the small ones the plain fold
KERNEL_CASES = [
    (F3, 9, range(1, 9), 1024),
    (make_field(5), 5, range(1, 5), 1024),
    (F9, 5, range(1, 4), 300),
    (make_field(131), 3, (1, 2), 40),
    (make_field(257), 3, (1, 2), 40),
]


@pytest.mark.parametrize("K, gamma, rs, size", KERNEL_CASES,
                         ids=[f"q{c[0].order}-d{c[1]}" for c in KERNEL_CASES])
def test_chi_sums_match_d_term_reference(monkeypatch, K, gamma, rs, size):
    rows = np.array([c.F.coeffs for c in curvezeta.family_curves(FamilySpec(K, gamma, "sample", size, 2))])
    for r in rs:
        t = countfast.table(K, r)
        want = d_term_chi_sums(t, rows)
        assert t.chi_sums(rows).tolist() == want, r
        assert t.chi_sums(rows[:1]).tolist() == want[:1], r
        assert t.chi_sums(rows[1:3]).tolist() == want[1:3], r
    # smaller transients: several row slices, each split on its distinct codes,
    # and several orbit slices, the last one short
    monkeypatch.setattr(countfast, "SUB_BLOCK", 2**12)
    t = countfast.table(K, rs[-1])
    if size == 1024 and K.order == 3:
        rows_per_slice = 2**12 // (gamma + 1)
        assert 1 < rows_per_slice < size and size % rows_per_slice
        assert K.order ** ((gamma + 1) // 2) < rows_per_slice  # the top of each slice splits
        assert len(t.reps) % (2**12 // rows_per_slice)
    assert t.chi_sums(rows).tolist() == d_term_chi_sums(t, rows)


@pytest.mark.parametrize("K, rs", [(F3, range(1, 7)), (make_field(5), range(1, 4)), (F9, (1, 2)),
                                   (make_field(131), (1,)), (make_field(257), (1,))],
                         ids=["q3", "q5", "q9", "q131", "q257"])
def test_small_blocks_match_generic_enumeration(K, rs):
    gamma = 9 if K.order == 3 else 5 if K.order < 100 else 3
    polys = list(family(FamilySpec(K, gamma, "sample", 2, 3)))
    for r in rs:
        want = [brute_point_count(F, r) for F in polys]
        assert point_counts([HyperellipticCurve(polys[0])], [r]) == {r: want[:1]}
        assert point_counts([HyperellipticCurve(F) for F in polys], [r]) == {r: want}


def test_chi_sums_transients_stay_small():
    import tracemalloc
    t = countfast.table(F3, 8)
    rows = np.array([c.F.coeffs for c in curvezeta.family_curves(FamilySpec(F3, 9, "sample", 1024, 1))])
    t.chi_sums(rows[:1])  # the step rows of degree 9, kept on the table
    tracemalloc.start()
    try:
        t.chi_sums(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# the smallest-index generator of E* for E = extend_field(K, r), r = 1, 2, ...
PRIMITIVE_INDICES = [
    (F3, [2, 4, 3, 3, 3, 3, 5, 38]),
    (make_field(5), [2, 6, 9, 6]),
    (make_field(7), [3, 9, 22]),
    (F9, [4, 10, 10]),  # F_9, F_81 and F_729 over F_9
]


@pytest.mark.parametrize("K, want", PRIMITIVE_INDICES, ids=["q3", "q5", "q7", "q9"])
def test_primitive_element_is_pinned(K, want):
    for r, g in enumerate(want, 1):
        E = extend_field(K, r)
        n = 1
        while E.p**n < E.order:
            n += 1
        times_g = countfast._primitive_element(E, n)
        # row 0 holds the digits of 1 * g
        assert times_g[0] @ E.p ** np.arange(n) == g, r
        # the table's logs are taken to base g
        assert countfast.table(K, r).log[g] == 1


def test_block_zeta_data_matches_per_curve():
    for gamma in (5, 6):
        curves = [HyperellipticCurve(F) for F in family(FamilySpec(F3, gamma))]
        block = list(zeta_data_block(curves, check_budget=10**6))
        assert [z.curve for z in block] == curves
        single = [zeta_data(C, check_budget=10**6) for C in curves]
        assert [(z.N, z.coeffs) for z in block] == [(z.N, z.coeffs) for z in single]


def test_block_recount_mismatch_is_caught(monkeypatch):
    # N_3 (r = g + 1) of row 5 is off by 2: the block path must still compare it
    real = countfast.LogTable.chi_sums

    def perturbed(self, rows):
        out = real(self, rows)
        if self.Q == 27 and len(out) > 5:
            out[5] += 2
        return out

    monkeypatch.setattr(countfast.LogTable, "chi_sums", perturbed)
    curves = [HyperellipticCurve(F) for F in family(FamilySpec(F3, 5), 0, 40)]
    zs = zeta_data_block(curves, check_budget=10**6)
    for _ in range(5):
        next(zs)
    with pytest.raises(InternalConsistencyError, match="predicted-count-mismatch: N_3"):
        next(zs)


def test_block_validates_each_l_polynomial_once(monkeypatch):
    # P(t) is a function of N_1..N_g: Newton, RH and positivity run once per
    # distinct N_1..N_g of a run, and its curves share the validated tuples
    from moduli_census import validate
    checked = []
    real = curvezeta.check_riemann_hypothesis

    def counting(coeffs, q):
        checked.append(tuple(coeffs))
        return real(coeffs, q)

    monkeypatch.setattr(curvezeta, "check_riemann_hypothesis", counting)
    curves = [HyperellipticCurve(F) for F in family(FamilySpec(make_field(5), 5))]
    registry = {}
    zs = list(zeta_data_block(curves[:CHUNK], check_budget=10**6, registry=registry))
    first = {}
    for z in zs:
        shared = first.setdefault(z.N[:2], z)
        assert z.N is shared.N and z.psums is shared.psums and z.coeffs is shared.coeffs
    assert checked == [z.coeffs for z in first.values()]
    assert len(checked) < len(zs)
    # a later block of the run validates only the N_1..N_g the registry lacks
    known = len(first)
    checked.clear()
    later = list(zeta_data_block(curves[CHUNK:], check_budget=10**6, registry=registry))
    for z in later:
        shared = first.setdefault(z.N[:2], z)
        assert z.N is shared.N and z.psums is shared.psums and z.coeffs is shared.coeffs
    assert checked == [z.coeffs for z in list(first.values())[known:]]
    assert 0 < len(checked) < len(later)
    assert list(registry) == list(first) and len(registry) == 81
    assert sum(k for _, k in registry.values()) == len(curves) == 2500
    # without a registry, a block validates afresh
    checked.clear()
    list(zeta_data_block(curves[:1], check_budget=10**6))
    assert len(checked) == 1
    # validate --suite all on H_{5,5}: once per distinct P(t) of the family
    checked.clear()
    validate.run_suite("all", 5, 5)
    assert len(checked) == 81


def test_block_recount_mismatch_after_a_passing_twin(monkeypatch):
    # curve j shares N_1..N_g with an earlier curve that passed; its own
    # recount N_3 is still compared with the prediction
    curves = [HyperellipticCurve(F) for F in family(FamilySpec(F3, 5))]
    keys = [z.N[:2] for z in zeta_data_block(curves, check_budget=10**6)]
    j = next(i for i, key in enumerate(keys) if key in keys[:i])
    real = curvezeta.point_counts

    def perturbed(block, rs):
        counts = real(block, rs)
        counts[3][j] += 2
        return counts

    monkeypatch.setattr(curvezeta, "point_counts", perturbed)
    zs = zeta_data_block(curves, check_budget=10**6)
    for _ in range(j):
        next(zs)
    with pytest.raises(InternalConsistencyError, match="predicted-count-mismatch: N_3"):
        next(zs)


def test_point_count_budget():
    with pytest.raises(BudgetError):
        point_count(HyperellipticCurve(X5X), 20)


def test_curve_requires_squarefree():
    with pytest.raises(DomainError):
        HyperellipticCurve(parse_poly(F3, "0,0,1,0,0,1"))  # x^2 (x^3 + 1)... x^5+x^2 = x^2(x^3+1)


def test_family_curves_are_checked_once(monkeypatch):
    # the family's members are square-free by construction: its curves are
    # built without a second test, and keep the stream's K-indices
    def no_check(F):
        raise AssertionError("a family member was tested again")

    monkeypatch.setattr(curvezeta, "is_squarefree", no_check)
    for spec in (FamilySpec(F3, 6), FamilySpec(F9, 5, "sample", 30, 2)):
        curves = list(curvezeta.family_curves(spec, 3, 20))
        assert [C.F for C in curves] == list(family(spec, 3, 20))
        assert [list(C.F.coeffs) for C in curves] == list(polyring._members(spec, 3, 20))
        assert all((C.gamma, C.genus, C.delta) == (spec.gamma, (spec.gamma - 1) // 2, 1 - spec.gamma % 2)
                   for C in curves)
    with pytest.raises(AssertionError, match="tested again"):
        HyperellipticCurve(X5X)  # user input is still checked


def test_zeta_data_x5x(z55):
    assert z55.coeffs == (1, 0, 2, 0, 9)
    assert z55.N == (4, 14, 28, 110)
    assert z55.psums == (0, -4, 0, -28)


def test_zeta_data_g1_trivial():
    # g = 1 with N_1 = q + 1 forces c = [1, 0, q]
    g1 = HyperellipticCurve(parse_poly(F3, "0,2,0,1"))  # x^3 + 2x, 3 affine roots
    z = zeta_data(g1, check_budget=10**6)
    assert z.N[0] == 4
    assert z.coeffs == (1, 0, 3)


def test_effective_divisor_series(z55):
    # b_2 of Z(t) = P(t)/((1-t)(1-qt)) counts effective degree-2 divisors: 15
    q = 3
    sigma = lambda m: (q ** (m + 1) - 1) // (q - 1)
    b2 = sum(z55.coeffs[i] * sigma(2 - i) for i in range(3))
    # independent count from closed points: C(4,2) + 4 pairs plus (14-4)/2 = 5
    deg1 = z55.N[0]
    deg2 = (z55.N[1] - z55.N[0]) // 2
    assert b2 == deg1 * (deg1 - 1) // 2 + deg1 + deg2 == 15


def test_functional_equation_and_rh(z55):
    g, q = 2, 3
    for i in range(g + 1):
        assert z55.coeffs[2 * g - i] == q ** (g - i) * z55.coeffs[i]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_exact_rh_test_edge_cases():
    # y^2 = x^3 - x over F_3 is supersingular: a = 0, a root at y = 0
    z = zeta_data(HyperellipticCurve(parse_poly(F3, "0,2,0,1")))
    assert z.coeffs == (1, 0, 3)
    check_riemann_hypothesis(z.coeffs, 3)
    # the same curve over F_9: a = -6, a root at the boundary y = 4q = 36
    F9 = extend_field(F3, 2)
    F = MonicPoly(F9, parse_poly(F3, "0,2,0,1").coeffs)  # F_3 keeps its indices in F_9
    z9 = zeta_data(HyperellipticCurve(F))
    assert z9.coeffs == (1, 6, 9)
    check_riemann_hypothesis(z9.coeffs, 9)
    # repeated roots: at y = 0, inside (0, 4q) and on the boundary
    check_riemann_hypothesis(_times([1, 0, 3], [1, 0, 3]), 3)
    check_riemann_hypothesis(_times([1, -1, 3], [1, -1, 3]), 3)
    check_riemann_hypothesis(_times([1, 6, 9], [1, 6, 9]), 9)
    check_riemann_hypothesis(_times(_times([1, 6, 9], [1, 6, 9]), [1, -5, 9]), 9)
    check_riemann_hypothesis([1, 0, -6, 0, 9], 3)  # a = +-sqrt(12), y = 12 twice


@pytest.mark.parametrize("coeffs, q", [
    ([1, -7, 3], 3),                # a = 7 > 2 sqrt(3)
    ([1, 0, 7, 0, 9], 3),           # h(u) = u^2 + 1: a = +-i, y = -1 twice
    ([1, -1, 7, -3, 9], 3),         # h(u) = u^2 - u + 1: a non-real, y non-real
    ([1, 0, -7, 0, 9], 3),          # a = +-sqrt(13), y = 13 > 12 twice
    (_times([1, -4, 3], [1, -3, 3]), 3),  # one a outside, one inside
    # y = 36 = 4q twice beside y = 49 > 4q
    (_times(_times([1, 6, 9], [1, 6, 9]), [1, -7, 9]), 9),
])
def test_exact_rh_test_rejects(coeffs, q):
    # each satisfies the functional equation but not RH
    g = (len(coeffs) - 1) // 2
    assert all(coeffs[2 * g - i] == q ** (g - i) * coeffs[i] for i in range(g + 1))
    with pytest.raises(InternalConsistencyError, match="riemann-hypothesis"):
        check_riemann_hypothesis(coeffs, q)


def test_zeta_value(z55):
    # oracle: P(1/9) / ((1 - 1/9)(1 - 1/3)) with P frozen above
    P = Fraction(1) + 2 * Fraction(1, 81) + 9 * Fraction(1, 6561)
    expected = P / (Fraction(8, 9) * Fraction(2, 3))
    assert zeta_value(z55, 2) == expected == Fraction(187, 108)
    with pytest.raises(DomainError):
        zeta_value(z55, 1)


def test_zeta_value_g1_example():
    g1 = HyperellipticCurve(parse_poly(F3, "0,2,0,1"))
    z = zeta_data(g1)
    assert zeta_value(z, 2) == Fraction(7, 4)  # (84/81)/(16/27)


def test_zeta_tends_to_one(z55):
    v = zeta_value(z55, 50) * (1 - Fraction(1, 3**49))
    assert abs(float(v) - 1) < 1e-9


def test_jacobian_counts(z55):
    assert jacobian_count(z55, 1) == 12  # P(1) = 1 + 2 + 9
    assert jacobian_count(z55, 2) == 144
    g, q = 2, 3
    assert (math.sqrt(q) - 1) ** (2 * g) <= 12 <= (math.sqrt(q) + 1) ** (2 * g)
    with pytest.raises(DomainError):
        jacobian_count(z55, 3)


def test_jacobian_q2_via_base_change(z55):
    # recompute the L-polynomial over F_9 and evaluate at 1
    F9 = extend_field(F3, 2)
    F_ext = MonicPoly(F9, X5X.coeffs)
    z9 = zeta_data(HyperellipticCurve(F_ext), check_budget=10**6)
    assert jacobian_count(z9, 1) == jacobian_count(z55, 2) == 144


def test_epsilon_terms(z55):
    e1, _ = epsilon_terms(z55, 2, 1)
    assert e1 == 0  # p_1 = 0
    e1, e2 = epsilon_terms(z55, 2, 2)
    assert e1 == Fraction(2, 81)  # -p_2/(2 q^4) with p_2 = -4
    b1, b2 = epsilon_bounds(z55, 2, 2)
    assert abs(float(e1)) <= b1 and abs(e2) <= b2
    # defining identity at large Z: eps1 should absorb almost everything
    e1, e2 = epsilon_terms(z55, 2, 60)
    q, k = 3, 2
    lhs = (math.log(187 / 108) - (2 * k - 1) * math.log(q)
           + math.log((q**k - 1) * (q ** (k - 1) - 1)))
    assert abs(float(e1) + e2 - lhs) < 1e-12
    assert abs(e2) < 1e-12
    # eps1 over its cached common denominator against the plain sum, Z past 2g too
    for k in (2, 3):
        for Z in range(1, 7):
            ref = -sum(Fraction(p, m * q ** (k * m)) for m, p in enumerate(z55.power_sums(Z), 1))
            assert epsilon_terms(z55, k, Z)[0] == ref, (k, Z)


def test_lambda_character_identity(z55):
    rep, = lambda_character_identity([z55], 1)
    assert rep.holds and rep.lhs == 0
    rep, = lambda_character_identity([z55], 2)
    assert rep.holds and rep.lhs == 4
    # even degree: the infinite-place shift enters through delta
    z6 = zeta_data(HyperellipticCurve(X6X), check_budget=10**6)
    rep, = lambda_character_identity([z6], 1)
    assert rep.holds
    assert rep.rhs == -z6.psums[0] - 1 + 1  # rhs includes +delta


def test_xz_bound_example(z55):
    rep = xz_bound_check(z55)
    assert rep["xz"].holds
    assert abs(rep["xz"].lhs - abs(math.log(12) - 2 * math.log(3))) < 1e-12
    assert rep["xz"].rhs == pytest.approx(math.log(math.log(14) / math.log(3)) + 3)


def test_xz_bound_check_genus_one():
    # the sweep reads only the Jacobian bound, which holds in genus 1; the
    # zeta envelope needs loglog(g), so genus 1 is refused
    z = zeta_data(HyperellipticCurve(parse_poly(make_field(5), "1,1,0,1")))
    assert z.genus == 1
    rep = xz_bound_check(z, ks=())
    assert list(rep) == ["xz"] and rep["xz"].holds
    with pytest.raises(DomainError, match="needs genus >= 2"):
        xz_bound_check(z)


def test_l_poly_via_characters_x5x(z55):
    assert l_poly_via_characters([z55]) == [[1, 0, 2, 0, 9]]


def test_l_poly_character_route_brute_force():
    # oracle: actually sum (F/f) t^deg f over every monic f of degree <= 2g
    for text in ("0,1,0,0,0,1", "1,0,1,0,0,1", "2,0,1,0,0,1"):
        F = parse_poly(F3, text)
        C = HyperellipticCurve(F)
        z = zeta_data(C)
        from moduli_census.polyring import _iv, poly_from_code
        F_iv = _iv(F)
        coeffs = [1]
        for m in range(1, 5):
            coeffs.append(sum(_iv_jacobi(F_iv, _iv(poly_from_code(F3, code, m)), F3)
                              for code in range(3**m)))
        assert coeffs == list(z.coeffs)


def test_l_poly_even_gamma_division():
    # raw character sum vanishes at t = 1 for even degree, then matches
    z6 = zeta_data(HyperellipticCurve(X6X), check_budget=10**6)
    from moduli_census.polyring import _iv, poly_from_code
    F_iv = _iv(X6X)
    raw = [1]
    for m in range(1, 6):
        raw.append(sum(_iv_jacobi(F_iv, _iv(poly_from_code(F3, code, m)), F3)
                       for code in range(3**m)))
    assert sum(raw) == 0
    prefix = []
    acc = 0
    for m in range(5):
        acc += raw[m]
        prefix.append(acc)
    assert prefix == list(z6.coeffs)
    assert l_poly_via_characters([z6]) == [list(z6.coeffs)]


def test_predicted_counts_cross_checked():
    # q^m <= 10^6 lets every predicted N_m be recounted for these curves
    for f in list(family(FamilySpec(F3, 5)))[:20]:
        z = zeta_data(HyperellipticCurve(f), check_budget=10**6)
        for m in range(3, 5):
            assert z.N[m - 1] == point_count(z.curve, m)


@pytest.mark.parametrize("K, f, top", [
    (F3, (1, 2, 0, 1), 12),                # x^3 + 2x + 1
    (F3, (1, 0, 2, 0, 0, 0, 0, 1), 12),    # x^7 + 2x^2 + 1
    (make_field(5), (1, 1, 0, 0, 0, 0, 0, 1), 8),  # x^7 + x + 1
    (F9, (2, 0, 1, 1), 6),                 # x^3 + x^2 + 2
])
def test_power_sums_past_2g_match_counts(K, f, top):
    # the Newton recurrence extends p_m past 2g; each one is a count
    z = zeta_data(HyperellipticCurve(MonicPoly(K, f)))
    q = K.order
    assert 2 * z.genus < top and q**top <= curvezeta.POINT_BUDGET
    counted = [q**m + 1 - point_count(z.curve, m) for m in range(1, top + 1)]
    for m in range(1, top + 1):
        assert z.power_sums(m) == counted[:m]


def test_newton_noninteger_coefficient_is_caught():
    # N_1, N_2 = 4, 11 over F_3 give p_1 = 0, p_2 = -1, so c_2 = 1/2
    with pytest.raises(InternalConsistencyError, match=r"^newton-noninteger: c_2 would be 1/2$"):
        curvezeta._from_counts(HyperellipticCurve(X5X), (4, 11))


# -- the character route on blocks -------------------------------------------

def reference_l_poly(z) -> list[int]:
    """The per-curve Euler product: one reciprocity symbol (F/P) per prime P."""
    curve = z.curve
    K, g, M = curve.field, curve.genus, curve.gamma - 1
    F_iv = list(curve.F.coeffs)
    b = [1] + [0] * M
    for e in range(1, M + 1):
        for piv in _irreducible_ivs(K, e):
            s = _iv_jacobi(F_iv, list(piv), K)
            for m in range(e, M + 1):
                b[m] += s * b[m - e]
    if curve.delta:
        assert sum(b) == 0
        return list(itertools.accumulate(b[: 2 * g + 1]))
    return b[: 2 * g + 1]


def reference_lambda_rhs(z, m: int) -> int:
    """lambda_character_sum of the curve's F, plus delta."""
    return lambda_character_sum(z.curve.F, m) + z.curve.delta


def blocks(zs, size):
    return [zs[i:i + size] for i in range(0, len(zs), size)]


@pytest.fixture(scope="module")
def families():
    """Zeta data of all of H_{5,3}, H_{6,3} and H_{5,5}, and of 40 draws of H_{6,5}."""
    specs = {(3, 5): FamilySpec(F3, 5), (3, 6): FamilySpec(F3, 6),
             (5, 5): FamilySpec(make_field(5), 5),
             (5, 6): FamilySpec(make_field(5), 6, mode="sample", count=40, seed=11)}
    return {key: list(zeta_data_block([HyperellipticCurve(F) for F in family(spec)]))
            for key, spec in specs.items()}


@pytest.mark.parametrize("key, size", [((3, 5), 1), ((3, 5), 7), ((3, 6), CHUNK),
                                       ((5, 5), CHUNK), ((5, 6), 1)])
def test_l_poly_blocks_match_per_curve_euler_product(families, key, size):
    zs = families[key]
    got = [c for block in blocks(zs, size) for c in l_poly_via_characters(block)]
    assert got == [reference_l_poly(z) for z in zs]
    assert got == [list(z.coeffs) for z in zs]


def test_l_poly_block_over_prime_of_many_residues(families, fresh_symbols):
    # H_{6,5} has 624 primes of degree 5 with 3125 residues each.  40 draws
    # meet few of them, but the table is filled whole: a symbol +-1 at each of
    # the 3124 nonzero residues and 0 at the zero residue
    zs = families[(5, 6)]
    assert len(zs) == 40
    assert l_poly_via_characters(zs) == [reference_l_poly(z) for z in zs]
    K = make_field(5)
    table = curvezeta._symbol_table(K, 5).reshape(624, 5**5)
    assert np.all(np.abs(table[:, 1:]) == 1) and np.all(table[:, 0] == 0)
    assert np.count_nonzero(table) == 624 * 3124


def test_l_poly_block_over_tower_field():
    K9 = extend_field(F3, 2)
    spec = FamilySpec(K9, 5, mode="sample", count=12, seed=5)
    zs = list(zeta_data_block([HyperellipticCurve(F) for F in family(spec)]))
    assert any(i >= 3 for z in zs for i in z.curve.F.coeffs)  # outside F_3
    assert l_poly_via_characters(zs) == [reference_l_poly(z) for z in zs]
    assert l_poly_via_characters(zs[:1]) == [reference_l_poly(zs[0])]


@pytest.mark.parametrize("size", [1, 300, CHUNK])
def test_lambda_identity_blocks_match_per_curve_sum(families, size):
    zs = families[(5, 5)]
    for m in (1, 2):
        reps = [rep for block in blocks(zs, size) for rep in lambda_character_identity(block, m)]
        assert [rep.rhs for rep in reps] == [reference_lambda_rhs(z, m) for z in zs]
        assert all(rep.holds for rep in reps)
        assert [rep.lhs for rep in reps] == [-z.power_sums(m)[-1] for z in zs]


def test_lambda_identity_over_tower_field():
    # 40 draws of H_{5,9} over F_9 = F_3[i]; m = 2 meets the squares P^2 of
    # the degree-1 primes and m = 3 the cubes
    K9 = extend_field(F3, 2)
    spec = FamilySpec(K9, 5, mode="sample", count=40, seed=7)
    zs = list(zeta_data_block([HyperellipticCurve(F) for F in family(spec)]))
    assert any(i >= 3 for z in zs for i in z.curve.F.coeffs)  # outside F_3
    for m in (1, 2, 3):
        reps = lambda_character_identity(zs, m)
        assert [rep.rhs for rep in reps] == [reference_lambda_rhs(z, m) for z in zs]
        assert all(rep.holds for rep in reps)


def test_lambda_identity_budget():
    # for each q, the first m with q^m > POINT_BUDGET is refused by the
    # symbol budget alone: the primes of degree m need pi_q(m) q^m > 2^26
    # table entries
    for q, m in ((3, 13), (5, 9), (7, 8), (11, 6)):
        assert q ** (m - 1) <= curvezeta.POINT_BUDGET < q**m
        z = zeta_data(HyperellipticCurve(parse_poly(make_field(q), "0,1,0,0,0,1")))
        with pytest.raises(BudgetError, match=f"moduli of degree {m} over F_{q} has"):
            lambda_character_identity([z], m)


def test_symbol_table_budget(z55, monkeypatch, fresh_symbols):
    # the 18 primes of degree 4 over F_3 have 81 residues each: 1458 entries
    monkeypatch.setattr(curvezeta, "SYMBOL_BUDGET", 1457)
    with pytest.raises(BudgetError, match="18 moduli of degree 4 over F_3 has 1458 entries"):
        l_poly_via_characters([z55])
    with pytest.raises(BudgetError, match="18 moduli of degree 4 over F_3 has 1458 entries"):
        lambda_character_identity([z55], 4)  # the primes of degree 1, 2 and 4
    monkeypatch.setattr(curvezeta, "SYMBOL_BUDGET", 1458)
    assert l_poly_via_characters([z55]) == [[1, 0, 2, 0, 9]]


def test_character_route_needs_no_point_count(families, monkeypatch, fresh_symbols):
    def forbidden(*args, **kwargs):
        raise AssertionError("the character route made a point count")

    monkeypatch.setattr(countfast, "table", forbidden)
    monkeypatch.setattr(countfast, "field_table", forbidden)
    monkeypatch.setattr(curvezeta, "point_counts", forbidden)
    monkeypatch.setattr(curvezeta, "point_count", forbidden)
    for key in ((3, 6), (5, 6)):
        zs = families[key]
        assert l_poly_via_characters(zs) == [list(z.coeffs) for z in zs]
        assert all(rep.holds for m in (1, 2) for rep in lambda_character_identity(zs, m))


def test_validate_zeta_and_lambda_symbol_count(fresh_symbols):
    # one symbol per residue of each prime P of degree e <= 4 over F_5, 5^e
    # of them: 5*5 + 10*25 + 40*125 + 150*625 = 99025, in one table per
    # degree.  The lambda suite (m = 1, 2) reads the tables of degree 1 and 2
    # that the zeta suite has built.  No module of the package defines or
    # imports a reciprocity symbol, so neither suite can make a reciprocity step
    import moduli_census
    from moduli_census.validate import run_suite

    modules = [importlib.import_module(f"moduli_census.{info.name}")
               for info in pkgutil.iter_modules(moduli_census.__path__)]
    symbols = ("_iv_jacobi", "jacobi_symbol", "jacobi_symbol_via_factorization")
    assert [(m.__name__, s) for m in [moduli_census, *modules] for s in symbols
            if hasattr(m, s)] == []
    results = run_suite("zeta", 5, 5) + run_suite("lambda", 5, 5)
    assert all(res.ok for res in results)
    assert curvezeta._symbol_table.cache_info().currsize == 4
    K = make_field(5)
    filled = 0
    for e in range(1, 5):
        table = curvezeta._symbol_table(K, e).reshape(-1, 5**e)
        assert np.all(np.abs(table[:, 1:]) == 1) and np.all(table[:, 0] == 0)
        filled += table.size
    assert filled == 99_025


def test_validate_runs_the_public_character_route_per_block(monkeypatch):
    # counting wrappers on the names validate looks up, as the tracer puts
    # them there: the zeta suite calls l_poly_via_characters once per block
    # and the lambda suite lambda_character_identity once per block and m,
    # on the 2500 curves of H_{5,5} in the sweep's chunks of CHUNK codes
    from moduli_census import validate
    calls: dict = {"l_poly": [], "lambda": []}

    def counting(name, fn):
        def wrapper(zs, *args):
            calls[name].append((len(zs), *args))
            return fn(zs, *args)
        return wrapper

    monkeypatch.setattr(validate, "l_poly_via_characters",
                        counting("l_poly", validate.l_poly_via_characters))
    monkeypatch.setattr(validate, "lambda_character_identity",
                        counting("lambda", validate.lambda_character_identity))
    results = validate.run_suite("all", 5, 5)
    assert all(res.ok for res in results)
    sizes = [len(list(curvezeta.family_curves(FamilySpec(make_field(5), 5), lo, hi)))
             for lo, hi in chunk_bounds(SweepConfig(q=5, gamma=5))]
    assert sizes == [819, 820, 819, 42]
    assert calls["l_poly"] == [(b,) for b in sizes]
    assert calls["lambda"] == [(b, m) for b in sizes for m in (1, 2)]



_FIELDS = [F3, make_field(5), make_field(7), extend_field(F3, 2)]


@pytest.mark.parametrize("K", _FIELDS, ids=["F3", "F5", "F7", "F9"])
def test_jacobi_block_matches_reciprocity_per_entry(K, fresh_symbols):
    # hand-built rows of 6 digits: zero, each degree below e with leading
    # digit 1, -1 and one more (outside F_3 over F_9), c f (x + a) for two
    # primes f (so f | F), and random rows; primes of odd and even degree,
    # up to degree 4 over F_3
    from moduli_census.curvezeta import _jacobi_block
    from moduli_census.polyring import _iv_trim
    n = K.order
    _add, mul, _inv, _chi, neg = K.tables()
    rng = np.random.default_rng(n)
    leads = list(dict.fromkeys([1, neg[1], 2, n - 1]))
    for e in (1, 2, 3, 4) if n == 3 else (1, 2, 3):
        mods = _irreducible_ivs(K, e)
        rows = [[0] * 6]
        for d in range(e):
            for c in leads:
                rows.append(list(rng.integers(0, n, d)) + [c] + [0] * (5 - d))
        for f in (mods[0], mods[-1]):
            for c in leads[1:]:
                x_a = MonicPoly(K, [int(rng.integers(n)), 1])
                fx = (MonicPoly(K, f) * x_a).coeffs
                rows.append(([mul[c * n + a] for a in fx] + [0] * 6)[:6])
        rows += rng.integers(0, n, (12, 6)).tolist()
        rows = np.array(rows, dtype=np.int64)
        want = [[_iv_jacobi(_iv_trim(row), list(f), K) for f in mods] for row in rows.tolist()]
        assert any(0 in w for w in want) and any(-1 in w for w in want)
        assert _jacobi_block(K, rows, e).tolist() == want
        # every nonzero residue holds a symbol +-1, the zero residue 0
        table = curvezeta._symbol_table(K, e).reshape(-1, n**e)
        assert np.all(np.abs(table[:, 1:]) == 1) and np.all(table[:, 0] == 0)


_TABLE_DEGREES = [(F3, 5), (make_field(5), 3), (make_field(7), 3), (extend_field(F3, 2), 3)]


@pytest.mark.parametrize("K, top", _TABLE_DEGREES, ids=["F3", "F5", "F7", "F9"])
def test_symbol_tables_match_reciprocity_on_every_entry(K, top, fresh_symbols):
    # the bulk table of each degree holds (u/P) from the squares mod P; the
    # reciprocity _iv_jacobi must give the same symbol at every prime P and
    # every residue u
    from moduli_census.polyring import _iv_trim
    n = K.order
    for e in range(1, top + 1):
        table = curvezeta._symbol_table(K, e).reshape(-1, n**e)
        for j, P in enumerate(_irreducible_ivs(K, e)):
            for code in range(n**e):
                u = _iv_trim(_code_iv(code, n, e)[:-1])
                assert table[j, code] == _iv_jacobi(u, list(P), K), (n, e, P, u)


@pytest.mark.parametrize("K, top", _TABLE_DEGREES, ids=["F3", "F5", "F7", "F9"])
def test_prime_sieve_matches_rabin_on_every_code(K, top):
    from moduli_census.polyring import is_irreducible
    n = K.order
    for e in range(1, top + 1):
        codes = [_code_iv(code, n, e) for code in range(n**e)]
        ladder = [tuple(iv) for iv in codes if is_irreducible(MonicPoly(K, iv))]
        assert list(_irreducible_ivs.__wrapped__(K, e)) == ladder


@given(st.sampled_from(_FIELDS).flatmap(lambda K: st.tuples(
    st.just(K),
    st.integers(1, K.order - 1),
    st.lists(st.integers(0, K.order - 1), max_size=9),
    st.lists(st.integers(0, K.order - 1), min_size=1, max_size=6))))
@settings(max_examples=300, deadline=None)
def test_jacobi_symbol_of_a_constant_multiple(case):
    # (c u / f) = chi(c)^deg f (u / f) for c in F_q^* and any monic f
    from moduli_census.polyring import _iv_trim
    K, c, u, f = case
    f = f + [1]
    _add, mul, _inv, chi, _neg = K.tables()
    cu = _iv_trim([mul[c * K.order + a] for a in u])
    assert _iv_jacobi(cu, f, K) == chi[c] ** (len(f) - 1) * _iv_jacobi(_iv_trim(u), f, K)
