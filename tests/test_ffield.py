import itertools

import pytest
from hypothesis import given, strategies as st

from moduli_census.errors import BudgetError, DomainError, InvalidCharacteristicError
from moduli_census.ffield import extend_field, make_field
from moduli_census.polyring import MonicPoly, parse_poly
from reference import jacobi_symbol


def power(K, a: int, e: int) -> int:
    # a^e by repeated index multiplication
    acc = 1
    for _ in range(e):
        acc = K.mul(acc, a)
    return acc


def test_prime_field_elements():
    F3 = make_field(3, 1)
    assert F3.order == 3
    assert F3.modulus == ()
    assert [[F3.mul(a, b) for b in range(3)] for a in range(3)] == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_extension_order_and_determinism():
    F9a = make_field(3, 2)
    F9b = make_field(3, 2)
    assert F9a.order == 9
    assert F9a is F9b
    assert F9a.modulus == (1, 0, 1)  # t^2 + 1, base indices degree 0 first


# the defining modulus of each extension, (p, m, r) -> modulus of F_{p^m}^r; every
# element index of an extension field rests on its modulus
EXTENSION_MODULI = {
    (3, 1, 2): (1, 0, 1),
    (3, 1, 3): (1, 2, 0, 1),
    (3, 1, 4): (2, 1, 0, 0, 1),
    (3, 1, 5): (1, 2, 0, 0, 0, 1),
    (3, 1, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 1, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 1, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 1, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 1, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1, 2): (2, 0, 1),
    (5, 1, 3): (1, 1, 0, 1),
    (5, 1, 4): (2, 0, 0, 0, 1),
    (5, 1, 5): (1, 4, 0, 0, 0, 1),
    (5, 1, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (5, 1, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 1, 2): (1, 0, 1),
    (7, 1, 3): (2, 0, 0, 1),
    (7, 1, 4): (1, 1, 0, 0, 1),
    (7, 1, 5): (3, 1, 0, 0, 0, 1),
    (7, 1, 6): (2, 0, 0, 0, 0, 0, 1),
    (7, 1, 7): (1, 6, 0, 0, 0, 0, 0, 1),
    (11, 1, 2): (1, 0, 1),
    (11, 1, 3): (4, 1, 0, 1),
    (11, 1, 4): (2, 1, 0, 0, 1),
    (11, 1, 5): (2, 0, 0, 0, 0, 1),
    (13, 1, 2): (2, 0, 1),
    (13, 1, 3): (2, 0, 0, 1),
    (13, 1, 4): (2, 0, 0, 0, 1),
    (13, 1, 5): (2, 4, 0, 0, 0, 1),
    (3, 2, 2): (4, 0, 1),
    (3, 2, 3): (3, 1, 0, 1),
    (3, 2, 4): (4, 0, 0, 0, 1),
}


def test_extension_moduli_are_pinned():
    from moduli_census.curvezeta import POINT_BUDGET
    # every extension of degree >= 2 of these prime fields that a point count can build
    assert {key for key in EXTENSION_MODULI if key[1] == 1} == {
        (p, 1, r) for p in (3, 5, 7, 11, 13) for r in range(2, 20) if p**r <= POINT_BUDGET}
    for (p, m, r), modulus in EXTENSION_MODULI.items():
        assert extend_field(make_field(p, m), r).modulus == modulus, (p, m, r)


def test_make_field_is_the_interned_extension():
    F3 = make_field(3)
    F9 = make_field(3, 2)
    assert F9 is extend_field(F3, 2)
    assert make_field(5, 3) is extend_field(make_field(5), 3)
    # polynomials over either spelling are over one field
    f = parse_poly(F9, "1,0,1")
    g = MonicPoly(extend_field(F3, 2), (3, 1))
    assert (f * g).field is F9
    assert f * g == g * f == MonicPoly(F9, (3, 1, 3, 1))


def test_invalid_characteristic():
    with pytest.raises(InvalidCharacteristicError):
        make_field(2)
    with pytest.raises(InvalidCharacteristicError):
        make_field(9)
    with pytest.raises(InvalidCharacteristicError):
        make_field(15)
    for p in (0, 1, -3, 25, 49):  # no prime divisor, or a prime power
        with pytest.raises(InvalidCharacteristicError):
            make_field(p)


def test_an_odd_characteristic_past_the_budget_is_a_budget_error():
    # refused before the trial division, prime (10^14 + 31) or not (10^8 + 1 = 17 * 5882353)
    for p in (10**14 + 31, 10**8 + 1):
        with pytest.raises(BudgetError):
            make_field(p)


def test_squares_in_f9():
    # exhaustive oracle: squares of the 8 nonzero elements
    F9 = make_field(3, 2)
    assert len({F9.mul(a, a) for a in range(1, 9)}) == 4


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (23, 1)])
def test_tables_are_a_field(p, m):
    # the dense tables (from the discrete logs) against the index
    # multiplication, and the field axioms on them
    K = make_field(p, m)
    n = K.order
    add, mul, inv, _chi, neg = K.tables()
    for a in range(n):
        assert add[a * n] == a and mul[a * n + 1] == a and mul[a * n] == 0
        assert add[a * n + neg[a]] == 0
        assert a == 0 or mul[a * n + inv[a]] == 1
    for a, b in itertools.product(range(n), repeat=2):
        assert add[a * n + b] == add[b * n + a]
        assert mul[a * n + b] == mul[b * n + a] == K.mul(a, b)
    for a, b, c in itertools.product(range(n), repeat=3) if n <= 9 else ():
        assert add[add[a * n + b] * n + c] == add[a * n + add[b * n + c]]
        assert mul[mul[a * n + b] * n + c] == mul[a * n + mul[b * n + c]]
        assert mul[a * n + add[b * n + c]] == add[mul[a * n + b] * n + mul[a * n + c]]


def test_quadratic_character_examples():
    chi3 = make_field(3).tables()[3]
    assert chi3[0] == 0
    assert chi3[2] == -1  # squares mod 3: {0, 1}
    F9 = make_field(3, 2)
    minus_one = F9.tables()[4][1]
    assert F9.tables()[3][minus_one] == 1  # 9 = 1 mod 4


def test_character_counts_and_multiplicativity():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (23, 1)]:
        K = make_field(p, m)
        n = K.order
        chi = K.tables()[3]
        assert chi.count(1) == chi.count(-1) == (n - 1) // 2
        squares = {K.mul(a, a) for a in range(1, n)}
        assert all((chi[a] == 1) == (a in squares) for a in range(1, n))
        for a, b in itertools.product(range(n), repeat=2):
            assert chi[K.mul(a, b)] == chi[a] * chi[b]


def test_embedding_is_ring_homomorphism():
    # an element of the base keeps its index in a tower step, and the step's
    # arithmetic restricted to those indices is the base's tables
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        base = make_field(p, m)
        n = base.order
        add, mul, _inv, chi, neg = base.tables()
        for r in (2, 3):
            if n**r > 9**3:
                continue
            ext = extend_field(base, r)
            assert ext.base is base and ext.order == n**r
            N = ext.order
            ext_add, _mul, _inv, ext_chi, ext_neg = ext.tables()
            for a, b in itertools.product(range(n), repeat=2):
                assert ext.mul(a, b) == mul[a * n + b]
                assert ext_add[a * N + b] == add[a * n + b]
            assert ext_neg[:n] == neg
            # chi_E(a) = chi_K(a)^r for a in the base
            assert all(ext_chi[a] == chi[a] ** r for a in range(1, n))


def test_extend_identity_and_constants():
    F3 = make_field(3)
    assert extend_field(F3, 1) is F3
    E = extend_field(F3, 2)
    assert E.order == 9
    # the constant 2 of F_3 is the element index 2 of E: 2 * 2 = 1
    assert E.mul(2, 2) == 1 and E.tables()[0][2 * 9 + 2] == 1


def test_minus_one_square_in_f9():
    E = extend_field(make_field(3), 2)
    assert E.tables()[4][1] in {E.mul(a, a) for a in range(9)}


def test_field_mismatch():
    F3 = make_field(3)
    F5 = make_field(5)
    with pytest.raises(DomainError):
        parse_poly(F3, "1,1") * parse_poly(F5, "1,1")
    with pytest.raises(DomainError):
        jacobi_symbol(parse_poly(F3, "1,1"), parse_poly(F5, "0,1"))


def test_inverse_and_fermat():
    for p, m in [(3, 2), (7, 1), (3, 3)]:
        K = make_field(p, m)
        inv = K.tables()[2]
        for a in range(1, K.order):
            assert K.mul(a, inv[a]) == 1
            assert power(K, a, K.order - 1) == 1


def test_tower_arithmetic():
    F9 = make_field(3, 2)
    F81 = extend_field(F9, 2)
    assert F81.order == 81
    for idx in (5, 17, 42):
        assert power(F81, idx, 80) == 1
    assert len({F81.mul(a, a) for a in range(1, 81)}) == 40
    # the embedding of F_9 commutes with squaring along the tower step
    for a in range(9):
        assert F81.mul(a, a) == F9.mul(a, a)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_associativity_distributivity(i, j, k):
    F9 = make_field(3, 2)
    add = F9.tables()[0]
    mul = F9.mul
    assert add[add[i * 9 + j] * 9 + k] == add[i * 9 + add[j * 9 + k]]
    assert mul(mul(i, j), k) == mul(i, mul(j, k))
    assert mul(i, add[j * 9 + k]) == add[mul(i, j) * 9 + mul(i, k)]


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_f81_over_f9_associativity_distributivity(i, j, k):
    F81 = extend_field(make_field(3, 2), 2)
    add = F81.tables()[0]
    mul = F81.mul
    assert mul(mul(i, j), k) == mul(i, mul(j, k))
    assert mul(i, add[j * 81 + k]) == add[mul(i, j) * 81 + mul(i, k)]
