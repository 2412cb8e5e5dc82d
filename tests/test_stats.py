import cmath
import itertools
import math
import random

import mpmath as mp
import pytest

from moduli_census.errors import DomainError
from moduli_census.ffield import extend_field, make_field
from moduli_census.moduli import count_ntilde, family_constant
from moduli_census.polyring import (
    FamilySpec,
    MonicPoly,
    family,
    format_poly,
    is_squarefree,
    parse_poly,
    poly_from_code,
    prime_count,
)
from moduli_census.curvezeta import HyperellipticCurve, zeta_data
from moduli_census.stats import (
    MAX_MOMENT_ORDER,
    FamilyRecord,
    character_sum,
    characteristic_function,
    decomposition_residual,
    default_cutoff,
    empirical_stats,
    gaussian_diagnostics,
    limit_covariance,
    r_variable,
    theoretical_moment,
    trace_charsums,
)
from moduli_census.sweep import SweepConfig, _chunk_worker, run_sweep
from reference import _iv_jacobi, irreducible_polys, lambda_character_sum, residual_envelope

F3 = make_field(3)
X5X = parse_poly(F3, "0,1,0,0,0,1")


@pytest.fixture(scope="module")
def z55():
    return zeta_data(HyperellipticCurve(X5X))


# -- character sums -----------------------------------------------------------

def test_character_sum_examples(z55):
    assert character_sum(X5X, 1) == 0
    assert character_sum(X5X, 2) == 4 == -z55.psums[1]


def test_character_sum_equals_trace_identity():
    # sum of Lambda(f)(F/f) over deg f = m equals -p_m - delta, family samples
    for gamma in (5, 6):
        for f in itertools.islice(family(FamilySpec(F3, gamma)), 25):
            z = zeta_data(HyperellipticCurve(f))
            delta = 1 if gamma % 2 == 0 else 0
            for m in (1, 2, 3):
                assert character_sum(f, m) == -z.power_sums(m)[-1] - delta


def test_character_sum_convention_differs():
    # q = 3 mod 4 and odd deg f * deg F: the mirrored symbol (f/F) would
    # flip the sign, so -p_1 = 2 pins the (F/f) orientation
    f = parse_poly(F3, "1,0,1,0,0,1")  # x^5 + x^2 + 1, p_1 = -2
    z = zeta_data(HyperellipticCurve(f))
    assert z.psums[0] == -2
    assert character_sum(f, 1) == 2


def test_character_sum_matches_reciprocity_reference():
    # the table route against one reciprocity symbol per prime power: all of
    # H_{5,3} and H_{6,3}, and 40 draws of H_{5,9} over the tower F_9 = F_3[i]
    K9 = extend_field(F3, 2)
    cases = [(FamilySpec(F3, 5), 162), (FamilySpec(F3, 6), 486),
             (FamilySpec(K9, 5, mode="sample", count=40, seed=3), 40)]
    for spec, size in cases:
        members = list(family(spec))
        assert len(members) == size
        for m in (1, 2, 3):
            assert [character_sum(F, m) for F in members] == \
                [lambda_character_sum(F, m) for F in members]
    assert any(i >= 3 for F in members for i in F.coeffs)  # outside F_3


def test_character_sum_rejects():
    with pytest.raises(DomainError):
        character_sum(X5X, 0)


# -- R variables ----------------------------------------------------------------

def _jacobi_r(F, k, Z):
    """R^(k) of F from the prime Jacobi symbols, the reference for the trace route."""
    return r_variable([character_sum(F, m) for m in range(1, Z + 1)], F.field.order, k)


def test_r_variable_examples():
    assert _jacobi_r(X5X, 1, 1) == 0.0
    assert _jacobi_r(X5X, 1, 2) == pytest.approx(2 / 81, abs=1e-18)


def test_r_variable_rejects():
    with pytest.raises(DomainError):
        r_variable([], 3, 0)
    with pytest.raises(DomainError):
        r_variable([1], 3, -1)


def test_r_variable_telescopes():
    rng = random.Random(9)
    for _ in range(10):
        while True:
            f = poly_from_code(F3, rng.randrange(3**6), 6)
            if is_squarefree(f):
                break
        for k in (0, 1, 2):
            for Z in (1, 2, 3):
                diff = _jacobi_r(f, k, Z + 1) - _jacobi_r(f, k, Z)
                term = character_sum(f, Z + 1) / ((Z + 1) * 3 ** ((k + 1) * (Z + 1)))
                assert diff == pytest.approx(term, abs=1e-15)


def test_r_variable_coarse_envelope():
    for f in itertools.islice(family(FamilySpec(F3, 9)), 40):
        for k in (0, 1):
            Z = default_cutoff(9)
            assert abs(_jacobi_r(f, k, Z)) <= (1 + 1 / 3) * (1 + math.log(Z))


# -- decomposition residuals -------------------------------------------------------

def test_higgs_residual_fixed_by_oracle_chain(z55):
    # every ingredient is exact: N = 128304, dimension 10, constant log(27/16)
    expected = math.log(128304) - 10 * math.log(3) - math.log(27 / 16)
    assert decomposition_residual(z55, "higgs") == pytest.approx(expected, rel=1e-14)


def test_m_rd_residual(z55):
    expected = math.log(40) - 3 * math.log(3) - math.log(27 / 16)
    assert decomposition_residual(z55, "m_rd") == pytest.approx(expected, rel=1e-14)
    assert abs(decomposition_residual(z55, "m_rd")) <= residual_envelope(3, 2)


def test_residual_envelope_median_shrinks():
    # full families: the centered residual magnitudes tighten from degree 5 to 7
    meds = {"higgs": [], "m_rd": []}
    for gamma in (5, 7):
        vals = {"higgs": [], "m_rd": []}
        for f in family(FamilySpec(F3, gamma)):
            z = zeta_data(HyperellipticCurve(f))
            for variant in vals:
                vals[variant].append(abs(decomposition_residual(z, variant)))
        for variant, col in vals.items():
            col.sort()
            assert math.isfinite(col[-1])
            meds[variant].append(col[len(col) // 2])
    for variant, (m5, m7) in meds.items():
        assert m7 < m5, variant


def test_ntilde_residual_runs():
    for f in itertools.islice(family(FamilySpec(F3, 7)), 3):
        z = zeta_data(HyperellipticCurve(f))
        r = decomposition_residual(z, "ntilde")
        assert math.isfinite(r)


@pytest.mark.parametrize("gamma", [5, 6])
def test_record_r_route_matches_jacobi_route(gamma):
    # a sweep reads R^(k) off the power sums; the prime Jacobi symbols
    # must give the same floats, bit for bit, on the whole family, also for
    # Z = 5 past 2g = 4, where the power sums come from the Newton recurrence
    for Z in (None, 5):
        cfg = SweepConfig(q=3, gamma=gamma, z_override=Z, variants=())
        Z = cfg.cutoff
        n = 0
        for F, rec in zip(family(FamilySpec(F3, gamma)), run_sweep(cfg), strict=True):
            assert rec.F_text == format_poly(F)
            R = {k: _jacobi_r(F, k, Z) for k in range(cfg.r_max)}
            assert rec.R == R, (F, Z)
            assert rec.delta_Z == math.fsum(R[k] for k in range(1, cfg.r_max))
            n += 1
        assert n == {5: 162, 6: 486}[gamma]


def test_record_ntilde_matches_jacobi_route():
    # the ntilde residual takes R^(0) over F_9 from p_2, p_4, ...; the Jacobi
    # symbols of F over F_9 must give the same float.  It needs genus >= 3:
    # all of H_{7,3} at Z = 2, and some curves at Z = 4, which reaches p_8 > 2g
    E = extend_field(F3, 2)
    checked = 0
    for Z, count in ((None, None), (4, 12)):
        cfg = SweepConfig(q=3, gamma=7, z_override=Z, variants=("ntilde",))
        Z = cfg.cutoff
        recs = run_sweep(cfg)
        for F, rec in itertools.islice(zip(family(FamilySpec(F3, 7)), recs), count):
            z = zeta_data(HyperellipticCurve(F))
            value = count_ntilde(z).value
            F_ext = MonicPoly(E, F.coeffs)
            want = (math.log(value.numerator) - math.log(value.denominator)
                    - 8 * math.log(3) + family_constant(3, 7, "thm16")
                    - _jacobi_r(F_ext, 0, Z))
            assert rec.F_text == format_poly(F)
            assert rec.residuals["ntilde"] == want, (F, Z)
            checked += 1
    assert checked == 1458 + 12


@pytest.mark.parametrize("Z", [3, 5, 7])
def test_record_without_zeta_counts_points(Z):
    # neither zeta data nor moduli: p_m comes from the block point counts up
    # to min(Z, g) = 3 and from the Newton recurrence past it; same R
    full = _chunk_worker((SweepConfig(q=3, gamma=7, z_override=Z), 0, 30))
    bare = _chunk_worker((SweepConfig(q=3, gamma=7, z_override=Z, compute_zeta=False,
                                      compute_moduli=False), 0, 30))
    assert len(bare) == len(full) == 20
    for b, f in zip(bare, full):
        assert b.F_text == f.F_text and b.R == f.R and b.delta_Z == f.delta_Z
        assert b.N == () and f.N


def test_trace_charsums_sign():
    # (F/f) sums are -p_m - delta, with delta = 1 for even-degree F
    assert trace_charsums([1, 2, 3], 5) == [-1, -2, -3]
    assert trace_charsums([1, 2], 6) == [-2, -3]


# -- empirical aggregation ----------------------------------------------------------

def _record(q, vals):
    return FamilyRecord(q=q, gamma=5, F_text="", genus=2, N=(0,), jacobian=1,
                        Z=1, R=dict(enumerate(vals)),
                        delta_Z=sum(vals[1:]))


def test_empirical_stats_single_record():
    rep = empirical_stats([_record(3, [0.25, -0.5])], max_n=3)
    assert rep.moments[0][1] == 0.25
    assert rep.moments[1][1] == -0.5
    assert rep.covariance["0,0"] == 0.0
    assert rep.covariance["1,1"] == 0.0


def test_empirical_stats_matches_manual():
    rng = random.Random(3)
    recs = [_record(3, [rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(50)]
    rep = empirical_stats(recs, max_n=2)
    xs = [r.R[0] for r in recs]
    ys = [r.R[1] for r in recs]
    mx = sum(xs) / 50
    my = sum(ys) / 50
    assert rep.moments[0][1] == pytest.approx(mx, abs=1e-15)
    cov = sum(x * y for x, y in zip(xs, ys)) / 50 - mx * my
    assert rep.covariance["0,1"] == pytest.approx(cov, abs=1e-15)
    assert rep.covariance["0,0"] >= 0
    assert rep.covariance["1,1"] == pytest.approx(rep.moments[1][2] - my * my, abs=1e-15)


def test_empirical_stats_empty():
    with pytest.raises(DomainError):
        empirical_stats([])


def test_gaussian_diagnostics_on_normal_sample():
    rng = random.Random(11)
    vals = [rng.gauss(0, 1) for _ in range(4000)]
    d = gaussian_diagnostics(vals)
    assert abs(d["mean"]) < 0.1
    assert abs(d["variance"] - 1) < 0.1
    assert abs(d["skewness"]) < 0.15
    assert abs(d["excess_kurtosis"]) < 0.3
    assert d["ks_stat"] < 0.03


# -- theoretical moments -------------------------------------------------------------

def test_theoretical_moment_d1_value():
    value, tail = theoretical_moment(3, 1, 1, 1)
    assert value == pytest.approx((9 / 8) * math.log(81 / 80), rel=1e-12)
    assert tail > 0


def test_theoretical_moment_monotone_n1():
    vals = [theoretical_moment(3, 1, 1, D)[0] for D in range(1, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_theoretical_moment_series_specialization():
    # for n = 1 the sum collapses to -sum_P log(1-|P|^-2(k+1)) / (2(1+|P|^-1))
    q, k, D = 3, 1, 7
    direct = 0.0
    for e in range(1, D + 1):
        x = q ** (-(k + 1) * e)
        direct += prime_count(q, e) * (-math.log1p(-x * x)) / (2 * (1 + q ** (-e)))
    assert theoretical_moment(q, k, 1, D)[0] == pytest.approx(direct, rel=1e-12)


def test_theoretical_moment_tail_is_bound():
    # adding the primes of degree D+1..3D never escapes value + tail
    for q in (3, 5, 7):
        for k in range(4):
            for D in (1, 2, 4, 6, 10):
                for n in range(1, 9):
                    value, tail = theoretical_moment(q, k, n, D)
                    longer, _ = theoretical_moment(q, k, n, 3 * D)
                    assert tail > 0
                    assert abs(longer - value) <= tail, (q, k, D, n)


def test_theoretical_moment_exhaustive_oracle():
    # the 6 monic irreducibles of degree <= 2 over F_3: every outcome
    # chi(P) in {1, -1, 0}, with probability |P| / (2 (|P| + 1)) for each
    # sign and 1 / (|P| + 1) for 0, and S = sum_P -log(1 - chi(P) |P|^-(k+1));
    # k = 9 is where the float recursion loses the most digits by n = 17
    with mp.workdps(50):
        norms = [mp.mpf(3)] * 3 + [mp.mpf(9)] * 3
        for k in (0, 1, 2, 9):
            outcomes = []
            for chis in itertools.product((1, -1, 0), repeat=6):
                prob = math.prod(1 / (N + 1) if c == 0 else N / (2 * (N + 1))
                                 for N, c in zip(norms, chis))
                outcomes.append((prob, mp.fsum(-mp.log(1 - c * N ** -(k + 1))
                                               for N, c in zip(norms, chis))))
            for n in range(1, MAX_MOMENT_ORDER + 1):
                exact = mp.fsum(prob * s**n for prob, s in outcomes)
                value, _ = theoretical_moment(3, k, n, 2)
                assert value == pytest.approx(float(exact), rel=1e-12), (k, n)


@pytest.mark.parametrize("q, k, D, values", [
    (3, 1, 14, [0.014188583491591543, 0.028658113553677127, 0.0013445598159647313,
                0.002034443180356149, 0.000170075097149973, 0.00019658711022940736]),
    (5, 2, 20, [0.0001333572976923118, 0.0002667359353487628, 1.1097577741173701e-07,
                1.8784408605809113e-07, 1.3479861640670407e-10, 1.9243379519105908e-10]),
])
def test_theoretical_moment_keeps_the_set_partition_values(q, k, D, values):
    # H^(k)(n), n = 1..6, as the expansion over set partitions gave them
    for n, want in enumerate(values, 1):
        assert theoretical_moment(q, k, n, D)[0] == pytest.approx(want, rel=1e-12)


def test_theoretical_moment_order_range():
    # n = 17 is the last order the exhaustive oracle above holds to 1e-12;
    # the next one is refused, and no order below 1 is taken
    assert MAX_MOMENT_ORDER == 17
    theoretical_moment(3, 1, 17, 1)
    for n in (18, 0):
        with pytest.raises(DomainError, match=f"must be in 1..17, got {n}"):
            theoretical_moment(3, 1, n, 1)


def test_theoretical_moment_n2_asymptotic_shape():
    # H^(k)(2) * q^(2k+1) -> 1 as q grows (n = 2, k = 1 has exponent 3)
    ratios = []
    for q in (3, 5, 7, 9):
        v, _ = theoretical_moment(q, 1, 2, 10)
        ratios.append(v * q**3)
    assert abs(ratios[-1] - 1) < 0.25
    assert all(abs(r - 1) < 0.6 for r in ratios)


def test_theoretical_moment_distinctness_oracle():
    # brute force the distinct-prime double sum for n = 2, s = 2 at tiny D
    q, k, D = 3, 1, 2
    value, _ = theoretical_moment(q, k, 2, D)
    primes = []
    for e in (1, 2):
        primes += [e] * prime_count(q, e)

    def u(e):
        return -math.log1p(-q ** (-(k + 1) * e))

    def v(e):
        return math.log1p(q ** (-(k + 1) * e))

    def w(lam, e):
        return (u(e) ** lam + (-1) ** lam * v(e) ** lam) / (
            math.factorial(lam) * (1 + q ** (-e)))

    total = 0.0
    # s = 1, lambda = (2); the 1/lambda! already lives inside w
    total += (2 / (2 * 1)) * sum(w(2, e) for e in primes)
    # s = 2, lambda = (1,1): ordered pairs of distinct primes
    pair_sum = 0.0
    for i, e1 in enumerate(primes):
        for j, e2 in enumerate(primes):
            if i != j:
                pair_sum += w(1, e1) * w(1, e2)
    total += (2 / (4 * 2)) * pair_sum
    assert value == pytest.approx(total, rel=1e-12)


# -- limiting covariance ----------------------------------------------------------------

def test_limit_covariance_d1_oracle():
    q = 3
    tau1 = -math.log1p(-q ** -2) + 0.5 * math.log1p(-q ** -4)
    tau2 = -math.log1p(-q ** -3) + 0.5 * math.log1p(-q ** -6)
    eta1 = -0.5 * math.log1p(-q ** -4)
    eta2 = -0.5 * math.log1p(-q ** -6)
    manual = 3 * (tau1 * tau2 / (4 / 3) + eta1 * eta2 / (3 * (4 / 3) ** 2))
    value, tail = limit_covariance(3, 1, 2, 1)
    assert value == pytest.approx(manual, rel=1e-14)
    assert tau1 == pytest.approx(0.11157, abs=5e-6)
    assert tail > 0


def test_limit_covariance_symmetry_and_trend():
    assert limit_covariance(3, 1, 2, 9)[0] == limit_covariance(3, 2, 1, 9)[0]
    for q in (3, 5, 7):
        ratio = limit_covariance(q, 1, 2, 9)[0] * q**4
        assert 0.5 < ratio < 2.0
    for q in (9, 11):
        ratio = limit_covariance(q, 1, 2, 9)[0] * q**4
        assert 0.9 < ratio < 1.1
    ratios = [limit_covariance(q, 1, 2, 9)[0] * q**4 for q in (3, 5, 7, 9, 11)]
    assert ratios == sorted(ratios)


def test_limit_covariance_rejects_equal():
    with pytest.raises(DomainError):
        limit_covariance(3, 1, 1, 5)


# -- characteristic function ----------------------------------------------------------------

def test_phi_at_zero():
    assert characteristic_function(3, 1, 0.0, 5) == 1.0


def test_phi_conjugate_symmetry():
    a = characteristic_function(3, 1, 1.5, 4)
    b = characteristic_function(3, 1, -1.5, 4)
    assert abs(a - b.conjugate()) < 1e-14


def test_phi_cumulant_match():
    t = 0.01
    h1 = theoretical_moment(3, 1, 1, 8)[0]
    h2 = theoretical_moment(3, 1, 2, 8)[0]
    lp = cmath.log(characteristic_function(3, 1, t, 8))
    assert abs(lp - (1j * t * h1 - t * t * (h2 - h1 * h1) / 2)) < 1e-3


def test_phi_bounded():
    for t in (0.5, 2.0, 10.0):
        assert abs(characteristic_function(3, 1, t, 6)) <= 1.0 + 1e-9


def test_phi_matches_a_50_digit_product():
    # the product over e of (1 + z_e)^pi_q(e), z_e = w_e ((1-x)^-it + (1+x)^-it - 2) / 2,
    # at mpmath precision
    with mp.workdps(50):
        for q in (3, 5, 7, 9):
            for k in range(3):
                for t in (0.01, 0.3, 1, 5, 20, 50, -7):
                    it = mp.mpc(0, -t)
                    product = mp.mpc(1)
                    for e in range(1, 21):
                        x = mp.mpf(q) ** (-(k + 1) * e)
                        z = ((1 - x) ** it + (1 + x) ** it - 2) / (2 * (1 + mp.mpf(q) ** -e))
                        product *= (1 + z) ** prime_count(q, e)
                        if e in (1, 6, 14, 20):
                            phi = characteristic_function(q, k, t, e)
                            assert abs(phi - complex(product)) <= 1e-12, (q, k, t, e)


def test_phi_refuses_a_degree_past_the_float_range():
    # pi_3(651) < 2^1024 < pi_3(652); phi(0) = 1 reads no prime count
    with pytest.raises(DomainError, match="D = 660 is too large for q = 3: pi_q"):
        characteristic_function(3, 0, 0.5, 660)
    assert characteristic_function(3, 0, 0.0, 660) == 1.0
    assert abs(characteristic_function(3, 0, 0.5, 651)) <= 1.0 + 1e-9


# -- family-mean estimates ---------------------------------------------------------------------

def _family_mean_symbol(gamma, h):
    from moduli_census.polyring import _iv
    K = h.field
    total = 0
    count = 0
    h_iv = _iv(h)
    for F in family(FamilySpec(K, gamma)):
        total += _iv_jacobi(_iv(F), h_iv, K)
        count += 1
    return total / count


def test_family_character_mean_bound():
    # |mean of (F/h)| <= (2^deg h - 1) / ((1-1/q) q^(gamma/2)) for fg non-square
    q, gamma = 3, 5
    rng = random.Random(21)
    primes = irreducible_polys(F3, 1) + irreducible_polys(F3, 2)
    for _ in range(100):
        P1 = rng.choice(primes)
        P2 = rng.choice(primes)
        e1 = rng.randrange(1, 3)
        e2 = rng.randrange(1, 3)
        h = (P1**e1) * (P2**e2)
        # skip squares (trivial character)
        if P1 == P2 and (e1 + e2) % 2 == 0:
            continue
        if P1 != P2 and e1 % 2 == 0 and e2 % 2 == 0:
            continue
        mean = _family_mean_symbol(gamma, h)
        bound = (2 ** h.degree - 1) / ((1 - 1 / q) * q ** (gamma / 2))
        assert abs(mean) <= bound + 1e-12


def test_coprimality_frequency():
    # coprimality frequency approaches prod (1 + |P|^-1)^-1
    q, gamma = 3, 5
    rng = random.Random(33)
    primes = irreducible_polys(F3, 1) + irreducible_polys(F3, 2)
    from moduli_census.polyring import _iv, _iv_gcd
    for _ in range(20):
        chosen = rng.sample(primes, rng.randrange(1, 4))
        h = chosen[0]
        for P in chosen[1:]:
            h = h * P
        count = 0
        total = 0
        for F in family(FamilySpec(F3, gamma)):
            total += 1
            if len(_iv_gcd(_iv(F), _iv(h), F3)) == 1:
                count += 1
        main = 1.0
        for P in chosen:
            main /= (1 + q ** (-P.degree))
        tau = 2 ** len(chosen)
        assert abs(count / total - main) <= tau * q ** (-gamma / 2)
