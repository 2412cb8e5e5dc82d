"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy artifacts (zeta data for the three enumerated families, the full
degree-9 sweep) are built once in session fixtures and shared.
"""

import math
import os
import time
from fractions import Fraction

import pytest

from moduli_census.ffield import make_field
from moduli_census.polyring import FamilySpec, family
from moduli_census.curvezeta import (
    HyperellipticCurve,
    epsilon_bounds,
    epsilon_terms,
    jacobian_count,
    l_poly_via_characters,
    lambda_character_identity,
    xz_bound_check,
    zeta_data,
    zeta_value,
)
from moduli_census.moduli import (
    count_higgs,
    count_ms20,
    count_stable_fixed_det,
    genus2_oracle,
    log_count_estimate,
    siegel_mass,
    unstable_mass,
)
from moduli_census.stats import limit_covariance, theoretical_moment
from moduli_census.sweep import CHUNK, SweepConfig, records_to_csv, run_sweep

FAMILIES = ((3, 5), (3, 6), (5, 5))


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def _blocks(zs):
    """The zeta data of one family in blocks of at most CHUNK curves."""
    return [zs[i:i + CHUNK] for i in range(0, len(zs), CHUNK)]


@pytest.fixture(scope="session")
def zeta_families():
    """Zeta data (budget 10^6) for H_{5,3}, H_{6,3}, H_{5,5}; timed,
    including the independent character-route rebuild of every L-polynomial,
    one call per block of the family (it raises unless every curve agrees)."""
    out = {}
    t0 = time.perf_counter()
    for q, gamma in FAMILIES:
        K = make_field(q)
        zs = []
        for F in family(FamilySpec(K, gamma)):
            zs.append(zeta_data(HyperellipticCurve(F), check_budget=10**6))
        for block in _blocks(zs):
            assert len(l_poly_via_characters(block)) == len(block)
        out[(q, gamma)] = zs
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep93(zeta_families):
    """Full default sweep of H_{9,3} with 1 worker (records + CSV + time)."""
    cfg = SweepConfig(q=3, gamma=9, workers=1)
    t0 = time.perf_counter()
    records = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, records, records_to_csv(records, cfg), elapsed


def test_criterion_01_zeta_validity(zeta_families):
    """Integer L-coefficients, functional equation, RH roots, positivity,
    and exact two-route agreement on all three families within 2 minutes."""
    zetas, elapsed = zeta_families
    counts = {}
    for (q, gamma), zs in zetas.items():
        g = (gamma - 1) // 2
        for z in zs:
            assert all(isinstance(c, int) for c in z.coeffs)
            for i in range(g + 1):
                assert z.coeffs[2 * g - i] == q ** (g - i) * z.coeffs[i]
            assert sum(z.coeffs) > 0
            # RH root check and the character-route comparison already ran
            # at construction / in the fixture; a failure raises there.
        counts[(q, gamma)] = len(zs)
    assert counts[(3, 5)] == 162
    assert counts[(3, 6)] == 486
    assert counts[(5, 5)] == 2500
    assert elapsed <= 120.0, f"zeta validity suite took {elapsed:.1f}s"
    _report(f"C1 PASS zeta validity: 162+486+2500 curves, two routes agree, "
            f"{elapsed:.1f}s single-threaded (limit 120s)")


def test_criterion_02_lambda_identity(zeta_families):
    """character_sum(F, m) = -p_m - delta for m in {1,2}; exact integers."""
    zetas, _ = zeta_families
    checked = 0
    for (q, gamma), zs in zetas.items():
        for block in _blocks(zs):
            for m in (1, 2):
                reps = lambda_character_identity(block, m)
                assert len(reps) == len(block)
                for z, rep in zip(block, reps):
                    assert rep.holds, (q, gamma, z.curve.F.coeffs, m)
            checked += len(block)
    _report(f"C2 PASS exact trace identity on {checked} curves, m in {{1,2}}, "
            "zero tolerance")


def test_criterion_03_higgs_integrality(zeta_families):
    """A_{g,2} is a positive integer on the three families and on 500
    seeded degree-7 samples; spot values 528 and 128304."""
    zetas, _ = zeta_families
    total = 0
    for zs in zetas.values():
        for z in zs:
            a = count_higgs(z).components["A_g2"]
            assert a.denominator == 1 and a > 0
            total += 1
    spec = FamilySpec(make_field(3), 7, "sample", 500, 20240801)
    for F in family(spec):
        z = zeta_data(HyperellipticCurve(F))
        a = count_higgs(z).components["A_g2"]
        assert a.denominator == 1 and a > 0
        total += 1
    K = make_field(3)
    from moduli_census.polyring import parse_poly
    z = zeta_data(HyperellipticCurve(parse_poly(K, "0,1,0,0,0,1")))
    rep = count_higgs(z)
    assert rep.components["A_g2"] == 528
    assert rep.value == 128304
    _report(f"C3 PASS indecomposable-count integrality on {total} curves; "
            "spot values 528 / 128304 exact")


def test_criterion_04_unstable_consistency(zeta_families):
    """unstable_mass((1,1), 0) equals the closed form exactly family-wide;
    the rank-3 stratum envelopes dominate the exact values."""
    zetas, _ = zeta_families
    n = 0
    for (q, gamma), zs in zetas.items():
        for z in zs:
            g = z.genus
            nj = jacobian_count(z, 1)
            assert unstable_mass(z, (1, 1), 0) == Fraction(
                nj * q ** (g - 1), (q - 1) ** 3 * (q + 1))
            uns3 = Fraction(q**5 * nj * nj * q ** (3 * (g - 1)),
                            (q - 1) ** 3 * (q**2 - 1) * (q**3 - 1))
            uns41 = (Fraction(q**6 * nj * q ** (2 * (g - 1)), (q - 1) * (q**6 - 1))
                     * (2 * Fraction(q ** (3 * (g - 1))) * zeta_value(z, 2) / (q - 1)
                        - Fraction(q ** (g - 1) * nj, (q - 1) ** 3 * (q + 1))
                        - Fraction(q**g * nj, (q - 1) ** 3 * (q + 1))))
            for d in (0, 1, 2):
                assert unstable_mass(z, (1, 1, 1), d) <= uns3
                assert unstable_mass(z, (2, 1), d) <= uns41
                assert unstable_mass(z, (1, 2), d) <= uns41
            n += 1
    _report(f"C4 PASS stratum closed form and rank-3 envelopes on {n} curves")


def test_criterion_05_crossval_report(zeta_families):
    """Cross-validation report over every genus-2 curve of H_{5,3}:
    generated for 100%, residual distribution summarized.  The outcome
    refutes the anticipated 81/2-vs-40 / 31/2 pattern: the stable count
    matches the quadric-intersection oracle exactly on every curve."""
    zetas, _ = zeta_families
    rows = []
    for z in zetas[(3, 5)]:
        m21 = count_stable_fixed_det(z, 2, 1)
        ms = count_ms20(z)
        rows.append({
            "F": list(z.curve.F.coeffs),
            "m21": m21.value,
            "oracle": genus2_oracle(z),
            "oracle_residual": m21.cross_checks["genus2_oracle"]["residual"],
            "m21_integer": m21.is_integer,
            "ms20": ms.value,
            "ms20_integer": ms.is_integer,
            "full_2_torsion": ms.hypotheses["full_2_torsion"],
        })
    assert len(rows) == 162  # 100% coverage
    zero_resid = sum(1 for r in rows if r["oracle_residual"] == 0)
    nonint_ms = sum(1 for r in rows if not r["ms20_integer"])
    assert all(r["m21_integer"] for r in rows)
    assert zero_resid == 162
    # spot curve x^5 + x: the anticipated 81/2 and 31/2 do not occur
    spot = next(r for r in rows if r["F"] == [0, 1, 0, 0, 0, 1])
    assert spot["m21"] == 40 and spot["oracle"] == 40
    assert spot["ms20"] == 15
    _report("C5 PASS crossval report on 162/162 curves; finding: stable "
            f"(2,1) count integral and equal to the genus-2 oracle on "
            f"{zero_resid}/162 (anticipated 81/2-vs-40 pattern refuted; "
            f"spot curve gives 40 and 15); ms20 non-integer on {nonint_ms}/162, "
            "full 2-torsion on 0/162")


def test_criterion_06_error_bounds(zeta_families):
    """Truncation-error envelope for k in {2,3}, Z in {1,2,3} and the
    Jacobian log bound, on 100% of the enumerated curves."""
    zetas, _ = zeta_families
    eps_checked = 0
    for (q, gamma) in ((3, 5), (3, 6)):
        for z in zetas[(q, gamma)]:
            for k in (2, 3):
                for Z in (1, 2, 3):
                    e1, e2 = epsilon_terms(z, k, Z)
                    b1, b2 = epsilon_bounds(z, k, Z)
                    assert abs(float(e1)) <= b1
                    assert abs(e2) <= b2
            eps_checked += 1
    xz_checked = 0
    for zs in zetas.values():
        for z in zs:
            assert xz_bound_check(z)["xz"].holds
            xz_checked += 1
    _report(f"C6 PASS epsilon bounds on {eps_checked} curves x 6 (k,Z); "
            f"Jacobian log bound on {xz_checked} curves")


@pytest.fixture(scope="session")
def moment_sweeps():
    """R-only sweeps of H_{gamma,3} for gamma in {5,7,9}; gamma=9 timed on
    4 workers."""
    out = {}
    for gamma in (5, 7):
        cfg = SweepConfig(q=3, gamma=gamma, compute_moduli=False,
                          compute_zeta=False, workers=2)
        out[gamma] = run_sweep(cfg)
    cfg9 = SweepConfig(q=3, gamma=9, compute_moduli=False,
                       compute_zeta=False, workers=4)
    t0 = time.perf_counter()
    out[9] = run_sweep(cfg9)
    elapsed = time.perf_counter() - t0
    return out, elapsed


def _moment_gaps(sweeps):
    gaps = []
    for gamma in (5, 7, 9):
        recs = sweeps[gamma]
        emp = math.fsum(r.R[1] for r in recs) / len(recs)
        theo, _ = theoretical_moment(3, 1, 1, 2 * gamma)
        gaps.append(abs(emp - theo))
    return gaps


def test_criterion_07_moment_convergence_threshold(moment_sweeps):
    """|E(R^(1)) - H^(1)(1)| <= 0.02 at gamma = 9 over the full family;
    the 13122-curve sweep fits 60 s on 4 workers."""
    sweeps, elapsed9 = moment_sweeps
    gaps = _moment_gaps(sweeps)
    assert len(sweeps[9]) == 13122
    assert gaps[2] <= 0.02
    assert elapsed9 <= 60.0, f"degree-9 sweep took {elapsed9:.1f}s on 4 workers"
    _report(f"C7a PASS gap at gamma=9 is {gaps[2]:.6f} <= 0.02; "
            f"13122-curve sweep {elapsed9:.1f}s on 4 workers")


def test_criterion_07_moment_convergence_monotone(moment_sweeps):
    """Monotone decrease of the gap over gamma in {5,7,9}.

    Expected red: the truncation Z = [gamma/3] keeps exactly the same
    prime-square terms at gamma = 7 (Z = 2) and gamma = 9 (Z = 3), so both
    sit ~3.0e-4 below the limit deterministically and their ordering is
    decided by O(q^(-gamma/2)) family fluctuations; the gamma = 7
    fluctuation happens to point toward the limit.  The exact exhaustive
    gaps are 1.4e-2, 2.2e-4, 3.0e-4: not monotone.
    """
    sweeps, _ = moment_sweeps
    gaps = _moment_gaps(sweeps)
    _report(f"C7b moment gaps: {gaps[0]:.6f}, {gaps[1]:.6f}, {gaps[2]:.6f}")
    assert gaps[0] > gaps[1] > gaps[2], (
        f"gaps {gaps[0]:.6f} > {gaps[1]:.6f} > {gaps[2]:.6f} fails: the "
        "Z-truncation deficit is identical at gamma 7 and 9 (~3.0e-4), so "
        "monotonicity hinges on sub-noise family fluctuations; see the "
        "decisions ledger")


def test_criterion_08_covariance(moment_sweeps):
    """Empirical Cov(R^(1), R^(2)) over H_{9,3} within 50% of the limit."""
    sweeps, _ = moment_sweeps
    recs = sweeps[9]
    n = len(recs)
    m1 = math.fsum(r.R[1] for r in recs) / n
    m2 = math.fsum(r.R[2] for r in recs) / n
    cov = math.fsum(r.R[1] * r.R[2] for r in recs) / n - m1 * m2
    limit, _ = limit_covariance(3, 1, 2, 9)
    assert cov > 0
    assert abs(cov - limit) <= 0.5 * abs(limit)
    _report(f"C8 PASS covariance {cov:.6f} vs limit {limit:.6f} "
            f"(relative error {abs(cov - limit) / limit:.2%}, allowed 50%)")


@pytest.fixture(scope="session")
def gaussian_samples():
    """20000 draws from H_{9,q} for q in {3,5,7} with the default seed 0."""
    from moduli_census.stats import gaussian_diagnostics
    out = {}
    for q in (3, 5, 7):
        cfg = SweepConfig(q=q, gamma=9, mode="sample", count=20000, seed=0,
                          compute_moduli=False, compute_zeta=False,
                          r_max=2, workers=2)
        recs = run_sweep(cfg)
        out[q] = gaussian_diagnostics([q**1.5 * r.R[1] for r in recs])
    return out


def test_criterion_09_gaussian_kurtosis(gaussian_samples):
    """|excess kurtosis| of q^(3/2) R^(1) at q = 7 is at most 0.5, and the
    kurtosis magnitudes trend toward 0 as q grows."""
    kurts = [abs(gaussian_samples[q]["excess_kurtosis"]) for q in (3, 5, 7)]
    assert kurts[2] <= 0.5
    assert kurts[0] > kurts[1] > kurts[2]
    _report(f"C9a PASS |excess kurtosis| {kurts[0]:.3f} > {kurts[1]:.3f} > "
            f"{kurts[2]:.3f} <= 0.5 at q=7")


def test_criterion_09_gaussian_skew_monotone(gaussian_samples):
    """Monotone decrease of |skewness| in q from 20000 samples.

    Expected red: the limiting skewnesses are 0.0272, 0.0049, 0.0015 at
    q = 3, 5, 7 (monotone, computed from the exact moment sums), but the
    skewness standard error at n = 20000 is sqrt(6/n) = 0.017, larger than
    the q = 5 vs q = 7 separation; the prescribed estimator cannot resolve
    the ordering and its outcome flips with the seed.  Seed 0 (the package
    default) is used here without selection.
    """
    skews = [abs(gaussian_samples[q]["skewness"]) for q in (3, 5, 7)]
    _report(f"C9b |skew| measured: {skews[0]:.4f}, {skews[1]:.4f}, {skews[2]:.4f}"
            " (limits 0.0272, 0.0049, 0.0015; se 0.017)")
    assert skews[0] > skews[1] > skews[2], (
        f"|skew| {skews[0]:.4f} > {skews[1]:.4f} > {skews[2]:.4f} fails: "
        "the true ordering is sub-noise at n = 20000 (se = 0.017 vs "
        "separations < 0.004); see the decisions ledger")


def test_criterion_10_estimate_envelope(zeta_families):
    """The estimate reproduces log((q-1) * Siegel mass) exactly, and the
    exact stable-count log sits inside the fixed envelope for
    r in {2,3} on all of H_{5,3} and H_{5,5}."""
    zetas, _ = zeta_families
    n = 0
    for key in ((3, 5), (5, 5)):
        q, gamma = key
        for z in zetas[key]:
            for r in (2, 3):
                est, env = log_count_estimate(z, r)
                mass_log = math.log(float((q - 1) * siegel_mass(z, r)))
                assert abs(mass_log - est) <= 1e-9
                value = count_stable_fixed_det(z, r, 1).value
                gap = abs(math.log(value.numerator) - math.log(value.denominator)
                          - (r * r - 1) * (z.genus - 1) * math.log(q))
                assert gap <= env
            n += 1
    _report(f"C10 PASS estimate main term exact and envelope holds on {n} "
            "curves, r in {2,3}")


def test_criterion_11_determinism(sweep93):
    """Byte-identical degree-9 sweep for 1 versus 8 workers."""
    cfg1, _records, csv1, elapsed1 = sweep93
    cfg8 = SweepConfig(q=3, gamma=9, workers=8)
    t0 = time.perf_counter()
    records8 = run_sweep(cfg8)
    elapsed8 = time.perf_counter() - t0
    csv8 = records_to_csv(records8, cfg8)
    assert csv1 == csv8
    _report(f"C11a PASS byte-identical CSV for 1 vs 8 workers "
            f"({elapsed1:.1f}s vs {elapsed8:.1f}s on {os.cpu_count()} cores)")


@pytest.mark.skipif((os.cpu_count() or 1) < 8,
                    reason="8-worker >= 4x speedup needs at least 8 cores; "
                           f"host has {os.cpu_count()}")
def test_criterion_11_speedup(sweep93):
    """>= 4x speedup at 8 workers versus 1 on the same machine."""
    _cfg, _records, _csv, elapsed1 = sweep93
    cfg8 = SweepConfig(q=3, gamma=9, workers=8)
    t0 = time.perf_counter()
    run_sweep(cfg8)
    elapsed8 = time.perf_counter() - t0
    assert elapsed1 / elapsed8 >= 4.0
    _report(f"C11b PASS speedup {elapsed1 / elapsed8:.1f}x at 8 workers")
