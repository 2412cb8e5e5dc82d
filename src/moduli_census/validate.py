"""Named invariant suites, runnable per family from the CLI.

Each suite walks the zeta data `zs` of one family H_{gamma,q} and yields
CheckResult rows; a suite passes when every row passes.  The
cross-validation suite is a reporting suite: it passes once the report
covers the family and the two exact identities between its routes hold,
and its findings (oracle residuals, integrality pattern, hypothesis flags)
ride along in the detail text.

Within one family, P(t) determines everything the higgs, unstable,
crossval, epsilon, xz and estimate suites check: each of their checks
reads only q, g and the coefficients of P(t), and q and g are fixed for
the family.  These suites therefore run their checks once per distinct
P(t), on the first curve that has it, and weight each outcome by the number
of curves that share it: the [z, k] entries of the run's L-polynomial
registry (see curvezeta), read once the family is counted.  Every curve
count, violation count and extreme is the one a pass over every curve
gives; a failing check's detail names the first curve of each failing
P(t).  What reads F stays per curve: crossval's full 2-torsion flag, and
the zeta and lambda suites, whose character route and trace identity are
the independent check of P(t) itself, one call of _full_2_torsion, of
l_poly_via_characters and of lambda_character_identity per block (and m).  The family is walked as
a sweep walks it (_Family): its blocks are the sweep's chunks, counted by
sweep.count_chunk into the run's registry, and a run of every suite holds
them once.

The moduli suites build no form of their own: every exact value they
check comes from a moduli call (the count reports, unstable_mass,
rank3_envelopes, exact_log_gap), and so from moduli's one form evaluator.
The checks that read the curve's integers without it are the thaddeus row
that crossval reads (Thaddeus' flips, at every genus), the fixed_loci row
that higgs reads (the C*-fixed loci of the Higgs space), and
estimate.siegel_main_term (log_count_estimate's zeta values, through
zeta_value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curvezeta import (
    HyperellipticCurve,
    check_symbol_budget,
    epsilon_bounds,
    epsilon_terms,
    l_poly_via_characters,
    lambda_character_identity,
    log_frac,
    xz_bound_check,
    zeta_data,
)
from .errors import BudgetError, InternalConsistencyError
from .ffield import make_field
from .moduli import (
    _full_2_torsion,
    count_higgs,
    count_ms20,
    count_stable_fixed_det,
    exact_log_gap,
    log_count_estimate,
    rank3_envelopes,
    siegel_mass,
    unstable_mass,
)
from .polyring import format_poly
from .sweep import ENUM_BUDGET, SweepConfig, chunk_bounds, count_chunk


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class _Family:
    """The zeta data of H_{gamma,q} at one check budget, and the run's
    registry (curvezeta) that counting it fills.  blocks yields the
    CurveZeta of each chunk of the sweep's walk (sweep.chunk_bounds,
    sweep.count_chunk), in family order.  A held family (a run of every
    suite) is counted once, into a list; otherwise it is counted as its one
    suite reads it."""

    def __init__(self, q: int, gamma: int, check_budget: int, held: bool):
        self.registry: dict = {}
        cfg = SweepConfig(q, gamma, check_budget=check_budget)
        blocks = ([z for _, _, z in count_chunk(cfg, lo, hi, self.registry)]
                  for lo, hi in chunk_bounds(cfg))
        self.blocks = list(blocks) if held else blocks


def _by_lpoly(zs: _Family):
    """(groups, n): the [z, k] for the first CurveZeta z of each distinct P(t)
    of the family zs, in first-seen order, with the number k of its curves
    that have it, and the family's curve count n: the run's registry, read
    once zs is counted."""
    for _ in zs.blocks:  # counts a family that is not held
        pass
    return zs.registry.values(), sum(k for _, k in zs.registry.values())


def suite_zeta(q: int, gamma: int, zs):
    """Construction invariants plus the character-route agreement."""
    n = 0
    route_error = None
    try:
        for block in zs.blocks:
            n += len(block)
            if route_error is None:
                try:
                    l_poly_via_characters(block)  # raises unless the routes agree
                except InternalConsistencyError as exc:
                    route_error = str(exc)
    except InternalConsistencyError as exc:
        yield CheckResult("zeta.construction", False, str(exc))
        return
    g = (gamma - 1) // 2
    fe_ok = all(z.coeffs[2 * g - i] == q ** (g - i) * z.coeffs[i]  # once per distinct P(t)
                for z, _ in zs.registry.values() for i in range(g + 1))
    yield CheckResult("zeta.construction", True,
                      f"{n} curves: integer Newton, RH roots, positivity,"
                      " predicted counts verified")
    yield CheckResult("zeta.functional_equation", fe_ok, f"{n} curves")
    yield CheckResult("zeta.character_route", route_error is None,
                      route_error or f"point-count and character-sum routes agree on {n} curves")


def suite_lambda(q: int, gamma: int, zs):
    """Exact trace identity for m in {1, 2} on the whole family."""
    n = 0
    bad = 0
    for block in zs.blocks:
        n += len(block)
        for m in (1, 2):
            bad += sum(not rep.holds for rep in lambda_character_identity(block, m))
    yield CheckResult("lambda.identity", bad == 0,
                      f"{n} curves, m in {{1,2}}, {bad} violations")


def suite_higgs(q: int, gamma: int, zs):
    """Indecomposable-count integrality and positivity family-wide."""
    bad = []
    groups, n = _by_lpoly(zs)
    for z, k in groups:
        rep = count_higgs(z)
        a = rep.components["A_g2"]
        if a.denominator != 1 or a <= 0:
            bad.append(format_poly(z.curve.F))
        if rep.cross_checks["fixed_loci"]["residual"] != 0:
            bad.append("fixed_loci:" + format_poly(z.curve.F))
    yield CheckResult("higgs.integrality", not bad,
                      f"{n} curves; A integer > 0" if not bad else f"violations: {bad[:5]}")
    if q == 3 and gamma == 5:
        K = make_field(3)
        from .polyring import parse_poly
        z = zeta_data(HyperellipticCurve(parse_poly(K, "0,1,0,0,0,1")))
        rep = count_higgs(z)
        ok = rep.components["A_g2"] == 528 and rep.value == 128304
        yield CheckResult("higgs.spot_value", ok,
                          f"A = {rep.components['A_g2']}, N = {rep.value}")


def suite_unstable(q: int, gamma: int, zs):
    """Stratum closed forms, duality, and the published envelopes."""
    closed_ok = True
    envelope_ok = True
    duality_ok = True
    groups, n = _by_lpoly(zs)
    for z, k in groups:
        beta_prime, uns3, uns21 = rank3_envelopes(z)
        if unstable_mass(z, (1, 1), 0) != beta_prime:
            closed_ok = False
        for d in (0, 1, 2):
            c111 = unstable_mass(z, (1, 1, 1), d)
            c21 = unstable_mass(z, (2, 1), d)
            c12 = unstable_mass(z, (1, 2), d)
            if not (c111 <= uns3 and c21 <= uns21 and c12 <= uns21):
                envelope_ok = False
            if c21 != unstable_mass(z, (1, 2), -d):
                duality_ok = False
    yield CheckResult("unstable.beta_prime_closed_form", closed_ok, f"{n} curves")
    yield CheckResult("unstable.rank3_envelopes", envelope_ok,
                      f"{n} curves, d in {{0,1,2}}")
    yield CheckResult("unstable.transpose_duality", duality_ok,
                      "C(2,1; d) = C(1,2; -d) family-wide")


def suite_crossval(q: int, gamma: int, zs):
    """Cross-validation report; summarizes, never patches.

    It fails where an exact identity breaks: the stable (2,1) count from
    Zagier's sum against Thaddeus' flips (its oracle, at every genus) or
    (q-1) beta(2, 1) from the Harder-Narasimhan recursion, or the ms20
    closed form against its component assembly plus 4^g/(q+1).
    """
    zero = 0
    nonint_m = 0
    nonint_ms = 0
    broken = 0
    # the flag reads F, so every curve counts it, which counts a streamed family
    tors = sum(sum(_full_2_torsion(block)) for block in zs.blocks)
    groups, n = _by_lpoly(zs)
    for z, k in groups:
        rep = count_stable_fixed_det(z, 2, 1)
        if rep.cross_checks["thaddeus"]["residual"] == 0:
            zero += k
        if not rep.is_integer:
            nonint_m += k
        ms = count_ms20(z)
        if not ms.is_integer:
            nonint_ms += k
        if (any(rep.cross_checks[row]["residual"] for row in ("thaddeus", "beta_table"))
                or ms.cross_checks["component_assembly"]["residual"] != Fraction(4**z.genus, q + 1)):
            broken += k
    yield CheckResult(
        "crossval.report", n > 0 and broken == 0,
        f"{n} curves; stable-count vs oracle residual zero on {zero}/{n}; "
        f"non-integer m_rd: {nonint_m}, non-integer ms20: {nonint_ms}; "
        f"full 2-torsion on {tors}/{n}"
        + (f"; {broken} curves break the thaddeus, beta_table or ms20 assembly identity"
           if broken else ""))


def suite_epsilon(q: int, gamma: int, zs):
    """Truncation-error envelopes for k in {2,3}, Z in {1,2,3}."""
    bad = 0
    groups, n = _by_lpoly(zs)
    for z, mult in groups:
        for k in (2, 3):
            for Z in (1, 2, 3):
                e1, e2 = epsilon_terms(z, k, Z)
                b1, b2 = epsilon_bounds(z, k, Z)
                if abs(float(e1)) > b1 or abs(e2) > b2:
                    bad += mult
    yield CheckResult("epsilon.envelopes", bad == 0,
                      f"{n} curves x 6 (k, Z) combinations, {bad} violations")


def suite_xz(q: int, gamma: int, zs):
    bad = 0
    groups, n = _by_lpoly(zs)
    for z, k in groups:
        rep = xz_bound_check(z)
        if not rep["xz"].holds:
            bad += k
        if not (rep["zeta_envelope_k2"].holds and rep["zeta_envelope_k3"].holds):
            bad += k
    yield CheckResult("xz.jacobian_and_zeta_envelopes", bad == 0,
                      f"{n} curves, {bad} violations")


def suite_estimate(q: int, gamma: int, zs):
    """Log-count estimate: tautological main term, envelope containment."""
    main_ok = True
    envelope_ok = True
    worst = -math.inf
    groups, n = _by_lpoly(zs)
    for z, k in groups:
        for r in (2, 3):
            est, env = log_count_estimate(z, r)
            if abs(log_frac((q - 1) * siegel_mass(z, r)) - est) > 1e-9:
                main_ok = False
            gap = exact_log_gap(z, r, 1)
            worst = max(worst, gap - env)
            if gap > env:
                envelope_ok = False
    yield CheckResult("estimate.siegel_main_term", main_ok, f"{n} curves, r in {{2,3}}")
    yield CheckResult("estimate.envelope", envelope_ok,
                      f"{n} curves, r in {{2,3}}; worst gap-minus-envelope {worst:.3g}")


SUITES = {
    "zeta": suite_zeta,
    "lambda": suite_lambda,
    "higgs": suite_higgs,
    "unstable": suite_unstable,
    "crossval": suite_crossval,
    "epsilon": suite_epsilon,
    "xz": suite_xz,
    "estimate": suite_estimate,
}


def run_suite(name: str, q: int, gamma: int) -> list[CheckResult]:
    """Run one suite, or all of them over one pass of zeta data.

    A single suite recounts at its own budget (10**6 for zeta, 10**4 for
    the rest); "all" builds each curve's zeta data once, at 10**6, so no
    suite loses a recount.  Before anything is counted, q^gamma must fit
    sweep.ENUM_BUDGET and, for zeta and all, each symbol table SYMBOL_BUDGET.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    make_field(q)  # rejects a q that is not an odd prime
    if q**gamma > ENUM_BUDGET:
        raise BudgetError(f"validate enumerates the family: q^gamma = {q**gamma}"
                          f" must be <= {ENUM_BUDGET}")
    if name in ("zeta", "all"):
        check_symbol_budget(q, range(1, gamma))
    if name == "all":
        try:
            zs = _Family(q, gamma, 10**6, held=True)
        except InternalConsistencyError as exc:
            return [CheckResult("zeta.construction", False, str(exc))]
        return [res for suite in SUITES.values() for res in suite(q, gamma, zs)]
    budget = 10**6 if name == "zeta" else 10**4
    return list(SUITES[name](q, gamma, _Family(q, gamma, budget, held=False)))
