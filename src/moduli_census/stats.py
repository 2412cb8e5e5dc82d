"""Arithmetic statistics over the families H_{gamma,q}.

Per curve: the truncated Lambda-weighted character sums, the random
variables R^(k) built from them, and the centered log-count residuals of
the moduli formulas.  In the limit, R^(k) becomes S = sum_P X_P, a sum of
independent local variables, one per monic irreducible P: X_P is
-log(1 - chi(P) |P|^-(k+1)) with chi(P) = 1 or -1 each with probability
|P| / (2 (|P| + 1)) and 0 with probability 1 / (|P| + 1).  All primes of
one degree e share a law, so every sum over primes is a sum over e with
weight pi_q(e): the cumulants of S (and from them its moments H^(k)(n)),
the limiting covariance, and log phi(t), phi the characteristic function.

Symbol orientation.  The Dirichlet character attached to y^2 = F(x) takes
the value (F/f) at f, and only that orientation satisfies the exact trace
identity sum_{deg f = m} Lambda(f) (F/f) = -p_m - delta against the point
counts.  A sweep takes the sums from the point counts by that identity
(trace_charsums); character_sum takes them from the prime symbol tables
that validate's character route reads (curvezeta._lambda_sums).  The
mirrored symbol (f/F) differs by the reciprocity sign
(-1)^((q-1)/2 * deg f * deg F), so its sums are (-1)^m times these when
(q-1)/2 * gamma is odd.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .curvezeta import CurveZeta, _lambda_sums, log_frac
from .errors import DomainError
from .moduli import COUNT_TARGETS, count_value, family_constant
from .polyring import MonicPoly, is_squarefree, prime_count

RESIDUAL_VARIANTS = COUNT_TARGETS  # one residual per moduli count


def default_cutoff(gamma: int) -> int:
    """The truncation depth Z = floor(gamma / 3)."""
    return gamma // 3


def character_sum(F: MonicPoly, m: int) -> int:
    """sum over monic f of degree m of Lambda(f) * (F/f).

    Only prime powers f = P^j contribute, so the sum runs over the primes
    of each degree e | m with weight e * (F/P)^(m/e), each symbol read from
    the prime symbol tables (curvezeta._lambda_sums).
    """
    if m < 1:
        raise DomainError("need m >= 1")
    if not is_squarefree(F):
        raise DomainError("F must be square-free")
    return int(_lambda_sums(F.field, np.array([F.coeffs], dtype=np.int64), m)[0])


def trace_charsums(psums: list[int], gamma: int) -> list[int]:
    """character_sum(F, m) for m = 1..len(psums), from p_1, p_2, ...

    The trace identity gives sum_{deg f = m} Lambda(f) (F/f) = -p_m - delta.
    """
    delta = 1 - gamma % 2
    return [-p - delta for p in psums]


def r_variable(charsums: list[int], q: int, k: int) -> float:
    """R^(k) = sum_{m<=Z} q^(-(k+1)m) m^-1 * charsums[m-1], with Z = len(charsums).

    charsums[m-1] is character_sum(F, m): trace_charsums of the curve's
    power sums, or the Jacobi route's character_sum itself.
    """
    if k < 0:
        raise DomainError("need k >= 0")
    if not charsums:
        raise DomainError("need Z >= 1")
    return math.fsum(s / (m * q ** ((k + 1) * m)) for m, s in enumerate(charsums, 1))


def decomposition_residual(z: CurveZeta, variant: str, Z: int | None = None,
                           rank: int = 2, degree: int = 1,
                           charsums: list[int] | None = None) -> float:
    """Centered log-count residual for one decomposition variant.

    m_rd:   log N(M(r,d))      - (r^2-1)(g-1) log q - C_q(r) - sum_{k<r} R^(k)
    ms20:   log N(M^s(2,0))    - 3(g-1) log q - C_q(2) - R^(1)
    ntilde: log N(Ntilde(4,0)) - (4g-4) log q + delta log(1-1/q^2) - R^(0) over F_{q^2}
    higgs:  log N(Higgs_2)     - (8g-6) log q - C_q^Higgs - R^(0) - R^(1)

    R^(k) weighs the first Z character sums: from the power sums of z
    through the trace identity, or from `charsums`, trace_charsums of
    p_1..p_Z, when the caller has them.
    The count is count_value(z, variant, rank, degree).
    """
    if variant not in RESIDUAL_VARIANTS:
        raise DomainError(f"unknown residual variant {variant!r}")
    q = z.q
    g = z.genus
    gamma = z.curve.gamma
    if Z is None:
        Z = default_cutoff(gamma)
    if charsums is None:
        charsums = trace_charsums(z.power_sums(Z), gamma)
    charsums = charsums[:Z]
    value = count_value(z, variant, rank, degree)
    lq = math.log(q)
    if variant in ("m_rd", "ms20"):
        r = rank if variant == "m_rd" else 2  # ms20 is centred as m_rd at rank 2
        rsum = math.fsum(r_variable(charsums, q, k) for k in range(1, r))
        return (log_frac(value) - (r * r - 1) * (g - 1) * lq
                - family_constant(q, gamma, "base", r) - rsum)
    if variant == "ntilde":
        # the points over F_{q^2m} give the character sums over F_{q^2}
        ext = trace_charsums(z.power_sums(2 * Z)[1::2], gamma)
        return (log_frac(value) - (4 * g - 4) * lq
                + family_constant(q, gamma, "thm16") - r_variable(ext, q * q, 0))
    rsum = math.fsum(r_variable(charsums, q, k) for k in (0, 1))
    return (log_frac(value) - (8 * g - 6) * lq
            - family_constant(q, gamma, "higgs") - rsum)


# -- per-curve records and their aggregation --------------------------------

@dataclass
class FamilyRecord:
    """Everything the sweeps keep per curve."""

    q: int
    gamma: int
    F_text: str
    genus: int
    N: tuple[int, ...]
    jacobian: int
    Z: int
    R: dict[int, float]
    delta_Z: float
    residuals: dict[str, float] = dc_field(default_factory=dict)
    flags: dict[str, bool] = dc_field(default_factory=dict)


@dataclass
class SweepReport:
    """Aggregated empirical statistics with their theoretical counterparts."""

    family: dict
    count: int
    moments: dict            # k -> {n -> float}
    covariance: dict         # "i,j" -> float
    gaussian: dict           # k -> diagnostics of q^((2k+1)/2) R^(k)
    theoretical_moments: dict = dc_field(default_factory=dict)
    theoretical_covariance: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_diagnostics(values: list[float]) -> dict:
    """Mean/variance/skewness/excess kurtosis and the KS distance to the
    normal fitted by moments."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values) / n
    if m2 == 0.0:
        return {"mean": mean, "variance": 0.0, "skewness": math.nan,
                "excess_kurtosis": math.nan, "ks_stat": math.nan}
    m3 = math.fsum((v - mean) ** 3 for v in values) / n
    m4 = math.fsum((v - mean) ** 4 for v in values) / n
    sd = math.sqrt(m2)
    ks = 0.0
    for i, v in enumerate(sorted(values)):
        cdf = _normal_cdf((v - mean) / sd)
        ks = max(ks, abs((i + 1) / n - cdf), abs(i / n - cdf))
    return {
        "mean": mean,
        "variance": m2,
        "skewness": m3 / sd**3,
        "excess_kurtosis": m4 / m2**2 - 3.0,
        "ks_stat": ks,
    }


def empirical_stats(records: list[FamilyRecord], max_n: int = 4) -> SweepReport:
    """Moments, covariances and Gaussian diagnostics of the R^(k) columns.

    Aggregation is a single fsum over the records in their given order, so
    the result does not depend on how the records were produced.
    """
    if not records:
        raise DomainError("empty record set")
    ks = sorted(records[0].R.keys())
    n = len(records)
    q = records[0].q
    moments = {}
    for k in ks:
        col = [rec.R[k] for rec in records]
        moments[k] = {m: math.fsum(v**m for v in col) / n for m in range(1, max_n + 1)}
    covariance = {}
    for i in ks:
        for j in ks:
            if j < i:
                continue
            cij = (math.fsum(rec.R[i] * rec.R[j] for rec in records) / n
                   - moments[i][1] * moments[j][1])
            covariance[f"{i},{j}"] = cij
    gaussian = {}
    for k in ks:
        scale = q ** ((2 * k + 1) / 2.0)
        gaussian[k] = gaussian_diagnostics([scale * rec.R[k] for rec in records])
    family = {"q": q, "gamma": records[0].gamma, "count": n}
    return SweepReport(family=family, count=n, moments=moments,
                       covariance=covariance, gaussian=gaussian)


# -- the limit law: a sum over independent primes ----------------------------

def _check_float_range(q: int, D: int, name: str, count: int) -> None:
    """Refuse a truncation degree D whose count (q^D or pi_q(D), the largest
    integer the sum multiplies a float by) has no binary64 value."""
    try:
        float(count)
    except OverflowError:
        raise DomainError(f"D = {D} is too large for q = {q}: {name} exceeds"
                          " the binary64 range") from None


# The last order whose moments hold 1e-12 relative in binary64: the cumulant
# recursion cancels more with each order (see theoretical_moment).
MAX_MOMENT_ORDER = 17


def check_moment_order(n: int) -> None:
    """Refuse a moment order outside 1..MAX_MOMENT_ORDER."""
    if not 1 <= n <= MAX_MOMENT_ORDER:
        raise DomainError(f"the moment order n must be in 1..{MAX_MOMENT_ORDER}, got {n}")


def _binomial_sum(row: list, a: list, b: list, top: int) -> float:
    """sum_{j=1}^{top} C(i-1, j-1) a[j] b[i-j], row[j-1] = C(i-1, j-1) with
    i = len(row): the step of the recursion m_i = sum_{j=1}^{i} C(i-1, j-1)
    kappa_j m_{i-j} between moments and cumulants."""
    i = len(row)
    return sum(row[j - 1] * a[j] * b[i - j] for j in range(1, top + 1))


def _cumulants(mu: list, rows: list, sign: float = -1.0) -> list:
    """kappa_0 = 0 and kappa_1..kappa_n from the moments mu_0 = 1, mu_1..mu_n;
    with sign = +1 the same recursion with every term added, which bounds
    |kappa_i| when mu_i bounds |mu_i|."""
    kappa = [0.0]
    for i in range(1, len(mu)):
        kappa.append(mu[i] + sign * _binomial_sum(rows[i], kappa, mu, i - 1))
    return kappa


def theoretical_moment(q: int, k: int, n: int, D: int) -> tuple[float, float]:
    """Limiting n-th moment H^(k)(n) = E[S^n], primes truncated at degree D.

    Returns (value, tail_bound).  A prime of degree e has x = q^-(k+1)e,
    and its X_e is u = -log(1-x) with probability w/2, -v = -log(1+x) with
    probability w/2 and 0 otherwise, w = 1/(1 + q^-e); so
    E[X_e^m] = w (u^m + (-v)^m) / 2.  The X_P are independent, so the
    cumulants add: kappa_n(S) = sum_e pi_q(e) kappa_n(X_e), each
    kappa_n(X_e) from the moments of X_e.  The moments of S come back through
    the recursion of _binomial_sum.

    Tail bound.  With x = q^-(k+1)e <= 1/3, u <= x/(1-x) <= 1.5 x and
    v <= x, so X_e / x has |E[(X_e/x)^m]| <= M_m = (1.5^m + 1)/2 and, by the
    cumulant recursion with every term added, |kappa_m(X_e)| <= C_m x^m;
    for m = 1 also |kappa_1| = w (u - v)/2 = -w log(1-x^2)/2 <= x^2.  As
    pi_q(e) <= q^e, the cumulants of the primes past D sum to at most
    delta_m = C_m y^(D+1) / (1-y), y = q^(1-(k+1) max(m,2)) (C_1 := 1).
    Writing the full cumulants as kappa_j + r_j, |r_j| <= delta_j, the
    moment recursion gives the moment differences exactly as
    d_i = sum_j C(i-1, j-1) [r_j (m_{i-j} + d_{i-j}) + kappa_j d_{i-j}],
    so |d_n| is at most the same sum taken in absolute values, which is
    the returned bound; no term of it cancels.

    Rounding is not in the bound, and it is what limits n.  The cumulants
    of S grow like n! while its moments grow geometrically, so the moment
    recursion cancels more with each order.  Against the same sums at 150
    digits, on q in {3, 5, 7}, k <= 20 and D <= 20, the value is within
    3e-13 relative for n <= MAX_MOMENT_ORDER = 17, 2e-12 at n = 18, and has
    no correct digit by n = 40, so orders past 17 are refused.
    """
    check_moment_order(n)
    if D < 1 or k < 0:
        raise DomainError("need D >= 1 and k >= 0")
    _check_float_range(q, D, "pi_q(D)", prime_count(q, D))
    rows = [[float(math.comb(i - 1, j)) for j in range(i)] for i in range(n + 1)]
    kappa = [0.0] * (n + 1)
    for e in range(1, D + 1):
        x = q ** (-(k + 1) * e)
        u, v, w = -math.log1p(-x), math.log1p(x), 1.0 / (1.0 + q ** (-e))
        pe = prime_count(q, e)
        # u^m + (-v)^m; for odd m, (u - v)(u^(m-1) + ... + v^(m-1)) with
        # u - v = -log(1 - x^2), as u^m - v^m would lose digits when x is small
        mu = [1.0] + [w * (u**m + v**m if m % 2 == 0 else -math.log1p(-x * x)
                           * sum(u ** (m - 1 - j) * v**j for j in range(m))) / 2
                      for m in range(1, n + 1)]
        for m, c in enumerate(_cumulants(mu, rows)):
            kappa[m] += pe * c
    C = _cumulants([1.0] + [(1.5**m + 1) / 2 for m in range(1, n + 1)], rows, 1.0)
    delta = [0.0]
    for m in range(1, n + 1):
        y = q ** (1 - (k + 1) * max(m, 2))
        delta.append((C[m] if m > 1 else 1.0) * y ** (D + 1) / (1.0 - y))
    moments, diffs = [1.0], [0.0]
    for i in range(1, n + 1):
        moments.append(_binomial_sum(rows[i], kappa, moments, i))
        upper = [abs(a) + b for a, b in zip(moments, diffs)]
        diffs.append(_binomial_sum(rows[i], delta, upper, i)
                     + _binomial_sum(rows[i], [abs(c) for c in kappa], diffs, i))
    return moments[n], diffs[n]


def limit_covariance(q: int, i: int, j: int, D: int) -> tuple[float, float]:
    """Limiting covariance of R^(i), R^(j) for i != j, truncated at D.

    sum over P of tau_i tau_j / (1 + |P|^-1) + eta_i eta_j / (|P| (1+|P|^-1)^2).
    """
    if i == j:
        raise DomainError("equal indices are served by the moments")
    if min(i, j) < 1 or D < 1:
        raise DomainError("need i, j >= 1 and D >= 1")
    _check_float_range(q, D, "q^D", q**D)
    total = 0.0
    for e in range(1, D + 1):
        pe = prime_count(q, e)
        xi = q ** (-(i + 1) * e)
        xj = q ** (-(j + 1) * e)
        eta_i = -0.5 * math.log1p(-xi * xi)
        eta_j = -0.5 * math.log1p(-xj * xj)
        tau_i = -math.log1p(-xi) - eta_i
        tau_j = -math.log1p(-xj) - eta_j
        term = (tau_i * tau_j / (1.0 + q ** (-e))
                + eta_i * eta_j / (q**e * (1.0 + q ** (-e)) ** 2))
        total += pe * term
    # tails: tau_k <= 2 x_k, eta_k <= x_k^2, pi_q(e) <= q^e
    y1 = q ** (-(i + j + 1))
    y2 = q ** (-(2 * i + 2 * j + 5))
    tail = 4.0 * y1 ** (D + 1) / (1.0 - y1) + y2 ** (D + 1) / (1.0 - y2)
    return total, tail


def limit_tables(q: int, ks, n_max: int, D: int) -> tuple[dict, dict]:
    """The limit law truncated at D, as two tables keyed by strings: the
    moments {"k": {"n": entry}} for k in ks and n = 1..n_max, and the
    covariances {"i,j": entry} for every pair 1 <= i < j in ks, each entry
    {"value", "tail_bound"}.  The moments are computed first, k before n."""
    check_moment_order(n_max)
    moments: dict = {}
    for k in ks:
        moments[str(k)] = {}
        for n in range(1, n_max + 1):
            value, tail = theoretical_moment(q, k, n, D)
            moments[str(k)][str(n)] = {"value": value, "tail_bound": tail}
    covariance: dict = {}
    for i in ks:
        for j in ks:
            if 1 <= i < j:
                value, tail = limit_covariance(q, i, j, D)
                covariance[f"{i},{j}"] = {"value": value, "tail_bound": tail}
    return moments, covariance


def characteristic_function(q: int, k: int, t: float, D: int) -> complex:
    """phi(t) = E[exp(i t S)] of the limiting variable, primes truncated at D.

    The X_P are independent, so phi is the product over e of
    (1 + z_e)^pi_q(e), z_e = E[exp(i t X_e)] - 1 = w (e^(itu) - 1 + e^(-itv) - 1)/2
    (u, v, w of theoretical_moment), taken as exp(sum_e pi_q(e) log1p(z_e)).
    e^(i theta) - 1 is -2 sin^2(theta/2) + i sin(theta), and sin(tu) - sin(tv)
    is 2 sin(t(u-v)/2) cos(t(u+v)/2) with u - v = -log(1-x^2) and
    (u+v)/2 = atanh(x), so z_e has no cancellation;
    log1p(z) = (log1p(2 Re z + |z|^2)/2, atan2(Im z, 1 + Re z)).
    `q` is the order of the coefficient field of the primes (pass q^2 for
    the desingularization variant, whose primes live over F_{q^2}).
    """
    if D < 1:
        raise DomainError("need D >= 1")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if abs(t) > 50:
        raise DomainError("|t| <= 50")
    if t == 0.0:
        return complex(1.0, 0.0)
    _check_float_range(q, D, "pi_q(D)", prime_count(q, D))
    re, im = [], []
    for e in range(1, D + 1):
        x = q ** (-(k + 1) * e)
        u, v, w = -math.log1p(-x), math.log1p(x), 1.0 / (1.0 + q ** (-e))
        zr = -w * (math.sin(t * u / 2) ** 2 + math.sin(t * v / 2) ** 2)
        zi = w * math.sin(-t * math.log1p(-x * x) / 2) * math.cos(t * math.atanh(x))
        pe = prime_count(q, e)
        re.append(pe * math.log1p(2 * zr + zr * zr + zi * zi) / 2)
        im.append(pe * math.atan2(zi, 1 + zr))
    return cmath.exp(complex(math.fsum(re), math.fsum(im)))
