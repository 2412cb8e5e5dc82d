"""Arithmetic statistics over the families H_{gamma,q}.

Per curve: the truncated Lambda-weighted character sums, the random
variables R^(k) built from them, and the centered log-count residuals of
the moduli formulas.  In the limit: the moments H^(k)(n) as sums over
tuples of distinct monic irreducibles, the limiting covariance, and the
characteristic functions, all aggregated by prime degree through pi_q.

Symbol orientation.  The Dirichlet character attached to y^2 = F(x) takes
the value (F/f) at f, and only that orientation satisfies the exact trace
identity sum_{deg f = m} Lambda(f) (F/f) = -p_m - delta against the point
counts.  The mirrored symbol (f/F) differs by the reciprocity sign
(-1)^((q-1)/2 * deg f * deg F), so its sums are (-1)^m times these when
(q-1)/2 * gamma is odd.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

from .curvezeta import CurveZeta, log_frac
from .errors import DomainError
from .moduli import COUNT_TARGETS, _compositions, count_value, family_constant
from .polyring import MonicPoly, _irreducible_ivs, _iv, _iv_jacobi, is_squarefree, prime_count

RESIDUAL_VARIANTS = COUNT_TARGETS  # one residual per moduli count


def default_cutoff(gamma: int) -> int:
    """The truncation depth Z = floor(gamma / 3)."""
    return gamma // 3


def character_sum(F: MonicPoly, m: int) -> int:
    """sum over monic f of degree m of Lambda(f) * (F/f).

    Only prime powers f = P^j contribute, so the sum runs over the cached
    irreducibles of each degree e | m with weight e * (F/P)^(m/e).
    """
    if m < 1:
        raise DomainError("need m >= 1")
    if not is_squarefree(F):
        raise DomainError("F must be square-free")
    K = F.field
    F_iv = _iv(F)
    total = 0
    for e in range(1, m + 1):
        if m % e:
            continue
        j = m // e
        sub = 0
        for piv in _irreducible_ivs(K, e):
            s = _iv_jacobi(F_iv, list(piv), K)
            sub += s if j % 2 else abs(s)
        total += e * sub
    return total


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
        charsums = trace_charsums([z.power_sum(m) for m in range(1, Z + 1)], gamma)
    charsums = charsums[:Z]
    value = count_value(z, variant, rank, degree)
    lq = math.log(q)
    if variant == "m_rd":
        rsum = math.fsum(r_variable(charsums, q, k) for k in range(1, rank))
        return (log_frac(value) - (rank * rank - 1) * (g - 1) * lq
                - family_constant(q, gamma, "base", rank) - rsum)
    if variant == "ms20":
        return (log_frac(value) - 3 * (g - 1) * lq
                - family_constant(q, gamma, "thm15") - r_variable(charsums, q, 1))
    if variant == "ntilde":
        # the points over F_{q^2m} give the character sums over F_{q^2}
        ext = trace_charsums([z.power_sum(2 * m) for m in range(1, Z + 1)], gamma)
        return (log_frac(value) - (4 * g - 4) * lq
                + family_constant(q, gamma, "thm16") - r_variable(ext, q * q, 0))
    rsum = math.fsum(r_variable(charsums, q, k) for k in (0, 1))
    return (log_frac(value) - (8 * g - 6) * lq
            - family_constant(q, gamma, "higgs") - rsum)


def residual_envelope(q: int, g: int) -> float:
    """Decay envelope 10 q^(-g/2) for residual magnitude checks."""
    return 10.0 * q ** (-0.5 * g)


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


# -- limiting moments, covariance, characteristic functions -----------------

def _set_partitions(items: tuple):
    """All partitions of `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1:]
        yield part + [(first,)]


def _check_float_range(q: int, D: int, name: str, count: int) -> None:
    """Refuse a truncation degree D whose count (q^D or pi_q(D), the largest
    integer the sum multiplies a float by) has no binary64 value."""
    try:
        float(count)
    except OverflowError:
        raise DomainError(f"D = {D} is too large for q = {q}: {name} exceeds"
                          " the binary64 range") from None


def theoretical_moment(q: int, k: int, n: int, D: int) -> tuple[float, float]:
    """Limiting n-th moment H^(k)(n), primes truncated at degree D.

    Returns (value, tail_bound).  Distinct-tuple sums are aggregated by
    prime degree: within a block of indices forced to share one prime the
    degree sum is weighted by pi_q(e), and distinctness across blocks is
    unwound by the Moebius weights over set partitions.  The tail bound
    uses |w_1| <= 2 x^2 and |w_lam| <= 2 (2x)^lam / lam! with
    x = |P|^-(k+1).
    """
    if not 1 <= n <= 6:
        raise DomainError("moment order limited to 1 <= n <= 6")
    if D < 1 or k < 0:
        raise DomainError("need D >= 1 and k >= 0")
    _check_float_range(q, D, "pi_q(D)", prime_count(q, D))
    kk = k + 1
    pis = [0] + [prime_count(q, e) for e in range(1, D + 1)]
    u = [0.0] + [-math.log1p(-q ** (-kk * e)) for e in range(1, D + 1)]
    v = [0.0] + [math.log1p(q ** (-kk * e)) for e in range(1, D + 1)]
    wfac = [0.0] + [1.0 / (1.0 + q ** (-e)) for e in range(1, D + 1)]
    fact = [math.factorial(i) for i in range(n + 1)]

    def w(lam: int, e: int) -> float:
        return (u[e] ** lam + (-1) ** lam * v[e] ** lam) * wfac[e] / fact[lam]

    def w_bound_coeff(lam: int) -> tuple[float, int]:
        # |w_lam(e)| <= coeff * x^expo with x = q^(-(k+1)e)
        if lam == 1:
            return 2.0, 2
        return 2.0 * 2**lam / fact[lam], lam

    def block_sum(lams_in_block: tuple[int, ...]) -> float:
        return math.fsum(
            pis[e] * math.prod(w(lam, e) for lam in lams_in_block)
            for e in range(1, D + 1))

    def block_bounds(lams_in_block: tuple[int, ...]) -> tuple[float, float]:
        # (bound of the full series, bound of the tail beyond D)
        coeff = 1.0
        expo = 0
        for lam in lams_in_block:
            c, x = w_bound_coeff(lam)
            coeff *= c
            expo += x
        y = q ** (1 - kk * expo)  # pi_q(e) <= q^e
        if y >= 1.0:  # pragma: no cover - expo >= 2 keeps y <= 1/q
            return math.inf, math.inf
        full = coeff * y / (1.0 - y)
        tail = coeff * y ** (D + 1) / (1.0 - y)
        return full, tail

    total = 0.0
    tail_total = 0.0
    for s in range(1, n + 1):
        coeff = fact[n] / (2**s * fact[s])
        for comp in (c for c in _compositions(n) if len(c) == s):
            for part in _set_partitions(tuple(range(s))):
                weight = math.prod((-1) ** (len(B) - 1) * fact[len(B) - 1]
                                   for B in part)
                blocks = [tuple(comp[i] for i in B) for B in part]
                total += coeff * weight * math.prod(block_sum(b) for b in blocks)
                bounds = [block_bounds(b) for b in blocks]
                for t_idx in range(len(blocks)):
                    tail_piece = bounds[t_idx][1]
                    for o_idx, (full, _) in enumerate(bounds):
                        if o_idx != t_idx:
                            tail_piece *= full
                    tail_total += coeff * abs(weight) * tail_piece
    return total, tail_total


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
    """phi(t) of the limiting variable: distinct-prime expansion.

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
    kk = k + 1
    weights = []
    counts = []
    for e in range(1, D + 1):
        x = q ** (-kk * e)
        w = ((1.0 - x) ** complex(0, -t) + (1.0 + x) ** complex(0, -t) - 2.0) \
            / (1.0 + q ** (-e))
        weights.append(w)
        counts.append(prime_count(q, e))
    # elementary symmetric functions of degree <= 40 of the weight multiset via Newton
    n_max = 40
    pw = [complex(0)] * (n_max + 1)
    for jj in range(1, n_max + 1):
        pw[jj] = sum(c * w**jj for c, w in zip(counts, weights))
    es = [complex(1)] + [complex(0)] * n_max
    phi = complex(1.0, 0.0)
    for s in range(1, n_max + 1):
        acc = complex(0)
        for jj in range(1, s + 1):
            acc += (-1) ** (jj - 1) * es[s - jj] * pw[jj]
        es[s] = acc / s
        term = es[s] / 2**s
        phi += term
        if abs(term) < 1e-17:
            break
    return phi
