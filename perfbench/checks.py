"""Output checks made apart from the program under test.

Everything here is the benchmark's own arithmetic over prime fields F_p:
a Legendre-sum point count, a square-free test by polynomial gcd, Newton's
identities with the functional equation, the trace identity that turns
point counts into the R-variables, and the moments and covariances of the
report.  None of it imports moduli_census, and none of it compares against
a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re

# -- polynomials over F_p as coefficient lists, degree 0 first ----------------


def parse_csv_poly(text: str) -> list[int]:
    """The F column of a sweep CSV: coefficients joined with ':'."""
    return [int(c) for c in text.split(":")]


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def poly_eval(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _poly_mod(u: list[int], v: list[int], p: int) -> list[int]:
    u = _trim(list(u))
    inv_lead = pow(v[-1], p - 2, p)
    while len(u) >= len(v):
        c = u[-1] * inv_lead % p
        shift = len(u) - len(v)
        for j, vj in enumerate(v):
            u[shift + j] = (u[shift + j] - c * vj) % p
        _trim(u)
    return u


def is_squarefree(f: list[int], p: int) -> bool:
    """gcd(f, f') = 1 over F_p, with f' nonzero."""
    d = _trim([(i * c) % p for i, c in enumerate(f)][1:])
    if not d:
        return False
    u, v = _trim(list(f)), d
    while v:
        u, v = v, _poly_mod(u, v, p)
    return len(u) == 1


def first_family_member(p: int, gamma: int) -> list[int]:
    """The first monic square-free F of degree gamma in base-p code order."""
    for code in range(p**gamma):
        f = []
        for _ in range(gamma):
            code, rem = divmod(code, p)
            f.append(rem)
        f.append(1)
        if is_squarefree(f, p):
            return f
    raise ValueError(f"no square-free polynomial of degree {gamma} over F_{p}")


def legendre_n1(f: list[int], p: int) -> int:
    """N_1 of the smooth model of y^2 = f(x): affine points plus infinity."""
    at_infinity = 2 if (len(f) - 1) % 2 == 0 else 1
    return p + at_infinity + sum(legendre(poly_eval(f, x, p), p) for x in range(p))


# -- zeta data from N_1..N_g --------------------------------------------------


def predicted_counts(n_low: list[int], q: int) -> tuple[list[int], int] | None:
    """N_1..N_2g and P(1) from N_1..N_g by Newton and the functional equation.

    P(t) = sum c_i t^i has power sums p_m = q^m + 1 - N_m, and Newton's
    identities m c_m = -sum_{i=1}^{m} p_i c_{m-i} fix c_1..c_g; the
    functional equation c_{2g-i} = q^(g-i) c_i gives the rest.  None when
    some c_m is not an integer.
    """
    g = len(n_low)
    p = [q**m + 1 - n_low[m - 1] for m in range(1, g + 1)]
    c = [1]
    for m in range(1, g + 1):
        s = sum(p[i - 1] * c[m - i] for i in range(1, m + 1))
        if s % m:
            return None
        c.append(-s // m)
    c += [q ** (g - i) * c[i] for i in range(g - 1, -1, -1)]
    for m in range(g + 1, 2 * g + 1):
        p.append(-m * c[m] - sum(p[i - 1] * c[m - i] for i in range(1, m)))
    counts = [q**m + 1 - p[m - 1] for m in range(1, 2 * g + 1)]
    return counts, sum(c)


def weil_ok(n: int, q: int, m: int, g: int) -> bool:
    """|N_m - q^m - 1| <= 2g q^(m/2), squared to stay in integers."""
    return (n - q**m - 1) ** 2 <= 4 * g * g * q**m


def r_from_counts(counts: list[int], q: int, gamma: int, r_max: int) -> tuple[list[float], float]:
    """R^(0..r_max-1) and delta_Z from N_1..N_Z by the trace identity.

    c_m = N_m - q^m - 1 - delta is the Lambda-weighted character sum of
    degree m, and R^(k) = sum_{m<=Z} c_m / (m q^((k+1)m)) with Z = gamma // 3.
    """
    Z = gamma // 3
    delta = 1 if gamma % 2 == 0 else 0
    c = [counts[m - 1] - q**m - 1 - delta for m in range(1, Z + 1)]
    R = [math.fsum(c[m - 1] / (m * q ** ((k + 1) * m)) for m in range(1, Z + 1))
         for k in range(r_max)]
    return R, math.fsum(R[1:])


R_TOL = 1e-12  # a character sum off by 2 moves R^(3) at q = 3 by >= 1e-6


def close(a: float, b: float, tol: float = R_TOL) -> bool:
    return abs(a - b) <= tol


# -- the sweep outputs --------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def r_columns(rows: list[dict]) -> list[int]:
    return sorted(int(k[1:]) for k in (rows[0] if rows else {}) if k[:1] == "R" and k[1:].isdigit())


def report_problems(report_path, rows: list[dict], max_n: int = 4) -> list[str]:
    """Moments and covariances of the report against the CSV's R columns."""
    with open(report_path) as fh:
        rep = json.load(fh)
    n = len(rows)
    if rep.get("count") != n:
        return [f"report count {rep.get('count')} != {n} rows"]
    problems = []
    ks = r_columns(rows)
    cols = {k: [float(r[f"R{k}"]) for r in rows] for k in ks}
    means = {}
    for k in ks:
        for m in range(1, max_n + 1):
            want = math.fsum(v**m for v in cols[k]) / n
            got = rep["moments"][str(k)][str(m)]
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"moment R{k}^{m}: report {got} vs {want}")
        means[k] = math.fsum(cols[k]) / n
    for i in ks:
        for j in ks:
            if j < i:
                continue
            want = math.fsum(a * b for a, b in zip(cols[i], cols[j])) / n - means[i] * means[j]
            got = rep["covariance"][f"{i},{j}"]
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"covariance {i},{j}: report {got} vs {want}")
    return problems


def census_row_ok(row: dict, q: int, gamma: int, r_max: int) -> bool:
    """Every per-curve check of a full-record sweep row."""
    g = (gamma - 1) // 2
    f = parse_csv_poly(row["F"])
    if (int(row["q"]), int(row["gamma"]), int(row["genus"])) != (q, gamma, g):
        return False
    if len(f) != gamma + 1 or f[-1] != 1 or not is_squarefree(f, q):
        return False
    counts = [int(row[f"N{m}"]) for m in range(1, 2 * g + 1)]
    if counts[0] != legendre_n1(f, q):
        return False
    if not all(weil_ok(n, q, m, g) for m, n in enumerate(counts, 1)):
        return False
    pred = predicted_counts(counts[:g], q)
    if pred is None or pred[0] != counts or pred[1] != int(row["jacobian"]):
        return False
    R, delta_z = r_from_counts(counts, q, gamma, r_max)
    if not all(close(R[k], float(row[f"R{k}"])) for k in range(r_max)):
        return False
    if not close(delta_z, float(row["delta_Z"])):
        return False
    residuals = [float(v) for k, v in row.items() if k.startswith("residual_")]
    return bool(residuals) and all(math.isfinite(v) for v in residuals)


def validate_problems(stdout: str, q: int, gamma: int) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, problems) of `validate --suite all`.

    Every check line must read PASS, the summary must agree, and every
    suite must report q^gamma - q^(gamma-1) curves, the number of monic
    square-free polynomials of degree gamma.
    """
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    failed = sum(1 for ln in checks if ln.startswith("FAIL "))
    problems = []
    if failed:
        problems.append(f"{failed} FAIL lines")
    if len(checks) != len(lines) - 1 or lines[-1] != f"OK: {len(checks)}/{len(checks)} checks passed":
        problems.append("output is not check lines followed by an OK summary")
    want = q**gamma - q ** (gamma - 1)
    suites: dict[str, list[int]] = {}
    for ln in checks:
        name = ln.split()[1]
        counts = [int(x) for x in re.findall(r"(\d+)(?:/\d+)? curves", ln)]
        suites.setdefault(name.split(".")[0], []).extend(counts)
    for suite in ("zeta", "lambda", "higgs", "unstable", "crossval", "epsilon", "xz", "estimate"):
        counts = suites.get(suite)
        if not counts or any(c != want for c in counts):
            problems.append(f"suite {suite} reports {counts} curves, expected {want}")
    return len(checks), failed, problems
