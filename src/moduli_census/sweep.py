"""Family sweeps: per-curve records, deterministic parallel execution, CSV.

A sweep walks H_{gamma,q} (exhaustively or by seeded sampling), computes a
FamilyRecord per curve, and aggregates a SweepReport.  Each record is a
pure function of the curve alone, chunks are dealt in a fixed order and
reassembled in that order, and the final aggregation is a single ordered
pass, so output is byte-identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

from . import countfast
from .curvezeta import (POINT_BUDGET, CurveZeta, HyperellipticCurve, jacobian_count, point_count,
                        zeta_data, zeta_data_block)
from .emit import fmt_float
from .errors import BudgetError, DomainError
from .ffield import make_field
from .polyring import FamilySpec, MonicPoly, family, format_poly
from .stats import (
    FamilyRecord,
    SweepReport,
    decomposition_residual,
    default_cutoff,
    empirical_stats,
    limit_covariance,
    r_variable,
    theoretical_moment,
    trace_charsums,
)
from .curvezeta import xz_bound_check
from .moduli import _full_2_torsion

ENUM_BUDGET = 2 * 10**6
CHUNK = 1024
WORKERS_ENV = "MODULI_CENSUS_WORKERS"


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; hashable and picklable."""

    q: int
    gamma: int
    mode: str = "enumerate"
    count: int | None = None
    seed: int = 0
    z_override: int | None = None
    r_max: int = 4
    variants: tuple[str, ...] = ("m_rd", "ms20", "higgs")
    rank: int = 2
    degree: int = 1
    convention: str = "F_over_f"
    workers: int = 1
    check_budget: int = 10**4
    compute_moduli: bool = True
    compute_zeta: bool = True
    max_n: int = 4
    moment_D: int | None = None

    @property
    def cutoff(self) -> int:
        return self.z_override or default_cutoff(self.gamma)


def compute_record(F: MonicPoly, cfg: SweepConfig, z: CurveZeta | None = None) -> FamilyRecord:
    """The per-curve payload; pure in (F, cfg).  R^(k) comes from the power sums.

    z is F's zeta data at cfg.check_budget when the caller has built it
    already (a sweep chunk does, for the whole chunk at once).
    """
    curve = z.curve if z is not None else HyperellipticCurve(F)
    q = cfg.q
    Z = cfg.cutoff
    N, jac = (), 0
    if cfg.compute_zeta or cfg.compute_moduli:
        if z is None:
            z = zeta_data(curve, check_budget=cfg.check_budget)
        N, jac = z.N, jacobian_count(z, 1)
        psums = [z.power_sum(m) for m in range(1, Z + 1)]
    elif Z <= curve.genus:
        psums = [q**m + 1 - point_count(curve, m) for m in range(1, Z + 1)]
    else:
        # N_1..N_g fix P(t), whose Newton recurrence gives p_m past g
        low = zeta_data(curve, check_budget=0)
        psums = [low.power_sum(m) for m in range(1, Z + 1)]
    charsums = trace_charsums(psums, q, cfg.gamma, cfg.convention)
    R = {k: r_variable(F, k, Z, charsums=charsums) for k in range(cfg.r_max)}
    delta_z = math.fsum(R[k] for k in range(1, cfg.r_max))
    rec = FamilyRecord(
        q=q, gamma=cfg.gamma, F_text=format_poly(F), genus=curve.genus,
        N=N, jacobian=jac, Z=Z, R=R, delta_Z=delta_z,
    )
    if cfg.compute_moduli:
        for variant in cfg.variants:
            try:
                rec.residuals[variant] = decomposition_residual(
                    z, variant, Z=Z, convention=cfg.convention,
                    rank=cfg.rank, degree=cfg.degree)
            except DomainError:
                rec.residuals[variant] = math.nan
        rec.flags["xz_pass"] = xz_bound_check(z)["xz"].holds
        rec.flags["full_2_torsion"] = _full_2_torsion(z)
    return rec


def _chunk_worker(args) -> list:
    """The records of one chunk; its zeta data is counted as one block."""
    cfg, start, stop = args
    spec = FamilySpec(make_field(cfg.q), cfg.gamma, cfg.mode, cfg.count, cfg.seed)
    polys = family(spec, start, stop)
    if not (cfg.compute_zeta or cfg.compute_moduli):
        return [compute_record(F, cfg) for F in polys]
    zs = zeta_data_block(map(HyperellipticCurve, polys), cfg.check_budget)
    return [compute_record(z.curve.F, cfg, z) for z in zs]


def resolve_workers(requested: int | None) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, requested or 1)


def pool_size(workers: int, n_chunks: int) -> int:
    """Worker processes to start: no more than there are chunks or cores."""
    return max(1, min(workers, n_chunks, os.cpu_count() or 1))


def _warm_tables(cfg: SweepConfig) -> None:
    """Build the table of every count compute_record makes, for workers to inherit."""
    g = (cfg.gamma - 1) // 2
    top = 2 * g if cfg.compute_zeta or cfg.compute_moduli else min(cfg.cutoff, g)
    for r in range(1, top + 1):
        if cfg.q**r <= (POINT_BUDGET if r <= g else min(POINT_BUDGET, cfg.check_budget)):
            countfast.field_table(cfg.q, r, cfg.gamma)


def run_sweep(cfg: SweepConfig) -> list[FamilyRecord]:
    """All records of the configured sweep, in family order."""
    if cfg.gamma < 3:
        raise DomainError("family degree must be >= 3")
    if cfg.mode == "enumerate":
        space = cfg.q**cfg.gamma
        if space > ENUM_BUDGET:
            raise BudgetError(
                f"enumerate mode needs q^gamma = {space} <= {ENUM_BUDGET};"
                " use sample mode")
        total = space
    else:
        if not cfg.count or cfg.count < 1:
            raise DomainError("sample mode needs a positive count")
        total = cfg.count
    chunks = [(cfg, lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]
    workers = pool_size(resolve_workers(cfg.workers), len(chunks))
    if workers == 1:
        parts = [_chunk_worker(c) for c in chunks]
    else:
        _warm_tables(cfg)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_chunk_worker, chunks, chunksize=1)
    return [rec for part in parts for rec in part]


def records_to_csv(records: list[FamilyRecord], cfg: SweepConfig) -> str:
    """CSV rows, one per curve.  The polynomial column joins coefficients
    with ':' so the file needs no quoting."""
    two_g = 2 * ((cfg.gamma - 1) // 2)
    with_zeta = cfg.compute_zeta or cfg.compute_moduli
    header = (["q", "gamma", "F", "genus"]
              + ([f"N{m}" for m in range(1, two_g + 1)] + ["jacobian"]
                 if with_zeta else [])
              + [f"R{k}" for k in range(cfg.r_max)]
              + ["delta_Z"]
              + [f"residual_{v}" for v in (cfg.variants if cfg.compute_moduli else ())]
              + (["xz_pass", "full_2_torsion"] if cfg.compute_moduli else []))
    lines = [",".join(header)]
    for rec in records:
        row = [str(rec.q), str(rec.gamma), rec.F_text.replace(",", ":"),
               str(rec.genus)]
        if with_zeta:
            row += [str(n) for n in rec.N]
            row.append(str(rec.jacobian))
        row += [fmt_float(rec.R[k]) for k in range(cfg.r_max)]
        row.append(fmt_float(rec.delta_Z))
        if cfg.compute_moduli:
            row += [fmt_float(rec.residuals[v]) for v in cfg.variants]
            row.append("1" if rec.flags.get("xz_pass") else "0")
            row.append("1" if rec.flags.get("full_2_torsion") else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def build_report(records: list[FamilyRecord], cfg: SweepConfig) -> SweepReport:
    """Empirical statistics plus their truncated theoretical counterparts."""
    report = empirical_stats(records, max_n=cfg.max_n)
    report.family = {
        "q": cfg.q, "gamma": cfg.gamma, "mode": cfg.mode,
        "count": len(records), "seed": cfg.seed, "Z": cfg.cutoff,
        "convention": cfg.convention,
    }
    D = cfg.moment_D or 2 * cfg.gamma
    theo_m: dict = {}
    for k in sorted(records[0].R.keys()):
        theo_m[str(k)] = {}
        for n in range(1, min(cfg.max_n, 6) + 1):
            value, tail = theoretical_moment(cfg.q, k, n, D)
            theo_m[str(k)][str(n)] = {"value": value, "tail_bound": tail, "D": D}
    theo_c: dict = {}
    ks = sorted(records[0].R.keys())
    for i in ks:
        for j in ks:
            if i < j and i >= 1:
                value, tail = limit_covariance(cfg.q, i, j, D)
                theo_c[f"{i},{j}"] = {"value": value, "tail_bound": tail, "D": D}
    report.theoretical_moments = theo_m
    report.theoretical_covariance = theo_c
    return report
