"""Family sweeps: per-curve records, deterministic parallel execution, CSV.

The family H_{gamma,q} is walked in one way, here, by both the sweep and
validate: chunk_bounds cuts it into chunks of CHUNK codes (or draws), and
count_chunk counts each chunk as one block into the run's L-polynomial
registry (see curvezeta), for every count plan.  A sweep (exhaustive or by
seeded sampling) assembles a FamilyRecord per curve from those counts and
aggregates a SweepReport.  Each record is a pure function of the curve
alone, chunks are dealt and reassembled in a fixed order, and the final
aggregation is a single ordered pass, so output is byte-identical for any
worker count.

The registry holds the first record of each distinct L-polynomial of the
run, or of a pool worker's chunks, built from p_1..p_Z of its P(t) (one
Newton run, CurveZeta.power_sums): every later curve that has it copies
the fields that read only P(t) (the N columns, the Jacobian, R^(k),
delta_Z, the residuals and xz_pass), and keeps the F column and the
full_2_torsion flag, which read F, as its own; the flags of a chunk are
read at once (moduli._full_2_torsion).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .curvezeta import (CurveZeta, HyperellipticCurve, count_tables, family_curves, jacobian_count,
                        point_counts, xz_bound_check, zeta_data_block, zeta_degrees)
from .emit import fmt_float
from .errors import BudgetError, DomainError
from .ffield import make_field
from .moduli import _full_2_torsion, check_stable_domain
from .polyring import CHUNK, FamilySpec, format_poly
from .stats import (RESIDUAL_VARIANTS, FamilyRecord, SweepReport, check_moment_order,
                    decomposition_residual, default_cutoff, empirical_stats, limit_tables,
                    r_variable, trace_charsums)

ENUM_BUDGET = 2 * 10**6


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
    workers: int = 1
    check_budget: int = 10**4
    compute_moduli: bool = True
    compute_zeta: bool = True
    max_n: int = 4

    @property
    def cutoff(self) -> int:
        return default_cutoff(self.gamma) if self.z_override is None else self.z_override


def compute_record(curve: HyperellipticCurve, cfg: SweepConfig, psums: list[int],
                   z: CurveZeta | None = None, like: FamilyRecord | None = None,
                   torsion: bool = False) -> FamilyRecord:
    """The record of one curve from its p_1..p_Z; it makes no count.

    z is the curve's zeta data at cfg.check_budget, or None for an R-only
    record (no N columns, no residuals).  R^(k) comes from the power sums.
    like, when given, is the record of a curve with the same p_1..p_Z and
    zeta data: every field but the two that read F, the F column and the
    full_2_torsion flag, is copied from it, each dict into a new one, and
    psums is not read.  torsion is the curve's full_2_torsion flag, recorded
    with the moduli fields.
    """
    F_text = format_poly(curve.F)
    if like is not None:
        rec = replace(like, F_text=F_text, R=dict(like.R),
                      residuals=dict(like.residuals), flags=dict(like.flags))
    else:
        q, Z = cfg.q, cfg.cutoff
        charsums = trace_charsums(psums, cfg.gamma)
        R = {k: r_variable(charsums, q, k) for k in range(cfg.r_max)}
        delta_z = math.fsum(R[k] for k in range(1, cfg.r_max))
        N, jac = (z.N, jacobian_count(z, 1)) if z is not None else ((), 0)
        rec = FamilyRecord(q=q, gamma=cfg.gamma, F_text=F_text, genus=curve.genus,
                           N=N, jacobian=jac, Z=Z, R=R, delta_Z=delta_z)
        if cfg.compute_moduli:
            for variant in cfg.variants:
                try:
                    rec.residuals[variant] = decomposition_residual(
                        z, variant, Z, cfg.rank, cfg.degree, charsums)
                except DomainError:  # a genus the variant does not cover
                    rec.residuals[variant] = math.nan
            rec.flags["xz_pass"] = xz_bound_check(z, ks=())["xz"].holds
    if cfg.compute_moduli:
        rec.flags["full_2_torsion"] = torsion
    return rec


def _count_plan(cfg: SweepConfig) -> tuple[int | None, list[int]]:
    """(budget, ms): a chunk counts N_m for m in ms, as zeta data at this check
    budget, or as bare counts when it is None.  An R-only record past Z > g
    takes p_m from the Newton recurrence of N_1..N_g (zeta data at budget 0)."""
    g = (cfg.gamma - 1) // 2
    if cfg.compute_zeta or cfg.cutoff > g:
        budget = cfg.check_budget if cfg.compute_zeta else 0
        return budget, zeta_degrees(cfg.q, g, budget)
    return None, list(range(1, cfg.cutoff + 1))


def chunk_bounds(cfg: SweepConfig) -> list[tuple[int, int]]:
    """The [lo, hi) of each chunk of the family, CHUNK codes (or draws) each, in order."""
    total = cfg.q**cfg.gamma if cfg.mode == "enumerate" else cfg.count
    return [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]


def count_chunk(cfg: SweepConfig, lo: int, hi: int, registry: dict):
    """(curve, key, z) for each member of the chunk [lo, hi), in order; each
    N_m of the count plan is counted for the whole chunk at once.

    Every member enters its entry [z, k] of the run's registry under its
    key: N_1..N_g with its zeta data z (streamed, one curve at a time, as
    zeta_data_block validates them), or p_1..p_Z with z None for bare
    counts.
    """
    spec = FamilySpec(make_field(cfg.q), cfg.gamma, cfg.mode, cfg.count, cfg.seed)
    curves = list(family_curves(spec, lo, hi))
    budget, degrees = _count_plan(cfg)
    if budget is not None:
        return ((z.curve, z.N[:z.genus], z) for z in zeta_data_block(curves, budget, registry))
    N = point_counts(curves, degrees)
    keys = list(zip(*([cfg.q**m + 1 - n for n in N[m]] for m in degrees)))
    for key in keys:
        registry.setdefault(key, [None, 0])[1] += 1
    return [(c, key, None) for c, key in zip(curves, keys)]


def _chunk_worker(args, registry: dict | None = None) -> list:
    """The records of one chunk (count_chunk).

    The first record of each L-polynomial of the run enters its entry of
    the run's registry, built from p_1..p_Z of its P(t), and every later
    record of it copies that record's shared fields.  A call without a
    registry starts its own.
    """
    cfg, lo, hi = args
    registry = {} if registry is None else registry
    counted = list(count_chunk(cfg, lo, hi, registry))
    torsion = (_full_2_torsion([z for _, _, z in counted]) if cfg.compute_moduli
               else [False] * len(counted))
    records = []
    for (curve, key, z), flag in zip(counted, torsion):
        entry = registry[key]
        like = entry[2] if len(entry) > 2 else None
        psums = key if z is None or like else z.power_sums(cfg.cutoff)
        records.append(compute_record(curve, cfg, psums, z if cfg.compute_zeta else None, like,
                                      flag))
        if like is None:
            entry.append(records[-1])
    return records


# a pool worker's registry: empty in every process a run forks, and kept
# across the chunks that worker runs; the parent never touches it
_worker_registry: dict = {}


def _pool_chunk(args) -> list:
    return _chunk_worker(args, _worker_registry)


def pool_size(workers: int, n_chunks: int) -> int:
    """Worker processes to start: no more than there are chunks or cores."""
    return max(1, min(workers, n_chunks, os.cpu_count() or 1))


def run_sweep(cfg: SweepConfig) -> list[FamilyRecord]:
    """All records of the configured sweep, in family order."""
    if cfg.gamma < 3:
        raise DomainError("family degree must be >= 3")
    if cfg.cutoff < 1:
        raise DomainError("truncation Z must be >= 1")
    check_moment_order(cfg.max_n)
    if cfg.r_max < 1:
        raise DomainError("the number of R^(k) columns r_max must be >= 1")
    for i, variant in enumerate(cfg.variants):
        if variant not in RESIDUAL_VARIANTS:
            raise DomainError(f"unknown residual variant {variant!r}")
        if variant in cfg.variants[:i]:
            raise DomainError(f"residual variant {variant!r} is given twice")
    check_stable_domain(cfg.rank, cfg.degree)
    if cfg.compute_moduli and not cfg.compute_zeta:
        raise DomainError("the moduli columns read zeta data: compute_moduli needs compute_zeta")
    if cfg.workers < 1:
        raise DomainError("the number of workers must be >= 1")
    # rejects a bad mode, count or seed
    FamilySpec(make_field(cfg.q), cfg.gamma, cfg.mode, cfg.count, cfg.seed)
    if cfg.mode == "enumerate" and cfg.q**cfg.gamma > ENUM_BUDGET:
        raise BudgetError(f"enumerate mode needs q^gamma = {cfg.q**cfg.gamma} <= {ENUM_BUDGET};"
                          " use sample mode")
    chunks = [(cfg, lo, hi) for lo, hi in chunk_bounds(cfg)]
    workers = pool_size(cfg.workers, len(chunks))
    if workers == 1:
        registry: dict = {}
        parts = [_chunk_worker(c, registry) for c in chunks]
    else:
        # every table the chunks use, built once for the workers to inherit
        count_tables(make_field(cfg.q), _count_plan(cfg)[1])
        import multiprocessing  # here, not at the top: it costs every process ~8 ms to import

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_pool_chunk, chunks, chunksize=1)
    return [rec for part in parts for rec in part]


def records_to_csv(records: list[FamilyRecord], cfg: SweepConfig) -> str:
    """CSV rows, one per curve.  The polynomial column joins coefficients
    with ':' so the file needs no quoting."""
    two_g = 2 * ((cfg.gamma - 1) // 2)
    header = (["q", "gamma", "F", "genus"]
              + ([f"N{m}" for m in range(1, two_g + 1)] + ["jacobian"]
                 if cfg.compute_zeta else [])
              + [f"R{k}" for k in range(cfg.r_max)]
              + ["delta_Z"]
              + [f"residual_{v}" for v in (cfg.variants if cfg.compute_moduli else ())]
              + (["xz_pass", "full_2_torsion"] if cfg.compute_moduli else []))
    lines = [",".join(header)]
    for rec in records:
        row = [str(rec.q), str(rec.gamma), rec.F_text.replace(",", ":"),
               str(rec.genus)]
        if cfg.compute_zeta:
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
    report.family.update(mode=cfg.mode, seed=cfg.seed, Z=cfg.cutoff, convention="F_over_f")
    D = 2 * cfg.gamma
    moments, covariance = limit_tables(cfg.q, range(cfg.r_max), cfg.max_n, D)
    for entry in [e for row in moments.values() for e in row.values()] + [*covariance.values()]:
        entry["D"] = D
    report.theoretical_moments = moments
    report.theoretical_covariance = covariance
    return report
