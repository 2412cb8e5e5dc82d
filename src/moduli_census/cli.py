"""Command-line interface.

Subcommands: curve-info (zeta data of one curve as JSON), moduli (one
moduli count report), sweep (family CSV plus aggregate report JSON),
moments (theoretical moments / covariance / characteristic-function
samples), validate (named invariant suites).

Exit codes: 0 success, 1 validation failure (a failed check, or an
internal consistency check that stops a command), 2 usage error, 3 budget
exceeded.  Output is deterministic for a fixed configuration, including
across worker counts (set --workers).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import stat
import sys

from .curvezeta import HyperellipticCurve, curve_zeta_json_dict, zeta_data
from .emit import json_dumps
from .errors import (BudgetError, DomainError, InternalConsistencyError,
                     InvalidCharacteristicError, PolyParseError)
from .ffield import make_field
from .moduli import (
    EXACT_RANKS,
    count_higgs,
    count_ms20,
    count_ntilde,
    count_stable_fixed_det,
    exact_log_gap,
    log_count_estimate,
)
from .polyring import parse_poly
from .stats import characteristic_function, limit_tables
from .sweep import SweepConfig, build_report, records_to_csv, run_sweep
from .validate import SUITES, run_suite

VALIDATION_FAILURE = 1
USAGE_ERROR = 2
BUDGET_ERROR = 3


def _stage_target(path: str) -> str | None:
    """The real path of `path` when it may be written by temp file and
    rename: it is missing, or a single-link regular file with our user and
    group.  None for anything else (a FIFO, a device, another's file), which
    is written in place."""
    real = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return real
    with contextlib.suppress(OSError):
        if (os.path.samestat(st, os.stat(real)) and stat.S_ISREG(st.st_mode)
                and st.st_nlink == 1 and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())):
            return real
    return None


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path), a path of None or "-" meaning stdout.  Files
    are staged beside their real paths, with an existing file's mode, and
    renamed into place only once every output is written, so a failed write
    leaves no staged output and no temp file behind."""
    files = [(text, path, _stage_target(path))
             for text, path in outputs if path not in (None, "-")]
    staged: dict[str, str] = {}
    path = None
    try:
        # staged files first, then those written in place, then the renames
        for text, path, real in sorted(files, key=lambda f: f[2] is None):
            target = path
            if real:
                target = f"{real}.{os.getpid()}.{len(staged)}.tmp"
                staged[target] = real
            with open(target, "w") as fh:
                fh.write(text)
            if real and os.path.exists(real):
                shutil.copymode(real, target)
        for tmp, real in staged.items():
            os.replace(tmp, real)
    except OSError as exc:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None
    for text, path in outputs:
        if path in (None, "-"):
            sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _curve(args) -> HyperellipticCurve:
    K = make_field(args.q)
    return HyperellipticCurve(parse_poly(K, args.f))


def cmd_curve_info(args) -> int:
    z = zeta_data(_curve(args), check_budget=args.check_budget)
    _write((json_dumps(curve_zeta_json_dict(z)), args.out))
    return 0


def cmd_moduli(args) -> int:
    z = zeta_data(_curve(args), check_budget=args.check_budget)
    if args.target == "estimate":
        est, env = log_count_estimate(z, args.rank)
        payload = {"target": "estimate", "rank": args.rank,
                   "estimate": est, "envelope": env}
        if args.rank in EXACT_RANKS:
            gap = exact_log_gap(z, args.rank, args.degree)
            payload["exact_log_gap"] = gap
            payload["within_envelope"] = gap <= env
        _write((json_dumps(payload), args.out))
        return 0
    if args.target == "m_rd":
        report = count_stable_fixed_det(z, args.rank, args.degree)
    elif args.target == "ms20":
        report = count_ms20(z)
    elif args.target == "ntilde":
        report = count_ntilde(z)
    else:
        report = count_higgs(z)
    _write((json_dumps(report.to_json_dict()), args.out))
    return 0


def cmd_sweep(args) -> int:
    if (args.out not in (None, "-") and args.report_out not in (None, "-")
            and os.path.realpath(args.out) == os.path.realpath(args.report_out)):
        raise DomainError(f"--out and --report-out are the same file: {args.out}")
    variants = tuple(v for v in args.variants.split(",") if v)
    cfg = SweepConfig(
        q=args.q, gamma=args.gamma, mode=args.mode, count=args.count,
        seed=args.seed, z_override=args.z, r_max=args.r_max,
        variants=variants or SweepConfig.variants,
        rank=args.rank, degree=args.degree,
        workers=args.workers, check_budget=args.check_budget,
        compute_moduli=not args.no_moduli, max_n=args.max_n,
    )
    records = run_sweep(cfg)
    csv_text = records_to_csv(records, cfg)
    report = build_report(records, cfg)
    outputs = [(csv_text, args.out)]
    if args.out or args.report_out:
        outputs.append((json_dumps(report.to_json_dict()), args.report_out))
    _write(*outputs)
    return 0


def cmd_moments(args) -> int:
    make_field(args.q)  # rejects a q that is not an odd prime, as every --q does
    if args.k_max < 0:
        raise DomainError(f"--k-max must be >= 0, got {args.k_max}")
    try:
        ts = [float(s) for s in args.t.split(",")]
    except ValueError:
        raise DomainError(f"--t must be comma-separated numbers, got {args.t!r}") from None
    moments, covariance = limit_tables(args.q, range(args.k_max + 1), args.n_max, args.D)
    samples = {}
    for k in range(args.k_max + 1):
        row = {}
        for t in ts:
            phi = characteristic_function(args.q, k, t, args.D)
            row[f"{t:g}"] = {"re": phi.real, "im": phi.imag}
        samples[str(k)] = row
    payload = {"q": args.q, "D": args.D, "moments": moments, "covariance": covariance,
               "phi": samples}
    _write((json_dumps(payload), args.out))
    return 0


def cmd_validate(args) -> int:
    results = run_suite(args.suite, args.q, args.gamma)
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        line = f"{status} {res.name}"
        if res.detail:
            line += f" - {res.detail}"
        print(line)
    failed = sum(1 for r in results if not r.ok)
    print(f"{'OK' if failed == 0 else 'FAILED'}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moduli-census",
        description="Exact zeta, moduli-count and family-statistics toolkit"
        " for hyperelliptic curves over small odd finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_args(p):
        p.add_argument("--q", type=int, required=True, help="odd prime field size")
        p.add_argument("--f", type=str, required=True,
                       help="monic polynomial, comma-separated coefficients"
                            " from degree 0, leading 1 included")
        p.add_argument("--check-budget", type=int, default=10**6)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("curve-info", help="zeta data of one curve as JSON")
    add_curve_args(p)
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("moduli", help="one moduli-space count report as JSON")
    add_curve_args(p)
    p.add_argument("--target", choices=("m_rd", "ms20", "ntilde", "higgs", "estimate"),
                   required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--degree", type=int, default=1)
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("sweep", help="family sweep: CSV rows plus report JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--count", type=int, default=None, help="sample-mode draw count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=int, default=None, help="truncation override")
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--variants", type=str, default="",
                   help="comma-separated residual variants"
                        " (default m_rd,ms20,higgs)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--check-budget", type=int, default=10**4)
    p.add_argument("--no-moduli", action="store_true",
                   help="skip moduli residual columns (fast statistics runs)")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--out", type=str, default=None, help="CSV destination")
    p.add_argument("--report-out", type=str, default=None,
                   help="report JSON destination")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("moments", help="theoretical moments / covariance / phi")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--D", type=int, default=12)
    p.add_argument("--t", type=str, default="0.5,1.0,2.0")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("validate", help="run a named invariant suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"error: {exc} (coefficient index {exc.index})", file=sys.stderr)
        return USAGE_ERROR
    except (DomainError, InvalidCharacteristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
