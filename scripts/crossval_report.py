#!/usr/bin/env python3
"""Cross-validation report over a family of genus >= 2.

For every curve: the stable fixed-determinant (2,1) count, its oracle
from Thaddeus' flips (thaddeus_count; at genus 2 the quadric-intersection
count), their residual, the stable (2,0) count with
its integrality and hypothesis flags, and the closed-form-vs-assembly
residual.  Ends with a distribution summary.

Usage: python scripts/crossval_report.py [--q 3] [--gamma 5] [--out report.csv]
"""

import argparse
import sys
from collections import Counter

from moduli_census import (
    FamilySpec,
    count_ms20,
    count_stable_fixed_det,
    family_curves,
    format_poly,
    make_field,
    thaddeus_count,
    zeta_data,
)
from moduli_census.emit import frac_str


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--gamma", type=int, default=5)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()
    if (args.gamma - 1) // 2 < 2:
        print("needs genus >= 2 (gamma >= 5)", file=sys.stderr)
        return 2
    K = make_field(args.q)
    lines = ["F,m21,m21_is_integer,oracle,oracle_residual,ms20,ms20_is_integer,"
             "assembly_residual,full_2_torsion"]
    resid_counter = Counter()
    nonint = 0
    total = 0
    for curve in family_curves(FamilySpec(K, args.gamma)):
        z = zeta_data(curve)
        m21 = count_stable_fixed_det(z, 2, 1)
        ms = count_ms20(z)
        oracle = thaddeus_count(z)
        resid = m21.cross_checks["thaddeus"]["residual"]
        resid_counter[resid] += 1
        nonint += 0 if ms.is_integer else 1
        total += 1
        lines.append(",".join([
            format_poly(curve.F, ":"), frac_str(m21.value), str(m21.is_integer),
            frac_str(oracle), frac_str(resid), frac_str(ms.value),
            str(ms.is_integer),
            frac_str(ms.cross_checks["component_assembly"]["residual"]),
            str(ms.hypotheses["full_2_torsion"]),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# {total} curves", file=sys.stderr)
    print(f"# oracle residual distribution: "
          f"{dict((frac_str(k), v) for k, v in sorted(resid_counter.items()))}",
          file=sys.stderr)
    print(f"# ms20 non-integer on {nonint}/{total}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
