#!/usr/bin/env python3
"""Steadiness of the benchmark on one commit: two sets of runs, compared.

    python3 perfbench/steady.py

For each workload of BENCHMARK.json it runs perfbench/run.py five times
with seeds 1..5 (set A) and five times with seeds 6..10 (set B), all with
tracing off and BENCHMARK.json's run_seconds.  For every end-to-end metric
it prints the two medians, the change from A to B (positive when B is
worse), and whether the two medians agree, that is whether they differ by
no more than the metric's bound as a share of A's median, in either
direction; and the spread of all runs, the distance
between the first and third quartile as a share of the median, which
should stay below a third of the bound (setup_s excepted).  The shares of
failed curves in the two sets must be equal.  Exit code 0 when everything
agrees, 1 otherwise.  Run it from the repository root, on an idle host.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 5  # runs per set; the two sets together take seeds 1..2*RUNS


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    seeds = range(1, 2 * RUNS + 1)
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            results.append(one_run(workload, seed, bench["run_seconds"]))
            print(f"  seed {seed:3d}: " + "  ".join(
                f"{k} {v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        sets = results[:RUNS], results[RUNS:]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        bad_share = shares[0] != shares[1]
        ok &= not bad_share and all(r["correct"] for r in results)
        print(f"{workload}: {2 * RUNS} runs, seeds {seeds[0]}..{seeds[-1]}; "
              f"failed share {shares[0]:.6g} / {shares[1]:.6g}"
              f"{'  MISMATCH' if bad_share else ''}")
        print(f"  {'metric':14s} {'median A':>12s} {'median B':>12s} {'B worse':>9s} "
              f"{'bound':>6s} {'spread':>7s}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            med_a, med_b = (statistics.median(v) for v in values)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            sp = spread(values[0] + values[1])
            agree = abs(worse) <= bound
            steady = name == "setup_s" or sp <= bound
            ok &= agree and steady
            verdict = ("agree" if agree else "DISAGREE") + (
                "" if steady else ", SPREAD ABOVE BOUND") + (
                ", spread above bound/3" if steady and name != "setup_s" and sp > bound / 3 else "")
            print(f"  {name:14s} {med_a:12.6g} {med_b:12.6g} {worse:+9.3f} {bound:6.2f} "
                  f"{sp:7.3f}  {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
