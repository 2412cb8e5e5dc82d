#!/usr/bin/env python3
"""The moduli-census benchmark: two closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the repository root; it imports the package from ./src.  Every
timed command is a fresh interpreter, so per-process tables and caches
start empty, as they do for users.  With --trace 0 a run runs whole rounds
of the workload's command for about --seconds (at least two), with the
one-curve set-up command timed before, between and after the rounds; then
it checks every output and prints the end-to-end metrics, each the median
over the run's rounds or set-ups.  With --trace 1 it runs one untraced and
one traced round and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  `--workload all` runs the workloads one after
another, each in its own process.

See README.md in this directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
ENTRY = str(HERE / "entry.py")
PY = sys.executable or "python3"
TIME_LIMIT_S = 170  # the whole run, including set-up and checks
MIN_ROUNDS = 2


@dataclass
class Proc:
    """One finished command: wall time, CPU of its process tree, peak RSS."""

    dir: Path
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    failed: set = field(default_factory=set)   # indices of curves that failed
    notes: list = field(default_factory=list)   # why they failed
    problems: list = field(default_factory=list)  # output-level faults: not correct

    def stdout(self) -> str:
        return (self.dir / "stdout.txt").read_text()


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("MODULI_CENSUS_WORKERS", None)  # every command runs on one worker
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.count = 0

    def fresh_dir(self, label: str) -> Path:
        self.count += 1
        d = self.work / f"{self.count:02d}-{label}"
        d.mkdir(parents=True)
        return d

    def run(self, argv: list[str], d: Path) -> Proc:
        """Run argv to its end as a new process group; kill the group at the deadline."""
        with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - t0), _kill_group, [proc.pid])
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(d, proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)

    def time_left(self) -> float:
        return self.deadline - perf_counter()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli_argv(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [PY, "-m", "moduli_census.cli", *args]
    return [PY, ENTRY, "--spans", str(spans), "cli", *args]


# -- workloads ------------------------------------------------------------------


class Workload:
    """A command per round, a one-curve set-up command, and the output checks."""

    curves: int
    setup_repeats: int  # set-ups per run, spread over the run


class Census(Workload):
    """`sweep --q 3 --gamma 9 --mode sample` with the default full record, one worker."""

    q, gamma, r_max, count = 3, 9, 4, 2048
    curves = count
    setup_repeats = 3  # each builds the field tables, about 2.5 s

    def _args(self, seed: int, d: Path, count: int) -> list[str]:
        return ["sweep", "--q", str(self.q), "--gamma", str(self.gamma),
                "--mode", "sample", "--count", str(count), "--seed", str(seed),
                "--workers", "1",
                "--out", str(d / "sweep.csv"), "--report-out", str(d / "report.json")]

    def setup_argv(self, seed: int, d: Path) -> list[str]:
        return cli_argv(self._args(seed, d, 1), None)

    def round_argv(self, seed: int, d: Path, spans: Path | None = None) -> list[str]:
        return cli_argv(self._args(seed, d, self.count), spans)

    def check(self, p: Proc) -> None:
        rows = checks.read_csv(p.dir / "sweep.csv")
        if len(rows) != self.count:
            p.failed.update(range(len(rows), self.count))
        p.failed.update(i for i, row in enumerate(rows[: self.count])
                        if not checks.census_row_ok(row, self.q, self.gamma, self.r_max))
        p.problems += checks.report_problems(p.dir / "report.json", rows)


class Validate(Workload):
    """`validate --suite all --q 5 --gamma 5` over the whole genus-2 family."""

    q, gamma = 5, 5
    curves = q**gamma - q ** (gamma - 1)
    setup_repeats = 11  # about 0.4 s each

    def __init__(self):
        self.checks_attempted = 0
        self.checks_failed = 0

    def setup_argv(self, seed: int, d: Path) -> list[str]:
        first = checks.first_family_member(self.q, self.gamma)
        return cli_argv(["curve-info", "--q", str(self.q), "--f", ",".join(map(str, first)),
                         "--check-budget", str(10**6), "--out", str(d / "curve.json")], None)

    def round_argv(self, seed: int, d: Path, spans: Path | None = None) -> list[str]:
        return cli_argv(["validate", "--suite", "all", "--q", str(self.q),
                         "--gamma", str(self.gamma)], spans)

    def check(self, p: Proc) -> None:
        attempted, failed, problems = checks.validate_problems(p.stdout(), self.q, self.gamma)
        self.checks_attempted += attempted
        self.checks_failed += failed
        if problems:
            p.failed.update(range(self.curves))
            p.notes += problems


WORKLOADS = {
    "census-h93": Census,
    "validate-h55": Validate,
}


class BenchError(RuntimeError):
    pass


# -- one run ----------------------------------------------------------------------


def _round(runner: Runner, wl, seed: int, label: str, traced: bool = False) -> Proc:
    d = runner.fresh_dir(label)
    spans = d / "spans" if traced else None
    if spans:
        spans.mkdir()
    return runner.run(wl.round_argv(seed, d, spans), d)


def _check(wl, p: Proc) -> None:
    """Check a round's outputs; a failing command fails every curve.

    Called only after the last round: a child's peak RSS includes the
    peak of the process that started it, so this process must not grow
    by reading outputs before a timed round starts.
    """
    if p.rc != 0:
        p.failed.update(range(wl.curves))
        p.notes.append(f"exit code {p.rc}: {(p.dir / 'stderr.txt').read_text()[-300:]}")
        if isinstance(wl, Validate):
            wl.check(p)  # validate exits with 1 when a check fails; count its checks
        return
    try:
        wl.check(p)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        p.failed.update(range(wl.curves))
        p.notes.append(f"unreadable output: {exc!r}")


def _setup(runner: Runner, wl, seed: int) -> float:
    d = runner.fresh_dir("setup")
    p = runner.run(wl.setup_argv(seed, d), d)
    if p.rc != 0:
        raise BenchError(f"set-up command exited with {p.rc}: "
                         f"{(d / 'stderr.txt').read_text()[-300:]}")
    return p.wall


def measure(runner: Runner, wl, seed: int, seconds: int) -> tuple[list[Proc], dict]:
    """Rounds for about `seconds`, and set-ups spread over the same time.

    The host's speed drifts from second to second, so the set-ups are not
    taken in one block: one comes first, and after each round more are run
    until their share of `setup_repeats` matches the share of the run
    gone; the rest follow the last round.  A run makes at least
    MIN_ROUNDS rounds, so that no figure rests on one round, and starts
    another while the time gone plus half the median round is within
    `seconds`.
    """
    t0 = perf_counter()
    setups = [_setup(runner, wl, seed)]
    procs: list[Proc] = []
    while True:
        procs.append(_round(runner, wl, seed, f"round{len(procs)}"))
        gone = perf_counter() - t0
        if 2 * procs[-1].wall > runner.time_left():
            break
        if len(procs) >= MIN_ROUNDS and gone + statistics.median(
                p.wall for p in procs) / 2 > seconds:
            break
        while len(setups) < min(wl.setup_repeats - 1, wl.setup_repeats * gone / seconds):
            setups.append(_setup(runner, wl, seed))
    while len(setups) < wl.setup_repeats:
        setups.append(_setup(runner, wl, seed))
    for p in procs:
        _check(wl, p)
    metrics = {
        "curves_per_s": (statistics.median(wl.curves / p.wall for p in procs), "curves/s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(p.cpu for p in procs), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in procs), "MB"),
    }
    return procs, metrics


def trace(runner: Runner, wl, seed: int) -> tuple[list[Proc], dict]:
    import tracing

    plain = _round(runner, wl, seed, "untraced")
    traced = _round(runner, wl, seed, "traced", traced=True)
    procs = [plain, traced]
    for p in procs:
        _check(wl, p)
    layers = tracing.layer_metrics(traced.dir / "spans")
    layers["sweep.output_bytes"] = sum(
        (traced.dir / f).stat().st_size for f in ("sweep.csv", "report.json")
        if (traced.dir / f).exists())
    layers["trace.overhead_s"] = traced.wall - plain.wall
    with open(HERE.parent / "BENCHMARK.json") as fh:
        per_layer = json.load(fh)["per_layer"]
    return procs, {m["name"]: (layers[m["name"]], m["unit"]) for m in per_layer}


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = WORKLOADS[name]()
    work = ROOT / ".perfbench_out" / f"{name}-s{seed}-{os.getpid()}"
    runner = Runner(work)
    try:
        procs, metrics = trace(runner, wl, seed) if traced else measure(runner, wl, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = wl.curves * len(procs)
    failed = sum(len(p.failed) for p in procs)
    problems = [msg for p in procs for msg in p.notes + p.problems]
    print(f"{name}: seed {seed}, {len(procs)} {'traced/untraced ' if traced else ''}"
          f"round(s) of {wl.curves} curves")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    print(f"  curves attempted {attempted}, failed {failed}")
    if isinstance(wl, Validate):
        print(f"  checks attempted {wl.checks_attempted}, failed {wl.checks_failed}")
    for msg in problems:
        print(f"  problem: {msg}")
    return {
        "correct": not any(p.problems for p in procs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "moduli_census" / "__init__.py").is_file():
        print("error: run from the repository root (src/moduli_census not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that no workload's peak RSS carries
        # the memory this process used checking the one before
        rcs = [subprocess.run([PY, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              check=False).returncode for name in WORKLOADS]
        return max(rcs)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
