"""Spans around the public functions of each moduli_census module.

`install(out_dir)` replaces every traced function by a wrapper, in the
module that defines it and in every module that imported it with
`from .x import y`, and in the SUITES table of validate.  Each call then
records a span (id, parent, name, start, end, pid, counts) in memory.  The
main process writes its spans at exit through `flush`; a forked pool
worker writes its own whenever its outermost span ends, because pool
workers are terminated without running exit handlers.  Ids carry the pid,
and a worker's first spans name the parent's open span (run_sweep) as
their parent, so the trace joins across processes.

`ffield` and `emit` are not wrapped: per-element field methods would cost
more than the work they do.  They are measured through their callers.

`layer_metrics(out_dir, ...)` reads the written spans back and reduces
them to the per-layer metrics; each `_s` metric is self time (the span's
duration minus the part of it its child spans cover), except the elapsed
times `sweep.run_s` and `sweep.record_s`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "moduli_census"


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._reset(0)

    def _reset(self, root_depth: int) -> None:
        self.pid = os.getpid()
        self.base = self.pid << 32
        self.seq = 0
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[int] = getattr(self, "stack", [])
        self.root_depth = root_depth

    def after_fork(self) -> None:
        self._reset(len(self.stack))

    def begin(self) -> tuple[int, int, float]:
        self.seq += 1
        sid = self.base | self.seq
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent, perf_counter()

    def end(self, sid: int, parent: int, name: str, t0: float, attrs=None) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, attrs))
        if len(self.stack) == self.root_depth and self.pid != self.main_pid:
            self.flush()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def flush(self) -> None:
        """Append this process's spans and counters to its own file."""
        lines = [json.dumps({"id": s, "parent": p, "name": nm, "start": t0,
                             "end": t1, "pid": self.pid, "n": a})
                 for s, p, nm, t0, t1, a in self.spans]
        if self.counters:
            lines.append(json.dumps({"counters": self.counters, "pid": self.pid}))
        if lines:
            with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
                fh.write("\n".join(lines) + "\n")
        self.spans = []
        self.counters = defaultdict(float)


def _wrap_call(tracer: Tracer, fn, name, attrs=None):
    """Span per call; `name` may be a function of the arguments."""
    pick = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, t0 = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid, parent, pick(args, kwargs) if pick else name, t0,
                       attrs(args, kwargs) if attrs else None)

    return wrapper


def _wrap_gen(tracer: Tracer, fn, name):
    """Span per step of a generator, so the consumer's work stays outside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            sid, parent, t0 = tracer.begin()
            attrs = None
            try:
                item = next(gen)
            except StopIteration:
                attrs = {"exhausted": 1}
                return
            finally:
                tracer.end(sid, parent, name, t0, attrs)
            yield item

    return wrapper


def _wrap_count(tracer: Tracer, fn, name):
    """Call count only: no span, so the time stays with the caller."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _specs(tracer: Tracer):
    """(module, function, wrapper factory) for every traced public name."""
    from moduli_census import countfast, curvezeta

    def call(name, attrs=None):
        return lambda fn: _wrap_call(tracer, fn, name, attrs)

    def gen(name):
        return lambda fn: _wrap_gen(tracer, fn, name)

    def field_table_factory(fn):
        @functools.wraps(fn)
        def wrapper(p, r, deg):
            # decided before the call: afterwards the key is always present
            built = (p, r) not in getattr(countfast, "_tables", {})
            sid, parent, t0 = tracer.begin()
            try:
                return fn(p, r, deg)
            finally:
                tracer.end(sid, parent, "countfast.table", t0,
                           {"built": 1} if built else None)
        return wrapper

    budget_default = inspect.signature(curvezeta.zeta_data).parameters["check_budget"].default

    def zeta_attrs(args, kwargs):
        curve = args[0] if args else kwargs["curve"]
        budget = kwargs.get("check_budget", args[1] if len(args) > 1 else budget_default)
        q, g = curve.field.order, curve.genus
        return {"skipped": sum(1 for m in range(g + 1, 2 * g + 1) if q**m > budget)}

    def count_kind(args, kwargs):
        curve = args[0] if args else kwargs["curve"]
        r = args[1] if len(args) > 1 else kwargs["r"]
        return "curvezeta.count_direct" if r <= curve.genus else "curvezeta.recount"

    specs = [
        ("sweep", "run_sweep", call("sweep.run")),
        ("sweep", "_chunk_worker", call("sweep.chunk")),
        ("sweep", "compute_record", call("sweep.record")),
        ("sweep", "records_to_csv", call("sweep.csv")),
        ("sweep", "build_report", call("sweep.report")),
        ("emit", "json_dumps", call("sweep.report")),
        ("countfast", "field_table", field_table_factory),
        ("countfast", "affine_chi_sum",
         call("countfast.chi_sum", lambda a, k: {"points": a[0] ** a[1]})),
        ("curvezeta", "zeta_data", call("curvezeta.zeta", zeta_attrs)),
        ("curvezeta", "point_count", call(count_kind)),
        ("curvezeta", "l_poly_via_characters", call("curvezeta.char_route")),
        ("curvezeta", "lambda_character_identity", call("curvezeta.lambda_identity")),
        ("polyring", "sample_member", call("polyring.draw")),
        ("polyring", "poly_from_code", call("polyring.draw")),
        ("polyring", "family", gen("polyring.draw")),
        ("polyring", "is_squarefree", call("polyring.squarefree")),
        ("polyring", "von_mangoldt", lambda fn: _wrap_count(tracer, fn, "polyring.von_mangoldt")),
        ("stats", "character_sum", call("stats.character_sum")),
        ("stats", "decomposition_residual", call("stats.residual")),
    ]
    specs += [("curvezeta", f, call("curvezeta.bounds"))
              for f in ("zeta_value", "epsilon_terms", "epsilon_bounds", "xz_bound_check")]
    specs += [("stats", f, call("stats.aggregate"))
              for f in ("empirical_stats", "theoretical_moment", "limit_covariance")]
    specs += [("moduli", f, call("moduli.count"))
              for f in ("count_stable_fixed_det", "count_ms20", "count_ntilde", "count_higgs")]
    specs += [("moduli", f, call("moduli.strata"))
              for f in ("siegel_mass", "unstable_mass", "beta")]
    specs += [("validate", f"suite_{s}", gen(f"validate.{s}")) for s in VALIDATE_SUITES]
    return specs


VALIDATE_SUITES = ("zeta", "lambda", "higgs", "unstable", "crossval", "epsilon", "xz", "estimate")


def install(out_dir: Path) -> Tracer:
    """Wrap every traced name wherever the package's modules look it up."""
    import importlib

    importlib.import_module(f"{PACKAGE}.cli")  # loads every traced module
    tracer = Tracer(out_dir)
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for mod_name, fn_name, factory in _specs(tracer):
        home = sys.modules[f"{PACKAGE}.{mod_name}"]
        original = getattr(home, fn_name)
        wrapped = factory(original)
        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapped)
            table = getattr(mod, "SUITES", None)
            if isinstance(table, dict):
                for key, val in table.items():
                    if val is original:
                        table[key] = wrapped
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


# -- reduction to per-layer metrics --------------------------------------------


def load(out_dir: Path) -> tuple[list[tuple], dict[str, float]]:
    """Every process's spans as (id, parent, name, start, end, counts), and the counters."""
    spans, counters = [], defaultdict(float)
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if "counters" in rec:
                    for k, v in rec["counters"].items():
                        counters[k] += v
                else:
                    spans.append((rec["id"], rec["parent"], sys.intern(rec["name"]),
                                  rec["start"], rec["end"], rec["n"]))
    return spans, counters


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(out_dir: Path) -> dict[str, float]:
    spans, counters = load(out_dir)
    name_of = {sid: name for sid, _, name, _, _, _ in spans}
    children = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    draws = 0
    for sid, parent, name, start, end, n in spans:
        kids = children.get(sid)
        self_s[name] += end - start - (_covered(kids) if kids else 0.0)
        total_s[name] += end - start
        calls[name] += 1
        for k, v in (n or {}).items():
            attrs[k] += v
        # a draw is an outermost draw step that produced a polynomial
        if (name == "polyring.draw" and not (n or {}).get("exhausted")
                and name_of.get(parent) != "polyring.draw"):
            draws += 1
    m = {
        "sweep.records": calls["sweep.record"],
        "sweep.run_s": total_s["sweep.run"],
        "sweep.record_s": total_s["sweep.record"],
        "sweep.csv_s": self_s["sweep.csv"],
        "sweep.report_s": self_s["sweep.report"],
        "countfast.tables_built": attrs["built"],
        "countfast.table_build_s": self_s["countfast.table"],
        "countfast.chi_sum_calls": calls["countfast.chi_sum"],
        "countfast.chi_sum_s": self_s["countfast.chi_sum"],
        "countfast.points_evaluated": attrs["points"],
        "curvezeta.zeta_data_calls": calls["curvezeta.zeta"],
        "curvezeta.zeta_self_s": self_s["curvezeta.zeta"],
        "curvezeta.count_direct_calls": calls["curvezeta.count_direct"],
        "curvezeta.count_direct_s": self_s["curvezeta.count_direct"],
        "curvezeta.recount_calls": calls["curvezeta.recount"],
        "curvezeta.recount_s": self_s["curvezeta.recount"],
        "curvezeta.recounts_skipped": attrs["skipped"],
        "curvezeta.char_route_s": self_s["curvezeta.char_route"],
        "curvezeta.lambda_identity_s": self_s["curvezeta.lambda_identity"],
        "curvezeta.bounds_s": self_s["curvezeta.bounds"],
        "polyring.draws": draws,
        "polyring.draw_s": self_s["polyring.draw"],
        "polyring.squarefree_checks": calls["polyring.squarefree"],
        "polyring.squarefree_s": self_s["polyring.squarefree"],
        "polyring.von_mangoldt_calls": counters["polyring.von_mangoldt"],
        "stats.character_sum_calls": calls["stats.character_sum"],
        "stats.character_sum_s": self_s["stats.character_sum"],
        "stats.residual_s": self_s["stats.residual"],
        "stats.aggregate_s": self_s["stats.aggregate"],
        "moduli.count_calls": calls["moduli.count"],
        "moduli.count_s": self_s["moduli.count"],
        "moduli.strata_s": self_s["moduli.strata"],
        "cli.import_s": counters["cli.import_s"],
    }
    for suite in VALIDATE_SUITES:
        m[f"validate.{suite}_s"] = self_s[f"validate.{suite}"]
    return m
