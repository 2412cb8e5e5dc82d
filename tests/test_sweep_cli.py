import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moduli_census.emit import fmt_float, frac_str, json_dumps
from moduli_census.cli import main
from moduli_census.sweep import SweepConfig, build_report, records_to_csv, run_sweep
from reference import full_2_torsion, parse_frac


# -- emit helpers --------------------------------------------------------------

def test_frac_str():
    assert frac_str(Fraction(189, 8)) == "189/8"
    assert frac_str(Fraction(40, 1)) == "40"
    assert frac_str(Fraction(-3, 4)) == "-3/4"


@given(st.fractions())
def test_frac_roundtrip(x):
    assert parse_frac(frac_str(x)) == x


def test_fmt_float_17_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(float("nan")) == "nan"
    assert float(fmt_float(math.pi)) == math.pi


def test_json_dumps_writes_null_for_non_finite_floats():
    out = json_dumps({"a": float("nan"), "b": [float("inf"), -float("inf"), 0.5]})
    assert json.loads(out) == {"a": None, "b": [None, None, 0.5]}


def test_sweep_report_of_a_constant_column_is_json(tmp_path):
    # one draw: the skewness, kurtosis and KS statistic of each column are
    # undefined, and the report must still be JSON (no bare nan)
    report = tmp_path / "r.json"
    code = main(["sweep", "--q", "3", "--gamma", "5", "--mode", "sample", "--count", "1",
                 "--out", str(tmp_path / "r.csv"), "--report-out", str(report)])
    assert code == 0

    def no_constant(name):
        raise AssertionError(f"report holds {name}, which is not JSON")

    data = json.loads(report.read_text(), parse_constant=no_constant)
    assert data["gaussian"]["1"]["skewness"] is None


def test_json_dumps_deterministic():
    payload = {"b": Fraction(1, 3), "a": [0.25, {"x": 1}]}
    assert json_dumps(payload) == json_dumps(payload)
    out = json.loads(json_dumps(payload))
    assert out["b"] == "1/3"
    assert out["a"][0] == 0.25
    # what the reports hand over unconverted: int keys at every level,
    # Fractions inside a tuple and a nested dict, bools beside ints, a NaN
    payload = {2: {3: (Fraction(1, 2), 1), 1: {"f": Fraction(-5, 3), "n": {4: Fraction(6)}}},
               "flags": [True, 1, False, 0], "x": math.nan}
    assert json_dumps(payload) == """{
  "2": {
    "1": {
      "f": "-5/3",
      "n": {
        "4": "6"
      }
    },
    "3": [
      "1/2",
      1
    ]
  },
  "flags": [
    true,
    1,
    false,
    0
  ],
  "x": null
}"""


# -- sweeps ----------------------------------------------------------------------

def test_sweep_enumerate_counts_and_determinism():
    cfg1 = SweepConfig(q=3, gamma=5, workers=1)
    cfg2 = SweepConfig(q=3, gamma=5, workers=2)
    recs1 = run_sweep(cfg1)
    recs2 = run_sweep(cfg2)
    assert len(recs1) == 162
    assert records_to_csv(recs1, cfg1) == records_to_csv(recs2, cfg2)


def test_sweep_sample_mode_deterministic():
    cfg = SweepConfig(q=3, gamma=6, mode="sample", count=25, seed=42,
                      compute_moduli=False)
    a = records_to_csv(run_sweep(cfg), cfg)
    b = records_to_csv(run_sweep(cfg), cfg)
    assert a == b
    assert len(a.splitlines()) == 26


def test_sweep_report_contents():
    cfg = SweepConfig(q=3, gamma=5)
    recs = run_sweep(cfg)
    rep = build_report(recs, cfg)
    assert rep.count == 162
    # empirical first moment ties exactly to the records
    assert rep.moments[1][1] == math.fsum(r.R[1] for r in recs) / 162
    assert rep.covariance["1,1"] >= 0
    assert "1,2" in rep.theoretical_covariance
    assert rep.theoretical_moments["1"]["1"]["D"] == 10


def test_sweep_delta_is_r_sum():
    cfg = SweepConfig(q=3, gamma=6, mode="sample", count=10, seed=1,
                      compute_moduli=False)
    for rec in run_sweep(cfg):
        assert rec.delta_Z == pytest.approx(sum(rec.R[k] for k in (1, 2, 3)), abs=1e-15)


def test_sweep_budget_error():
    from moduli_census.errors import BudgetError
    with pytest.raises(BudgetError):
        run_sweep(SweepConfig(q=7, gamma=9))


def test_pool_size_bounded_by_chunks_and_cores(monkeypatch):
    from moduli_census.sweep import pool_size
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_size(8, 13) == 4
    assert pool_size(8, 2) == 2
    assert pool_size(3, 13) == 3
    assert pool_size(1, 13) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(8, 13) == 1


def test_sweep_builds_tables_before_fork(monkeypatch):
    # every table, look-up tables included, is built by LogTable in the parent;
    # a worker that built one would raise, and the pool hands that back
    from moduli_census import countfast
    monkeypatch.setattr(countfast, "_tables", {})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, real = os.getpid(), countfast.LogTable.__init__

    def parent_only(self, K, r):
        if os.getpid() != parent:
            raise RuntimeError(f"a worker built the table of degree {r}")
        real(self, K, r)

    monkeypatch.setattr(countfast.LogTable, "__init__", parent_only)
    # H_{7,3} is three chunks; genus 3 counts r = 1..3, and the budget admits
    # the recount at r = 4 (81) but not r = 5 (243)
    cfg = SweepConfig(q=3, gamma=7, workers=2, compute_moduli=False, check_budget=100)
    assert len(run_sweep(cfg)) == 3**7 - 3**6
    assert sorted(countfast._tables) == [(3, 1), (3, 2), (3, 3), (3, 4)]


def test_multi_chunk_sweep_matches_curve_by_curve_records(monkeypatch):
    # H_{7,3} is three chunks, so the run's registry lends records across
    # chunks on one worker, and across a worker's chunks on two; every record
    # must be the one its curve gives alone
    from moduli_census.curvezeta import family_curves, zeta_data
    from moduli_census.ffield import make_field
    from moduli_census.polyring import FamilySpec
    from moduli_census.sweep import CHUNK, compute_record
    assert 3**7 > 2 * CHUNK
    cfg = SweepConfig(q=3, gamma=7)
    built = []
    for curve in family_curves(FamilySpec(make_field(3), 7)):
        z = zeta_data(curve, cfg.check_budget)
        built.append(compute_record(curve, cfg, z.power_sums(cfg.cutoff), z,
                                    torsion=full_2_torsion(curve.F)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        swept = run_sweep(SweepConfig(q=3, gamma=7, workers=workers))
        assert swept == built
        assert records_to_csv(swept, cfg) == records_to_csv(built, cfg)


@pytest.mark.parametrize("flags", [
    dict(z_override=2, compute_zeta=False, compute_moduli=False),
    dict(z_override=5, compute_zeta=False, compute_moduli=False),
    dict(),
], ids=["bare-counts", "r-only-past-g", "full"])
def test_registry_counts_every_record(flags):
    # the k of each registry entry [z, k] counts the run's curves that have
    # its key, on each of the three count plans of _count_plan
    from moduli_census.sweep import _chunk_worker
    registry = {}
    records = _chunk_worker((SweepConfig(q=3, gamma=7, **flags), 0, 400), registry)
    assert len(records) == 267
    assert sum(entry[1] for entry in registry.values()) == len(records)
    assert all(entry[1] > 0 for entry in registry.values())


@pytest.mark.parametrize("Z", [2, 7, 40])
def test_power_sums_run_newton_once_per_l_polynomial(monkeypatch, Z):
    # a run builds p_1..p_Z for the first record of each L-polynomial only,
    # with one Newton run: whatever Z, _from_counts' two calls per distinct
    # key and one more
    from moduli_census import curvezeta
    newton, calls = curvezeta._newton, []
    monkeypatch.setattr(curvezeta, "_newton", lambda *args: calls.append(args) or newton(*args))
    records = run_sweep(SweepConfig(q=3, gamma=7, z_override=Z))
    keys = {rec.N for rec in records}  # N_1..N_2g, the key N_1..N_g and P(t) determine each other
    assert len(records) == 1458 and len(keys) == 218
    assert len(calls) <= 3 * len(keys)


def test_validate_blocks_are_the_sweep_chunks():
    # one walk: validate's blocks of H_{7,3} are the sweep's chunks, and
    # counting them fills a registry with the sweep's keys, order and k
    from moduli_census import validate
    from moduli_census.polyring import format_poly
    from moduli_census.sweep import _chunk_worker, chunk_bounds
    cfg = SweepConfig(q=3, gamma=7, check_budget=10**4)
    family = validate._Family(3, 7, 10**4, held=True)
    bounds = chunk_bounds(cfg)
    assert [len(block) for block in family.blocks] == [682, 680, 96]
    registry: dict = {}
    for block, (lo, hi) in zip(family.blocks, bounds, strict=True):
        records = _chunk_worker((cfg, lo, hi), registry)
        assert [format_poly(z.curve.F) for z in block] == [rec.F_text for rec in records]
    entries = [(key, entry[1]) for key, entry in registry.items()]
    assert [(key, entry[1]) for key, entry in family.registry.items()] == entries
    assert sum(k for _, k in entries) == 1458


def test_registry_does_not_outlive_its_run(monkeypatch, fresh_forms):
    # each run owns its registry: a full-record run and then an R-only run of
    # the same family, or two validate runs around a changed count, must each
    # give their own answer
    from dataclasses import replace
    from moduli_census import moduli, validate
    from moduli_census.sweep import _chunk_worker

    def full_then_bare(run, cfg):
        full = run(cfg)
        bare = run(replace(cfg, compute_zeta=False, compute_moduli=False))
        assert len(full) == len(bare) > 0
        assert all(rec.N and rec.residuals and rec.flags for rec in full)
        assert all(rec.N == () and not rec.residuals and not rec.flags for rec in bare)

    for Z in (3, 5):  # Z <= g counts bare, Z > g through zeta data (g = 3, then g = 2)
        full_then_bare(lambda cfg: _chunk_worker((cfg, 0, 30)),
                       SweepConfig(q=3, gamma=7, z_override=Z))
        full_then_bare(run_sweep, SweepConfig(q=3, gamma=5, z_override=Z - 2))
    passed = validate.run_suite("all", 3, 5)
    assert all(res.ok for res in passed) and validate.run_suite("all", 3, 5) == passed
    monkeypatch.setattr(moduli, "_count_form", _count_form_plus_one_unit(moduli._count_form))
    assert not all(res.ok for res in validate.run_suite("all", 3, 5))


def _count_form_plus_one_unit(real, target=None):
    """real with 1/D added to the constant term of each count form (of
    target only, when given), D the denominator of its cached vector."""
    from moduli_census import moduli

    def mutated(q, g, tgt, r, d):
        form = real(q, g, tgt, r, d)
        if target not in (None, tgt):
            return form
        den = moduli._vector(real, q, g, tgt, r, d)[2]
        return moduli._sum_forms((1, form), (1, ((moduli._mono(), Fraction(1, den)),)))
    return mutated


def test_m_rd_with_no_curve_is_newsteads_poincare_polynomial(monkeypatch, fresh_forms):
    # at q = t^2 and P(x) = (1 + t x)^(2g), every Frobenius eigenvalue is -t,
    # and by the Weil conjectures and purity the stable rank-2, degree-1 count
    # becomes the Poincare polynomial of the moduli space (Newstead, 1967;
    # Harder and Narasimhan, 1975); a stand-in with q, genus and coeffs alone
    # serves the forms
    from types import SimpleNamespace
    from moduli_census import moduli

    def stand_in(t, g):
        return SimpleNamespace(q=t * t, genus=g,
                               coeffs=tuple(math.comb(2 * g, i) * t**i for i in range(2 * g + 1)))

    def newstead(t, g):
        return Fraction((1 + t**3) ** (2 * g) - t ** (2 * g) * (1 + t) ** (2 * g),
                        (1 - t**2) * (1 - t**4))

    points = [(t, g) for g in (2, 3, 4) for t in (2, 3, 5, 7)]
    assert newstead(2, 2) == 117
    for t, g in points:
        assert moduli.count_value(stand_in(t, g), "m_rd", 2, 1) == newstead(t, g), (t, g)
    monkeypatch.setattr(moduli, "_count_form", _count_form_plus_one_unit(moduli._count_form))
    for t, g in points:
        assert moduli.count_value(stand_in(t, g), "m_rd", 2, 1) != newstead(t, g), (t, g)


def test_traced_names_exist(tmp_path):
    # perfbench/tracing.py wraps each (module, name) it lists with getattr:
    # a name that is gone breaks `perfbench/run.py --trace 1`
    import importlib
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    specs = tracing._specs(tracing.Tracer(tmp_path))
    missing = [(mod, name) for mod, name, _ in specs
               if not callable(getattr(importlib.import_module(f"moduli_census.{mod}"), name, None))]
    assert specs and missing == []


def test_tracer_installs(tmp_path):
    # `perfbench/run.py --trace 1` runs the CLI in a fresh interpreter under
    # tracing.install, which wraps every traced name: it must succeed there
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pathlib, tracing; tracing.install(pathlib.Path(sys.argv[1]))", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_r_only_sample_past_int64_codes():
    # 3^41 > 2^63: the codes of H_{41,3} stay Python ints, tested by gcd(F, F')
    from moduli_census.ffield import make_field
    from moduli_census.polyring import FamilySpec, _draws, format_poly, is_squarefree, poly_from_code
    K = make_field(3)
    assert 3**41 > 2**63
    recs = run_sweep(SweepConfig(q=3, gamma=41, mode="sample", count=3, compute_moduli=False,
                                 compute_zeta=False, z_override=3, r_max=2))
    spec = FamilySpec(K, 41, "sample", 3, 0)
    want = []
    for i in range(3):
        polys = (poly_from_code(K, code, 41) for code in _draws(spec, i))
        want.append(format_poly(next(f for f in polys if is_squarefree(f))))
    assert [rec.F_text for rec in recs] == want


@pytest.mark.parametrize("Z, built", [(2, [1, 2]), (3, [1, 2, 3]), (5, [1, 2, 3])])
def test_r_only_sweep_builds_its_tables_before_fork(monkeypatch, Z, built):
    # R-only records count N_1..N_Z for Z <= g = 3, and N_1..N_g past it
    from moduli_census import countfast
    monkeypatch.setattr(countfast, "_tables", {})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = SweepConfig(q=3, gamma=7, workers=2, z_override=Z,
                      compute_moduli=False, compute_zeta=False)
    assert len(run_sweep(cfg)) == 3**7 - 3**6
    assert sorted(countfast._tables) == [(3, r) for r in built]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_over_point_budget_builds_no_table_above_it(monkeypatch, capsys, workers):
    # genus 6 over F_11 needs N_6 over 11^6 > POINT_BUDGET points
    from moduli_census import countfast
    from moduli_census.curvezeta import POINT_BUDGET
    monkeypatch.setattr(countfast, "_tables", {})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = main(["sweep", "--q", "11", "--gamma", "13", "--mode", "sample",
                 "--count", "2048", "--workers", workers])
    assert code == 3
    assert capsys.readouterr().err.startswith("budget error: q^r = 11^6")
    assert all(p**r <= POINT_BUDGET for p, r in countfast._tables)


@pytest.mark.parametrize("flags", [
    ["--variants", "bogus"],
    ["--rank", "4", "--variants", "m_rd"],
    ["--rank", "2", "--degree", "2", "--variants", "m_rd"],
    ["--z", "0"],
    ["--z", "-1"],
    ["--max-n", "0"],
    ["--max-n", "-2"],
    ["--max-n", "18"],  # past MAX_MOMENT_ORDER
    ["--r-max", "0"],
    ["--r-max", "-1"],
    ["--variants", "m_rd,m_rd"],  # a repeated variant, not two equal columns
    # the variants are checked whether or not a run computes the residuals
    ["--no-moduli", "--variants", "bogus"],
    ["--no-moduli", "--variants", "m_rd,m_rd"],
    ["--no-moduli", "--rank", "7"],
    ["--count", "5"],  # a draw count without sample mode
    # a seed outside [0, 2^64), not one masked onto another seed's draws
    ["--mode", "sample", "--count", "5", "--seed", "-1"],
    ["--mode", "sample", "--count", "5", "--seed", "18446744073709551616"],
    # neither clamped to one worker nor ignored for the variants asked for
    ["--workers", "0"],
    ["--workers", "-3"],
    ["--variants", "ms20", "--rank", "7"],
    ["--variants", "higgs", "--degree", "2"],
])
def test_cli_sweep_bad_config_exit_code(capsys, flags):
    # rejected before any count, instead of a NaN column or a silent default
    code = main(["sweep", "--q", "3", "--gamma", "7", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_cutoff_zero_is_not_the_default():
    assert SweepConfig(q=3, gamma=9, z_override=0).cutoff == 0
    assert SweepConfig(q=3, gamma=9).cutoff == 3


# -- CLI --------------------------------------------------------------------------

def run_cli(*args):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_cli_curve_info():
    code, out = run_cli("curve-info", "--q", "3", "--f", "0,1,0,0,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["N"][:2] == [4, 14]
    assert data["L_poly"] == [1, 0, 2, 0, 9]
    assert data["jacobian_q"] == 12
    assert data["zeta"]["2"] == "187/108"


# sha256 of the stdout of `curve-info` on each curve
@pytest.mark.parametrize("q,f,sha", [
    ("3", "0,1,0,0,0,1", "211729deb23c63690f68e2fc17356cb3dde4accb2c59947af0154fd08a9d1715"),
    ("5", "1,1,0,0,0,0,0,1", "0d4144a9aa8e2e10a681134ef31a25c0a3543c50514213f8a6ab04f7bb7fb107"),
])
def test_cli_curve_info_golden_bytes(q, f, sha):
    code, out = run_cli("curve-info", "--q", q, "--f", f)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_cli_moduli_higgs():
    code, out = run_cli("moduli", "--q", "3", "--f", "0,1,0,0,0,1",
                        "--target", "higgs")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "128304"
    assert data["is_integer"] is True


def test_cli_moduli_estimate():
    code, out = run_cli("moduli", "--q", "3", "--f", "0,1,0,0,0,1",
                        "--target", "estimate", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["within_envelope"] is True


# sha256 of the JSON of `moduli --target T` on y^2 = x^7 + x + 1 over F_5
# (r = 2, d = 1 for m_rd and estimate)
@pytest.mark.parametrize("target,sha", [
    ("m_rd", "11e7cdd361aa2439bf2ec976b933dd9b3ad24b8624efbfd08d0b1c2faa9e582c"),
    ("ms20", "60b1c81217a1e8a96cbe7e273d0119d2f6ad2208963e74a0df3506b44df0715e"),
    ("ntilde", "c7d7f17f206c86b9aef5105b7c2407ba3af7a045aea1cd7fdb01d71487ee7bec"),
    ("higgs", "9ea736bd96a96e3421192c2525d8734ea452b888d7933d5a119c70be69b47090"),
    ("estimate", "b55c68d4a9391819fb421112aa8f4d093573d7b89f6bea743b417af95279eded"),
])
def test_cli_moduli_golden_bytes(target, sha):
    code, out = run_cli("moduli", "--q", "5", "--f", "1,1,0,0,0,0,0,1", "--target", target)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("args", [
    ("curve-info", "--q", "3", "--f", "0,1,0,0,0,1"),
    ("moduli", "--q", "3", "--f", "0,1,0,0,0,1", "--target", "higgs"),
    ("sweep", "--q", "3", "--gamma", "5"),
    ("validate", "--suite", "higgs", "--q", "3", "--gamma", "5"),
], ids=lambda args: args[0])
def test_cli_internal_error_exit_code(monkeypatch, capsys, args):
    # a failed internal check ends the command with exit 1 and one error
    # line, never a traceback
    from moduli_census import curvezeta
    from moduli_census.errors import InternalConsistencyError

    def failing(coeffs, q):
        raise InternalConsistencyError("rh-check: injected")

    monkeypatch.setattr(curvezeta, "check_riemann_hypothesis", failing)
    assert main(list(args)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: rh-check: injected"]


def test_cli_sweep_row_count(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out = run_cli("sweep", "--q", "3", "--gamma", "5",
                        "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 163  # header + 162 rows
    report = json.loads(out)
    assert report["count"] == 162


def test_cli_sweep_worker_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("sweep", "--q", "3", "--gamma", "5", "--out", str(a),
            "--workers", "1")
    run_cli("sweep", "--q", "3", "--gamma", "5", "--out", str(b),
            "--workers", "2")
    assert a.read_bytes() == b.read_bytes()


# sha256 of the CSV and report JSON of `sweep --q 3 --gamma 7 --mode sample
# --count 256 --seed 1` with the extra flags; the report does not depend on
# the moduli columns, so all three share one
REPORT_SHA = "7ce33ad02e0c90501ccfe99d398f9438c02821d36285192fcf840f010276db63"


@pytest.mark.parametrize("flags,csv_sha", [
    ((), "96278123c183ebbfe54ce29afc79319418eb3aed02809a5f5105c7a0a9b8456c"),
    (("--rank", "3", "--degree", "2"),
     "2352c94248b0b8895efea199d44601491faf81102d808d9e430ab0d1bbaa3754"),
    (("--variants", "ntilde"), "780ef75bde358670f25b82e9138387bb91f8824fcd2e19fa4a5ea7abd2841ffb"),
], ids=["default", "rank3-degree2", "ntilde"])
def test_cli_sweep_golden_bytes(tmp_path, flags, csv_sha):
    csv_path, report_path = tmp_path / "s.csv", tmp_path / "s.json"
    code, _ = run_cli("sweep", "--q", "3", "--gamma", "7", "--mode", "sample", "--count", "256",
                      "--seed", "1", *flags, "--out", str(csv_path), "--report-out", str(report_path))
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == REPORT_SHA


# sha256 of the stdout of `moments` with the flags
@pytest.mark.parametrize("args,sha", [
    (("--q", "3"), "39a39e2309a9130f381d0f44f726c93bf19e9735e2407c32c1db26630b182cd7"),
    (("--q", "5", "--k-max", "3", "--n-max", "6", "--D", "20"),
     "42f92959b9acd0801727e45994a4896eedf2b076c0bf40861a1535ac872e136d"),
], ids=["q3-defaults", "q5-n6-D20"])
def test_cli_moments_golden_bytes(args, sha):
    code, out = run_cli("moments", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_sweep_and_moments_print_the_same_limit_law(tmp_path):
    # sweep --q 3 --gamma 7 has r_max 4, max_n 4 and D = 2 gamma = 14
    code, out = run_cli("sweep", "--q", "3", "--gamma", "7", "--out", str(tmp_path / "s.csv"))
    assert code == 0
    report = json.loads(out)
    code, out = run_cli("moments", "--q", "3", "--k-max", "3", "--n-max", "4", "--D", "14")
    assert code == 0
    limits = json.loads(out)

    def without_d(table):
        return {key: {k: v for k, v in entry.items() if k != "D"} for key, entry in table.items()}

    moments = {k: without_d(row) for k, row in report["theoretical_moments"].items()}
    assert moments == limits["moments"]
    assert without_d(report["theoretical_covariance"]) == limits["covariance"]
    assert set(limits["moments"]) == {"0", "1", "2", "3"}
    assert set(limits["covariance"]) == {"1,2", "1,3", "2,3"}


def test_theoretical_moments_past_the_sixth(tmp_path):
    # sweep --max-n 8 and moments --n-max 8 carry H^(k)(n) for every n <= 8
    code, out = run_cli("sweep", "--q", "3", "--gamma", "5", "--max-n", "8", "--no-moduli",
                        "--out", str(tmp_path / "s.csv"))
    assert code == 0
    report = json.loads(out)
    code, out = run_cli("moments", "--q", "3", "--k-max", "1", "--n-max", "8", "--D", "10")
    assert code == 0
    limits = json.loads(out)
    for table in (report["theoretical_moments"], limits["moments"]):
        assert set(table["1"]) == {str(n) for n in range(1, 9)}
        assert all(entry["value"] > 0 and entry["tail_bound"] > 0
                   for entry in table["1"].values())
    assert report["theoretical_moments"]["1"]["8"]["value"] == limits["moments"]["1"]["8"]["value"]


def test_cli_parse_error_exit_code(capsys):
    code = main(["curve-info", "--q", "3", "--f", "0,zz,1"])
    assert code == 2


def test_cli_usage_error_exit_code():
    code = main(["moduli", "--q", "3"])
    assert code == 2


def test_cli_budget_error_exit_code(capsys):
    code = main(["sweep", "--q", "7", "--gamma", "9"])
    assert code == 3


@pytest.mark.parametrize("flag", ["--out", "--report-out"])
def test_cli_unwritable_output_exit_code(tmp_path, capsys, flag):
    paths = {"--out": tmp_path / "rows.csv", "--report-out": tmp_path / "report.json"}
    paths[flag] = tmp_path / "missing" / "file"
    code = main(["sweep", "--q", "3", "--gamma", "3", "--no-moduli",
                 "--out", str(paths["--out"]), "--report-out", str(paths["--report-out"])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    # neither output, nor any temporary file, is left behind
    assert list(tmp_path.iterdir()) == []


def test_cli_output_through_symlink_keeps_file(tmp_path):
    real = tmp_path / "rows.csv"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code = main(["sweep", "--q", "3", "--gamma", "3", "--no-moduli",
                 "--out", str(link), "--report-out", str(tmp_path / "report.json")])
    assert code == 0
    # written through the link, in place of the file, with the file's mode
    assert link.is_symlink() and real.read_text().startswith("q,gamma,F,genus")
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "report.json", "rows.csv"]


@pytest.mark.parametrize("via_link", [False, True])
def test_cli_sweep_outputs_to_one_file_exit_code(tmp_path, capsys, monkeypatch, via_link):
    # the report would overwrite the CSV: refused before anything is counted
    from moduli_census import cli
    monkeypatch.setattr(cli, "run_sweep", lambda cfg: pytest.fail("the sweep ran"))
    real = tmp_path / "rows.csv"
    other = real
    if via_link:
        real.write_text("old\n")
        other = tmp_path / "link.csv"
        other.symlink_to(real)
    code = main(["sweep", "--q", "3", "--gamma", "3", "--no-moduli",
                 "--out", str(real), "--report-out", str(other)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # nothing written: no output, no temporary file, the old file untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == (["link.csv", "rows.csv"] if via_link else [])
    assert not via_link or real.read_text() == "old\n"


def test_cli_output_to_fifo(tmp_path):
    import stat
    import threading
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = main(["sweep", "--q", "3", "--gamma", "3", "--no-moduli",
                 "--out", str(fifo), "--report-out", str(tmp_path / "report.json")])
    reader.join(timeout=30)
    assert code == 0 and got and got[0].startswith("q,gamma,F,genus")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "rows.fifo"]


def test_validate_all_builds_zeta_data_once(monkeypatch):
    # validate counts its family through the sweep's walk (sweep.count_chunk)
    from moduli_census import sweep, validate
    calls = []
    real, real_block = validate.zeta_data, sweep.zeta_data_block

    def counting(curve, check_budget=10**4):
        calls.append(check_budget)
        return real(curve, check_budget=check_budget)

    def counting_block(curves, check_budget=10**4, registry=None):
        calls.extend(check_budget for _ in curves)
        return real_block(curves, check_budget, registry)

    monkeypatch.setattr(validate, "zeta_data", counting)
    monkeypatch.setattr(sweep, "zeta_data_block", counting_block)
    together = validate.run_suite("all", 3, 5)
    # one pass over the 162 curves at the largest budget, plus the higgs spot value
    assert calls.count(10**6) == 162 and len(calls) == 163
    apart = [res for name in validate.SUITES for res in validate.run_suite(name, 3, 5)]
    assert together == apart


def test_cli_validate_exit_zero():
    code, out = run_cli("validate", "--suite", "lambda", "--q", "3", "--gamma", "5")
    assert code == 0
    assert "PASS" in out


def test_cli_validate_over_enumeration_budget(monkeypatch, capsys):
    # 3^15 > ENUM_BUDGET: validate must refuse before it counts anything
    from moduli_census import sweep

    def no_count(*args, **kwargs):
        raise AssertionError("validate counted a curve")

    monkeypatch.setattr(sweep, "zeta_data_block", no_count)
    code = main(["validate", "--suite", "xz", "--q", "3", "--gamma", "15"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "budget error: validate enumerates the family: q^gamma = 14348907 must be <= 2000000"]


def test_cli_validate_over_symbol_budget(monkeypatch, capsys, fresh_symbols):
    from moduli_census import curvezeta
    monkeypatch.setattr(curvezeta, "SYMBOL_BUDGET", 1457)
    code = main(["validate", "--suite", "zeta", "--q", "3", "--gamma", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "budget error: the character route's symbol table of 18 moduli of degree 4 over F_3"
        " has 1458 entries, more than the budget 1457"]


@pytest.mark.parametrize("suite", ["zeta", "all"])
def test_cli_validate_refuses_the_symbol_budget_before_any_work(monkeypatch, capsys, suite):
    # the budget is checked for every degree the route needs before a curve
    # is counted or a prime of degree 4 is listed
    from moduli_census import curvezeta, polyring
    real = polyring._irreducible_ivs.__wrapped__

    def no_degree_4(K, e):
        if K.order == 3 and e == 4:
            raise AssertionError("the primes of degree 4 were listed")
        return real(K, e)

    def no_count(*args, **kwargs):
        raise AssertionError("validate counted a curve")

    fresh_primes = functools.lru_cache(maxsize=None)(no_degree_4)
    monkeypatch.setattr(polyring, "_irreducible_ivs", fresh_primes)
    monkeypatch.setattr(curvezeta, "_irreducible_ivs", fresh_primes)
    monkeypatch.setattr(curvezeta, "point_counts", no_count)
    monkeypatch.setattr(curvezeta, "SYMBOL_BUDGET", 1457)
    code = main(["validate", "--suite", suite, "--q", "3", "--gamma", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "budget error: the character route's symbol table of 18 moduli of degree 4 over F_3"
        " has 1458 entries, more than the budget 1457"]


def test_cli_validate_xz_needs_genus_two(capsys):
    # the zeta envelope's scale loglog(g) needs g >= 2: a genus-1 family is
    # refused as higgs, unstable and estimate refuse it
    code = main(["validate", "--suite", "xz", "--q", "5", "--gamma", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: needs genus >= 2"]


@pytest.fixture
def flipped_symbol(fresh_symbols):
    """Fresh symbol tables whose symbols (1/x) and (2/x) over F_3 have the wrong sign.

    F mod x is F(0), so (F/x) is wrong for every F with F(0) != 0: 122 of the
    162 curves of H_{5,3}.  The table is flipped in the fresh cache, which
    hands the same array to every later call.
    """
    from moduli_census import curvezeta
    from moduli_census.ffield import make_field
    K = make_field(3)
    table = curvezeta._symbol_table(K, 1).reshape(-1, 3)
    j = curvezeta._irreducible_ivs(K, 1).index((0, 1))  # the prime x
    assert table[j].tolist() == [0, 1, -1]
    table[j, 1:] = [-1, 1]


def test_cli_validate_reports_a_character_route_mismatch(flipped_symbol):
    # those F disagree with their point counts in the coefficient of t
    code, out = run_cli("validate", "--suite", "zeta", "--q", "3", "--gamma", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS zeta.construction - 162 curves")
    assert lines[1] == "PASS zeta.functional_equation - 162 curves"
    assert lines[2].startswith("FAIL zeta.character_route - character-route mismatch for F = 1,")
    assert lines[3] == "FAILED: 2/3 checks passed"


def test_cli_validate_reports_a_lambda_identity_violation(flipped_symbol):
    # those F break the identity at m = 1; at m = 2, (F/x)^2 is unchanged
    code, out = run_cli("validate", "--suite", "lambda", "--q", "3", "--gamma", "5")
    assert code == 1
    assert out.splitlines() == ["FAIL lambda.identity - 162 curves, m in {1,2}, 122 violations",
                                "FAILED: 0/1 checks passed"]


# sha256 of the stdout of `validate --suite all` at (q, gamma)
@pytest.mark.parametrize("q,gamma,sha", [
    (3, 5, "6729cffe5a60bcd29cf5f10186c71ae04467f3b52749c7fb246bd56c3fa88a41"),
    (3, 6, "e6cfa136004878595117a6eade104e515e4bc32e58431832f62e3ebbae1f17a1"),
    (5, 5, "85880803b477736dc1b180960029e0ca12ad0a67a30f1016ace74b88c383fe13"),
], ids=["q3-gamma5", "q3-gamma6", "q5-gamma5"])
def test_cli_validate_golden_bytes(q, gamma, sha):
    code, out = run_cli("validate", "--suite", "all", "--q", str(q), "--gamma", str(gamma))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("target", ["m_rd", "ms20"])
def test_cli_validate_crossval_catches_a_mutated_count(monkeypatch, fresh_forms, target):
    # one more unit in the constant coefficient of the cached integer form
    # moves the count by 1/D; the cross-check route of crossval must notice
    from moduli_census import moduli
    monkeypatch.setattr(moduli, "_count_form", _count_form_plus_one_unit(moduli._count_form, target))
    code, out = run_cli("validate", "--suite", "crossval", "--q", "3", "--gamma", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL crossval.report - 162 curves;")
    assert lines[0].endswith("; 162 curves break the beta_table or ms20 assembly identity")
    assert lines[1] == "FAILED: 0/1 checks passed"
    if target == "m_rd":
        from moduli_census.curvezeta import HyperellipticCurve, zeta_data
        from moduli_census.ffield import make_field
        from moduli_census.polyring import parse_poly
        z = zeta_data(HyperellipticCurve(parse_poly(make_field(5), "0,1,0,0,0,0,0,1")))
        for r, d in ((2, 1), (3, 1), (3, 2)):
            assert moduli.count_stable_fixed_det(z, r, d).cross_checks["beta_table"]["residual"] != 0


def test_cli_validate_catches_a_mutated_stratum_constant(monkeypatch, fresh_forms):
    # one more unit in the cached (1, 1) stratum vector moves every (1, 1)
    # stratum and beta(2, d) by P(1)/W; count_value's forms do not read that
    # stratum, so the closed form and the beta_table check must notice
    from moduli_census import moduli
    real = moduli._stratum_form

    def mutated(q, g, partition, d):
        form = real(q, g, partition, d)
        if partition != (1, 1):
            return form
        den = moduli._vector(real, q, g, partition, d)[2]
        return moduli._sum_forms((1, form), (1, ((moduli._mono("nj"), Fraction(1, den)),)))

    monkeypatch.setattr(moduli, "_stratum_form", mutated)
    code, out = run_cli("validate", "--suite", "unstable", "--q", "3", "--gamma", "5")
    assert code == 1
    assert out.splitlines()[0] == "FAIL unstable.beta_prime_closed_form - 162 curves"
    code, out = run_cli("validate", "--suite", "crossval", "--q", "3", "--gamma", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL crossval.report - 162 curves;")
    assert lines[0].endswith("; 162 curves break the beta_table or ms20 assembly identity")
    assert lines[1] == "FAILED: 0/1 checks passed"


@pytest.mark.parametrize("mutation", ["two_step", "three_step"])
def test_beta_table_catches_a_mutated_hn_tail(monkeypatch, fresh_forms, mutation):
    # the count forms (Zagier's sum) read no Harder-Narasimhan tail, so a
    # wrong tail reaches only the cross-check route: beta_table must notice
    # it, while the count and the r = 2 closed form stay as they were
    from moduli_census import moduli
    from moduli_census.curvezeta import HyperellipticCurve, zeta_data
    from moduli_census.ffield import make_field
    from moduli_census.polyring import parse_poly
    z = zeta_data(HyperellipticCurve(parse_poly(make_field(5), "0,1,0,0,0,0,0,1")))
    keys = ((2, 1), (3, 1), (3, 2)) if mutation == "two_step" else ((3, 1), (3, 2))
    values = {key: moduli.count_value(z, "m_rd", *key) for key in keys}
    if mutation == "two_step":
        real = moduli._two_step_tails

        def doubled(q, n1, n2, d):
            (first, tail), *rest = real(q, n1, n2, d)
            return ((first, 2 * tail), *rest)

        monkeypatch.setattr(moduli, "_two_step_tails", doubled)
    else:
        real = moduli._three_step_total
        monkeypatch.setattr(moduli, "_three_step_total", lambda q, d: 2 * real(q, d))
    for (r, d), value in values.items():
        rep = moduli.count_stable_fixed_det(z, r, d)
        assert rep.value == value
        assert rep.cross_checks["beta_table"]["residual"] != 0
        if r == 2:
            assert rep.cross_checks["closed_form"]["residual"] == 0
    if mutation == "two_step":
        code, out = run_cli("validate", "--suite", "crossval", "--q", "3", "--gamma", "5")
        assert code == 1
        assert out.splitlines()[0].endswith(
            "; 162 curves break the beta_table or ms20 assembly identity")


def test_higgs_checks_catch_a_mutated_count_term(monkeypatch, fresh_forms):
    # count_higgs' components are the terms count_value sums, so a wrong
    # A_2 in the count's own form must break the a2 identity, and with it
    # the higgs suite
    from moduli_census import moduli
    from moduli_census.curvezeta import HyperellipticCurve, zeta_data
    from moduli_census.ffield import make_field
    from moduli_census.polyring import parse_poly
    real = moduli._higgs_form
    monkeypatch.setattr(moduli, "_higgs_form", lambda q, g, part: moduli._sum_forms(
        (2 if part == 1 else 1, real(q, g, part))))
    z = zeta_data(HyperellipticCurve(parse_poly(make_field(3), "0,1,0,0,0,1")))
    rep = moduli.count_higgs(z)
    assert rep.components["A_2"] == -18
    assert rep.cross_checks["a2_jacobian_identity"]["residual"] != 0
    assert rep.value == 3 ** (4 * z.genus - 3) * rep.components["A_g2"]
    code, out = run_cli("validate", "--suite", "higgs", "--q", "5", "--gamma", "5")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL higgs.integrality - violations: ")


@functools.lru_cache(maxsize=None)
def per_curve_zeta(q, gamma):
    """zeta_data of every curve of H_{gamma,q}, one curve per block."""
    from moduli_census.curvezeta import HyperellipticCurve, zeta_data
    from moduli_census.ffield import make_field
    from moduli_census.polyring import FamilySpec, family
    return tuple(zeta_data(HyperellipticCurve(F)) for F in family(FamilySpec(make_field(q), gamma)))


def busiest_l_polynomial(q, gamma):
    """(coeffs, number of curves, F of its first curve) of the P(t) most
    curves of H_{gamma,q} share."""
    from collections import Counter
    from moduli_census.polyring import format_poly
    zs = per_curve_zeta(q, gamma)
    coeffs, k = Counter(z.coeffs for z in zs).most_common(1)[0]
    first = next(z for z in zs if z.coeffs == coeffs)
    assert k > 1
    return coeffs, k, format_poly(first.curve.F)


@pytest.mark.parametrize("q,gamma", [(3, 5), (5, 5)])
def test_validate_weights_each_l_polynomial_by_its_curves(monkeypatch, q, gamma):
    # the suites check one curve per distinct P(t); a check failing for one
    # P(t) must still count every curve that has it, and name its first curve
    from moduli_census import validate
    from moduli_census.curvezeta import BoundReport
    from moduli_census.moduli import ModuliReport
    coeffs, k, first = busiest_l_polynomial(q, gamma)
    n = len(per_curve_zeta(q, gamma))
    real_xz, real_bounds, real_higgs = (validate.xz_bound_check, validate.epsilon_bounds,
                                        validate.count_higgs)

    def xz(z):
        rep = real_xz(z)
        if z.coeffs == coeffs:
            rep["xz"] = BoundReport("xz", 1.0, 0.0)
        return rep

    def bounds(z, kk, Z):
        return (-1.0, -1.0) if z.coeffs == coeffs else real_bounds(z, kk, Z)

    def higgs(z):
        rep = real_higgs(z)
        if z.coeffs == coeffs:
            rep = ModuliReport("higgs", rep.value, rep.hypotheses, rep.cross_checks,
                               {**rep.components, "A_g2": Fraction(1, 2)})
        return rep

    monkeypatch.setattr(validate, "xz_bound_check", xz)
    monkeypatch.setattr(validate, "epsilon_bounds", bounds)
    monkeypatch.setattr(validate, "count_higgs", higgs)
    assert run_cli("validate", "--suite", "xz", "--q", str(q), "--gamma", str(gamma)) == (
        1, f"FAIL xz.jacobian_and_zeta_envelopes - {n} curves, {k} violations\n"
           "FAILED: 0/1 checks passed\n")
    assert run_cli("validate", "--suite", "epsilon", "--q", str(q), "--gamma", str(gamma)) == (
        1, f"FAIL epsilon.envelopes - {n} curves x 6 (k, Z) combinations, {6 * k} violations\n"
           "FAILED: 0/1 checks passed\n")
    code, out = run_cli("validate", "--suite", "higgs", "--q", str(q), "--gamma", str(gamma))
    assert code == 1
    assert out.splitlines()[0] == f"FAIL higgs.integrality - violations: {[first]}"


def test_validate_crossval_counts_full_2_torsion_per_curve(monkeypatch):
    # the flag reads F, not P(t): a flag that differs between curves of one
    # P(t) must be counted curve by curve
    from moduli_census import validate
    coeffs, k, _ = busiest_l_polynomial(5, 5)
    monkeypatch.setattr(validate, "_full_2_torsion", lambda zs: [z.curve.F.coeffs[0] == 0 for z in zs])
    want = sum(z.curve.F.coeffs[0] == 0 for z in per_curve_zeta(5, 5))
    assert 0 < sum(z.curve.F.coeffs[0] == 0 for z in per_curve_zeta(5, 5)
                   if z.coeffs == coeffs) < k
    code, out = run_cli("validate", "--suite", "crossval", "--q", "5", "--gamma", "5")
    assert code == 0
    assert out.splitlines()[0].endswith(f"; full 2-torsion on {want}/2500")


def test_sweep_records_of_one_l_polynomial_stay_apart():
    # a chunk computes the fields that read only P(t) once per L-polynomial;
    # F and the full 2-torsion flag are each curve's own, and no record
    # shares a mutable field with another
    import copy
    from collections import defaultdict
    for q, gamma in ((5, 3), (5, 5)):
        by_lpoly = defaultdict(list)
        for rec in run_sweep(SweepConfig(q=q, gamma=gamma)):
            by_lpoly[rec.N].append(rec)  # N_1..N_2g determines P(t)
        if q == 5 and gamma == 3:
            a, b = next((a, b) for recs in by_lpoly.values() for a in recs for b in recs
                        if a.flags["full_2_torsion"] != b.flags["full_2_torsion"])
        else:
            a, b = max(by_lpoly.values(), key=len)[:2]
        assert a.F_text != b.F_text
        kept = copy.deepcopy(b)
        a.R[1] += 1.0
        a.residuals["ms20"] = 0.5
        a.flags["xz_pass"] = not a.flags["xz_pass"]
        a.flags["full_2_torsion"] = not a.flags["full_2_torsion"]
        assert (b.R, b.flags) == (kept.R, kept.flags)
        assert list(map(fmt_float, b.residuals.values())) == list(map(fmt_float, kept.residuals.values()))


def test_sweep_csv_matches_a_per_curve_reference():
    # H_{5,5} has gamma <= q, so its full 2-torsion flag varies
    import dataclasses
    from moduli_census.sweep import compute_record
    cfg = SweepConfig(q=5, gamma=5)
    reference = records_to_csv(
        [compute_record(z.curve, cfg, z.power_sums(cfg.cutoff), z, torsion=full_2_torsion(z.curve.F))
         for z in per_curve_zeta(5, 5)],
        cfg)
    assert ",1\n" in reference and ",0\n" in reference
    for workers in (1, 2):
        assert records_to_csv(run_sweep(dataclasses.replace(cfg, workers=workers)), cfg) == reference


def test_cli_moments():
    code, out = run_cli("moments", "--q", "3", "--k-max", "2", "--n-max", "2",
                        "--D", "6", "--t", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["moments"]["1"]["1"]["value"] == pytest.approx(0.0141886, abs=1e-6)
    assert "1,2" in data["covariance"]


@pytest.mark.parametrize("flags", [
    ["--q", "1"],
    ["--q", "0"],
    ["--q", "2"],
    ["--q", "4"],
    ["--q", "3", "--t", "abc"],
    ["--q", "3", "--t", "nan"],
    ["--q", "3", "--t", "0.5,inf"],
    ["--q", "3", "--k-max", "-1"],
    ["--q", "3", "--n-max", "0"],
    ["--q", "3", "--n-max", "18"],
])
def test_cli_moments_bad_input_exit_code(capsys, flags):
    # a q that make_field refuses, a --t that is not finite numbers, and a
    # --k-max or --n-max that leaves no moment to compute are usage errors,
    # as for every other subcommand
    code = main(["moments", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flags, count", [
    (["--q", "3", "--D", "655"], "pi_q(D)"),  # theoretical_moment: pi_3(652) > 2^1024
    (["--q", "5", "--D", "450"], "pi_q(D)"),
    (["--q", "3", "--D", "650", "--k-max", "2"], "q^D"),  # limit_covariance: 3^647 > 2^1024
])
def test_cli_moments_refuses_a_degree_past_the_float_range(capsys, flags, count):
    # a prime count or q^D with no binary64 value is a usage error, found
    # before any sum is made, not an OverflowError traceback
    code = main(["moments", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: D = {flags[3]} is too large for q = {flags[1]}: {count} exceeds the binary64 range"]


@pytest.mark.parametrize("D, k_max, pairs", [
    ("646", "3", {"1,2", "1,3", "2,3"}),  # 3^646 < 2^1024 < 3^647, for the covariance
    ("651", "1", set()),  # pi_3(651) < 2^1024 < pi_3(652), with no covariance to make
])
def test_cli_moments_at_the_largest_degree_in_the_float_range(D, k_max, pairs):
    code, out = run_cli("moments", "--q", "3", "--D", D, "--k-max", k_max, "--n-max", "1",
                        "--t", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["D"] == int(D) and set(data["covariance"]) == pairs


def test_cli_curve_info_refuses_a_square(capsys):
    # x^5 + 1 = (x + 1)^5 over F_5: user input is checked as before
    code = main(["curve-info", "--q", "5", "--f", "1,0,0,0,0,1"])
    assert code == 2
    assert capsys.readouterr().err == "error: curve polynomial must be square-free\n"


def test_validate_tests_no_family_member_for_square_freeness(monkeypatch):
    # the family's sieve is the only square-free test of H_{5,5}
    from moduli_census import polyring, validate
    tested = []
    real = polyring._iv_squarefree

    def counting(u, K):
        tested.append(u)
        return real(u, K)

    monkeypatch.setattr(polyring, "_iv_squarefree", counting)
    assert all(res.ok for res in validate.run_suite("all", 5, 5))
    assert tested == []


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_import_starts_no_blas_thread_pool(preset, want):
    # the package makes no BLAS call, so OpenBLAS starts one thread, unless
    # the user has asked for more
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import os, moduli_census; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == want + "\n"


def test_console_entry_point():
    # installed script must work end to end in a fresh interpreter
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_census.cli", "moduli", "--q", "3",
         "--f", "0,1,0,0,0,1", "--target", "ms20"],
        capture_output=True, text=True, cwd=root, env=env)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["value"] == "15"
    assert data["cross_checks"]["component_assembly"]["residual"] == "4"
