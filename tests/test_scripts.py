"""The scripts under scripts/ run end to end, each in a fresh interpreter."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


def test_crossval_report(tmp_path):
    # genus 2 and genus 3: the oracle is Thaddeus' count at every genus
    out = tmp_path / "report.csv"
    for gamma, n in ((5, 162), (7, 1458)):
        proc = run_script("crossval_report.py", "--q", "3", "--gamma", str(gamma), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ("F,m21,m21_is_integer,oracle,oracle_residual,ms20,ms20_is_integer,"
                            "assembly_residual,full_2_torsion")
        assert len(lines) == 1 + n == 1 + 3**gamma - 3 ** (gamma - 1)
        assert {line.split(",")[4] for line in lines[1:]} == {"0"}
        assert proc.stderr.splitlines()[:2] == [
            f"# {n} curves", f"# oracle residual distribution: {{'0': {n}}}"]


# each prints its header line(s), then one row per gamma or q
@pytest.mark.parametrize("name, args, header, n_lines", [
    ("moment_convergence.py", ("--q", "3", "--gammas", "5,6"),
     "gamma  count    E(R1)        H1(limit)    |gap|        Cov(R1,R2)   limit", 3),
    ("gaussian_trend.py", ("--qs", "3,5", "--gamma", "5", "--count", "200"),
     "n = 200, seed = 0, se(skew) ~ 0.1732", 4),
], ids=["moment_convergence", "gaussian_trend"])
def test_table_script(name, args, header, n_lines):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == n_lines


def test_code_lines():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r" *\d+  src/moduli_census/__init__\.py", lines[0])
    assert re.fullmatch(r" *\d+  total", lines[-1])
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
