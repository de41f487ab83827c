"""Smoke tests: the figure scripts in scripts/ run and write a CSV, the
tail sweep's empirical column is the face estimate's tail, and the
mutation audit's mutants still apply to the code and name existing tests."""

# Standard libraries
import csv
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

# External libraries
import numpy as np
import pytest

from conevol import MonteCarloConfig, Orthant, estimate_profile_face

_ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return list(csv.reader(io.StringIO(proc.stdout)))


@pytest.mark.parametrize("name, args, header, rows", [
    ("profile_figure.py", ["--cone", "orthant:6", "--samples", "4000"],
     ["k", "v_exact", "v_face", "face_stderr", "v_mixture"], 7),
    ("tail_bound_sweep.py", ["--cone", "orthant:4", "--samples", "2000", "--steps", "4"],
     ["lambda", "empirical_two_sided", "upper_bennett", "lower_bennett",
      "combined", "chebyshev"], 5),
])
def test_script_writes_a_csv(name, args, header, rows):
    table = _run_script(name, *args)
    assert table[0] == header
    assert len(table) == rows + 1
    assert all(len(row) == len(header) for row in table)


def test_tail_bound_sweep_reads_the_face_estimate():
    # the empirical column reads 1 at lambda = 0, never increases, and is
    # the two-sided tail of the face estimate at the script's configuration
    table = _run_script("tail_bound_sweep.py", "--cone", "orthant:4", "--samples", "2000",
                        "--lam-max", "2", "--steps", "4")
    lams, empirical = (np.array([float(row[i]) for row in table[1:]]) for i in (0, 1))
    cone, cfg = Orthant(4), MonteCarloConfig(seed=0, total_samples=2000)
    raw_v = estimate_profile_face(cone, cfg).raw_v
    delta = min(max(float(np.arange(5.0) @ raw_v), 1e-9), 4 - 1e-9)
    expect = [raw_v[np.abs(np.arange(5) - delta) >= lam].sum() for lam in lams]
    assert empirical[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(empirical) <= 0.0)
    assert 0.0 < empirical[-1] < empirical[1] < 1.0
    assert np.allclose(empirical, expect, rtol=0.0, atol=1e-15)


def test_mutation_audit_mutants_apply_once_and_name_existing_killers():
    # the audit itself runs pytest once per mutant and stays out of Tier-1;
    # this keeps its mutants from rotting as the code they edit changes
    spec = importlib.util.spec_from_file_location(
        "mutation_audit", _ROOT / "scripts" / "mutation_audit.py")
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    assert len({m.name for m in audit.MUTANTS}) == len(audit.MUTANTS)
    for m in audit.MUTANTS:
        assert (_ROOT / m.path).read_text(encoding="utf-8").count(m.search) == 1, m.name
        assert m.killers, m.name
        for node in m.killers:
            path, _, name = node.partition("::")
            text = (_ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name)}\(", text, re.M), node
