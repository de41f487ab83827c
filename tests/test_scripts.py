"""Smoke tests: the figure scripts in scripts/ run and write a CSV, and the
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
import pytest

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
