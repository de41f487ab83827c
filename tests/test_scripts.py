"""Smoke tests: the figure scripts in scripts/ run and write a CSV."""

# Standard libraries
import csv
import io
import os
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
