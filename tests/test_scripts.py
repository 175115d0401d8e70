"""Smoke test: every bundled script runs to completion on its defaults."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("run_basic.py", ["scenarios/dbf_basic.json", "-o", "{out}"]),
    ("sweep_eta.py", []),
    ("convergence_study.py", []),
])
def test_script_exits_zero(tmp_path, script, args):
    cmd = [sys.executable, os.path.join(ROOT, "scripts", script)]
    cmd += [a.format(out=tmp_path / "out") for a in args]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
