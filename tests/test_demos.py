"""Every demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, covop_env):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
