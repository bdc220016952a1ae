"""The project's pytest configuration keeps a failing property test a plain
failure: the session goes on to the tests after it."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # a failing @given test makes Hypothesis import its patch writer; a
    # warning from that import must not become an INTERNALERROR under the
    # project's filterwarnings = error
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
