"""Every demo script runs to completion against this checkout, the symbol
demo prints its pinned text, and the README's examples match the package."""

import hashlib
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from covop.cli import build_parser

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


# stdout sha256 of the demos whose text is pinned byte for byte: the symbol
# demo prints coefficients and kernels through SymCoeff.pretty and HTerm.pretty
PINNED = {"02_symbol_factorization.py":
          "08ae7a4e31ca76209b21357fbb37a85cf0803429422ede4f66f48ee31609c3d0"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, covop_env):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          env={**covop_env, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    if path.name in PINNED:
        assert hashlib.sha256(proc.stdout).hexdigest() == PINNED[path.name]


def test_readme_example_prints_what_its_comment_says(covop_env):
    # the README's Python block runs, and the line that juhl_coeffs(3, 2)
    # prints is the one its comment shows
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    call = "print(juhl_coeffs(3, 2).pretty())"
    comment = next(line for line in block.splitlines() if line.startswith(call))
    want = comment.split("# ", 1)[1]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, encoding="utf-8",
                          env={**covop_env, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == want


def test_readme_command_lines_parse():
    # every `covop ...` line of the README's command-line block is a valid
    # invocation of the parser; the commands are parsed, not run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("covop ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
