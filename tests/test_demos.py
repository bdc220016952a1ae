"""Every demo script runs to completion against this checkout and prints its
pinned text (tests/golden/demo_*.txt), and the README's examples match the package."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from covop.cli import build_parser
from pins import PINNED, assert_golden

#: the golden files of the demo scripts, each pinned by its script
DEMOS = [name for name in PINNED if name.startswith("demo_")]


@pytest.mark.parametrize("name", DEMOS, ids=lambda name: Path(PINNED[name][0]).name)
def test_demo_runs(name, covop_env):
    proc = subprocess.run([sys.executable, *PINNED[name]], capture_output=True,
                          env={**covop_env, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    # pinned byte for byte: the family demo prints the exact classes and
    # tangential coefficients, the symbol demo coefficients and kernels, and
    # the covariance and ambient demos seeded errors of the float checks
    assert_golden(name, proc.stdout)


def test_readme_example_prints_what_its_comment_says(covop_env):
    # the README's Python block runs, and the line that juhl_coeffs(3, 2)
    # prints is the one its comment shows
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    call = "print(juhl_coeffs(3, 2))"
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
