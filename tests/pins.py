"""Pinned stdout, committed under tests/golden/ and compared byte for byte.

``PINNED`` is the one table of pinned commands: each golden file, with the
arguments of the child ``python`` whose stdout it holds (``-m covop`` and a
command line, or a demo script).  ``tests/test_cli.py`` and
``tests/test_demos.py`` read it.  ``python3 tests/pins.py`` rewrites every
golden file from this checkout, so a re-pin shows as a diff of the reports
or lines that moved.  On a mismatch the assertion names the first report of
a verification document that differs, with its old and new max_rel_err, or
the first differing line of any other text.
"""

import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: each golden file and the arguments of the child python whose stdout it holds
PINNED = {
    "verify_symbolic.json": ("-m", "covop", "verify", "--suite", "symbolic"),
    **{f"verify_{suite}_seed{seed}.json":
       ("-m", "covop", "verify", "--suite", suite, "--seed", seed)
       for suite in ("numeric", "ambient") for seed in ("0", "7", "11")},
    **{f"demo_{path.stem}.txt": (str(path),)
       for path in sorted((ROOT / "demos").glob("*.py"))},
}


def covop_argv(name):
    """The covop command line whose stdout the golden file name pins."""
    args = PINNED[name]
    if args[:2] != ("-m", "covop"):
        raise ValueError(f"{name} pins a script, not a covop command")
    return list(args[2:])


def first_difference(want, got):
    """Where the text got first departs from the text want."""
    try:
        old, new = json.loads(want)["reports"], json.loads(got)["reports"]
    except (ValueError, KeyError, TypeError):
        pass
    else:
        for k, (a, b) in enumerate(zip_longest(old, new, fillvalue={})):
            if a != b:
                return (f"report {k}: {a.get('name')} max_rel_err {a.get('max_rel_err')!r}"
                        f" -> {b.get('name')} max_rel_err {b.get('max_rel_err')!r}")
        return "every report is equal; the text around them differs"
    for k, (a, b) in enumerate(zip_longest(want.splitlines(), got.splitlines()), 1):
        if a != b:
            return f"line {k}: {a!r} -> {b!r}"
    return "the lines are equal; the line ends differ"


def assert_golden(name, got):
    """got (bytes, or text written as UTF-8) is the file tests/golden/name."""
    if isinstance(got, str):
        got = got.encode("utf-8")
    want = (GOLDEN / name).read_bytes()
    assert got == want, (f"{name}: "
                         + first_difference(want.decode("utf-8"), got.decode("utf-8")))


def repin():
    """Rewrite every golden file with the stdout of its command, run by a
    child ``python`` on this checkout's source."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for name, args in PINNED.items():
        proc = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              check=True)
        (GOLDEN / name).write_bytes(proc.stdout)


if __name__ == "__main__":
    repin()
