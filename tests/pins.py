"""Pinned stdout, committed under tests/golden/ and compared byte for byte.

A re-pin rewrites a golden file, so it shows as a diff of the reports or
lines that moved.  On a mismatch the assertion names the first report of a
verification document that differs, with its old and new max_rel_err, or
the first differing line of any other text.
"""

import json
from itertools import zip_longest
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


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
