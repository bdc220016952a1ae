import os
from pathlib import Path

import pytest

import covop


@pytest.fixture
def covop_env():
    """Environment for a child ``python`` that must import this checkout's
    covop: its source directory goes first on PYTHONPATH."""
    src = str(Path(covop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
