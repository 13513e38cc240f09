"""The benchmark's self-test runs against this checkout.

`perfbench/` reads the package's public API.  Running its self-test here
makes a change to an API the benchmark reads fail in the test suite, not
only in a benchmark run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    match = re.search(r"^(\d+) of (\d+) checks behave$", proc.stdout, re.MULTILINE)
    assert match, proc.stdout
    assert match.group(1) == match.group(2)
