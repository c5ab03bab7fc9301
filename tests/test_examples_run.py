"""Integration smoke: every example script runs to completion.

Examples are user-facing documentation; a broken one is a broken
deliverable.  Each is executed in-process-like via subprocess with the
repo's interpreter and must exit 0 quickly.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "admission_control.py",
        "fpga_dimensioning.py",
        "placement_fragmentation.py",
    } <= names
