"""The repo's pytest configuration reports hypothesis failures normally.

``pytest.ini`` turns every warning into an error.  Hypothesis's failure
report imports modules that may warn on import; such a warning must not
abort the session before the falsifying example is printed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).parent.parent / "pytest.ini"

ALWAYS_FAILS = '''\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_always_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    shutil.copy(PYTEST_INI, tmp_path / "pytest.ini")
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output[-2000:]
    assert "INTERNALERROR" not in output, output[-2000:]
    assert "Falsifying example" in output, output[-2000:]
