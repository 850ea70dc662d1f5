"""The repository's pytest settings, applied to a throwaway test in a child pytest."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # On a failure hypothesis may import libcst, and that import warns of a
    # deprecation in a third-party package; the warning filters must still
    # let the falsifying example print, not end the run in an internal error.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "Falsifying example: test_fails(" in output
