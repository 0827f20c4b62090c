"""The test configuration itself: its warning filters let every test run."""

import os
import subprocess
import sys

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Reporting a failing example imports libcst, whose import warns of a
    deprecation; the session must go on to the next test rather than stop
    with an internal error.  The probe runs under the project's own pytest
    configuration, with its working directory (where hypothesis keeps its
    database and patch files) in tmp_path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(root, "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout + out.stderr
