"""The repo's pytest settings keep a session running past a failing test.

Warnings are errors (``filterwarnings = ["error"]``), but one deprecation
that hypothesis's own pytest hook raises on a failure is ignored: without
that entry, the first failing ``@given`` test ends the whole session in
INTERNALERROR and the tests after it never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 0


def test_own_deprecation_warning():
    warnings.warn("old", DeprecationWarning)
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    """A failing ``@given`` test fails alone, and a warning the test's own
    code raises is still an error."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed" in out and "passed" not in out, out
