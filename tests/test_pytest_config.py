"""The repo's pytest configuration reports a failing hypothesis test and runs on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''\
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    """A failing ``@given`` test is reported as failed, and the test after it still runs.

    Reporting the failure writes a patch through libcst, where it is installed; its
    import warns, which the configured filters must not turn into an internal error."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "2 failed" in out and "INTERNALERROR" not in out, out
