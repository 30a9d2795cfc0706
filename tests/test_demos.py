"""Every demo script runs to completion and leaves the working tree as it found it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _status():
    """``git status --porcelain`` of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
    except FileNotFoundError:
        return None
    return out.stdout if out.returncode == 0 else None


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    before = _status()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert _status() == before
