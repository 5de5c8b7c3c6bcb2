"""Smoke test: every demo script runs to completion against the package and
reports no violation.

The demos import only public names, so this catches a removed or renamed
export that the unit tests would not notice.  Marked acceptance because the
five scripts take about 12 s together.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.acceptance

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    # the statements are proven, so no demo may report a counterexample
    assert "-> violation" not in result.stdout
    assert "VIOLATION" not in result.stdout
    counts = re.findall(r"violations[:=] ?(\d+)", result.stdout)
    assert all(count == "0" for count in counts), counts
