"""The example scripts run from a checkout, without an install, on their
smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("tmaze_sweep.py", ["--runs", "2"], "cue visited first"),
        ("elephant_demo.py", ["--steps", "1"], "mean p(truth)"),
    ],
)
def test_script_runs_and_reports(tmp_path, script, args, line):
    # no PYTHONPATH: each script finds src/ on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
