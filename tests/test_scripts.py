"""The example scripts run from a checkout, without an install, on their
smallest settings; the log digest runs on four configs, and its output
matches the pinned copy in tests/log_digest.txt."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PINNED_DIGEST = Path(__file__).resolve().parent / "log_digest.txt"


def load_log_digest():
    spec = importlib.util.spec_from_file_location("log_digest", SCRIPTS / "log_digest.py")
    log_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(log_digest)
    return log_digest


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


def test_log_digest_prints_one_stable_line_per_run(monkeypatch, capsys):
    log_digest = load_log_digest()

    def runs(ExperimentConfig):
        yield ExperimentConfig(scenario="tmaze", steps=2, seed=0, depth=1), None
        yield ExperimentConfig(scenario="tmaze", steps=2, seed=1, depth=2), "flat"
        yield ExperimentConfig(scenario="elephant", agents=3, steps=2, seed=0), None
        yield ExperimentConfig(scenario="elephant", agents=3, steps=2, seed=0, k=0), None

    monkeypatch.setattr(log_digest, "runs", runs)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends --src
    outputs = []
    for _ in range(2):
        assert log_digest.main([]) == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in lines] == ["default", "flat", "default", "default"]
    # a sha256 over the CSVs, then one over the manifest, distinct for each run
    for column in (-2, -1):
        assert len({line.split()[column] for line in lines}) == 4
        assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[column]) for line in lines)


def test_log_digest_matches_pinned_output(monkeypatch, capsys):
    """Every digest run, the n = 64 ones included, gives the pinned line.

    The pin's first line names the Python and numpy versions it was made
    under; the manifests embed both, so under others the comparison skips.
    A change meant to alter the logs re-pins with
    (echo "# python X.Y.Z numpy A.B.C"; python3 scripts/log_digest.py) > tests/log_digest.txt
    """
    header, *pinned = PINNED_DIGEST.read_text(encoding="utf-8").splitlines()
    want_versions = re.fullmatch(r"# python (\S+) numpy (\S+)", header).groups()
    have_versions = (".".join(str(v) for v in sys.version_info[:3]), np.__version__)
    if have_versions != want_versions:
        pytest.skip(
            f"pinned under python {want_versions[0]}, numpy {want_versions[1]}; "
            f"running python {have_versions[0]}, numpy {have_versions[1]}"
        )

    log_digest = load_log_digest()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends --src
    assert log_digest.main([]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(pinned) == 186
    assert got == pinned
