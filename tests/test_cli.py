"""CLI behavior: flag precedence, exit codes, and the declared console-script entry point."""

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from beliefmesh.cli import build_parser, main
from beliefmesh.config import ExperimentConfig


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestExitCodes:
    def test_success_returns_zero(self, tmp_path, capsys):
        rc = main(["run", "tmaze", "--steps", "2", "--seed", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed tmaze" in out
        assert "agent0.csv" in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "labyrinth"])
        assert exc.value.code == 2

    def test_invalid_field_returns_two(self, capsys):
        rc = main(["run", "tmaze", "--gamma", "0"])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_bad_config_file_returns_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"scenario": "tmaze", "speed": 11}))
        rc = main(["run", "tmaze", "--config", str(cfg)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_returns_two(self, tmp_path, capsys):
        rc = main(["run", "tmaze", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_runtime_failure_returns_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the out dir should go")
        rc = main(["run", "tmaze", "--steps", "1", "--out", str(blocker)])
        assert rc == 1
        assert "beliefmesh:" in capsys.readouterr().err


class TestPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"scenario": "tmaze", "steps": 4, "seed": 9}))
        out = tmp_path / "out"
        rc = main(
            ["run", "tmaze", "--config", str(cfg), "--steps", "2", "--out", str(out)]
        )
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["config"]["steps"] == 2  # flag wins
        assert manifest["config"]["seed"] == 9  # file survives where not overridden

    def test_positional_scenario_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"scenario": "elephant", "agents": 3}))
        out = tmp_path / "out"
        rc = main(["run", "tmaze", "--config", str(cfg), "--steps", "1", "--out", str(out)])
        assert rc == 2
        assert "tmaze does not read agents" in capsys.readouterr().err
        assert not out.exists()

    def test_no_share_flag(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "elephant", "--steps", "2", "--k", "0", "--out", str(out)])
        assert rc == 0
        assert read_manifest(out)["config"]["k"] == 0

    def test_elephant_defaults_to_three_agents(self, tmp_path, capsys):
        rc = main(["run", "elephant", "--steps", "1"])
        assert rc == 0
        assert "agents=3" in capsys.readouterr().out

    def test_every_run_flag_names_a_config_field(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "config"}
        assert dests <= {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "out_dir" in dests


class TestOutput:
    def test_elephant_reports_final_synchrony(self, capsys):
        rc = main(["run", "elephant", "--steps", "2", "--seed", "0", "--noise", "0"])
        assert rc == 0
        assert "final mean pairwise synchrony" in capsys.readouterr().out

    def test_tmaze_reports_actions_and_outcome(self, capsys):
        rc = main(["run", "tmaze", "--steps", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "actions=3,1" in out
        assert "reward_side=0" in out

    def test_lists_only_the_files_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "older").mkdir(parents=True)
        for name in ("notes.txt", "agent3.csv", "agent4.csv"):
            (out / name).write_text("left by someone else")
        rc = main(["run", "elephant", "--steps", "1", "--out", str(out)])
        assert rc == 0
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
        names = ("agent0.csv", "agent1.csv", "agent2.csv", "manifest.json")
        assert wrote == [f"wrote {out / name}" for name in names]

    def test_socket_transport_runs_from_the_cli(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "elephant", "--steps", "2", "--transport", "socket", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "agent2.csv").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "beliefmesh", "run", "tmaze", "--steps", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "completed tmaze" in proc.stdout


def test_console_script_is_installed():
    # Calls the [project.scripts] entry the way the installed wrapper does,
    # so the test needs no install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["beliefmesh"]
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name='beliefmesh', value={target!r}, group='console_scripts')\n"
        "main = ep.load()\n"
        "sys.argv = ['beliefmesh', 'run', 'tmaze', '--steps', '1', '--seed', '0']\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "completed tmaze" in proc.stdout
