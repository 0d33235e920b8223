"""The benchmark's own checks: the metric names it prints are the ones
BENCHMARK.json declares, and its work counts repeat exactly for a fixed seed.

    python3 -m pytest perfbench

Each workload runs at its smallest size, twice at seed 0; ``--seconds 0.001``
ends each run (and each half of a traced run) after one episode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("tmaze-d4", "elephant-mem-n64", "elephant-socket-n2")

# metrics that count work, so must repeat exactly for a fixed seed
EXACT_SUFFIXES = (".calls", ".bytes", ".pairs")
EXACT_NAMES = {
    "planning.efe.distinct_share",
    "codec.decodes_per_frame",
    "inference.infer_states.iterations",
}

# per-episode counts at seed 0 on today's code
KNOWN_COUNTS = {
    "tmaze-d4": {"planning.efe.calls": 1014.0},
    "elephant-mem-n64": {"codec.decode.calls": 20160.0},
}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def names(section: str) -> set:
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_units(workload):
    out = bench(workload, 0)
    assert set(out["metrics"]) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert out["attempted"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert set(first["metrics"]) == names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    missing = [out["metrics"]["transport.frames_missing"]["value"] for out in (first, second)]
    if any(missing):
        pytest.xfail(f"socket startup frame loss: frames_missing {missing}")
    exact = {n for n in names("per_layer") if n.endswith(EXACT_SUFFIXES) or n in EXACT_NAMES}
    for name in sorted(exact):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name, value in KNOWN_COUNTS.get(workload, {}).items():
        assert first["metrics"][name]["value"] == value, name
