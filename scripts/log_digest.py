#!/usr/bin/env python3
"""Digest of the CSV logs and manifest of a fixed set of runs, one line per run:
the run's label, its config, a sha256 over its CSVs and one over its manifest.

A change that must leave every log byte-identical is checked by running this
at both commits and comparing the output; a change to the manifest alone
leaves the CSV column as it was:

    python3 scripts/log_digest.py > after.txt
    python3 scripts/log_digest.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The runs: tmaze at depth 1-4, seeds 0-7, 3 steps, with the default config,
gamma=1.0 and prune_threshold=0.0, plus the flat-preference model of
tmaze_sweep.py; elephant on the mem bus, 4 steps, n = 3, 7 and 12 with k from
1 to n - 1, and n = 3, 7, 12 and 64 with k=None and with k=0 (no sharing);
elephant on the socket transport, 4 steps, n = 3 and 12 with k=None. Seeds
0-1 for elephant.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def runs(ExperimentConfig):
    for depth in (1, 2, 3, 4):
        for seed in range(8):
            for extra in ({}, {"gamma": 1.0}, {"prune_threshold": 0.0}):
                yield ExperimentConfig(scenario="tmaze", steps=3, seed=seed, depth=depth, **extra), None
            yield ExperimentConfig(scenario="tmaze", steps=3, seed=seed, depth=depth), "flat"
    for n, ks in ((3, range(1, 3)), (7, range(1, 7)), (12, range(1, 12)), (64, ())):
        for seed in range(2):
            for k in (*ks, None, 0):
                yield ExperimentConfig(scenario="elephant", agents=n, steps=4, seed=seed, k=k), None
    for n in (3, 12):
        for seed in range(2):
            yield ExperimentConfig(scenario="elephant", agents=n, steps=4, seed=seed, transport="socket"), None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory whose beliefmesh to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))

    from beliefmesh.config import ExperimentConfig
    from beliefmesh.envs import build_tmaze_model
    from beliefmesh.harness import run_collective, run_single_agent, write_logs

    with tempfile.TemporaryDirectory() as tmp:
        for i, (cfg, variant) in enumerate(runs(ExperimentConfig)):
            if cfg.scenario == "tmaze":
                model = build_tmaze_model(preferences=[0.0, 0.0, 0.0]) if variant else None
                result = run_single_agent(cfg, model=model)
            else:
                result = run_collective(cfg)
            csvs, manifest = hashlib.sha256(), hashlib.sha256()
            for path in sorted(write_logs(result, Path(tmp) / str(i))):
                digest = csvs if path.suffix == ".csv" else manifest
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            fields = {k: v for k, v in cfg.to_dict().items() if k != "out_dir"}
            print(variant or "default", fields, csvs.hexdigest(), manifest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
