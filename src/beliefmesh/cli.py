"""Command line front end.

    beliefmesh run tmaze --steps 2 --seed 1 --out runs/demo
    beliefmesh run elephant --agents 3 --steps 5 --k 0 --transport socket

precedence: dataclass defaults < --config file < explicit flags.
Exit codes: 0 success, 2 bad configuration or usage, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    FIELD_NAMES,
    SCENARIOS,
    TRANSPORTS,
    ConfigInvalidError,
    ExperimentConfig,
    config_from_dict,
    read_config_file,
)
from .harness import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefmesh",
        description="multi-agent active inference experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and optionally write logs")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("--agents", type=int, help="number of agents")
    run.add_argument("--steps", type=int, help="environment steps / sharing rounds")
    run.add_argument("--seed", type=int, help="seed for every source of randomness")
    run.add_argument("--k", type=int, help="sources fused per agent per round (0: none)")
    run.add_argument("--gamma", type=float, help="action precision")
    run.add_argument("--depth", type=int, help="planning horizon")
    run.add_argument("--noise", type=float, help="observation confusion probability")
    run.add_argument("--transport", choices=TRANSPORTS)
    run.add_argument(
        "--out", dest="out_dir", metavar="DIR", help="directory for CSV logs and manifest"
    )
    run.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file values, then every flag given; a flag's dest is its field."""
    data = {} if args.config is None else read_config_file(args.config)
    data.update((k, v) for k, v in vars(args).items() if k in FIELD_NAMES and v is not None)
    return config_from_dict(data)


def _summarize(result, cfg: ExperimentConfig) -> str:
    lines = [
        f"completed {cfg.scenario}: agents={cfg.agents} steps={cfg.steps} seed={cfg.seed}"
    ]
    if cfg.scenario == "tmaze":
        lines.append(
            "actions=" + ",".join(str(a) for a in result.extras["actions"])
            + f" reward_side={result.extras['reward_side']}"
            + f" final_location={result.extras['final_location']}"
        )
    if result.synchrony_series:
        lines.append(
            f"final mean pairwise synchrony: {result.synchrony_series[-1]!r}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _assemble_config(args)
    except ConfigInvalidError as exc:
        print(f"beliefmesh: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
        print(_summarize(result, cfg))
        for path in result.logs:
            print(f"wrote {path}")
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"beliefmesh: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
