"""Experiment configuration: one frozen dataclass, JSON in, strict validation."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .planning import DEFAULT_DEPTH, DEFAULT_GAMMA, DEFAULT_PRUNE

SCENARIOS = ("tmaze", "elephant")
TRANSPORTS = ("mem", "socket")


class ConfigInvalidError(ValueError):
    """Raised with the full list of problems, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    agents: int = 1
    steps: int = 2
    seed: int = 0
    share: bool = True
    k: int | None = None  # None: use every other agent
    gamma: float = DEFAULT_GAMMA
    depth: int = DEFAULT_DEPTH
    prune_threshold: float = DEFAULT_PRUNE
    noise: float = 0.1
    transport: str = "mem"
    out_dir: str | None = None

    def __post_init__(self):
        problems = validate_config_fields(self)
        if problems:
            raise ConfigInvalidError(problems)

    def resolved_k(self) -> int:
        return self.agents - 1 if self.k is None else self.k

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def validate_config_fields(cfg) -> list[str]:
    problems = []
    if cfg.scenario not in SCENARIOS:
        problems.append(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if not isinstance(cfg.agents, int) or isinstance(cfg.agents, bool) or cfg.agents < 1:
        problems.append(f"agents must be a positive integer, got {cfg.agents!r}")
    elif cfg.scenario == "elephant" and cfg.agents < 2:
        problems.append("elephant scenario needs at least 2 agents")
    if not isinstance(cfg.steps, int) or isinstance(cfg.steps, bool) or cfg.steps < 1:
        problems.append(f"steps must be a positive integer, got {cfg.steps!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        problems.append(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if not isinstance(cfg.share, bool):
        problems.append(f"share must be a boolean, got {cfg.share!r}")
    if cfg.k is not None:
        if not isinstance(cfg.k, int) or isinstance(cfg.k, bool) or cfg.k < 1:
            problems.append(f"k must be a positive integer or null, got {cfg.k!r}")
        elif isinstance(cfg.agents, int) and cfg.k > max(cfg.agents - 1, 0):
            problems.append(f"k={cfg.k} exceeds the {max(cfg.agents - 1, 0)} available sources")
    if not isinstance(cfg.gamma, (int, float)) or isinstance(cfg.gamma, bool) or not cfg.gamma > 0:
        problems.append(f"gamma must be a positive number, got {cfg.gamma!r}")
    if not isinstance(cfg.depth, int) or isinstance(cfg.depth, bool) or cfg.depth < 1:
        problems.append(f"depth must be a positive integer, got {cfg.depth!r}")
    if (
        not isinstance(cfg.prune_threshold, (int, float))
        or isinstance(cfg.prune_threshold, bool)
        or not (0.0 <= cfg.prune_threshold < 1.0)
    ):
        problems.append(f"prune_threshold must lie in [0, 1), got {cfg.prune_threshold!r}")
    if (
        not isinstance(cfg.noise, (int, float))
        or isinstance(cfg.noise, bool)
        or not (0.0 <= cfg.noise <= 1.0)
    ):
        problems.append(f"noise must lie in [0, 1], got {cfg.noise!r}")
    if cfg.transport not in TRANSPORTS:
        problems.append(f"transport must be one of {TRANSPORTS}, got {cfg.transport!r}")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        problems.append(f"out_dir must be a path string or null, got {cfg.out_dir!r}")
    return problems


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigInvalidError([f"configuration must be an object, got {type(data).__name__}"])
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigInvalidError([f"unknown key {k!r}" for k in unknown])
    if "scenario" not in data:
        raise ConfigInvalidError(["missing required key 'scenario'"])
    clean = dict(data)
    if isinstance(clean.get("gamma"), int) and not isinstance(clean.get("gamma"), bool):
        clean["gamma"] = float(clean["gamma"])
    if isinstance(clean.get("noise"), int) and not isinstance(clean.get("noise"), bool):
        clean["noise"] = float(clean["noise"])
    if isinstance(clean.get("prune_threshold"), int) and not isinstance(
        clean.get("prune_threshold"), bool
    ):
        clean["prune_threshold"] = float(clean["prune_threshold"])
    return ExperimentConfig(**clean)


def read_config_file(path) -> dict:
    """The JSON object in a config file; any failure is a ConfigInvalidError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalidError([f"cannot read config file: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigInvalidError(["configuration must be a JSON object"])
    return data
