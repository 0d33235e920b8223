"""Experiment configuration: one frozen dataclass, JSON in, strict validation."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .envs import DEFAULT_NOISE
from .planning import DEFAULT_DEPTH, DEFAULT_GAMMA, DEFAULT_PRUNE

SCENARIOS = ("tmaze", "elephant")
TRANSPORTS = ("mem", "socket")
# fields a scenario never reads, at the one value that says so: any other
# value would record a run that did not happen
UNREAD = {
    "tmaze": {"agents": 1, "k": None, "noise": DEFAULT_NOISE, "transport": "mem"},
    "elephant": {"gamma": DEFAULT_GAMMA, "depth": DEFAULT_DEPTH, "prune_threshold": DEFAULT_PRUNE},
}


class ConfigInvalidError(ValueError):
    """Raised with the full list of problems, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    agents: int | None = None  # None: 3 for elephant, else 1
    steps: int = 2
    seed: int = 0
    k: int | None = None  # sources each agent fuses: None every other agent, 0 none
    gamma: float = DEFAULT_GAMMA
    depth: int = DEFAULT_DEPTH
    prune_threshold: float = DEFAULT_PRUNE
    noise: float = DEFAULT_NOISE
    transport: str = "mem"
    out_dir: str | None = None

    def __post_init__(self):
        if self.agents is None:
            object.__setattr__(self, "agents", 3 if self.scenario == "elephant" else 1)
        problems = validate_config_fields(self)
        if problems:
            raise ConfigInvalidError(problems)
        # one numeric form per value, so equal configs write equal manifests
        for name in ("gamma", "prune_threshold", "noise"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def resolved_k(self) -> int:
        return self.agents - 1 if self.k is None else self.k

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _is_int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config_fields(cfg) -> list[str]:
    problems = []
    if cfg.scenario not in SCENARIOS:
        problems.append(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if not _is_int_at_least(cfg.agents, 1):
        problems.append(f"agents must be a positive integer, got {cfg.agents!r}")
    elif cfg.scenario == "elephant" and cfg.agents < 2:
        problems.append("elephant scenario needs at least 2 agents")
    if not _is_int_at_least(cfg.steps, 1):
        problems.append(f"steps must be a positive integer, got {cfg.steps!r}")
    if not _is_int_at_least(cfg.seed, 0):
        problems.append(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.k is not None:
        if not _is_int_at_least(cfg.k, 0):
            problems.append(f"k must be a non-negative integer or null, got {cfg.k!r}")
        elif isinstance(cfg.agents, int) and cfg.k > max(cfg.agents - 1, 0):
            problems.append(f"k={cfg.k} exceeds the {max(cfg.agents - 1, 0)} available sources")
    if not _is_real(cfg.gamma) or not cfg.gamma > 0:
        problems.append(f"gamma must be a positive number, got {cfg.gamma!r}")
    if not _is_int_at_least(cfg.depth, 1):
        problems.append(f"depth must be a positive integer, got {cfg.depth!r}")
    if not _is_real(cfg.prune_threshold) or not (0.0 <= cfg.prune_threshold < 1.0):
        problems.append(f"prune_threshold must lie in [0, 1), got {cfg.prune_threshold!r}")
    if not _is_real(cfg.noise) or not (0.0 <= cfg.noise <= 1.0):
        problems.append(f"noise must lie in [0, 1], got {cfg.noise!r}")
    if cfg.transport not in TRANSPORTS:
        problems.append(f"transport must be one of {TRANSPORTS}, got {cfg.transport!r}")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        problems.append(f"out_dir must be a path string or null, got {cfg.out_dir!r}")
    if not problems:
        for name, unread in UNREAD[cfg.scenario].items():
            if getattr(cfg, name) != unread:
                problems.append(f"{cfg.scenario} does not read {name}: leave it at {unread!r}, "
                                f"got {getattr(cfg, name)!r}")
    return problems


FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigInvalidError([f"configuration must be an object, got {type(data).__name__}"])
    unknown = sorted(set(data) - FIELD_NAMES)
    if unknown:
        raise ConfigInvalidError([f"unknown key {k!r}" for k in unknown])
    if "scenario" not in data:
        raise ConfigInvalidError(["missing required key 'scenario'"])
    return ExperimentConfig(**data)


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
