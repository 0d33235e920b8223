"""Config loading, strict key checking, and field validation."""

import dataclasses
import json

import pytest

from beliefmesh.config import (
    ConfigInvalidError,
    ExperimentConfig,
    config_from_dict,
    read_config_file,
)


def test_minimal_config_uses_documented_defaults():
    cfg = ExperimentConfig(scenario="tmaze")
    assert cfg.agents == 1
    assert cfg.steps == 2
    assert cfg.seed == 0
    assert cfg.k is None
    assert cfg.gamma == 16.0
    assert cfg.depth == 2
    assert cfg.prune_threshold == 1.0 / 16.0
    assert cfg.transport == "mem"
    assert cfg.out_dir is None


def test_agents_default_depends_on_the_scenario():
    assert ExperimentConfig(scenario="tmaze").agents == 1
    assert ExperimentConfig(scenario="elephant").agents == 3
    assert config_from_dict({"scenario": "elephant"}) == ExperimentConfig(
        scenario="elephant", agents=3
    )


def test_real_fields_are_stored_as_floats():
    cfg = ExperimentConfig(scenario="tmaze", gamma=4, prune_threshold=0)
    assert [type(v) for v in (cfg.gamma, cfg.prune_threshold, cfg.noise)] == [float] * 3
    assert cfg == ExperimentConfig(scenario="tmaze", gamma=4.0, prune_threshold=0.0)
    cfg = ExperimentConfig(scenario="elephant", noise=1)
    assert type(cfg.noise) is float
    assert cfg == ExperimentConfig(scenario="elephant", noise=1.0)


def test_config_is_frozen():
    cfg = ExperimentConfig(scenario="tmaze")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.steps = 5


def test_resolved_k_defaults_to_all_other_agents():
    cfg = ExperimentConfig(scenario="elephant", agents=4)
    assert cfg.resolved_k() == 3
    cfg = ExperimentConfig(scenario="elephant", agents=4, k=2)
    assert cfg.resolved_k() == 2
    assert ExperimentConfig(scenario="elephant", agents=4, k=0).resolved_k() == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": "labyrinth"},
        {"agents": 0},
        {"agents": True},
        {"steps": 0},
        {"seed": -1},
        {"k": -1},
        {"k": True},
        {"gamma": 0.0},
        {"gamma": -2.0},
        {"depth": 0},
        {"prune_threshold": 1.0},
        {"prune_threshold": -0.1},
        {"noise": -0.01},
        {"noise": 1.5},
        {"transport": "pigeon"},
        {"out_dir": 7},
    ],
)
def test_each_bad_field_is_rejected(overrides):
    base = dict(scenario="tmaze")
    base.update(overrides)
    with pytest.raises(ConfigInvalidError):
        ExperimentConfig(**base)


def test_elephant_needs_two_agents():
    with pytest.raises(ConfigInvalidError, match="at least 2"):
        ExperimentConfig(scenario="elephant", agents=1)


def test_k_cannot_exceed_available_sources():
    with pytest.raises(ConfigInvalidError, match="exceeds"):
        ExperimentConfig(scenario="elephant", agents=3, k=3)


def test_problem_texts():
    with pytest.raises(ConfigInvalidError) as err:
        ExperimentConfig(
            scenario="tmaze",
            agents=0,
            steps=True,
            seed=-1,
            k=-1,
            gamma=True,
            depth=1.5,
            prune_threshold="0",
            noise=2,
        )
    assert err.value.problems == [
        "agents must be a positive integer, got 0",
        "steps must be a positive integer, got True",
        "seed must be a non-negative integer, got -1",
        "k must be a non-negative integer or null, got -1",
        "gamma must be a positive number, got True",
        "depth must be a positive integer, got 1.5",
        "prune_threshold must lie in [0, 1), got '0'",
        "noise must lie in [0, 1], got 2",
    ]


@pytest.mark.parametrize(
    "fields, problems",
    [
        (dict(scenario="tmaze", agents=3), ["tmaze does not read agents: leave it at 1, got 3"]),
        (
            dict(scenario="tmaze", agents=2, k=1),
            [
                "tmaze does not read agents: leave it at 1, got 2",
                "tmaze does not read k: leave it at None, got 1",
            ],
        ),
        (dict(scenario="tmaze", k=0), ["tmaze does not read k: leave it at None, got 0"]),
        (dict(scenario="tmaze", noise=0), ["tmaze does not read noise: leave it at 0.1, got 0"]),
        (
            dict(scenario="tmaze", transport="socket"),
            ["tmaze does not read transport: leave it at 'mem', got 'socket'"],
        ),
        (
            dict(scenario="elephant", gamma=4),
            ["elephant does not read gamma: leave it at 16.0, got 4"],
        ),
        (
            dict(scenario="elephant", depth=3),
            ["elephant does not read depth: leave it at 2, got 3"],
        ),
        (
            dict(scenario="elephant", prune_threshold=0.0),
            ["elephant does not read prune_threshold: leave it at 0.0625, got 0.0"],
        ),
    ],
)
def test_a_field_the_scenario_does_not_read_must_keep_its_default(fields, problems):
    with pytest.raises(ConfigInvalidError) as err:
        ExperimentConfig(**fields)
    assert err.value.problems == problems


def test_unread_fields_at_their_defaults_are_accepted():
    ExperimentConfig(scenario="tmaze", agents=1, k=None, noise=0.1, transport="mem")
    ExperimentConfig(scenario="elephant", gamma=16, depth=2, prune_threshold=1 / 16)


def test_error_lists_every_problem_at_once():
    with pytest.raises(ConfigInvalidError) as err:
        ExperimentConfig(scenario="nope", steps=0, gamma=-1.0)
    assert len(err.value.problems) == 3


class TestFromDict:
    def test_round_trip(self):
        cfg = ExperimentConfig(scenario="elephant", agents=3, steps=5, seed=9, k=2)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigInvalidError, match="unknown key 'sped'"):
            config_from_dict({"scenario": "tmaze", "sped": 3})
        with pytest.raises(ConfigInvalidError, match="unknown key 'share'"):
            config_from_dict({"scenario": "elephant", "share": False, "transport": "socket", "k": 1})

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigInvalidError, match="scenario"):
            config_from_dict({"steps": 3})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigInvalidError, match="object"):
            config_from_dict(["tmaze"])

    def test_json_integers_accepted_for_float_fields(self):
        assert config_from_dict({"scenario": "tmaze", "gamma": 4}).gamma == 4.0
        assert config_from_dict({"scenario": "elephant", "noise": 0}).noise == 0.0

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigInvalidError):
            config_from_dict({"scenario": "tmaze", "gamma": True})


class TestLoadConfig:
    def test_load_happy_path(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": "elephant", "agents": 3, "steps": 4}))
        cfg = config_from_dict(read_config_file(path))
        assert cfg.scenario == "elephant"
        assert cfg.agents == 3
        assert cfg.steps == 4

    def test_load_rejects_broken_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalidError, match="JSON"):
            config_from_dict(read_config_file(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="cannot read"):
            config_from_dict(read_config_file(tmp_path / "absent.json"))

    def test_load_rejects_undecodable_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigInvalidError, match="cannot read"):
            config_from_dict(read_config_file(path))

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigInvalidError, match="JSON object"):
            config_from_dict(read_config_file(path))

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scenario": "tmaze", "font": "comic sans"}))
        with pytest.raises(ConfigInvalidError, match="unknown key"):
            config_from_dict(read_config_file(path))
