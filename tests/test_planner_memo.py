"""The memoised recursive planner and its batched outcome branches against the
per-path reference in planner_reference.py: root values, actions, branch
weights and beliefs, and whole tmaze logs must match bit for bit."""

from itertools import product

import numpy as np
import pytest

import planner_reference as reference
from beliefmesh import harness, planning
from beliefmesh.config import ExperimentConfig
from beliefmesh.core import Policy
from beliefmesh.envs import build_tmaze_model
from beliefmesh.harness import run_single_agent, write_logs
from beliefmesh.planning import (
    BudgetExceededError,
    _posterior_branches,
    expected_free_energy,
    expected_states,
    sophisticated_root_values,
)
from modelgen import random_belief, random_model

THRESHOLDS = (0.0, 1.0 / 16.0, 0.5)

# every (depth, threshold, factors, modalities) once, then more models at the
# cheaper depths; an unpruned depth-3 tree costs the reference up to a second
CASES = list(product((1, 2, 3), THRESHOLDS, (1, 2), (1, 2, 3)))
CASES += [(1 + i % 2, THRESHOLDS[i % 3], 1 + i % 2, 1 + i % 3) for i in range(162)]


def belief_bytes(b) -> bytes:
    return b"".join(q.tobytes() for q in b.arrays())


def tree_nodes(m, belief, depth, prune_threshold):
    """(distinct (belief, action, depth) nodes, nodes of the full tree), by
    walking the tree with the reference branches."""
    actions = list(product(*(range(n) for n in m.num_controls)))
    seen = set()
    visits = 0

    def visit(b, u, d):
        nonlocal visits
        visits += 1
        seen.add((belief_bytes(b), u, d))
        if d > 1:
            (q_next,) = expected_states(m, b, Policy((u,)))
            for _, child in reference._posterior_branches(m, q_next, prune_threshold):
                for u2 in actions:
                    visit(child, u2, d - 1)

    for u in actions:
        visit(belief, u, depth)
    return len(seen), visits


def test_root_values_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(61)
    for depth, threshold, factors, modalities in CASES:
        m = random_model(rng, num_factors=factors, num_modalities=modalities, max_outcomes=2)
        b = random_belief(rng, m)
        ref_actions, ref_values = reference.sophisticated_root_values(m, b, depth, threshold)
        actions, values, _ = sophisticated_root_values(m, b, depth, threshold)
        assert actions == ref_actions
        assert np.array_equal(values, ref_values), (depth, threshold, m.factor_dims)


def test_branches_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(67)
    for _, threshold, factors, modalities in CASES[:54]:
        m = random_model(rng, num_factors=factors, num_modalities=modalities)
        (q_next,) = expected_states(m, random_belief(rng, m), m.policies[-1])
        expected = reference._posterior_branches(m, q_next, threshold)
        got = _posterior_branches(m, q_next, threshold)
        assert [w for w, _ in got] == [w for w, _ in expected]
        assert [belief_bytes(b) for _, b in got] == [belief_bytes(b) for _, b in expected]


def test_all_pruned_keeps_the_most_probable_branch():
    rng = np.random.default_rng(71)
    m = random_model(rng, num_factors=2, num_modalities=3, max_outcomes=3)
    (q_next,) = expected_states(m, random_belief(rng, m), m.policies[0])
    assert max(w for w, _ in reference._posterior_branches(m, q_next, 0.0)) < 0.5
    (branch,) = _posterior_branches(m, q_next, 0.5)
    (expected,) = reference._posterior_branches(m, q_next, 0.5)
    assert branch[0] == 1.0
    assert belief_bytes(branch[1]) == belief_bytes(expected[1])


class TestNodeBudget:
    """NODE_BUDGET counts distinct (belief, action, depth) nodes; repeats are free."""

    def setup_method(self):
        self.m = build_tmaze_model()
        self.belief = self.m.initial_belief()
        self.distinct, self.visits = tree_nodes(self.m, self.belief, 3, 1.0 / 16.0)

    def test_the_tmaze_tree_revisits_nodes(self):
        assert self.visits > self.distinct

    def test_budget_of_exactly_the_distinct_nodes_succeeds(self, monkeypatch):
        monkeypatch.setattr(planning, "NODE_BUDGET", self.distinct)
        actions, values, _ = sophisticated_root_values(self.m, self.belief, depth=3)
        ref_actions, ref_values = reference.sophisticated_root_values(
            self.m, self.belief, depth=3
        )
        assert actions == ref_actions and np.array_equal(values, ref_values)

    def test_one_node_fewer_raises(self, monkeypatch):
        monkeypatch.setattr(planning, "NODE_BUDGET", self.distinct - 1)
        with pytest.raises(BudgetExceededError):
            sophisticated_root_values(self.m, self.belief, depth=3)


def test_tmaze_logs_match_the_reference_planner(tmp_path, monkeypatch):
    for seed in range(5):
        cfg = ExperimentConfig(scenario="tmaze", steps=2, seed=seed, depth=4)
        write_logs(run_single_agent(cfg), tmp_path / f"new{seed}")
    calls = []

    def counted_reference(m, belief, **kwargs):
        # the reference returns no reports; score each root action directly
        calls.append(1)
        actions, values = reference.sophisticated_root_values(m, belief, **kwargs)
        return actions, values, [expected_free_energy(m, belief, Policy((u,))) for u in actions]

    monkeypatch.setattr(harness, "sophisticated_root_values", counted_reference)
    for seed in range(5):
        cfg = ExperimentConfig(scenario="tmaze", steps=2, seed=seed, depth=4)
        write_logs(run_single_agent(cfg), tmp_path / f"ref{seed}")
        for name in ("agent0.csv", "manifest.json"):
            new = (tmp_path / f"new{seed}" / name).read_bytes()
            assert new == (tmp_path / f"ref{seed}" / name).read_bytes(), (seed, name)
    assert len(calls) == 10
