"""The recursive planner as it was before memoisation, kept as the slow
reference that the memoised planner and batched outcome branches must match
bit for bit. Every node is evaluated again on each path that reaches it, and
each joint outcome is scored in its own loop iteration.
"""

from functools import reduce
from itertools import product

import numpy as np

from beliefmesh.core import BeliefState, Categorical, GenerativeModel, Policy
from beliefmesh.planning import (
    DEFAULT_DEPTH,
    DEFAULT_PRUNE,
    NODE_BUDGET,
    BudgetExceededError,
    expected_free_energy,
    expected_states,
)


def _joint_weights(belief: BeliefState) -> np.ndarray:
    return reduce(np.multiply.outer, belief.arrays())


def _joint_actions(m: GenerativeModel) -> list[tuple[int, ...]]:
    return list(product(*(range(n) for n in m.num_controls)))


def _posterior_branches(
    m: GenerativeModel, q_next: BeliefState, prune_threshold: float
):
    """Joint-outcome branches from a predicted belief: (weight, next belief).

    Branches under the threshold are dropped and the rest renormalized; if
    nothing survives, the single most probable branch is kept.
    """
    w = _joint_weights(q_next)
    outcome_ranges = [range(d) for d in m.modality_dims]
    branches = []
    best = None
    for o in product(*outcome_ranges):
        like = np.ones(m.factor_dims)
        for mm, idx in enumerate(o):
            like = like * m.A[mm][idx]
        joint = w * like
        p_o = float(joint.sum())
        if p_o <= 0.0:
            continue
        posterior = joint / p_o
        marginals = []
        for f in range(m.num_factors):
            axes = tuple(ax for ax in range(m.num_factors) if ax != f)
            marginals.append(Categorical(posterior.sum(axis=axes) if axes else posterior))
        branch = (p_o, BeliefState(tuple(marginals)))
        if best is None or p_o > best[0]:
            best = branch
        if p_o >= prune_threshold and p_o > 0.0:
            branches.append(branch)
    if not branches:
        branches = [best]
    total = sum(p for p, _ in branches)
    return [(p / total, b) for p, b in branches]


def sophisticated_root_values(
    m: GenerativeModel,
    belief: BeliefState,
    depth: int = DEFAULT_DEPTH,
    prune_threshold: float = DEFAULT_PRUNE,
    node_budget: int = NODE_BUDGET,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Per-action values at the root of the recursive planner.

    value(b, d) = min_u [ G_one_step(b, u) + E_{q(o|b,u)}[ value(b|o, d-1) ] ]
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    actions = _joint_actions(m)
    budget = [node_budget]

    def action_value(b: BeliefState, u: tuple[int, ...], d: int) -> float:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError(f"planner exceeded {node_budget} node evaluations")
        pol = Policy((u,))
        g1 = expected_free_energy(m, b, pol).G
        if d == 1:
            return g1
        (q_next,) = expected_states(m, b, pol)
        expectation = 0.0
        for weight, b_next in _posterior_branches(m, q_next, prune_threshold):
            expectation += weight * min(
                action_value(b_next, u2, d - 1) for u2 in actions
            )
        return g1 + expectation

    values = np.array([action_value(belief, u, depth) for u in actions])
    return actions, values
