"""Action selection by expected free energy.

One-step and multi-step policy scoring (risk + ambiguity, equal by identity to
negative information gain minus pragmatic value), policy posteriors, and a
depth-limited recursive planner that asks what the agent will believe after
each possible observation, evaluating each distinct node once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    BeliefState,
    Categorical,
    DimMismatchError,
    GenerativeModel,
    Policy,
    conditional_entropies,
    entropy,
    kl_divergence,
    log_stable,
    normalized_exp,
)
from .inference import _expected_joint, _marginals

DEFAULT_GAMMA = 16.0
DEFAULT_DEPTH = 2
DEFAULT_PRUNE = 1.0 / 16.0
NODE_BUDGET = 10**5


class BadControlIndexError(ValueError):
    """Policy names a control outside a factor's control range."""


class NonPositiveGammaError(ValueError):
    """Policy precision must be > 0."""


class BudgetExceededError(RuntimeError):
    """Recursive planner exceeded its node budget."""


@dataclass(frozen=True)
class EFEReport:
    """Two decompositions of one quantity:
    G == risk + ambiguity == -info_gain - pragmatic."""

    G: float
    risk: float
    ambiguity: float
    info_gain: float
    pragmatic: float


def _clamp_nonneg(x: float) -> float:
    # KL and entropy sums may come out a hair under zero in floats
    return 0.0 if -1e-9 < x < 0.0 else x


def expected_states(
    m: GenerativeModel, belief: BeliefState, policy: Policy
) -> list[BeliefState]:
    """Forward rollout: q_{t+1,f} = B_f[:, :, u_{t,f}] @ q_{t,f}."""
    if policy.num_factors != m.num_factors:
        raise DimMismatchError(
            f"policy controls {policy.num_factors} factors, model has {m.num_factors}"
        )
    n_controls = m.num_controls
    qs = list(belief.arrays())
    out = []
    for step in policy.controls:
        for f, u in enumerate(step):
            if not (0 <= u < n_controls[f]):
                raise BadControlIndexError(
                    f"control {u} for factor {f} outside [0, {n_controls[f]})"
                )
            qs[f] = m.B[f][:, :, u] @ qs[f]
        out.append(BeliefState(tuple(Categorical(q) for q in qs)))
    return out


def expected_free_energy(
    m: GenerativeModel, belief: BeliefState, policy: Policy
) -> EFEReport:
    """Sum over policy timesteps and modalities of risk, ambiguity,
    information gain and pragmatic value.

    The information gain is the mutual information between states and
    outcomes, H[q(o)] - E_q[H[p(o|s)]]: the entropy of the predicted outcome
    less the ambiguity, both already needed for risk and ambiguity.
    """
    rollout = expected_states(m, belief, policy)
    preferred = [normalized_exp(c) for c in m.C]

    risk = ambiguity = info_gain = pragmatic = 0.0
    for q_t in rollout:
        w = _expected_joint(q_t.arrays())
        for mm, a in enumerate(m.A):
            axes_s = (list(range(1, a.ndim)), list(range(m.num_factors)))
            q_o = np.tensordot(a, w, axes=axes_s)
            h = float((w * conditional_entropies(a)).sum())
            risk += kl_divergence(q_o, preferred[mm])
            ambiguity += h
            info_gain += entropy(q_o) - h
            pragmatic += float((q_o * np.log(preferred[mm])).sum())
    return EFEReport(
        G=float(risk + ambiguity),
        risk=_clamp_nonneg(float(risk)),
        ambiguity=_clamp_nonneg(float(ambiguity)),
        info_gain=_clamp_nonneg(float(info_gain)),
        pragmatic=float(pragmatic),
    )


def policy_posterior(G: Sequence[float], E: Categorical, gamma: float) -> Categorical:
    """q(pi) proportional to exp(ln E - gamma * G)."""
    g = np.asarray(G, dtype=np.float64)
    if gamma <= 0:
        raise NonPositiveGammaError(f"gamma must be > 0, got {gamma}")
    if g.shape != (E.dim,):
        raise DimMismatchError(f"{g.shape[0]} G values for {E.dim} policies")
    return Categorical(normalized_exp(log_stable(E.probs) - gamma * g))


def _joint_actions(m: GenerativeModel) -> list[tuple[int, ...]]:
    return list(product(*(range(n) for n in m.num_controls)))


def _posterior_branches(
    m: GenerativeModel, q_next: BeliefState, prune_threshold: float
):
    """Joint-outcome branches from a predicted belief: (weight, next belief),
    every outcome scored at once, in itertools.product order.

    Branches under the threshold are dropped and the rest renormalized; if
    nothing survives, the single most probable branch is kept.
    """
    like = m.A[0]
    for a in m.A[1:]:
        like = (like[:, None] * a[None]).reshape((-1,) + m.factor_dims)
    # C order fixes the order in which the sums below add elements, keeping
    # weights and marginals bit-identical to scoring one outcome at a time
    joint = np.multiply(_expected_joint(q_next.arrays()), like, order="C")
    p_o = joint.reshape(len(joint), -1).sum(axis=1)
    kept = [o for o in np.flatnonzero(p_o > 0.0) if p_o[o] >= prune_threshold]
    if not kept:
        kept = [int(np.argmax(p_o))]
    p = p_o[kept]
    posterior = joint[kept] / p.reshape((-1,) + (1,) * m.num_factors)
    marginals = _marginals(posterior, batch=1)
    weights = p.tolist()
    total = sum(weights)
    return [
        (w / total, BeliefState(tuple(Categorical(mg[k]) for mg in marginals)))
        for k, w in enumerate(weights)
    ]


def _belief_key(b: BeliefState) -> bytes:
    return b"".join(q.tobytes() for q in b.arrays())


def sophisticated_root_values(
    m: GenerativeModel,
    belief: BeliefState,
    depth: int = DEFAULT_DEPTH,
    prune_threshold: float = DEFAULT_PRUNE,
) -> tuple[list[tuple[int, ...]], np.ndarray, list[EFEReport]]:
    """Per-action values at the root of the recursive planner, and the
    one-step EFE report of each root action.

    value(b, u, d) = G_one_step(b, u) + E_{q(o|b,u)}[ min_u' value(b|o, u', d-1) ]

    Within one call, each (belief, action) node, the belief known by the exact
    bytes of its factor arrays, computes its EFE report and its branches once,
    and each (belief, action, depth) value is computed once. NODE_BUDGET
    caps those distinct values; repeat visits are free.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    actions = _joint_actions(m)
    nodes: dict[tuple[bytes, tuple[int, ...]], list] = {}
    values: dict[tuple[bytes, tuple[int, ...], int], float] = {}
    evaluated = 0

    def action_value(key: bytes, b: BeliefState, u: tuple[int, ...], d: int) -> float:
        nonlocal evaluated
        value = values.get((key, u, d))
        if value is not None:
            return value
        evaluated += 1
        if evaluated > NODE_BUDGET:
            raise BudgetExceededError(f"planner exceeded {NODE_BUDGET} node evaluations")
        node = nodes.get((key, u))
        if node is None:
            node = nodes[key, u] = [expected_free_energy(m, b, Policy((u,))), None]
        value = node[0].G
        if d > 1:
            if node[1] is None:
                (q_next,) = expected_states(m, b, Policy((u,)))
                node[1] = [
                    (weight, _belief_key(child), child)
                    for weight, child in _posterior_branches(m, q_next, prune_threshold)
                ]
            value += sum(
                weight * min(action_value(child_key, child, u2, d - 1) for u2 in actions)
                for weight, child_key, child in node[1]
            )
        values[key, u, d] = value
        return value

    root = _belief_key(belief)
    root_values = np.array([action_value(root, belief, u, depth) for u in actions])
    return actions, root_values, [nodes[root, u][0] for u in actions]
