"""Reference source selection, synchrony and whole collective run: the loops
the collective used before it scored each distinct likelihood once and
computed synchrony with array ops, copied unchanged, the pairwise
Jensen-Shannon divergence they measure synchrony with, and a run of the
elephant room built on them.

Kept so the production routines can be checked against them with ==: the
same ids in the same order, the same float bit for bit, and the same log bytes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from beliefmesh.core import (
    BeliefState,
    Categorical,
    DimMismatchError,
    _as_vector,
    kl_divergence,
    log_stable,
    normalized_exp,
)
from beliefmesh.envs import (
    NUM_LOCATIONS,
    WHAT_NAMES,
    ElephantRoomEnv,
    build_elephant_model,
    feel_log_evidence,
)
from beliefmesh.harness import AgentTrajectory, RunResult, StepRecord
from beliefmesh.inference import variational_free_energy
from beliefmesh.net.fusion import KTooLargeError, expected_info_gain_of_source


def select_sources(belief, sources, k: int) -> list:
    """Ids of the k sources with the greatest expected information gain,
    descending (none for k = 0); exact ties go to the lower id. Scores every source."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(sources):
        raise KTooLargeError(f"k={k} but only {len(sources)} sources")
    scored = [
        (expected_info_gain_of_source(belief, likelihood), sid)
        for sid, likelihood in sources
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:k]]


def js_divergence(a, b) -> float:
    """Jensen-Shannon divergence in nats; symmetric, bounded by ln 2."""
    av, bv = _as_vector(a), _as_vector(b)
    if av.size != bv.size:
        raise DimMismatchError(f"JS operands differ in dimension: {av.size} vs {bv.size}")
    m = 0.5 * (av + bv)
    return 0.5 * kl_divergence(av, m) + 0.5 * kl_divergence(bv, m)


def synchrony(p, q) -> float:
    """Jensen-Shannon divergence between two belief vectors; 0 means aligned,
    ln 2 means disjoint support."""
    return max(0.0, js_divergence(p, q))


def mean_pairwise_synchrony(beliefs) -> float:
    pairs = list(combinations(beliefs, 2))
    if not pairs:
        return 0.0
    return float(np.mean([synchrony(a, b) for a, b in pairs]))


def run_collective(cfg) -> RunResult:
    """The elephant room with agents spread over the vantage points in order,
    one agent at a time and no wire: a shared message is the sender's
    cumulative log-evidence itself, which the codec carries bit for bit, and
    each agent adds its chosen peers' vectors in id order."""
    n = cfg.agents
    locations = [i % NUM_LOCATIONS for i in range(n)]
    models = [build_elephant_model(loc, noise=cfg.noise) for loc in locations]
    envs = [ElephantRoomEnv(loc, noise=cfg.noise) for loc in locations]
    root = np.random.SeedSequence(cfg.seed)
    observations = [
        env.reset(int(seq.generate_state(1)[0])) for env, seq in zip(envs, root.spawn(n))
    ]
    log_prior = log_stable(np.full(len(WHAT_NAMES), 1.0 / len(WHAT_NAMES)))

    def fuse(evidence):
        logits = log_prior.copy()
        for vector in evidence:
            logits = logits + vector
        return normalized_exp(logits)

    cumulative = [np.zeros(3) for _ in range(n)]
    records = [[] for _ in range(n)]
    synchrony_series = []
    for t in range(cfg.steps):
        if t > 0:
            observations = [env.step() for env in envs]
        for i in range(n):
            own = feel_log_evidence(models[i], observations[i][0], locations[i])
            cumulative[i] = cumulative[i] + np.maximum(own, -700.0)
        posteriors = []
        for i in range(n):
            own_only = Categorical(fuse([cumulative[i]]))
            sources = [(j, models[j].A[0][:, :, locations[j]]) for j in range(n) if j != i]
            chosen = select_sources(own_only, sources, cfg.resolved_k())
            probs = fuse([cumulative[i]] + [cumulative[j] for j in sorted(chosen)])
            probs = np.where(probs < 1e-150, 0.0, probs)
            posteriors.append(probs / probs.sum())
        synchrony_series.append(mean_pairwise_synchrony(posteriors))
        for i in range(n):
            belief = BeliefState(
                (Categorical(posteriors[i]), Categorical.delta(locations[i], NUM_LOCATIONS))
            )
            report = variational_free_energy(belief, models[i], observations[i])
            records[i].append(
                StepRecord(
                    t=t,
                    beliefs=belief.arrays(),
                    free_energy=report.free_energy,
                    efe=None,
                    action=None,
                    obs=observations[i],
                )
            )
    trajectories = tuple(AgentTrajectory(i, tuple(records[i])) for i in range(n))
    extras = {
        "true_what": envs[0].true_what,
        "locations": locations,
        "decode_errors": [0] * n,
    }
    return RunResult(cfg, trajectories, tuple(synchrony_series), extras)
