"""Experiment runners: a solo planning agent and a belief-sharing collective.

Both runners are deterministic functions of the config seed. Actions are
sampled from the policy posterior rather than taken by argmax so that
exactly tied options (a flat-preference maze offers several) resolve by
seeded chance instead of index order.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .core import (
    BeliefState,
    Categorical,
    DimMismatchError,
    GenerativeModel,
    Policy,
    _as_vector,
    kl_rows,
)
from .envs import (
    ELEPHANT,
    NUM_LOCATIONS,
    WHAT_NAMES,
    ElephantRoomEnv,
    TMazeEnv,
    build_elephant_model,
    build_tmaze_model,
    feel_log_evidence,
)
from .inference import LOG_FLOOR, infer_states, snap, variational_free_energy
from .net import (
    BeliefMessage,
    MemoryBus,
    SocketHub,
    SpatialAddress,
    fuse_evidence,
    select_sources,
)
from .planning import (
    EFEReport,
    expected_free_energy,  # noqa: F401 -- unused; perfbench/tracer.py patches harness.expected_free_energy
    expected_states,
    policy_posterior,
    sophisticated_root_values,
)

WHAT_FACTOR_ID = 0


@dataclass(frozen=True)
class StepRecord:
    t: int
    beliefs: tuple[np.ndarray, ...]
    free_energy: float
    efe: EFEReport | None
    action: tuple[int, ...] | None
    obs: tuple[int, ...]
    # one-step reports and posterior probabilities of the planner's root
    # actions, in the same order
    policy_efes: tuple[EFEReport, ...] | None = None
    action_probs: np.ndarray | None = None


@dataclass(frozen=True)
class AgentTrajectory:
    agent_id: int
    records: tuple[StepRecord, ...]


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    trajectories: tuple[AgentTrajectory, ...]
    synchrony_series: tuple[float, ...]
    extras: dict = field(default_factory=dict)
    logs: tuple[Path, ...] = ()  # the files run_experiment wrote, if any


def mean_pairwise_synchrony(beliefs) -> float:
    """Mean over all pairs of the Jensen-Shannon divergence in nats, each
    clamped at 0, bit for bit the pair-by-pair loop of tests/collective_reference.py;
    0 means aligned, ln 2 means disjoint support."""
    beliefs = list(beliefs)
    if len(beliefs) < 2:
        return 0.0
    vectors = [_as_vector(b) for b in beliefs]
    if len({v.size for v in vectors}) > 1:
        raise DimMismatchError(f"beliefs differ in dimension: {[v.size for v in vectors]}")
    # pairs in the order of itertools.combinations
    a, b = np.stack(vectors)[np.vstack(np.triu_indices(len(vectors), k=1))]
    mid = 0.5 * (a + b)
    js = 0.5 * kl_rows(a, mid) + 0.5 * kl_rows(b, mid)
    return float(np.mean(np.where(js > 0.0, js, 0.0)))


def _action_prior(m: GenerativeModel, actions) -> np.ndarray:
    """Marginal prior over first-step controls implied by the policy prior."""
    index = {a: i for i, a in enumerate(actions)}
    prior = np.zeros(len(actions))
    for policy, weight in zip(m.policies, m.E.probs):
        prior[index[policy.controls[0]]] += weight
    return prior


def run_single_agent(cfg: ExperimentConfig, model: GenerativeModel | None = None) -> RunResult:
    """A lone agent in the maze: infer, plan ahead, sample an action, move."""
    if cfg.scenario != "tmaze":
        raise ValueError(f"run_single_agent handles the tmaze scenario, got {cfg.scenario!r}")
    m = build_tmaze_model() if model is None else model
    root = np.random.SeedSequence(cfg.seed)
    env_seq, action_seq = root.spawn(2)
    env = TMazeEnv()
    obs = env.reset(int(env_seq.generate_state(1)[0]))
    rng = np.random.default_rng(action_seq)

    prior = m.initial_belief()
    records = []
    action_log = []
    location_log = [obs[0]]
    for t in range(cfg.steps):
        result = infer_states(m, obs, prior=prior)
        belief = result.belief
        report = variational_free_energy(belief, m, obs, prior=prior)

        actions, values, reports = sophisticated_root_values(
            m, belief, depth=cfg.depth, prune_threshold=cfg.prune_threshold
        )
        prior_over_actions = Categorical(_action_prior(m, actions))
        probs = policy_posterior(values, prior_over_actions, cfg.gamma).probs
        choice = int(rng.choice(len(actions), p=probs))
        action = actions[choice]

        records.append(
            StepRecord(
                t=t,
                beliefs=belief.arrays(),
                free_energy=report.free_energy,
                efe=reports[choice],
                action=action,
                obs=obs,
                policy_efes=tuple(reports),
                action_probs=probs,
            )
        )
        action_log.append(action)
        obs = env.step(action)
        location_log.append(obs[0])
        (prior,) = expected_states(m, belief, Policy((action,)))

    extras = {
        "reward_side": env.true_state()[1],
        "final_location": env.true_state()[0],
        "actions": [a[0] for a in action_log],
        "locations": location_log,
    }
    trajectory = AgentTrajectory(agent_id=0, records=tuple(records))
    return RunResult(cfg, (trajectory,), (), extras)


def run_collective(cfg: ExperimentConfig) -> RunResult:
    """N agents around one scene, each feeling its own corner. Every round each
    agent broadcasts its log-evidence about the shared factor over the wire and
    fuses that of the cfg.k peers it expects to learn most from (k = 0: none,
    a solo run). Agent i watches from vantage point i % NUM_LOCATIONS, round-robin."""
    if cfg.scenario != "elephant":
        raise ValueError(f"run_collective handles the elephant scenario, got {cfg.scenario!r}")
    n = cfg.agents
    locations = [i % NUM_LOCATIONS for i in range(n)]
    ref_prior = Categorical.uniform(len(WHAT_NAMES))
    addresses = [SpatialAddress(("room", f"agent-{i}")) for i in range(n)]
    built = {loc: build_elephant_model(loc, noise=cfg.noise) for loc in sorted(set(locations))}
    models = [built[loc] for loc in locations]  # one checked, immutable model per vantage point
    envs = [ElephantRoomEnv(locations[i], noise=cfg.noise) for i in range(n)]

    root = np.random.SeedSequence(cfg.seed)
    env_seeds = [int(seq.generate_state(1)[0]) for seq in root.spawn(n)]
    observations = [envs[i].reset(env_seeds[i]) for i in range(n)]

    bus = SocketHub() if cfg.transport == "socket" else MemoryBus()
    endpoints = []
    cumulative = [np.zeros(3) for _ in range(n)]
    records = [[] for _ in range(n)]
    synchrony_series = []
    try:
        for i in range(n):  # one at a time, so a failed connect closes those before it
            endpoints.append(bus.endpoint(f"agent-{i}"))
        for t in range(cfg.steps):
            if t > 0:
                observations = [envs[i].step() for i in range(n)]
            for i in range(n):
                own = feel_log_evidence(models[i], observations[i][0], locations[i])
                cumulative[i] = cumulative[i] + np.maximum(own, LOG_FLOOR)
                endpoints[i].send(
                    BeliefMessage(
                        origin=addresses[i],
                        factor_id=WHAT_FACTOR_ID,
                        log_evidence=cumulative[i],
                        precision=1.0,
                        timestamp=t,
                    )
                )
            inboxes = [endpoints[i].poll(expect=n - 1, timeout=30.0) for i in range(n)]

            posteriors = []
            for i in range(n):
                own_only = fuse_evidence(ref_prior, (), own_log_evidence=cumulative[i])
                fresh = {
                    msg.origin: msg
                    for msg in inboxes[i]
                    if msg.factor_id == WHAT_FACTOR_ID and msg.timestamp == t
                }
                sources = [(j, models[j].A[0][:, :, locations[j]]) for j in range(n) if j != i]
                chosen = select_sources(own_only, sources, cfg.resolved_k())
                picked = [addresses[j] for j in sorted(chosen)]
                selected = [fresh[a] for a in picked if a in fresh]
                posterior = fuse_evidence(ref_prior, selected, own_log_evidence=cumulative[i])
                posteriors.append(Categorical(snap(posterior.probs)))

            synchrony_series.append(mean_pairwise_synchrony([p.probs for p in posteriors]))
            for i in range(n):
                belief = BeliefState(
                    (posteriors[i], Categorical.delta(locations[i], NUM_LOCATIONS))
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
    finally:
        bus.close()

    trajectories = tuple(
        AgentTrajectory(agent_id=i, records=tuple(records[i])) for i in range(n)
    )
    extras = {
        "true_what": ELEPHANT,
        "locations": locations,
        "decode_errors": [len(ep.decode_errors) for ep in endpoints],
    }
    return RunResult(cfg, trajectories, tuple(synchrony_series), extras)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    if cfg.scenario == "tmaze":
        result = run_single_agent(cfg)
    else:
        result = run_collective(cfg)
    if cfg.out_dir is not None:
        result = replace(result, logs=tuple(write_logs(result, cfg.out_dir)))
    return result


# --- logging -----------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _cells(values) -> str:
    return "|".join(str(int(v)) for v in values)


def write_logs(result: RunResult, out_dir) -> list[Path]:
    """One CSV per agent plus a manifest; floats use repr so identical runs
    produce identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = max(len(b) for traj in result.trajectories for r in traj.records for b in r.beliefs)
    header = (
        ["t", "factor"]
        + [f"b{i}" for i in range(width)]
        + ["free_energy", "G", "risk", "ambiguity", "info_gain", "pragmatic", "action", "obs"]
    )
    written = []
    for traj in result.trajectories:
        path = out / f"agent{traj.agent_id}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rec in traj.records:
                for f, belief in enumerate(rec.beliefs):
                    row = [str(rec.t), str(f)]
                    row += [_fmt(p) for p in belief]
                    row += [""] * (width - len(belief))
                    if f == 0:
                        row.append(_fmt(rec.free_energy))
                        if rec.efe is not None:
                            row += [
                                _fmt(rec.efe.G),
                                _fmt(rec.efe.risk),
                                _fmt(rec.efe.ambiguity),
                                _fmt(rec.efe.info_gain),
                                _fmt(rec.efe.pragmatic),
                            ]
                        else:
                            row += [""] * 5
                        row.append(_cells(rec.action) if rec.action is not None else "")
                        row.append(_cells(rec.obs))
                    else:
                        row += [""] * 8
                    writer.writerow(row)
        written.append(path)

    manifest = {
        # where the logs went is not what the run did
        "config": {k: v for k, v in result.config.to_dict().items() if k != "out_dir"},
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "agents": len(result.trajectories),
        "steps": result.config.steps,
        "final_mean_pairwise_synchrony": (
            result.synchrony_series[-1] if result.synchrony_series else None
        ),
        "extras": result.extras,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written

