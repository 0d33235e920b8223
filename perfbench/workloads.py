"""The benchmark's workloads: one experiment config each, plus its output check.

Every episode of a workload is one ``run_experiment(cfg)`` call with seed
``base_seed + i``; nothing else about the inputs varies. Checks run outside
the timed region and return ``None`` when the output is right, or a short
reason when it is not.
"""

from __future__ import annotations

import filecmp
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Largest difference allowed between a collective agent's final "what"
# posterior and the pooled oracle. Fusion is exact up to float rounding;
# today's error is below 1e-84, and 1e-12 leaves room for a vectorised
# round that sums evidence in another order.
POOLED_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # keyword arguments of ExperimentConfig, minus seed and out_dir
    writes_logs: bool
    check: Callable  # (beliefmesh modules, result, cfg, scratch dir) -> str | None

    def agent_steps(self) -> int:
        return self.config.get("agents", 1) * self.config["steps"]


def check_tmaze(bm, result, cfg, scratch: Path):
    envs = bm.envs
    extras = result.extras
    if extras["actions"][0] != envs.TMAZE_CUE:
        return f"first action {extras['actions'][0]} is not the cue ({envs.TMAZE_CUE})"
    rewarded = (envs.TMAZE_LEFT, envs.TMAZE_RIGHT)[extras["reward_side"]]
    if extras["final_location"] != rewarded:
        return f"ended at {extras['final_location']}, rewarded arm is {rewarded}"
    return None


def check_pooled(bm, result, cfg, scratch: Path):
    observations = [rec.obs for traj in result.trajectories for rec in traj.records]
    oracle = bm.envs.pooled_elephant_posterior(observations, noise=cfg.noise).probs
    for traj in result.trajectories:
        final = traj.records[-1].beliefs[0]
        err = float(abs(final - oracle).max())
        if not err <= POOLED_TOLERANCE:
            return f"agent {traj.agent_id} posterior off the pooled oracle by {err:.3g}"
    return None


def check_same_csv_as_mem(bm, result, cfg, scratch: Path):
    got = Path(tempfile.mkdtemp(dir=scratch))
    want = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bm.harness.write_logs(result, got)
        bm.harness.run_experiment(bm.config.config_from_dict(
            {**cfg.to_dict(), "transport": "mem", "out_dir": str(want)}
        ))
        names = sorted(p.name for p in want.glob("agent*.csv"))
        _, mismatch, errors = filecmp.cmpfiles(want, got, names, shallow=False)
        if mismatch or errors:
            return f"CSV differs from the mem run: {', '.join(mismatch + errors)}"
        return None
    finally:
        shutil.rmtree(got, ignore_errors=True)
        shutil.rmtree(want, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tmaze-d4",
            config={"scenario": "tmaze", "steps": 2, "depth": 4},
            writes_logs=False,
            check=check_tmaze,
        ),
        Workload(
            name="elephant-mem-n64",
            config={"scenario": "elephant", "agents": 64, "steps": 5, "k": None, "transport": "mem"},
            writes_logs=True,
            check=check_pooled,
        ),
        Workload(
            name="elephant-socket-n2",
            config={"scenario": "elephant", "agents": 2, "steps": 200, "transport": "socket"},
            writes_logs=False,
            check=check_same_csv_as_mem,
        ),
    )
}
