#!/usr/bin/env python3
"""Elephant room: three observers, three vantage points, one shared verdict.

Each agent stands at a fixed spot in a dark room and feels one part of the
object in front of it.  From any single spot the elephant is indistinguishable
from one of the decoys (a statue, or empty air), so no agent can identify it
alone.  The felt features do distinguish the candidates jointly, which makes
the scenario a clean test of evidence sharing: fuse the right peers' evidence
and the joint posterior snaps to the truth.

The demo runs the same seeds twice (sharing on, and off with k=0) and reports

  * the belief each agent holds over {elephant, statue, empty} at the end,
  * the probability each assigns to the true object,
  * pairwise belief divergence round by round (sharing drives it to zero).

Usage:
    python3 scripts/elephant_demo.py
    python3 scripts/elephant_demo.py --noise 0.2 --steps 6 --seed 7
    python3 scripts/elephant_demo.py --k 1       # fuse only the best peer
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from beliefmesh.config import ExperimentConfig
from beliefmesh.envs import DEFAULT_NOISE
from beliefmesh.harness import WHAT_FACTOR_ID, RunResult, run_collective

LABELS = ("elephant", "statue", "empty")


def run(k: int | None, args: argparse.Namespace) -> RunResult:
    cfg = ExperimentConfig(
        scenario="elephant",
        agents=args.agents,
        steps=args.steps,
        seed=args.seed,
        k=k,
        noise=args.noise,
    )
    return run_collective(cfg)


def report(tag: str, result: RunResult) -> None:
    print(f"\n=== sharing {tag} ===")
    print("  final beliefs over (elephant, statue, empty):")
    for traj in result.trajectories:
        belief = traj.records[-1].beliefs[WHAT_FACTOR_ID]
        cells = ", ".join(f"{LABELS[i]} {belief[i]:.3f}" for i in range(3))
        print(f"    agent {traj.agent_id} @ location "
              f"{result.extras['locations'][traj.agent_id]}: {cells}")
    truth = result.extras["true_what"]
    probs = [t.records[-1].beliefs[WHAT_FACTOR_ID][truth] for t in result.trajectories]
    print(f"  p({LABELS[truth]}) per agent : "
          + ", ".join(f"{p:.3f}" for p in probs))
    print("  pairwise divergence by round: "
          + ", ".join(f"{s:.4f}" for s in result.synchrony_series))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=3)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=DEFAULT_NOISE,
                        help="probability a felt feature reads wrong")
    parser.add_argument("--k", type=int, default=None,
                        help="peers fused per round (default: all)")
    args = parser.parse_args(argv)

    shared = run(k=args.k, args=args)
    solo = run(k=0, args=args)

    report("ON", shared)
    report("OFF", solo)

    truth = shared.extras["true_what"]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    p_shared = mean(
        [t.records[-1].beliefs[WHAT_FACTOR_ID][truth] for t in shared.trajectories]
    )
    p_solo = mean(
        [t.records[-1].beliefs[WHAT_FACTOR_ID][truth] for t in solo.trajectories]
    )
    print(f"\nmean p(truth): {p_shared:.3f} with sharing, {p_solo:.3f} without")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
