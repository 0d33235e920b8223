"""beliefmesh benchmark: closed-loop episodes of one workload, timed end to end,
or traced per layer.

    python3 perfbench/run.py --workload tmaze-d4 --seed 0 --seconds 50 --trace 0

One client runs episodes back to back; episode i is one
``run_experiment(cfg)`` call with seed ``--seed + i``. With ``--trace 0`` the
run reports the end-to-end metrics: set-up time is the median of
SETUP_PROBES fresh processes, each timed until its first episode is ready
for its first round; the rest come from ``--seconds`` of episode wall time
spread over as few fresh worker processes as the thread cap allows. With
``--trace 1`` it runs half the time untraced and half traced, from the same
seeds, reports the per-layer metrics (per traced episode) and the tracing
overhead, and writes the spans to OUT_DIR. Every episode's
output is checked outside the timed region; a failed check or a raised
exception counts the episode as failed and the run goes on.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it give the machine, the sample counts and each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# Set-up probes per run, half before the episodes and half after them, so
# that the median spans the run's changes of machine speed.
SETUP_PROBES = 12
# Set-up time is reported at the machine speed at which a bare worker (one
# that loads no beliefmesh) starts in this long, about its median on the
# machine the bounds were set on; see end_to_end().
BARE_NOMINAL_S = 0.15
# Episode times are reported at the machine speed at which
# worker.reference_ms takes this long (about its time on an idle core of the
# machine the bounds were set on); see end_to_end().
REFERENCE_NOMINAL_MS = 10.0
# The harness's poll timeout: an episode that loses a frame stalls this long.
POLL_STALL_S = 30.0
# A worker's time beyond its episode seconds: start-up, output checks, the
# reference timings and the episode that overruns the window.
WORKER_MARGIN_S = 60.0
PROBE_TIMEOUT_S = 60.0

sys.path.insert(0, str(HERE))

from tracer import EPISODE, layer_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Per-layer metrics, each per traced episode: the self time of a span (ms),
# the number of its calls, or a count taken at a layer boundary.
LAYER_TIMES = {
    "planning.root_values.self_ms": "planning.root_values",
    "planning.efe.ms": "planning.efe",
    "inference.infer_states.ms": "inference.infer_states",
    "inference.vfe.ms": "inference.vfe",
    "fusion.select_sources.ms": "fusion.select_sources",
    "fusion.fuse_evidence.ms": "fusion.fuse_evidence",
    "codec.encode.ms": "codec.encode",
    "codec.decode.ms": "codec.decode",
    "transport.connect.ms": "transport.connect",
    "transport.send.ms": "transport.send",
    "transport.poll.ms": "transport.poll",
    "harness.synchrony.ms": "harness.synchrony",
    "harness.write_logs.ms": "harness.write_logs",
    "harness.self_ms": EPISODE,
    "envs.ms": "envs",
}
LAYER_CALLS = {
    "planning.root_values.calls": "planning.root_values",
    "planning.efe.calls": "planning.efe",
    "inference.infer_states.calls": "inference.infer_states",
    "inference.vfe.calls": "inference.vfe",
    "fusion.select_sources.calls": "fusion.select_sources",
    "codec.encode.calls": "codec.encode",
    "codec.decode.calls": "codec.decode",
}
LAYER_COUNTS = (
    "inference.infer_states.iterations",
    "inference.infer_states.unconverged",
    "core.kl_divergence.calls",
    "fusion.sources_scored",
    "fusion.messages_fused",
    "codec.encode.bytes",
    "codec.decode_errors",
    "transport.frames_received",
    "transport.frames_missing",
    "transport.frames_stale",
    "transport.threads_leaked",
    "harness.synchrony.pairs",
    "harness.write_logs.bytes",
)


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def worker(timeout: float, *args) -> dict:
    """Run perfbench/worker.py in a fresh process; return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch_seconds(*args) -> float:
    """Time from launching a fresh worker until it reports itself ready."""
    launched = time.monotonic_ns()
    return (worker(PROBE_TIMEOUT_S, *args)["ready_ns"] - launched) / 1e9


def setup_probes(workload: str, count: int) -> list[tuple[float, float]]:
    """count pairs (bare start-up s, set-up s): a bare worker, then a probe
    timed until the workload is ready for its first round."""
    return [(launch_seconds("bare", workload), launch_seconds("probe", workload)) for _ in range(count)]


def run_window(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Episodes from seed onwards until their wall time reaches seconds,
    over as many fresh workers as needed. Returns (episode records, worker
    reports)."""
    records, reports = [], []
    while seconds > 0:
        report = worker(
            seconds + POLL_STALL_S + WORKER_MARGIN_S,
            "episodes", workload, seed + len(records), seconds, int(trace), OUT_DIR,
        )
        if not report["episodes"]:
            raise RuntimeError("worker ran no episode")
        records += report["episodes"]
        reports.append(report)
        seconds -= sum(r["ms"] for r in report["episodes"]) / 1e3
    return records, reports


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def calibrated_ms(record: dict) -> float:
    return record["ms"] * REFERENCE_NOMINAL_MS / record["ref_ms"]


def episode_times(workload, ms: list) -> dict:
    return {
        "episode_ms_p50": statistics.median(ms),
        "episode_ms_p90": percentile(ms, 90),
        "agent_steps_per_s": workload.agent_steps() * len(ms) / (sum(ms) / 1e3),
    }


def end_to_end(workload, setup: list[tuple], records: list, reports: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same times uncalibrated.

    Shared machines can change speed by up to 1.8x for seconds
    to minutes at a time, which moves wall-clock medians of whole runs by
    more than any useful bound. So each episode's wall time is scaled by
    REFERENCE_NOMINAL_MS / (reference time measured around it): the episode
    figures are wall time at a fixed machine speed. A change to beliefmesh
    moves them as it moves wall time; the machine's speed mostly cancels.
    Start-up work (process start, imports) does not slow down as that loop
    does, so each set-up probe is scaled instead by BARE_NOMINAL_S / (start-up
    time of the bare worker launched just before it).
    """
    failed = sum(r["error"] is not None for r in records)
    metrics = {
        "setup_s": statistics.median(s / bare for bare, s in setup) * BARE_NOMINAL_S,
        **episode_times(workload, [calibrated_ms(r) for r in records]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "ok_share": 1.0 - failed / len(records),
    }
    wall = {"setup_s": statistics.median(s for _, s in setup)}
    return metrics, {**wall, **episode_times(workload, [r["ms"] for r in records])}


def per_layer(traced: list, untraced: list) -> tuple[dict, dict]:
    """Per traced episode: layer self times (ms, not calibrated) and counts;
    plus the tracing overhead on the calibrated median episode."""
    n = len(traced)
    calls, self_ns, counts = {}, {}, {}
    for r in traced:
        c, s = layer_times(r["spans"])
        for table, part in ((calls, c), (self_ns, s), (counts, r["counts"])):
            for k, v in part.items():
                table[k] = table.get(k, 0) + v
        counts["transport.threads_leaked"] = counts.get("transport.threads_leaked", 0) + r["threads_leaked"]
    metrics, units = {}, {}
    for name, span in LAYER_TIMES.items():
        metrics[name], units[name] = self_ns.get(span, 0) / 1e6 / n, "ms"
    for name, span in LAYER_CALLS.items():
        metrics[name], units[name] = calls.get(span, 0) / n, "count"
    for name in LAYER_COUNTS:
        metrics[name], units[name] = counts.get(name, 0) / n, "B" if name.endswith(".bytes") else "count"
    efe_calls = calls.get("planning.efe", 0)
    metrics["planning.efe.distinct_share"] = counts.get("planning.efe.distinct", 0) / efe_calls if efe_calls else 0.0
    frames = calls.get("codec.encode", 0)
    metrics["codec.decodes_per_frame"] = calls.get("codec.decode", 0) / frames if frames else 0.0
    units["planning.efe.distinct_share"] = units["codec.decodes_per_frame"] = "ratio"
    metrics["trace.overhead_ms"] = statistics.median(map(calibrated_ms, traced)) - statistics.median(
        map(calibrated_ms, untraced)
    )
    units["trace.overhead_ms"] = "ms"
    return metrics, units


def write_spans(workload: str, seed: int, traced: list) -> Path:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "episodes": [{"seed": r["seed"], "spans": r["spans"]} for r in traced],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seed of the first episode")
    parser.add_argument("--seconds", type=float, default=50.0, help="episode wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "beliefmesh").is_dir():
        print(f"no beliefmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    if args.trace:
        untraced, plain_reports = run_window(args.workload, args.seed, args.seconds / 2, False)
        records, reports = run_window(args.workload, args.seed, args.seconds / 2, True)
        metrics, units = per_layer(records, untraced)
        spans = write_spans(args.workload, args.seed, records)
        samples = f"{len(records)} traced and {len(untraced)} untraced episodes, spans in {spans}"
        records, reports = untraced + records, plain_reports + reports
    else:
        setup = setup_probes(args.workload, SETUP_PROBES // 2)
        records, reports = run_window(args.workload, args.seed, args.seconds, False)
        setup += setup_probes(args.workload, SETUP_PROBES - len(setup))
        metrics, wall = end_to_end(workload, setup, records, reports)
        units = END_TO_END_UNITS
        samples = f"{len(records)} episodes, {len(setup)} set-up probes"
        reference = statistics.median(r["ref_ms"] for r in records)
        bare = statistics.median(b for b, _ in setup)
        samples += "; uncalibrated wall clock: " + ", ".join(
            f"{name} = {value:.6g} {units[name]}" for name, value in wall.items()
        ) + f", reference median {reference:.4g} ms, bare start-up median {bare:.4g} s"

    failed = [r for r in records if r["error"] is not None]
    print("machine " + json.dumps({**machine(), "python": reports[0]["python"], "numpy": reports[0]["numpy"]}))
    print(f"workload {args.workload}: {samples}, {len(failed)} failed, {len(reports)} worker processes")
    for r in failed:
        print(f"  failed seed {r['seed']}: {r['error']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
