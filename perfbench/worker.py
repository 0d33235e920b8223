"""One benchmark process: a bare start-up, a set-up probe or a batch of episodes.

    python3 perfbench/worker.py bare WORKLOAD
    python3 perfbench/worker.py probe WORKLOAD
    python3 perfbench/worker.py episodes WORKLOAD FIRST_SEED SECONDS TRACE SCRATCH

``run.py`` starts these; each prints one JSON object as its last line.

A bare process loads this module and its imports (numpy among them), prints
the monotonic clock (shared by every process on the machine) and exits: the
start-up a probe has without beliefmesh, which run.py times to measure the
machine's speed at start-up work. A probe imports beliefmesh from this
checkout's ``src/``, validates the workload's config and starts its first
episode, which builds the models and environments and opens the transport;
at the episode's first round it prints the monotonic clock and exits. An
episode batch runs episodes back to back with seeds FIRST_SEED,
FIRST_SEED + 1, ... until their summed wall time reaches SECONDS or the
process holds more than THREAD_CAP live threads (each socket episode leaks
some; a fresh process then takes over the rest of the run).
Each episode is bracketed by two timings of a fixed reference computation.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy

ROOT = Path(__file__).resolve().parent.parent
THREAD_CAP = 200
REFERENCE_LOOPS = 600

sys.path.insert(0, str(ROOT / "src"))


def import_beliefmesh() -> SimpleNamespace:
    import beliefmesh
    import beliefmesh.config
    import beliefmesh.envs
    import beliefmesh.harness
    import beliefmesh.net.codec
    import beliefmesh.net.fusion
    import beliefmesh.net.transport
    import beliefmesh.planning

    if Path(beliefmesh.__file__).resolve().parent != ROOT / "src" / "beliefmesh":
        raise ImportError(f"beliefmesh imported from {beliefmesh.__file__}, not this checkout")
    return SimpleNamespace(
        config=beliefmesh.config,
        envs=beliefmesh.envs,
        harness=beliefmesh.harness,
        net=beliefmesh.net,
        planning=beliefmesh.planning,
    )


class Ready(BaseException):
    """Ends a set-up probe at the first round of its first episode. Not an
    Exception, so no handler in beliefmesh takes it for an error."""


def probe(workload) -> dict:
    """Run the program's own set-up path: validate the config and call
    run_experiment, which builds the models and environments and opens the
    transport; the first call of a round marks the workload ready and ends
    the episode there (run_collective closes its transport on the way out)."""
    bm = import_beliefmesh()
    ready = []

    def first_round(*args, **kwargs):
        ready.append(time.monotonic_ns())
        raise Ready

    # the first call of a round in run_single_agent and in run_collective
    bm.harness.infer_states = bm.harness.feel_log_evidence = first_round
    try:
        bm.harness.run_experiment(bm.config.config_from_dict({**workload.config, "seed": 0}))
    except Ready:
        pass
    return {"ready_ns": ready[0]}


def reference_ms() -> float:
    """Wall time of a fixed computation that uses no beliefmesh code: small
    numpy reductions in a Python loop, the mix the workloads spend their
    time on. Timed around each episode, it measures how fast the machine
    is running at that moment."""
    a = numpy.linspace(0.1, 1.0, 24).reshape(4, 3, 2)
    w = numpy.full((3, 2), 1.0 / 6.0)
    start = time.perf_counter_ns()
    for _ in range(REFERENCE_LOOPS):
        q = numpy.tensordot(a, w, axes=([1, 2], [0, 1]))
        float((q * numpy.log(q)).sum())
    return (time.perf_counter_ns() - start) / 1e6


def episodes(workload, first_seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    bm = import_beliefmesh()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(bm)
    run_experiment = bm.harness.run_experiment
    out = []
    spent = 0.0
    while spent < seconds and threading.active_count() <= THREAD_CAP:
        seed = first_seed + len(out)
        log_dir = Path(tempfile.mkdtemp(dir=scratch)) if workload.writes_logs else None
        cfg = bm.config.config_from_dict(
            {**workload.config, "seed": seed, "out_dir": None if log_dir is None else str(log_dir)}
        )
        record = {"seed": seed}
        result = None
        threads_before = threading.active_count()
        ref_ms = reference_ms()
        start = time.perf_counter_ns()
        try:
            result = run_experiment(cfg) if tracer is None else tracer.run_episode(run_experiment, cfg)
        except Exception as exc:  # noqa: BLE001 - a failed episode is counted, the run goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        record["ref_ms"] = (ref_ms + reference_ms()) / 2
        if tracer is not None:
            record["spans"], record["counts"] = tracer.take()
        record["threads_leaked"] = threading.active_count() - threads_before
        record["ms"] = elapsed / 1e6
        spent += elapsed / 1e9
        if result is not None:
            record["error"] = workload.check(bm, result, cfg, scratch)
        if log_dir is not None:
            shutil.rmtree(log_dir, ignore_errors=True)
        out.append(record)
    return {
        "episodes": out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def main(argv: list[str]) -> None:
    from workloads import WORKLOADS

    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "bare":
        report = {"ready_ns": time.monotonic_ns()}
    elif mode == "probe":
        report = probe(workload)
    else:
        first_seed, seconds, trace, scratch = argv[2:6]
        report = episodes(workload, int(first_seed), float(seconds), trace == "1", Path(scratch))
    print(json.dumps(report, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
