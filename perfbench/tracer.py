"""Per-layer tracing from outside the program.

The tracer swaps in timing wrappers for the public names that each calling
module binds (``harness.select_sources``, ``planning.expected_free_energy``,
``net.transport.decode_message``, the endpoint classes' ``send``/``poll``
and so on) and restores them afterwards; nothing under ``src/`` changes.
Each wrapped call records a span ``(name, start_ns, end_ns, parent)``;
counts such as bytes encoded or frames missing are taken at the same
boundaries. Every wrapped name is called on the thread that runs the
episode (the socket reader threads only move raw bytes), so one span stack
suffices.
"""

from __future__ import annotations

import time
from collections import Counter

EPISODE = "episode"


class Tracer:
    def __init__(self, bm):
        self.bm = bm
        self.spans: list = []
        self.counts: Counter = Counter()
        self.efe_keys: set = set()
        self._stack: list[int] = []
        self._last_sent: dict[int, int] = {}
        self._saved: list = []

    # --- wrappers ------------------------------------------------------------

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs) then adds counts."""
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), after))

    # --- counts taken at the boundaries --------------------------------------

    def _efe(self, result, args, kwargs):
        _, belief, policy = args[:3]
        self.efe_keys.add((b"".join(a.tobytes() for a in belief.arrays()), policy.controls))

    def _infer(self, result, args, kwargs):
        self.counts["inference.infer_states.iterations"] += result.iterations
        self.counts["inference.infer_states.unconverged"] += not result.converged

    def _select(self, result, args, kwargs):
        self.counts["fusion.sources_scored"] += len(args[1])

    def _fuse(self, result, args, kwargs):
        self.counts["fusion.messages_fused"] += len(args[1])

    def _synchrony(self, result, args, kwargs):
        n = len(args[0])
        self.counts["harness.synchrony.pairs"] += n * (n - 1) // 2

    def _write_logs(self, result, args, kwargs):
        self.counts["harness.write_logs.bytes"] += sum(p.stat().st_size for p in result)

    def _encode(self, result, args, kwargs):
        self.counts["codec.encode.bytes"] += len(result)

    def _send(self, result, args, kwargs):
        endpoint, msg = args[0], args[1]
        self._last_sent[id(endpoint)] = msg.timestamp

    def _poll(self, result, args, kwargs):
        endpoint = args[0]
        expect = kwargs.get("expect", args[1] if len(args) > 1 else None)
        self.counts["transport.frames_received"] += len(result)
        if expect is not None and len(result) < expect:
            self.counts["transport.frames_missing"] += expect - len(result)
        this_round = self._last_sent.get(id(endpoint))
        if this_round is not None:
            self.counts["transport.frames_stale"] += sum(
                msg.timestamp != this_round for msg in result
            )

    # --- install / remove ----------------------------------------------------

    def install(self):
        bm = self.bm
        harness, planning, envs = bm.harness, bm.planning, bm.envs
        transport, fusion = bm.net.transport, bm.net.fusion

        self._wrap(harness, "sophisticated_root_values", "planning.root_values")
        self._wrap(harness, "expected_free_energy", "planning.efe", self._efe)
        self._wrap(planning, "expected_free_energy", "planning.efe", self._efe)
        self._wrap(harness, "infer_states", "inference.infer_states", self._infer)
        self._wrap(harness, "variational_free_energy", "inference.vfe")
        self._patch(fusion, "kl_divergence", self.counted("core.kl_divergence.calls", fusion.kl_divergence))
        self._patch(planning, "kl_divergence", self.counted("core.kl_divergence.calls", planning.kl_divergence))
        self._wrap(harness, "select_sources", "fusion.select_sources", self._select)
        self._wrap(harness, "fuse_evidence", "fusion.fuse_evidence", self._fuse)
        self._wrap(harness, "mean_pairwise_synchrony", "harness.synchrony", self._synchrony)
        self._wrap(harness, "write_logs", "harness.write_logs", self._write_logs)

        decode = transport.decode_message
        decode_error = bm.net.codec.DecodeError

        def decode_counting_errors(buf):
            try:
                return decode(buf)
            except decode_error:
                self.counts["codec.decode_errors"] += 1
                raise

        self._wrap(transport, "encode_message", "codec.encode", self._encode)
        self._patch(transport, "decode_message", self.timed("codec.decode", decode_counting_errors))
        for cls in (transport.MemoryEndpoint, transport.SocketEndpoint):
            self._wrap(cls, "send", "transport.send", self._send)
            self._wrap(cls, "poll", "transport.poll", self._poll)
        for cls, attr in (
            (transport.SocketHub, "__init__"),
            (transport.SocketEndpoint, "__init__"),
            (transport.MemoryBus, "__init__"),
            (transport.MemoryBus, "endpoint"),
        ):
            self._wrap(cls, attr, "transport.connect")

        for attr in ("build_tmaze_model", "build_elephant_model", "feel_log_evidence"):
            self._wrap(harness, attr, "envs")
        for cls in (envs.TMazeEnv, envs.ElephantRoomEnv):
            for attr in ("__init__", "reset", "step"):
                self._wrap(cls, attr, "envs")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- one traced episode --------------------------------------------------

    def run_episode(self, run_experiment, cfg):
        """Run one traced episode under an EPISODE span; take() then gives
        its spans and counts, also when the episode raised."""
        self.spans, self.counts, self.efe_keys = [], Counter(), set()
        self._stack, self._last_sent = [], {}
        self.install()
        try:
            return self.timed(EPISODE, run_experiment)(cfg)
        finally:
            self.uninstall()

    def take(self) -> tuple[list, dict]:
        """The last episode's spans, times relative to its start, and counts."""
        t0 = self.spans[0][1]
        spans = [(name, start - t0, end - t0, parent) for name, start, end, parent in self.spans]
        counts = dict(self.counts)
        counts["planning.efe.distinct"] = len(self.efe_keys)
        return spans, counts


def layer_times(spans) -> tuple[dict, dict]:
    """Per span name: (number of calls, self time in ns). A span's self time
    is its duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns = Counter(), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    return dict(calls), dict(self_ns)
