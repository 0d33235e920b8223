"""Delivery contract shared by the in-memory bus and the socket hub."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from beliefmesh.net import (
    BeliefMessage,
    ClosedError,
    FrameTooLargeError,
    MemoryBus,
    SocketEndpoint,
    SocketHub,
    SpatialAddress,
    encode_message,
)
from beliefmesh.net import transport


def msg(who: str, tick: int, payload=(0.0, 1.0)):
    return BeliefMessage(
        origin=SpatialAddress((who,)),
        factor_id=1,
        log_evidence=np.asarray(payload, dtype=float),
        timestamp=tick,
    )


def sender_ticks(messages, who):
    return [m.timestamp for m in messages if m.origin.segments[0] == who]


class TestMemoryBus:
    def test_fifo_per_sender(self):
        bus = MemoryBus()
        a, b = bus.endpoint("a"), bus.endpoint("b")
        a.send(msg("a", 1))
        a.send(msg("a", 2))
        got = b.poll()
        assert [m.timestamp for m in got] == [1, 2]

    def test_no_self_delivery(self):
        bus = MemoryBus()
        a, _ = bus.endpoint("a"), bus.endpoint("b")
        a.send(msg("a", 1))
        assert a.poll() == []

    def test_broadcast_reaches_everyone_else(self):
        bus = MemoryBus()
        eps = [bus.endpoint(f"e{i}") for i in range(4)]
        eps[0].send(msg("e0", 5))
        for ep in eps[1:]:
            assert [m.timestamp for m in ep.poll()] == [5]

    def test_interleaving_keeps_per_sender_order(self):
        bus = MemoryBus()
        a, b, c = bus.endpoint("a"), bus.endpoint("b"), bus.endpoint("c")
        a.send(msg("a", 1))
        b.send(msg("b", 10))
        a.send(msg("a", 2))
        b.send(msg("b", 20))
        got = c.poll()
        assert sender_ticks(got, "a") == [1, 2]
        assert sender_ticks(got, "b") == [10, 20]

    def test_closed_endpoint_raises(self):
        bus = MemoryBus()
        a, b = bus.endpoint("a"), bus.endpoint("b")
        a.close()
        with pytest.raises(ClosedError):
            a.send(msg("a", 1))
        with pytest.raises(ClosedError):
            a.poll()
        bus.close()  # closes every endpoint the bus handed out
        with pytest.raises(ClosedError):
            b.send(msg("b", 1))
        with pytest.raises(ClosedError):
            b.poll()

    def test_oversized_frame_rejected_and_connection_dropped(self):
        bus = MemoryBus()
        a, b = bus.endpoint("a"), bus.endpoint("b")
        fat = msg("a", 1)
        fat = BeliefMessage(
            origin=SpatialAddress(tuple("s" * 6000 for _ in range(200))),
            factor_id=1,
            log_evidence=fat.log_evidence,
        )
        with pytest.raises(FrameTooLargeError):
            a.send(fat)
        with pytest.raises(ClosedError):
            a.send(msg("a", 2))
        assert b.poll() == []

    def test_garbage_frame_surfaced_without_killing_stream(self):
        bus = MemoryBus()
        a, b = bus.endpoint("a"), bus.endpoint("b")
        a.send_raw(b"this is not a belief message")
        a.send(msg("a", 7))
        got = b.poll()
        assert [m.timestamp for m in got] == [7]
        assert len(b.decode_errors) == 1


class TestSocketHub:
    def test_fifo_and_broadcast(self):
        hub = SocketHub()
        try:
            a, b, c = hub.endpoint("a"), hub.endpoint("b"), hub.endpoint("c")
            a.send(msg("a", 1))
            a.send(msg("a", 2))
            b.send(msg("b", 10))
            got_c = c.poll(expect=3)
            assert sender_ticks(got_c, "a") == [1, 2]
            assert sender_ticks(got_c, "b") == [10]
            got_b = b.poll(expect=2)
            assert sender_ticks(got_b, "a") == [1, 2]
        finally:
            hub.close()

    def test_no_self_delivery(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            b = SocketEndpoint(hub.address, "b")
            a.send(msg("a", 1))
            assert [m.timestamp for m in b.poll(expect=1)] == [1]
            assert a.poll(timeout=0.1) == []
            a.close()
            b.close()
        finally:
            hub.close()

    def test_garbage_frame_surfaced_then_valid_frames_still_flow(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            b = SocketEndpoint(hub.address, "b")
            a.send_raw(b"\xff\xfegarbage")
            a.send(msg("a", 3))
            got = b.poll(expect=1, timeout=5.0)
            assert [m.timestamp for m in got] == [3]
            assert len(b.decode_errors) == 1
            a.close()
            b.close()
        finally:
            hub.close()

    def test_oversized_announcement_drops_only_that_connection(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            b = SocketEndpoint(hub.address, "b")
            c = SocketEndpoint(hub.address, "c")
            # a raw header announcing an impossible frame: hub must cut 'a' off
            a._sock.sendall(struct.pack("<I", 2**20 + 1))
            b.send(msg("b", 4))
            got = c.poll(expect=1, timeout=5.0)
            assert sender_ticks(got, "b") == [4]
            for ep in (a, b, c):
                ep.close()
        finally:
            hub.close()

    def test_connect_returns_only_once_the_hub_relays_to_it(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            # stall the hub's accept step; connecting must wait it out
            accept = hub._accept

            def stalled_accept():
                time.sleep(0.3)
                accept()

            hub._accept = stalled_accept
            start = time.monotonic()
            b = SocketEndpoint(hub.address, "b")
            assert time.monotonic() - start >= 0.3
            a.send(msg("a", 1))
            assert [m.timestamp for m in b.poll(expect=1, timeout=5.0)] == [1]
            a.close()
            b.close()
        finally:
            hub.close()

    def test_closed_endpoint_raises(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            a.close()
            with pytest.raises(ClosedError):
                a.send(msg("a", 1))
        finally:
            hub.close()

    def test_wire_frames_are_length_prefixed_codec_output(self):
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            # a plain TCP client sees the ack byte, then u32 length + payload
            with socket.create_connection(hub.address, timeout=5.0) as raw:
                wire = raw.makefile("rb")
                assert wire.read(1) == transport.HANDSHAKE_ACK
                m = msg("a", 9)
                a.send(m)
                (length,) = struct.unpack("<I", wire.read(4))
                assert wire.read(length) == encode_message(m)
                wire.close()
            a.close()
        finally:
            hub.close()

    def test_poll_returns_as_soon_as_the_hub_closes(self):
        hub = SocketHub()
        a = SocketEndpoint(hub.address, "a")
        timer = threading.Timer(0.2, hub.close)
        timer.start()
        try:
            start = time.monotonic()
            assert a.poll(expect=1, timeout=3.0) == []
            assert time.monotonic() - start < 1.5
            with pytest.raises(ClosedError):
                a.send(msg("a", 1))
        finally:
            timer.join()
            hub.close()

    def test_send_to_a_vanished_hub_raises_closed_error(self):
        hub = SocketHub()
        a = SocketEndpoint(hub.address, "a")
        hub.close()
        with pytest.raises(ClosedError):
            for tick in range(100):  # the first send may still fit in the socket buffer
                a.send(msg("a", tick))
                time.sleep(0.01)

    def test_frames_larger_than_socket_buffers_sent_before_any_poll(self):
        # one thread sends about 2 MB before the receiver reads a byte; the
        # hub must buffer rather than block, or sender and hub would deadlock
        hub = SocketHub()
        try:
            a = SocketEndpoint(hub.address, "a")
            b = SocketEndpoint(hub.address, "b")
            rng = np.random.default_rng(0)
            sent = [msg("a", t, rng.standard_normal(0xFFFF)) for t in range(4)]
            for m in sent:
                a.send(m)
            assert b.poll(expect=4, timeout=10.0) == sent
            a.close()
            b.close()
        finally:
            hub.close()


class TestSocketHandshake:
    def test_missing_acknowledgement_raises_closed_error(self, monkeypatch):
        monkeypatch.setattr(transport, "HANDSHAKE_TIMEOUT", 0.2)
        # listens, so the TCP handshake completes, but never accepts or acks
        server = socket.create_server(("127.0.0.1", 0))
        try:
            with pytest.raises(ClosedError, match="no acknowledgement"):
                SocketEndpoint(server.getsockname(), "a")
        finally:
            server.close()

    def test_wrong_acknowledgement_raises_closed_error(self):
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            with conn:
                conn.sendall(b"?")

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            with pytest.raises(ClosedError, match="bad acknowledgement"):
                SocketEndpoint(server.getsockname(), "a")
        finally:
            t.join(5.0)
            server.close()


class TestSocketClose:
    def test_close_ends_every_transport_thread(self):
        start = threading.active_count()
        before = set(threading.enumerate())
        hub = SocketHub()
        eps = [hub.endpoint(name) for name in "abc"]
        eps[0].send(msg("a", 1))
        eps[1].send(msg("b", 2))
        assert sorted(m.timestamp for m in eps[2].poll(expect=2, timeout=5.0)) == [1, 2]
        # the hub's selector loop is the only transport thread
        (loop,) = set(threading.enumerate()) - before
        t0 = time.monotonic()
        hub.close()
        assert time.monotonic() - t0 < 2.0
        assert not loop.is_alive()
        assert all(ep._sock.fileno() == -1 for ep in eps)
        assert threading.active_count() <= start
