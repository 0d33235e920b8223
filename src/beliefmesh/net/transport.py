"""Two interchangeable broadcast transports with one contract.

An endpoint sends belief messages and polls for messages from every other
endpoint. Delivery preserves per-sender FIFO order and nothing more. The
in-memory bus is for single-process runs and tests; the socket hub speaks
u32-little-endian length-prefixed frames over TCP and rebroadcasts each
frame to all other connections.

Before any frame flows, the hub writes one HANDSHAKE_ACK byte to each new
connection, once that connection is registered for relaying; the endpoint
waits for it, so a frame sent after connecting reaches every endpoint that
connected before.

Decode failures on received frames never kill the stream: the bad frame is
recorded on the endpoint's decode_errors list and later frames still arrive.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import struct
import threading
import time
from collections import deque

from .codec import DecodeError, decode_message, encode_message
from .messages import BeliefMessage

FRAME_LIMIT = 2**20
HANDSHAKE_ACK = b"\x06"
HANDSHAKE_TIMEOUT = 10.0


class ClosedError(RuntimeError):
    """Operation on a closed endpoint."""


class FrameTooLargeError(ValueError):
    """Frame exceeds the 2^20-byte limit; the connection is dropped."""


class MemoryEndpoint:
    def __init__(self, bus: "MemoryBus", name: str):
        self._bus = bus
        self.name = name
        self._inbox: deque[bytes] = deque()
        self._open = True
        self.decode_errors: list[DecodeError] = []

    def send(self, msg: BeliefMessage) -> None:
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        frame = encode_message(msg)
        if len(frame) > FRAME_LIMIT:
            self._open = False
            raise FrameTooLargeError(f"{len(frame)} bytes exceeds {FRAME_LIMIT}")
        self._bus._deliver(self, frame)

    def send_raw(self, frame: bytes) -> None:
        """Fault injection: put arbitrary bytes on the bus."""
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        self._bus._deliver(self, bytes(frame))

    def poll(self, expect: int | None = None, timeout: float = 1.0) -> list[BeliefMessage]:
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        out = []
        with self._bus._lock:
            while self._inbox:
                frame = self._inbox.popleft()
                try:
                    out.append(decode_message(frame))
                except DecodeError as exc:
                    self.decode_errors.append(exc)
        return out

    def close(self) -> None:
        self._open = False


class MemoryBus:
    """Single-process broadcast: every send lands in every other endpoint's inbox."""

    def __init__(self):
        self._endpoints: list[MemoryEndpoint] = []
        self._lock = threading.Lock()

    def endpoint(self, name: str) -> MemoryEndpoint:
        ep = MemoryEndpoint(self, name)
        with self._lock:
            self._endpoints.append(ep)
        return ep

    def _deliver(self, sender: MemoryEndpoint, frame: bytes) -> None:
        with self._lock:
            for ep in self._endpoints:
                if ep is not sender and ep._open:
                    ep._inbox.append(frame)

    def close(self) -> None:
        with self._lock:
            for ep in self._endpoints:
                ep._open = False


def _shutdown_close(sock: socket.socket) -> None:
    """Close a socket so that a thread blocked in its accept or recv returns;
    close() alone does not wake it."""
    with contextlib.suppress(OSError):  # never connected, or already closed
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError:
            # peer reset, or our own close() raced the blocking recv
            return None
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


class SocketHub:
    """Accepts TCP connections and rebroadcasts every frame to the others.

    A connection announcing a frame larger than FRAME_LIMIT is dropped on
    the spot; everyone else keeps talking. Each accepted connection gets
    HANDSHAKE_ACK once it is registered, ahead of any relayed frame.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen()
        self.address = self._server.getsockname()
        self._conns: list[socket.socket] = []
        self._send_locks: dict[socket.socket, threading.Lock] = {}
        self._lock = threading.Lock()
        self._open = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while self._open:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_lock = threading.Lock()
            # hold the send lock from registration until the ack is out, so
            # no relayed frame can overtake it
            with send_lock:
                with self._lock:
                    self._conns.append(conn)
                    self._send_locks[conn] = send_lock
                try:
                    conn.sendall(HANDSHAKE_ACK)
                except OSError:
                    self._drop(conn)
                    continue
            threading.Thread(target=self._reader_loop, args=(conn,), daemon=True).start()

    def _reader_loop(self, conn: socket.socket):
        while True:
            header = _read_exact(conn, 4)
            if header is None:
                break
            (length,) = struct.unpack("<I", header)
            if length > FRAME_LIMIT:
                break  # protocol violation: drop this connection
            payload = _read_exact(conn, length)
            if payload is None:
                break
            self._relay(conn, header + payload)
        self._drop(conn)

    def _relay(self, sender: socket.socket, framed: bytes):
        with self._lock:
            targets = [c for c in self._conns if c is not sender]
            locks = [self._send_locks[c] for c in targets]
        for target, lock in zip(targets, locks):
            try:
                with lock:
                    target.sendall(framed)
            except OSError:
                self._drop(target)

    def _drop(self, conn: socket.socket):
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)
                self._send_locks.pop(conn, None)
        _shutdown_close(conn)

    def close(self):
        self._open = False
        _shutdown_close(self._server)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop(conn)


class SocketEndpoint:
    """A hub connection; returns only once the hub will relay frames to this
    endpoint.

    The constructor waits up to HANDSHAKE_TIMEOUT seconds for the hub's
    HANDSHAKE_ACK. If it is missing or wrong, the socket is closed and
    ClosedError is raised.
    """

    def __init__(self, address: tuple[str, int], name: str = ""):
        self.name = name
        self._sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT)
        ack = _read_exact(self._sock, len(HANDSHAKE_ACK))
        if ack != HANDSHAKE_ACK:
            self._sock.close()
            reason = "no acknowledgement" if ack is None else f"bad acknowledgement {ack!r}"
            raise ClosedError(f"endpoint {name}: hub at {address} sent {reason}")
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._frames: queue.Queue[bytes] = queue.Queue()
        self._open = True
        self.decode_errors: list[DecodeError] = []
        self._reader = threading.Thread(target=self._reader_loop, daemon=True)
        self._reader.start()

    def _reader_loop(self):
        while True:
            header = _read_exact(self._sock, 4)
            if header is None:
                break
            (length,) = struct.unpack("<I", header)
            if length > FRAME_LIMIT:
                self.decode_errors.append(
                    FrameTooLargeError(f"incoming frame of {length} bytes")
                )
                break
            payload = _read_exact(self._sock, length)
            if payload is None:
                break
            self._frames.put(payload)
        # hub went away or dropped us: release the fd instead of leaving it to GC
        self._open = False
        _shutdown_close(self._sock)

    def send(self, msg: BeliefMessage) -> None:
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        frame = encode_message(msg)
        if len(frame) > FRAME_LIMIT:
            self.close()
            raise FrameTooLargeError(f"{len(frame)} bytes exceeds {FRAME_LIMIT}")
        self._sock.sendall(struct.pack("<I", len(frame)) + frame)

    def send_raw(self, frame: bytes) -> None:
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        self._sock.sendall(struct.pack("<I", len(frame)) + bytes(frame))

    def _decode_into(self, out: list[BeliefMessage], frame: bytes) -> None:
        try:
            out.append(decode_message(frame))
        except DecodeError as exc:
            self.decode_errors.append(exc)

    def poll(self, expect: int | None = None, timeout: float = 5.0) -> list[BeliefMessage]:
        """Without expect: drain whatever has arrived. With expect: block until
        that many valid messages arrive or the timeout runs out."""
        if not self._open:
            raise ClosedError(f"endpoint {self.name} is closed")
        out: list[BeliefMessage] = []
        if expect is None:
            while True:
                try:
                    frame = self._frames.get_nowait()
                except queue.Empty:
                    break
                self._decode_into(out, frame)
            return out
        deadline = time.monotonic() + timeout
        while len(out) < expect:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                frame = self._frames.get(timeout=remaining)
            except queue.Empty:
                break
            self._decode_into(out, frame)
        return out

    def close(self) -> None:
        self._open = False
        _shutdown_close(self._sock)


def connect_socket_endpoint(address: tuple[str, int], name: str = "") -> SocketEndpoint:
    """Connect to a SocketHub; returns only once the hub will relay frames to
    this endpoint. Raises ClosedError if the hub's acknowledgement does not
    arrive within HANDSHAKE_TIMEOUT seconds or is wrong."""
    return SocketEndpoint(address, name)
