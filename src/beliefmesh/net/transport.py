"""Two interchangeable broadcast transports with one contract.

An endpoint sends belief messages and polls for messages from every other
endpoint. Delivery preserves per-sender FIFO order and nothing more. Both buses
hand out endpoints with endpoint(name) and close them all with close(). The
in-memory bus is for single-process runs and tests; the socket hub speaks
u32-little-endian length-prefixed frames over TCP and rebroadcasts each
frame to all other connections.

The socket side runs one thread, the hub's selector loop, which never
blocks on a send. A new connection's output buffer starts out holding
HANDSHAKE_ACK, ahead of any relayed frame; the endpoint waits for that byte,
so a frame sent after connecting reaches every endpoint that connected
before. Endpoints start no thread: poll reads on the caller's thread.

Decode failures on received frames never kill the stream: the bad frame is
recorded on the endpoint's decode_errors list and later frames still arrive.
"""

from __future__ import annotations

import selectors
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
RECV_SIZE = 2**16


class ClosedError(RuntimeError):
    """Operation on a closed endpoint."""


class FrameTooLargeError(ValueError):
    """Frame exceeds the 2^20-byte limit; the connection is dropped."""


def _check_open(ep) -> None:
    if not ep._open:
        raise ClosedError(f"endpoint {ep.name} is closed")


def _encode(ep, msg: BeliefMessage) -> bytes:
    """The codec frame for msg; one over FRAME_LIMIT closes ep and raises."""
    frame = encode_message(msg)
    if len(frame) > FRAME_LIMIT:
        ep.close()
        raise FrameTooLargeError(f"{len(frame)} bytes exceeds {FRAME_LIMIT}")
    return frame


def _decode(ep, frames: deque[bytes], out: list[BeliefMessage], expect: int | None = None):
    """Decode queued frames into out until it holds expect messages (all of
    them without expect) and return it; bad frames go to ep.decode_errors."""
    while frames and (expect is None or len(out) < expect):
        try:
            out.append(decode_message(frames.popleft()))
        except DecodeError as exc:
            ep.decode_errors.append(exc)
    return out


def _take_frames(buf: bytearray) -> tuple[list[bytes], FrameTooLargeError | None]:
    """Cut the complete length-prefixed frames off the front of buf; return
    their payloads and, if a header announces more than FRAME_LIMIT bytes,
    the error, at which the split stops."""
    frames, pos, error = [], 0, None
    while len(buf) >= pos + 4:
        (length,) = struct.unpack_from("<I", buf, pos)
        if length > FRAME_LIMIT:
            error = FrameTooLargeError(f"incoming frame of {length} bytes")
        if error or len(buf) < pos + 4 + length:
            break
        frames.append(bytes(buf[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    del buf[:pos]
    return frames, error


class MemoryEndpoint:
    def __init__(self, bus: "MemoryBus", name: str):
        self._bus = bus
        self.name = name
        self._inbox: deque[bytes] = deque()
        self._open = True
        self.decode_errors: list[DecodeError] = []

    def send(self, msg: BeliefMessage) -> None:
        _check_open(self)
        self.send_raw(_encode(self, msg))

    def send_raw(self, frame: bytes) -> None:
        """Fault injection: put arbitrary bytes on the bus."""
        _check_open(self)
        self._bus._deliver(self, bytes(frame))

    def poll(self, expect: int | None = None, timeout: float = 1.0) -> list[BeliefMessage]:
        _check_open(self)
        with self._bus._lock:
            return _decode(self, self._inbox, [])

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

    def close(self) -> None:
        for ep in self._endpoints:
            ep.close()

    def _deliver(self, sender: MemoryEndpoint, frame: bytes) -> None:
        with self._lock:
            for ep in self._endpoints:
                if ep is not sender and ep._open:
                    ep._inbox.append(frame)


class SocketHub:
    """Accepts TCP connections and rebroadcasts every frame to the others on
    one selector thread. A connection announcing a frame larger than
    FRAME_LIMIT is dropped on the spot; everyone else keeps talking."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = socket.create_server((host, port))  # with SO_REUSEADDR
        self._server.setblocking(False)
        self.address = self._server.getsockname()
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._inbufs: dict[socket.socket, bytearray] = {}
        self._outbufs: dict[socket.socket, bytearray] = {}
        self._endpoints: list[SocketEndpoint] = []
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def endpoint(self, name: str) -> SocketEndpoint:
        ep = SocketEndpoint(self.address, name)
        self._endpoints.append(ep)
        return ep

    def _loop(self):
        try:
            while True:
                for key, events in self._selector.select():
                    sock = key.fileobj
                    if sock is self._wake:
                        return
                    if sock is self._server:
                        self._accept()
                    elif sock not in self._outbufs:
                        continue  # dropped earlier in this batch
                    elif events & selectors.EVENT_WRITE:
                        self._send(sock)  # a read, if also due, comes next round
                    else:
                        self._receive(sock)
        finally:
            for conn in list(self._outbufs):
                self._drop(conn)
            for resource in (self._selector, self._server, self._wake, self._waker):
                resource.close()

    def _accept(self):
        try:
            conn, _ = self._server.accept()
        except OSError:  # the client gave up before we got to it
            return
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._inbufs[conn] = bytearray()
        self._outbufs[conn] = bytearray(HANDSHAKE_ACK)
        self._selector.register(conn, selectors.EVENT_READ)
        self._send(conn)

    def _receive(self, conn: socket.socket):
        try:
            chunk = conn.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            chunk = b""
        self._inbufs[conn] += chunk
        frames, error = _take_frames(self._inbufs[conn])
        for payload in frames:
            framed = struct.pack("<I", len(payload)) + payload
            for target in list(self._outbufs):
                if target is not conn:
                    self._outbufs[target] += framed
                    self._send(target)
        if error is not None or not chunk:
            self._drop(conn)

    def _send(self, conn: socket.socket):
        """Send what the socket takes now; await EVENT_WRITE while bytes remain."""
        out = self._outbufs[conn]
        try:
            del out[: conn.send(out)]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0)
        if self._selector.get_key(conn).events != events:
            self._selector.modify(conn, events)

    def _drop(self, conn: socket.socket):
        if conn in self._outbufs:
            del self._inbufs[conn], self._outbufs[conn]
            self._selector.unregister(conn)
            conn.close()

    def close(self):
        for ep in self._endpoints:
            ep.close()
        if self._thread.is_alive():
            self._waker.send(b"\0")
            self._thread.join()


class SocketEndpoint:
    """A hub connection. The constructor waits up to HANDSHAKE_TIMEOUT seconds
    for the hub's HANDSHAKE_ACK; if it is missing or wrong, the socket is
    closed and ClosedError is raised."""

    def __init__(self, address: tuple[str, int], name: str = ""):
        self.name = name
        self._sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT)
        try:
            ack = self._sock.recv(len(HANDSHAKE_ACK))
        except OSError:  # timed out or reset
            ack = b""
        if ack != HANDSHAKE_ACK:
            self._sock.close()
            reason = "no acknowledgement" if not ack else f"bad acknowledgement {ack!r}"
            raise ClosedError(f"endpoint {name}: hub at {address} sent {reason}")
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._inbuf = bytearray()
        self._frames: deque[bytes] = deque()
        self._open = True
        self.decode_errors: list[DecodeError] = []

    def send(self, msg: BeliefMessage) -> None:
        _check_open(self)
        self.send_raw(_encode(self, msg))

    def send_raw(self, frame: bytes) -> None:
        _check_open(self)
        try:
            self._sock.sendall(struct.pack("<I", len(frame)) + bytes(frame))
        except OSError as exc:  # the hub went away
            self.close()
            raise ClosedError(f"endpoint {self.name}: connection to the hub lost") from exc

    def _receive(self, timeout: float) -> bool:
        """Queue the complete frames that arrive within timeout seconds; False if
        none came. End of stream or an oversized header closes the endpoint."""
        # the socket's own timeout waits in poll(2), free of select's fd limit
        self._sock.settimeout(timeout)
        try:
            chunk = self._sock.recv(RECV_SIZE)
        except (BlockingIOError, TimeoutError):
            return False
        except OSError:  # reset by the hub
            chunk = b""
        finally:
            self._sock.settimeout(None)
        self._inbuf += chunk
        frames, error = _take_frames(self._inbuf)
        self._frames.extend(frames)
        if error is not None:
            self.decode_errors.append(error)
        if error is not None or not chunk:
            self.close()
        return True

    def poll(self, expect: int | None = None, timeout: float = 5.0) -> list[BeliefMessage]:
        """Without expect: drain whatever has arrived. With expect: block until
        that many valid messages arrive, the timeout runs out or the hub goes
        away; later frames stay queued for the next poll."""
        _check_open(self)
        out: list[BeliefMessage] = []
        deadline = time.monotonic() + timeout
        while True:
            _decode(self, self._frames, out, expect)
            if not self._open or (expect is not None and len(out) >= expect):
                return out
            wait = 0.0 if expect is None else deadline - time.monotonic()
            if (expect is not None and wait <= 0) or not self._receive(wait):
                return out

    def close(self) -> None:
        self._open = False
        self._sock.close()
