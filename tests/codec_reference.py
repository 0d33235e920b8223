"""Reference decoder: the field-by-field decoder the codec had before the
message types became the one place that judges field values.

Kept so the production decoder can be checked against it buffer by buffer:
same message, or the same DecodeError subclass.
"""

from __future__ import annotations

import math
import struct
import zlib

from beliefmesh.net.codec import (
    MAGIC,
    VERSION,
    BadMagic,
    CrcMismatch,
    InvalidFieldValue,
    NonFiniteValue,
    TrailingBytes,
    Truncated,
    UnsupportedVersion,
)
from beliefmesh.net.messages import BeliefMessage, SpatialAddress


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise Truncated(f"buffer ends inside {what}")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]


def decode_message(buf: bytes) -> BeliefMessage:
    cur = _Cursor(bytes(buf))
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    version = cur.u8("version")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}, supported: {VERSION}")

    n_segments = cur.u8("segment count")
    raw_segments = []
    for i in range(n_segments):
        length = cur.u16(f"segment {i} length")
        raw_segments.append(cur.take(length, f"segment {i}"))
    coords_flag = cur.u8("coords flag")
    if coords_flag not in (0, 1):
        raise InvalidFieldValue(f"coords flag must be 0 or 1, got {coords_flag}")
    coords = None
    if coords_flag == 1:
        coords = struct.unpack("<3d", cur.take(24, "coords"))
    factor_id = cur.u32("factor_id")
    timestamp = cur.u64("timestamp")
    precision = cur.f64("precision")
    n = cur.u16("vector length")
    vector = struct.unpack(f"<{n}d", cur.take(8 * n, "log-evidence vector"))
    body_end = cur.pos
    stored_crc = cur.u32("crc")
    if cur.pos != len(cur.buf):
        raise TrailingBytes(f"{len(cur.buf) - cur.pos} bytes after the message")
    actual_crc = zlib.crc32(cur.buf[:body_end]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CrcMismatch(f"stored {stored_crc:#010x}, computed {actual_crc:#010x}")

    # structure and integrity hold; now the field contents
    if n_segments < 1:
        raise InvalidFieldValue("origin needs at least one segment")
    segments = []
    for i, raw in enumerate(raw_segments):
        if len(raw) == 0:
            raise InvalidFieldValue(f"segment {i} is empty")
        try:
            seg = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidFieldValue(f"segment {i} is not UTF-8: {exc}") from exc
        if "/" in seg:
            raise InvalidFieldValue(f"segment {i} contains '/'")
        segments.append(seg)
    if coords is not None and not all(math.isfinite(c) for c in coords):
        raise NonFiniteValue("non-finite coordinate")
    if not math.isfinite(precision):
        raise NonFiniteValue(f"non-finite precision {precision}")
    if precision < 0:
        raise InvalidFieldValue(f"negative precision {precision}")
    if n < 1:
        raise InvalidFieldValue("log-evidence vector is empty")
    if not all(math.isfinite(v) for v in vector):
        raise NonFiniteValue("non-finite log-evidence entry")

    return BeliefMessage(
        origin=SpatialAddress(tuple(segments), coords),
        factor_id=factor_id,
        log_evidence=list(vector),
        precision=precision,
        timestamp=timestamp,
    )
