"""Binary wire format for belief messages.

Layout, all multi-byte values little-endian; the frames in
tests/golden_frames.json pin it in both directions, so it is a checked spec:

    magic "AIMP"                      4 bytes
    version                           u8  (= 1)
    origin segment count              u8
    per segment: length u16, then that many UTF-8 bytes
    coords flag                       u8  (0 or 1)
    if flag: x, y, z                  3 x f64
    factor_id                         u32
    timestamp                         u64
    precision                         f64
    vector length                     u16
    log-evidence entries              f64 x length
    CRC32 (IEEE) of all prior bytes   u32

The decoder checks the structure (magic, version, lengths, coords flag,
trailing bytes) and the CRC in one pass over the bytes. The field contents
are judged in one place, by BeliefMessage and SpatialAddress: a non-finite
value becomes NonFiniteValue, any other rejected value InvalidFieldValue.
Origins are interned by their raw bytes (segment count through coords): an
origin that SpatialAddress accepted once is reused, not rebuilt, and one it
rejected is judged again each time. The decoder is still total: any byte
buffer yields a message or a DecodeError, never an unhandled exception or
an out-of-bounds read.
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np

from ..core import NonFiniteError
from .messages import BeliefMessage, SpatialAddress

MAGIC = b"AIMP"
VERSION = 1
MAX_SEGMENTS = 0xFF
MAX_SEGMENT_BYTES = 0xFFFF
MAX_VECTOR_LEN = 0xFFFF
_FIXED = struct.Struct("<IQdH")  # factor_id, timestamp, precision, vector length
_CRC = struct.Struct("<I")
_COORDS = struct.Struct("<3d")


class EncodeError(ValueError):
    pass


class SegmentTooLong(EncodeError):
    pass


class TooManySegments(EncodeError):
    pass


class VectorTooLong(EncodeError):
    pass


class DecodeError(ValueError):
    pass


class BadMagic(DecodeError):
    pass


class UnsupportedVersion(DecodeError):
    pass


class Truncated(DecodeError):
    pass


class CrcMismatch(DecodeError):
    pass


class NonFiniteValue(DecodeError):
    pass


class InvalidFieldValue(DecodeError):
    pass


class TrailingBytes(DecodeError):
    pass


def encode_message(msg: BeliefMessage) -> bytes:
    segments = msg.origin.segments
    if len(segments) > MAX_SEGMENTS:
        raise TooManySegments(f"{len(segments)} segments, wire carries at most {MAX_SEGMENTS}")
    out = bytearray(MAGIC)
    out += struct.pack("<BB", VERSION, len(segments))
    for seg in segments:
        raw = seg.encode("utf-8")
        if len(raw) > MAX_SEGMENT_BYTES:
            raise SegmentTooLong(f"segment of {len(raw)} bytes exceeds {MAX_SEGMENT_BYTES}")
        out += struct.pack("<H", len(raw))
        out += raw
    coords = msg.origin.coords
    out += struct.pack("<B", 0) if coords is None else struct.pack("<B3d", 1, *coords)
    n = msg.log_evidence.size
    if n > MAX_VECTOR_LEN:
        raise VectorTooLong(f"vector of {n} entries exceeds {MAX_VECTOR_LEN}")
    out += struct.pack(
        f"<IQdH{n}d", msg.factor_id, msg.timestamp, msg.precision, n, *msg.log_evidence
    )
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


# Validated origins by their raw bytes (segment count through coords); the
# first ORIGIN_CACHE_SIZE distinct ones are kept for the process's life.
ORIGIN_CACHE_SIZE = 1024
_origins: dict[bytes, SpatialAddress] = {}
_origins_lock = threading.Lock()  # endpoints may decode on several threads


def _origin(raw: bytes) -> SpatialAddress:
    """The address whose wire bytes are raw, built and judged by SpatialAddress."""
    segments, pos = [], 1
    for _ in range(raw[0]):
        length = raw[pos] | raw[pos + 1] << 8
        segments.append(raw[pos + 2 : pos + 2 + length].decode("utf-8"))
        pos += 2 + length
    coords = _COORDS.unpack_from(raw, pos + 1) if raw[pos] else None
    origin = SpatialAddress(tuple(segments), coords)
    with _origins_lock:
        if len(_origins) < ORIGIN_CACHE_SIZE:
            _origins[raw] = origin
    return origin


def decode_message(buf: bytes) -> BeliefMessage:
    buf = bytes(buf)
    size = len(buf)
    if size < 4:
        raise Truncated("buffer ends inside magic")
    if buf[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {buf[:4]!r}")
    if size < 5:
        raise Truncated("buffer ends inside version")
    if buf[4] != VERSION:
        raise UnsupportedVersion(f"version {buf[4]}, supported: {VERSION}")
    if size < 6:
        raise Truncated("buffer ends inside segment count")
    pos = 6
    for i in range(buf[5]):
        if size < pos + 2:
            raise Truncated(f"buffer ends inside segment {i} length")
        pos += 2 + (buf[pos] | buf[pos + 1] << 8)
        if size < pos:
            raise Truncated(f"buffer ends inside segment {i}")
    if size <= pos:
        raise Truncated("buffer ends inside coords flag")
    if buf[pos] > 1:
        raise InvalidFieldValue(f"coords flag must be 0 or 1, got {buf[pos]}")
    origin_end = pos + 1 + 24 * buf[pos]
    if size < origin_end:
        raise Truncated("buffer ends inside coords")
    if size < origin_end + 22:
        raise Truncated("buffer ends inside factor_id to vector length")
    factor_id, timestamp, precision, n = _FIXED.unpack_from(buf, origin_end)
    pos = origin_end + 22 + 8 * n
    if size < pos:
        raise Truncated("buffer ends inside log-evidence vector")
    if size < pos + 4:
        raise Truncated("buffer ends inside crc")
    if size > pos + 4:
        raise TrailingBytes(f"{size - pos - 4} bytes after the message")
    (stored_crc,) = _CRC.unpack_from(buf, pos)
    actual_crc = zlib.crc32(memoryview(buf)[:pos])
    if stored_crc != actual_crc:
        raise CrcMismatch(f"stored {stored_crc:#010x}, computed {actual_crc:#010x}")

    # structure and integrity hold; the message types judge the field contents
    try:
        raw_origin = buf[5:origin_end]
        return BeliefMessage(
            origin=_origins.get(raw_origin) or _origin(raw_origin),
            factor_id=factor_id,
            log_evidence=np.frombuffer(buf, "<f8", count=n, offset=origin_end + 22),
            precision=precision,
            timestamp=timestamp,
        )
    except NonFiniteError as exc:
        raise NonFiniteValue(str(exc)) from exc
    except ValueError as exc:  # also UnicodeDecodeError from a segment
        raise InvalidFieldValue(str(exc)) from exc
