"""Binary wire format for belief messages.

Layout, all multi-byte values little-endian:

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
trailing bytes) and the CRC. The field contents are judged in one place, by
BeliefMessage and SpatialAddress: a non-finite value becomes NonFiniteValue,
any other rejected value InvalidFieldValue. The decoder is still total: any
byte buffer yields a message or a DecodeError, never an unhandled exception
or an out-of-bounds read.
"""

from __future__ import annotations

import struct
import zlib

from ..core import NonFiniteError
from .messages import BeliefMessage, SpatialAddress

MAGIC = b"AIMP"
VERSION = 1
MAX_SEGMENTS = 0xFF
MAX_SEGMENT_BYTES = 0xFFFF
MAX_VECTOR_LEN = 0xFFFF


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
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    return bytes(out)


def _unpack(fmt: str, buf: bytes, pos: int, what: str) -> tuple:
    try:
        return struct.unpack_from(fmt, buf, pos)
    except struct.error:
        raise Truncated(f"buffer ends inside {what}") from None


def decode_message(buf: bytes) -> BeliefMessage:
    buf = bytes(buf)
    (magic,) = _unpack("<4s", buf, 0, "magic")
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    (version,) = _unpack("<B", buf, 4, "version")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}, supported: {VERSION}")
    (n_segments,) = _unpack("<B", buf, 5, "segment count")
    pos = 6
    raw_segments = []
    for i in range(n_segments):
        (length,) = _unpack("<H", buf, pos, f"segment {i} length")
        (raw,) = _unpack(f"<{length}s", buf, pos + 2, f"segment {i}")
        raw_segments.append(raw)
        pos += 2 + length
    (coords_flag,) = _unpack("<B", buf, pos, "coords flag")
    if coords_flag not in (0, 1):
        raise InvalidFieldValue(f"coords flag must be 0 or 1, got {coords_flag}")
    pos += 1
    coords = None
    if coords_flag:
        coords = _unpack("<3d", buf, pos, "coords")
        pos += 24
    factor_id, timestamp, precision, n = _unpack("<IQdH", buf, pos, "factor_id to vector length")
    pos += 22
    vector = _unpack(f"<{n}d", buf, pos, "log-evidence vector")
    pos += 8 * n
    (stored_crc,) = _unpack("<I", buf, pos, "crc")
    if pos + 4 != len(buf):
        raise TrailingBytes(f"{len(buf) - pos - 4} bytes after the message")
    actual_crc = zlib.crc32(buf[:pos]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CrcMismatch(f"stored {stored_crc:#010x}, computed {actual_crc:#010x}")

    # structure and integrity hold; the message types judge the field contents
    try:
        return BeliefMessage(
            origin=SpatialAddress(tuple(raw.decode("utf-8") for raw in raw_segments), coords),
            factor_id=factor_id,
            log_evidence=vector,
            precision=precision,
            timestamp=timestamp,
        )
    except NonFiniteError as exc:
        raise NonFiniteValue(str(exc)) from exc
    except ValueError as exc:  # also UnicodeDecodeError from a segment
        raise InvalidFieldValue(str(exc)) from exc
