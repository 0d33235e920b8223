"""Inter-agent belief sharing: message types, wire codec, evidence fusion,
source selection, and interchangeable transports."""

from .messages import BeliefMessage, SpatialAddress
from .codec import (
    BadMagic,
    CrcMismatch,
    DecodeError,
    EncodeError,
    InvalidFieldValue,
    NonFiniteValue,
    SegmentTooLong,
    TooManySegments,
    TrailingBytes,
    Truncated,
    UnsupportedVersion,
    VectorTooLong,
    decode_message,
    encode_message,
)
from .fusion import (
    KTooLargeError,
    expected_info_gain_of_source,
    fuse_evidence,
    select_sources,
)
from .transport import (
    ClosedError,
    FrameTooLargeError,
    MemoryBus,
    MemoryEndpoint,
    SocketEndpoint,
    SocketHub,
)

__all__ = [
    "BeliefMessage",
    "SpatialAddress",
    "BadMagic",
    "CrcMismatch",
    "DecodeError",
    "EncodeError",
    "InvalidFieldValue",
    "NonFiniteValue",
    "SegmentTooLong",
    "TrailingBytes",
    "Truncated",
    "UnsupportedVersion",
    "VectorTooLong",
    "decode_message",
    "encode_message",
    "KTooLargeError",
    "expected_info_gain_of_source",
    "fuse_evidence",
    "select_sources",
    "TooManySegments",
    "ClosedError",
    "FrameTooLargeError",
    "MemoryBus",
    "MemoryEndpoint",
    "SocketEndpoint",
    "SocketHub",
]
