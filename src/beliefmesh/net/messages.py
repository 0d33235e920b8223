"""Belief-sharing message types: the origin address and the wire unit."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ..core import NonFiniteError

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SpatialAddress:
    """Hierarchical origin identifier, e.g. room/zone-3/agent-7, with
    optional metric coordinates."""

    segments: tuple[str, ...]
    coords: tuple[float, float, float] | None = None

    def __post_init__(self):
        if isinstance(self.segments, str):
            raise TypeError(f"segments must be a tuple of strings, got the str {self.segments!r}")
        segs = tuple(map(str, self.segments))
        if not segs:
            raise ValueError("address needs at least one segment")
        for s in segs:
            if not s:
                raise ValueError("address segments must be non-empty")
            if "/" in s:
                raise ValueError(f"address segment {s!r} contains '/'")
            try:
                s.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"address segment {s!r} is not encodable as UTF-8") from None
        xyz = None
        if self.coords is not None:
            xyz = tuple(map(float, self.coords))
            if len(xyz) != 3:
                raise ValueError("coords must be three reals")
            if not all(map(math.isfinite, xyz)):
                raise NonFiniteError("coords must be finite")
        self.__dict__.update(segments=segs, coords=xyz)

    def canonical(self) -> str:
        return "/".join(self.segments)


@dataclass(frozen=True, init=False)
class BeliefMessage:
    """The wire unit: who says it, which shared factor, the evidence vector,
    how confident, and when (sender-monotonic ticks)."""

    origin: SpatialAddress
    factor_id: int
    log_evidence: np.ndarray
    precision: float
    timestamp: int

    def __init__(self, origin, factor_id, log_evidence, precision=1.0, timestamp=0):
        # checks each field and sets it once; the dataclass __init__ would set it twice
        fid = operator.index(factor_id)
        if not (0 <= fid <= U32_MAX):
            raise ValueError(f"factor_id {fid} outside u32 range")
        ts = operator.index(timestamp)
        if not (0 <= ts <= U64_MAX):
            raise ValueError(f"timestamp {ts} outside u64 range")
        # precision before the vector: a frame with both wrong reports the precision
        prec = float(precision)
        if not math.isfinite(prec):
            raise NonFiniteError(f"precision must be finite, got {prec}")
        if prec < 0:
            raise ValueError(f"precision must be >= 0, got {prec}")
        vec = np.array(log_evidence, dtype=np.float64, copy=True)
        if vec.ndim != 1 or vec.size < 1:
            raise ValueError("log_evidence must be a non-empty vector")
        if not all(map(math.isfinite, vec.tolist())):
            raise NonFiniteError("log_evidence entries must be finite")
        vec.setflags(write=False)
        self.__dict__.update(
            origin=origin, factor_id=fid, log_evidence=vec, precision=prec, timestamp=ts
        )

    def __eq__(self, other):
        if not isinstance(other, BeliefMessage):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.factor_id == other.factor_id
            and self.timestamp == other.timestamp
            and self.precision == other.precision
            and self.log_evidence.shape == other.log_evidence.shape
            and bool(np.all(self.log_evidence == other.log_evidence))
        )
