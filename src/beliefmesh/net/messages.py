"""Belief-sharing message types: the origin address and the wire unit."""

from __future__ import annotations

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
        segs = tuple(str(s) for s in self.segments)
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
        object.__setattr__(self, "segments", segs)
        if self.coords is not None:
            xyz = tuple(float(c) for c in self.coords)
            if len(xyz) != 3:
                raise ValueError("coords must be three reals")
            if not all(np.isfinite(c) for c in xyz):
                raise NonFiniteError("coords must be finite")
            object.__setattr__(self, "coords", xyz)

    def canonical(self) -> str:
        return "/".join(self.segments)


@dataclass(frozen=True)
class BeliefMessage:
    """The wire unit: who says it, which shared factor, the evidence vector,
    how confident, and when (sender-monotonic ticks)."""

    origin: SpatialAddress
    factor_id: int
    log_evidence: np.ndarray
    precision: float = 1.0
    timestamp: int = 0

    def __post_init__(self):
        fid = int(self.factor_id)
        if not (0 <= fid <= U32_MAX):
            raise ValueError(f"factor_id {fid} outside u32 range")
        object.__setattr__(self, "factor_id", fid)
        ts = int(self.timestamp)
        if not (0 <= ts <= U64_MAX):
            raise ValueError(f"timestamp {ts} outside u64 range")
        object.__setattr__(self, "timestamp", ts)
        # precision before the vector: a frame with both wrong reports the precision
        prec = float(self.precision)
        if not np.isfinite(prec):
            raise NonFiniteError(f"precision must be finite, got {prec}")
        if prec < 0:
            raise ValueError(f"precision must be >= 0, got {prec}")
        object.__setattr__(self, "precision", prec)
        vec = np.array(self.log_evidence, dtype=np.float64, copy=True)
        if vec.ndim != 1 or vec.size < 1:
            raise ValueError("log_evidence must be a non-empty vector")
        if not np.isfinite(vec).all():
            raise NonFiniteError("log_evidence entries must be finite")
        vec.setflags(write=False)
        object.__setattr__(self, "log_evidence", vec)

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
