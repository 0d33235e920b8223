"""Wire format: exact layout, roundtrip identity, and decoder totality."""

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_reference
from beliefmesh.net import codec
from beliefmesh.net import (
    BadMagic,
    BeliefMessage,
    CrcMismatch,
    DecodeError,
    InvalidFieldValue,
    NonFiniteValue,
    SegmentTooLong,
    SpatialAddress,
    TooManySegments,
    TrailingBytes,
    Truncated,
    UnsupportedVersion,
    VectorTooLong,
    decode_message,
    encode_message,
)


def minimal_message(**overrides):
    fields = dict(
        origin=SpatialAddress(("a",)),
        factor_id=0,
        log_evidence=np.array([0.0]),
        precision=0.0,
        timestamp=0,
    )
    fields.update(overrides)
    return BeliefMessage(**fields)


def random_message(rng):
    n_seg = int(rng.integers(1, 5))
    segments = tuple(
        "".join(rng.choice(list("abcdefgh-_0123456789αβγ"), size=rng.integers(1, 12)))
        for _ in range(n_seg)
    )
    coords = tuple(rng.normal(0, 100, size=3)) if rng.random() < 0.5 else None
    return BeliefMessage(
        origin=SpatialAddress(segments, coords),
        factor_id=int(rng.integers(0, 2**32)),
        log_evidence=rng.normal(0, 50, size=int(rng.integers(1, 20))),
        precision=float(rng.uniform(0, 10)),
        timestamp=int(rng.integers(0, 2**63)),
    )


def repack_crc(buf: bytearray) -> bytes:
    """Recompute the trailing CRC after editing a buffer by hand."""
    body = bytes(buf[:-4])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def frame(segments=(b"a",), coords=None, precision=0.0, vector=(0.0,), factor_id=0, timestamp=0):
    """A hand-built frame with a correct CRC, whatever the field values."""
    body = b"AIMP" + bytes([1, len(segments)])
    for raw in segments:
        body += struct.pack("<H", len(raw)) + raw
    body += b"\x00" if coords is None else struct.pack("<B3d", 1, *coords)
    body += struct.pack(
        f"<IQdH{len(vector)}d", factor_id, timestamp, precision, len(vector), *vector
    )
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def fuzz_buffers():
    """10,000 buffers: random bytes, prefixes of valid frames, and valid
    frames with 1-5 bits flipped (CRC left stale)."""
    rng = np.random.default_rng(999)
    seed_messages = [encode_message(random_message(rng)) for _ in range(20)]
    for i in range(10_000):
        mode = i % 3
        if mode == 0:
            buf = rng.bytes(int(rng.integers(0, 120)))
        elif mode == 1:
            base = seed_messages[int(rng.integers(len(seed_messages)))]
            buf = base[: int(rng.integers(0, len(base) + 1))]
        else:
            base = bytearray(seed_messages[int(rng.integers(len(seed_messages)))])
            for _ in range(int(rng.integers(1, 6))):
                base[int(rng.integers(len(base)))] ^= 1 << int(rng.integers(8))
            buf = bytes(base)
        yield buf


NAN, INF = float("nan"), float("inf")

finite_f64 = st.floats(allow_nan=False, allow_infinity=False, width=64)

wire_messages = st.builds(
    BeliefMessage,
    origin=st.builds(
        SpatialAddress,
        segments=st.lists(
            st.text(min_size=1, max_size=8).filter(lambda s: "/" not in s),
            min_size=1,
            max_size=6,
        ).map(tuple),
        coords=st.none() | st.tuples(finite_f64, finite_f64, finite_f64),
    ),
    factor_id=st.integers(0, 2**32 - 1),
    log_evidence=st.lists(finite_f64, min_size=1, max_size=24).map(
        lambda xs: np.array(xs, dtype=np.float64)
    ),
    precision=st.floats(0.0, 1e300, allow_nan=False),
    timestamp=st.integers(0, 2**64 - 1),
)


class TestMessageFields:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SpatialAddress(("a",), (1.0, 2.0)), "coords must be three reals"),
            (lambda: minimal_message(factor_id=2**32), "factor_id 4294967296 outside u32 range"),
            (lambda: minimal_message(timestamp=-1), "timestamp -1 outside u64 range"),
        ],
    )
    def test_out_of_range_field_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: minimal_message(factor_id=3.7),
            lambda: minimal_message(timestamp=2.9),
            lambda: SpatialAddress("room"),
        ],
        ids=["float-factor-id", "float-timestamp", "str-segments"],
    )
    def test_a_field_of_the_wrong_type_is_rejected_not_coerced(self, build):
        with pytest.raises(TypeError):
            build()

    def test_numpy_integers_are_integral_fields(self):
        msg = minimal_message(factor_id=np.uint32(5), timestamp=np.int64(2))
        assert (msg.factor_id, msg.timestamp) == (5, 2)
        assert type(msg.factor_id) is int and type(msg.timestamp) is int

    def test_a_message_never_equals_another_type(self):
        msg = minimal_message()
        assert msg.__eq__(1) is NotImplemented
        assert msg != 1


class TestLayout:
    def test_minimal_message_is_44_bytes(self):
        wire = encode_message(minimal_message())
        assert len(wire) == 44

    def test_magic_and_version_bytes(self):
        wire = encode_message(minimal_message())
        assert wire[:4] == b"AIMP"
        assert wire[4] == 1

    def test_fields_sit_at_documented_offsets(self):
        msg = minimal_message(factor_id=0xDEADBEEF, timestamp=7, precision=2.5)
        wire = encode_message(msg)
        # 4 magic + 1 version + 1 count + 2 len + 1 "a" + 1 flag = offset 10
        assert struct.unpack_from("<I", wire, 10)[0] == 0xDEADBEEF
        assert struct.unpack_from("<Q", wire, 14)[0] == 7
        assert struct.unpack_from("<d", wire, 22)[0] == 2.5
        assert struct.unpack_from("<H", wire, 30)[0] == 1

    def test_all_little_endian_crc_is_ieee(self):
        wire = encode_message(minimal_message())
        body, stored = wire[:-4], struct.unpack("<I", wire[-4:])[0]
        assert stored == zlib.crc32(body) & 0xFFFFFFFF

    def test_coords_add_24_bytes(self):
        with_coords = minimal_message(origin=SpatialAddress(("a",), (1.0, 2.0, 3.0)))
        assert len(encode_message(with_coords)) == 44 + 24


GOLDEN_FRAMES = json.loads(
    Path(__file__).with_name("golden_frames.json").read_text(encoding="utf-8")
)


def golden_message(fields):
    coords = fields["coords"]
    return BeliefMessage(
        origin=SpatialAddress(tuple(fields["segments"]), None if coords is None else tuple(coords)),
        factor_id=fields["factor_id"],
        log_evidence=np.array(fields["log_evidence"], dtype=np.float64),
        precision=fields["precision"],
        timestamp=fields["timestamp"],
    )


# The two boundary frames, built by rule and pinned by (length, sha256):
# one segment of 65,535 "x" bytes (the u16 length's ceiling), and the
# longest vector, 65,535 entries -i/64 for i = 0..65534 (the u16 count's).
BUILT_FRAMES = {
    "longest-segment": (
        lambda: BeliefMessage(SpatialAddress(("x" * 0xFFFF,)), 1, np.array([0.5]), 1.0, 2),
        65_578,
        "faa0056b0824725b2ceebd55b5b55b97623ec156522101bfa2273d0eb0c6b292",
    ),
    "longest-vector": (
        lambda: BeliefMessage(
            SpatialAddress(("room", "agent-0")), 0, -np.arange(0xFFFF) / 64.0, 1.0, 4
        ),
        524_328,
        "4bdfd6e2c26de9eaee3368266d7f0f7af4fa0a9d4b2169f1534de35b5e4a207f",
    ),
}


class TestGoldenFrames:
    """tests/golden_frames.json is the checked spec of the wire layout: each
    frame's fields encode to its bytes and its bytes decode to its fields."""

    @pytest.mark.parametrize("golden", GOLDEN_FRAMES, ids=[g["name"] for g in GOLDEN_FRAMES])
    def test_fields_and_bytes_pin_each_other(self, golden):
        wire, msg = bytes.fromhex(golden["hex"]), golden_message(golden)
        assert encode_message(msg) == wire
        back = decode_message(wire)
        assert back == msg
        assert back.origin.segments == tuple(golden["segments"])
        # == cannot tell -0.0 from 0.0; the bytes can
        assert back.log_evidence.tobytes() == msg.log_evidence.tobytes()

    def test_the_frames_cover_the_named_cases(self):
        by_name = {g["name"]: g for g in GOLDEN_FRAMES}
        assert by_name["no-coords"]["coords"] is None
        assert by_name["with-coords"]["coords"] is not None
        assert any(not s.isascii() for s in by_name["non-ascii-segment"]["segments"])
        assert len(by_name["255-segments"]["segments"]) == 255

    @pytest.mark.parametrize("name", BUILT_FRAMES)
    def test_boundary_frame_pins_both_directions(self, name):
        build, length, digest = BUILT_FRAMES[name]
        msg = build()
        wire = encode_message(msg)
        assert (len(wire), hashlib.sha256(wire).hexdigest()) == (length, digest)
        back = decode_message(wire)
        assert back == msg
        assert back.log_evidence.tobytes() == msg.log_evidence.tobytes()


class TestRoundtrip:
    def test_thousand_random_messages_bit_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            msg = random_message(rng)
            wire = encode_message(msg)
            back = decode_message(wire)
            assert back == msg
            assert encode_message(back) == wire

    def test_negative_zero_and_subnormals_survive(self):
        msg = minimal_message(log_evidence=np.array([-0.0, 5e-324, -5e-324]))
        back = decode_message(encode_message(msg))
        assert back.log_evidence.tobytes() == msg.log_evidence.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(wire_messages)
    def test_decode_inverts_encode_on_the_whole_valid_domain(self, message):
        wire = encode_message(message)
        back = decode_message(wire)
        assert back == message
        # re-encoding must reproduce the exact bytes (pins -0.0, subnormals)
        assert encode_message(back) == wire


class TestEncodeErrors:
    def test_segment_too_long(self):
        msg = minimal_message(origin=SpatialAddress(("x" * 70000,)))
        with pytest.raises(SegmentTooLong):
            encode_message(msg)

    def test_too_many_segments(self):
        msg = minimal_message(origin=SpatialAddress(tuple(f"s{i}" for i in range(300))))
        with pytest.raises(TooManySegments):
            encode_message(msg)

    def test_vector_too_long(self):
        msg = minimal_message(log_evidence=np.zeros(70000))
        with pytest.raises(VectorTooLong):
            encode_message(msg)

    def test_segment_with_a_lone_surrogate_never_reaches_the_encoder(self):
        # "\ud800" has no UTF-8 form; the address refuses it like its other bad segments
        with pytest.raises(ValueError, match="UTF-8"):
            SpatialAddress(("room", "\ud800"))


class TestDecodeErrors:
    def test_truncated_by_one_byte(self):
        wire = encode_message(minimal_message())
        with pytest.raises(Truncated):
            decode_message(wire[:-1])

    def test_every_prefix_is_rejected_cleanly(self):
        wire = encode_message(random_message(np.random.default_rng(3)))
        for cut in range(len(wire)):
            with pytest.raises(DecodeError):
                decode_message(wire[:cut])

    def test_each_truncation_names_its_field(self):
        # two segments "ab", "c", coords, a 2-entry vector: each field's end offset
        wire = frame(segments=(b"ab", b"c"), coords=(1.0, 2.0, 3.0), vector=(0.5, 1.5))
        ends = [
            (4, "magic"), (5, "version"), (6, "segment count"), (8, "segment 0 length"),
            (10, "segment 0"), (12, "segment 1 length"), (13, "segment 1"),
            (14, "coords flag"), (38, "coords"), (60, "factor_id to vector length"),
            (76, "log-evidence vector"), (80, "crc"),
        ]
        assert len(wire) == 80
        for cut in range(len(wire)):
            field = next(name for end, name in ends if cut < end)
            with pytest.raises(Truncated, match=f"^buffer ends inside {field}$"):
                decode_message(wire[:cut])

    def test_payload_bit_flip_is_crc_mismatch(self):
        wire = bytearray(encode_message(minimal_message(precision=1.0)))
        wire[25] ^= 0x10  # inside the precision f64
        with pytest.raises(CrcMismatch):
            decode_message(bytes(wire))

    def test_crc_field_flips_always_detected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            wire = bytearray(encode_message(random_message(rng)))
            bit = int(rng.integers(0, 32))
            wire[-4 + bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CrcMismatch):
                decode_message(bytes(wire))

    def test_bad_magic(self):
        wire = bytearray(encode_message(minimal_message()))
        wire[0] = ord("X")
        with pytest.raises(BadMagic):
            decode_message(bytes(wire))

    def test_unsupported_version(self):
        wire = bytearray(encode_message(minimal_message()))
        wire[4] = 2
        with pytest.raises(UnsupportedVersion):
            decode_message(bytes(wire))

    def test_trailing_bytes(self):
        wire = encode_message(minimal_message())
        with pytest.raises(TrailingBytes, match="^3 bytes after the message$"):
            decode_message(wire + b"\x00" * 3)

    def test_nan_precision(self):
        wire = bytearray(encode_message(minimal_message()))
        struct.pack_into("<d", wire, 22, float("nan"))
        with pytest.raises(NonFiniteValue):
            decode_message(repack_crc(wire))

    def test_negative_precision(self):
        wire = bytearray(encode_message(minimal_message()))
        struct.pack_into("<d", wire, 22, -1.0)
        with pytest.raises(InvalidFieldValue):
            decode_message(repack_crc(wire))

    def test_infinite_log_evidence(self):
        wire = bytearray(encode_message(minimal_message()))
        struct.pack_into("<d", wire, 32, float("inf"))
        with pytest.raises(NonFiniteValue):
            decode_message(repack_crc(wire))

    def test_zero_segments(self):
        # hand-built: magic, version, count=0, no coords, ids, empty vector
        body = b"AIMP" + bytes([1, 0, 0])
        body += struct.pack("<I", 0) + struct.pack("<Q", 0) + struct.pack("<d", 0.0)
        body += struct.pack("<H", 1) + struct.pack("<d", 0.0)
        wire = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(InvalidFieldValue):
            decode_message(wire)

    def test_slash_inside_segment(self):
        wire = bytearray(encode_message(minimal_message()))
        wire[8] = ord("/")  # the single segment byte
        with pytest.raises(InvalidFieldValue):
            decode_message(repack_crc(wire))

    def test_bad_coords_flag(self):
        wire = bytearray(encode_message(minimal_message()))
        wire[9] = 7
        with pytest.raises(InvalidFieldValue):
            decode_message(repack_crc(wire))

    def test_empty_buffer(self):
        with pytest.raises(DecodeError):
            decode_message(b"")

    @pytest.mark.parametrize(
        "wire, error",
        [
            (frame(segments=(b"\xff",)), InvalidFieldValue),
            (frame(segments=(b"",)), InvalidFieldValue),
            (frame(coords=(0.0, NAN, 0.0)), NonFiniteValue),
            (frame(vector=()), InvalidFieldValue),
            (b"AIMP\x02", UnsupportedVersion),
        ],
        ids=["non-utf8-segment", "empty-segment", "nan-coordinate", "empty-vector", "version-2-prefix"],
    )
    def test_field_and_prefix_errors(self, wire, error):
        with pytest.raises(error):
            decode_message(wire)


class TestFuzz:
    def test_decoder_is_total(self):
        crashes = 0
        for buf in fuzz_buffers():
            try:
                decode_message(buf)
            except DecodeError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0


def outcome(decode, buf):
    """The re-encoded message, or the DecodeError subclass raised."""
    try:
        return encode_message(decode(buf))
    except DecodeError as exc:
        return type(exc)


def differences(buffers):
    """Buffers on which the decoder and the reference decoder disagree, and
    the set of outcome kinds seen (bytes for a decoded message)."""
    differ, kinds = [], set()
    for buf in buffers:
        ours = outcome(decode_message, buf)
        if ours != outcome(codec_reference.decode_message, buf):
            differ.append(buf)
        kinds.add(bytes if isinstance(ours, bytes) else ours)
    return differ, kinds


def reference_frames():
    """20 random frames, then the same frames announcing version 2."""
    rng = np.random.default_rng(17)
    frames = [encode_message(random_message(rng)) for _ in range(20)]
    return frames + [wire[:4] + b"\x02" + wire[5:] for wire in frames]


def bit_flips(wire):
    """Every single-bit flip of the body, with the CRC recomputed."""
    for i in range(len(wire) - 4):
        for bit in range(8):
            flipped = bytearray(wire)
            flipped[i] ^= 1 << bit
            yield repack_crc(flipped)


MULTI_FAULT_FRAMES = {
    "negative-precision-infinite-entry": frame(precision=-1.0, vector=(INF,)),
    "nan-precision-empty-vector": frame(precision=NAN, vector=()),
    "negative-precision-empty-vector": frame(precision=-1.0, vector=()),
    "infinite-precision-nan-entry": frame(precision=INF, vector=(1.0, NAN)),
    "infinite-coord-negative-precision": frame(coords=(INF, 0.0, 0.0), precision=-1.0),
    "slash-segment-nan-coord": frame(segments=(b"a/b",), coords=(NAN, 0.0, 0.0)),
    "bad-utf8-after-good-segment-infinite-coord": frame(
        segments=(b"ok", b"\xff"), coords=(INF, 0.0, 0.0)
    ),
    "empty-and-slash-segments-empty-vector": frame(segments=(b"", b"/"), vector=()),
    "no-segments-nan-precision": frame(segments=(), precision=NAN),
    "nan-coord-nan-precision-empty-vector": frame(
        coords=(0.0, 0.0, NAN), precision=NAN, vector=()
    ),
}


class TestAgainstReference:
    """The decoder matches tests/codec_reference.py, the decoder that checked
    every field itself, on every buffer: same message or same error class."""

    def test_fuzz_corpus(self):
        differ, _ = differences(fuzz_buffers())
        assert differ == []

    def test_every_prefix(self):
        buffers = [wire[:cut] for wire in reference_frames() for cut in range(len(wire) + 1)]
        differ, kinds = differences(buffers)
        assert differ == []
        assert {Truncated, UnsupportedVersion, bytes} <= kinds

    def test_every_single_bit_flip_with_crc_recomputed(self):
        differ, kinds = differences(
            flipped for wire in reference_frames() for flipped in bit_flips(wire)
        )
        assert differ == []
        assert {BadMagic, UnsupportedVersion, Truncated, TrailingBytes, InvalidFieldValue,
                bytes} <= kinds

    @pytest.mark.parametrize("wire", MULTI_FAULT_FRAMES.values(), ids=MULTI_FAULT_FRAMES.keys())
    def test_multi_fault_frames(self, wire):
        differ, kinds = differences([wire])
        assert differ == []
        assert kinds <= {InvalidFieldValue, NonFiniteValue}


def decoded(buf):
    """The re-encoded message, or the DecodeError's class and text."""
    try:
        return encode_message(decode_message(buf))
    except DecodeError as exc:
        return type(exc), str(exc)


class TestOriginCache:
    """Interning decoded origins changes no outcome, only the work."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        codec._origins.clear()
        yield
        codec._origins.clear()

    def test_cold_and_warm_decodes_agree_on_every_corpus(self):
        corpora = [
            fuzz_buffers(),
            (wire[:cut] for wire in reference_frames() for cut in range(len(wire) + 1)),
            (flipped for wire in reference_frames() for flipped in bit_flips(wire)),
            MULTI_FAULT_FRAMES.values(),
        ]
        differ, hits = [], 0
        for buffers in corpora:
            for buf in buffers:
                codec._origins.clear()
                cold = decoded(buf)
                hits += len(codec._origins)
                if decoded(buf) != cold:
                    differ.append(buf)
        assert differ == []
        assert hits > 1000  # the warm decodes did find their origins cached

    def test_a_cached_origin_excuses_no_fault_in_the_rest_of_the_frame(self):
        wire = encode_message(minimal_message(origin=SpatialAddress(("room", "agent-1"))))
        first = decode_message(wire)
        assert decode_message(wire).origin is first.origin
        assert len(codec._origins) == 1
        stale = bytearray(wire)
        stale[-6] ^= 0x01  # inside the vector; the CRC is left as it was
        nan_precision = bytearray(wire)
        struct.pack_into("<d", nan_precision, len(wire) - 22, NAN)
        faults = [
            (wire[:-1], Truncated, "^buffer ends inside crc$"),
            (wire[:-9], Truncated, "^buffer ends inside log-evidence vector$"),
            (wire + b"\x00\x00", TrailingBytes, "^2 bytes after the message$"),
            (bytes(stale), CrcMismatch, "^stored 0x[0-9a-f]{8}, computed 0x[0-9a-f]{8}$"),
            (repack_crc(nan_precision), NonFiniteValue, "^precision must be finite, got nan$"),
        ]
        for buf, error, message in faults:
            with pytest.raises(error, match=message):
                decode_message(buf)
        assert len(codec._origins) == 1

    def test_a_rejected_origin_is_never_cached(self):
        wire = frame(segments=(b"a/b",))
        for _ in range(2):
            with pytest.raises(InvalidFieldValue, match="contains '/'"):
                decode_message(wire)
        assert codec._origins == {}

    def test_a_decoded_vector_is_a_read_only_copy_of_the_input(self):
        msg = minimal_message(origin=SpatialAddress(("room",)), log_evidence=np.array([1.0, 2.0]))
        buf = bytearray(encode_message(msg))
        back = decode_message(buf)
        assert not back.log_evidence.flags.writeable and back.log_evidence.flags.owndata
        with pytest.raises(ValueError):
            back.log_evidence[0] = 5.0
        buf[:] = bytes(len(buf))
        assert back == msg

    def test_more_origins_than_the_bound_fill_it_and_decode_correctly(self):
        messages = [
            minimal_message(origin=SpatialAddress(("room", f"agent-{i}")), timestamp=i)
            for i in range(codec.ORIGIN_CACHE_SIZE + 50)
        ]
        for _ in range(2):  # the second pass mixes hits and misses
            for msg in messages:
                assert decode_message(encode_message(msg)) == msg
            assert len(codec._origins) == codec.ORIGIN_CACHE_SIZE
