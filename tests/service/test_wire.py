"""Wire codec + framing: lossless byte round-trips, loud failures."""

import asyncio
import random
import struct
import tracemalloc

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import WireError
from repro.msgnet.protocol import (
    PING,
    READ,
    READ_TS,
    REPLY_ACK,
    REPLY_PONG,
    REPLY_STATUS,
    REPLY_TS,
    REPLY_VALUE,
    STATUS,
    WRITE,
)
from repro.registers.base import INITIAL_OP_UID
from repro.registers.timestamps import TS_ZERO, Timestamp
from repro.service.framing import (
    MAX_FRAME_BYTES,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.service.wire import MAX_DEPTH, decode_payload, encode_payload

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def block(payload=b"abcd", index=1, op_uid=5):
    return CodeBlock(
        payload=payload, index=index,
        source=BlockSource(op_uid, index), size_bits=len(payload) * 8,
    )


#: Every message of ``msgnet/protocol.py``, with the awkward field values.
VOCABULARY = [
    (READ_TS, (42, 1)),
    (REPLY_TS, (42, 1), TS_ZERO),  # empty client name
    (WRITE, (42, 2), Timestamp(INT64_MAX, "wr\u00eft\u00e9r-\u4e16"),
     block(b"")),
    (WRITE, (INT64_MAX, 2), Timestamp(9, "w1"),
     block(bytes(range(256)) * 256)),  # 64 KiB
    (REPLY_ACK, (42, 2)),
    (READ, (INT64_MIN, 1)),
    (REPLY_VALUE, (7, 1), TS_ZERO, block(b"\x00" * 8, 0, INITIAL_OP_UID)),
    (STATUS, ("admin", 0)),
    (REPLY_STATUS, ("admin", 0), Timestamp(3, "w0"), 524288, 17),
    (PING, (0, 0)),
    (REPLY_PONG, (0, 0)),
]


def same_types(left, right):
    """``==`` plus identical types all the way down (True is not 1)."""
    if type(left) is not type(right) or left != right:
        return False
    if isinstance(left, tuple):
        return all(same_types(a, b) for a, b in zip(left, right))
    return True


class TestCodec:
    @pytest.mark.parametrize(
        "payload", VOCABULARY,
        ids=[f"{payload[0]}-{i}" for i, payload in enumerate(VOCABULARY)],
    )
    def test_message_vocabulary_roundtrips(self, payload):
        decoded = decode_payload(encode_payload(payload))
        assert same_types(decoded, payload)
        for item in decoded:
            if isinstance(item, CodeBlock):
                assert type(item.payload) is bytes

    def test_timestamp_roundtrip_preserves_ordering(self):
        wire = encode_payload(("ts-reply", (0, 1), Timestamp(3, "w")))
        decoded = decode_payload(wire)
        assert decoded[2] == Timestamp(3, "w")
        assert decoded[2] > Timestamp(2, "z")  # still totally ordered

    def test_block_roundtrip_preserves_metering_fields(self):
        original = block()
        decoded = decode_payload(
            encode_payload((REPLY_VALUE, (7, 1), TS_ZERO, original))
        )
        assert decoded[3] == original
        assert decoded[3].size_bits == original.size_bits
        assert decoded[3].source == original.source

    def test_request_ids_stay_tuples(self):
        # Quorum rounds compare request ids with ==; a list would never
        # equal the tuple the machine issued.
        decoded = decode_payload(encode_payload([READ_TS, [42, 2]]))
        assert decoded == (READ_TS, (42, 2))
        assert isinstance(decoded[1], tuple)

    def test_bytes_roundtrip(self):
        decoded = decode_payload(
            encode_payload(("x", (0, 1), b"\x00\xff", bytearray(b"ab")))
        )
        assert decoded[2:] == (b"\x00\xff", b"ab")

    def test_scalars_keep_their_types(self):
        payload = ("x", (None, True, False, 0, 1, -1.5, float("inf"), ""))
        assert same_types(decode_payload(encode_payload(payload)), payload)

    def test_full_write_payload_roundtrip(self):
        payload = (WRITE, (3, 2), Timestamp(9, "w1"), block(b"\x01" * 16, 0))
        assert decode_payload(encode_payload(payload)) == payload

    def test_block_payload_travels_raw(self):
        payload = (WRITE, (3, 2), Timestamp(9, "w1"), block(bytes(65536), 0))
        frame = encode_payload(payload)
        assert len(frame) <= 65536 + 128

    def test_unknown_tag_raises(self):
        with pytest.raises(WireError, match="unknown type byte 0x5b"):
            decode_payload(b'["read-ts",[0,1]]')  # a JSON-era frame
        with pytest.raises(WireError, match="unknown type byte"):
            decode_payload(b"(\x00\x00\x00\x01\x00")

    def test_junk_bytes_raise(self):
        with pytest.raises(WireError):
            decode_payload(b"\xde\xad\xbe\xef")
        with pytest.raises(WireError):
            decode_payload(b"")

    def test_non_tuple_toplevel_raises(self):
        encoded_int = b"i" + struct.pack(">q", 7)
        with pytest.raises(WireError, match="expected tuple"):
            decode_payload(encoded_int)
        assert decode_payload(b"(\x00\x00\x00\x01" + encoded_int) == (7,)

    def test_trailing_bytes_raise(self):
        with pytest.raises(WireError, match="trailing"):
            decode_payload(encode_payload((READ_TS, (0, 1))) + b"N")

    def test_unencodable_object_raises(self):
        class Name(str):
            pass

        for alien in (object(), {"a": 1}, Name("w"), INT64_MAX + 1,
                      INT64_MIN - 1, Timestamp("3", "w"), block("text")):
            with pytest.raises(WireError):
                encode_payload(("x", (0, 1), alien))

    def test_nesting_is_capped_both_ways(self):
        nested = ()
        for _ in range(MAX_DEPTH - 1):
            nested = (nested,)
        assert decode_payload(encode_payload(nested)) == nested
        with pytest.raises(WireError, match="nests deeper"):
            encode_payload((nested,))
        hostile = b"(\x00\x00\x00\x01" * 100_000  # would recurse 100k deep
        with pytest.raises(WireError, match="nests deeper"):
            decode_payload(hostile)

    @pytest.mark.parametrize("kind", [b"s", b"b", b"("])
    def test_announced_length_is_bounded_before_allocation(self, kind):
        frame = (b"(\x00\x00\x00\x01" + kind + b"\xff\xff\xff\xff"
                 + b"x" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(WireError, match="runs past"):
                decode_payload(frame)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # announced 4 GiB

    def test_mutated_frames_fail_only_with_wire_error(self):
        """Cut one frame at every offset, then overwrite every byte with
        seeded values: a cut frame is a ``WireError``, an overwritten one
        a tuple or a ``WireError`` — never another exception, never
        memory beyond what the frame could hold."""
        rng = random.Random(13)
        frame = encode_payload(
            (WRITE, (3, 2), Timestamp(9, "w1"), block(b"\x01" * 16, 0))
        )
        overwritten = [
            frame[:offset] + bytes([value]) + frame[offset + 1:]
            for offset in range(len(frame))
            for value in {0x00, 0xFF, frame[offset] ^ 0x01,
                          *rng.sample(range(256), 24)} - {frame[offset]}
        ]
        assert len(overwritten) > 2500
        tracemalloc.start()
        try:
            for cut in range(len(frame)):
                with pytest.raises(WireError):
                    decode_payload(frame[:cut])
            for mutant in overwritten:
                try:
                    assert isinstance(decode_payload(mutant), tuple)
                except WireError:
                    pass
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


async def frames_from(*chunks: bytes) -> list[bytes | None]:
    """Feed raw bytes to a reader; collect frames until EOF/None."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    frames = []
    while True:
        frame = await read_frame(reader)
        frames.append(frame)
        if frame is None:
            return frames


class TestFraming:
    def test_roundtrip(self, run):
        body = encode_payload((READ_TS, (0, 1)))
        assert run(frames_from(pack_frame(body))) == [body, None]

    def test_two_frames_stay_separate(self, run):
        assert run(frames_from(pack_frame(b"one"), pack_frame(b"two"))) == [
            b"one", b"two", None,
        ]

    def test_clean_eof_returns_none(self, run):
        assert run(frames_from()) == [None]

    def test_eof_inside_header_raises(self, run):
        with pytest.raises(WireError):
            run(frames_from(b"\x00\x00"))

    def test_eof_inside_body_raises(self, run):
        with pytest.raises(WireError):
            run(frames_from(pack_frame(b"full")[:-2]))

    def test_oversized_announcement_raises(self, run):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError):
            run(frames_from(header))

    def test_oversized_pack_raises(self):
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(WireError):
            pack_frame(Huge())

    def test_write_frame_is_readable(self, run):
        async def loop_through():
            reader = asyncio.StreamReader()

            class Sink:
                def write(self, data):
                    reader.feed_data(data)

                async def drain(self):
                    pass

            await write_frame(Sink(), b"payload")
            reader.feed_eof()
            return await read_frame(reader)

        assert run(loop_through()) == b"payload"
