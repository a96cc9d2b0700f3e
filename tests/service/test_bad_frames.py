"""Bad frames over real sockets: one closed connection, nothing else.

Each row sends one malformed frame to one replica of a loopback cluster
and pins the single outcome every class of bad frame has: the replica
closes that connection without a reply, nothing reaches the event loop's
exception handler or stderr, the replica's register state and journal
are untouched, and an ordinary client's write and read still succeed.
"""

import asyncio
import struct

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.msgnet.protocol import WRITE
from repro.registers.timestamps import Timestamp
from repro.service.framing import MAX_FRAME_BYTES, pack_frame
from repro.service.wire import encode_payload
from repro.spec import check_strong_regularity

D = 8
NEWER = Timestamp(9, "x")  # above anything the good client writes


def block(payload=b"z" * D, index=0, size_bits=None):
    return CodeBlock(
        payload=payload, index=index, source=BlockSource(77, index),
        size_bits=len(payload) * 8 if size_bits is None else size_bits,
    )


def framed(*payload):
    return pack_frame(encode_payload(payload))


#: (class, bytes put on the socket, half-close after sending)
BAD_FRAMES = [
    ("junk body", pack_frame(b"\xde\xad\xbe\xef"), False),
    ("unknown type byte", pack_frame(b"(\x00\x00\x00\x01\x00"), False),
    ("json-era frame", pack_frame(b'["read-ts",[0,1]]'), False),
    ("length past the frame",
     pack_frame(b"(\x00\x00\x00\x01s\xff\xff\xff\xff"), False),
    ("non-tuple payload", pack_frame(b"N"), False),
    ("one-element payload", framed(1), False),
    ("unknown request tag", framed("bogus-tag", (0, 1)), False),
    ("read with an operand", framed("read", (0, 1), 5), False),
    ("short write", framed(WRITE, (0, 1)), False),
    ("write with a non-block operand", framed(WRITE, (0, 2), NEWER, "junk"),
     False),
    ("write with a non-timestamp operand", framed(WRITE, (0, 2), 9, block()),
     False),
    ("write with a wrong-size block",
     framed(WRITE, (0, 2), NEWER, block(b"z" * 4)), False),
    ("write whose size_bits disagrees with its payload",
     framed(WRITE, (0, 2), NEWER, block(b"z" * 4, size_bits=D * 8)), False),
    ("write with a block index outside the scheme",
     framed(WRITE, (0, 2), NEWER, block(index=7)), False),
    ("oversized announced length", struct.pack(">I", MAX_FRAME_BYTES + 1),
     False),
    ("EOF mid-body", framed(WRITE, (0, 2), NEWER, block())[:-3], True),
]


async def send_bad_frame(port, data, half_close):
    """Put ``data`` on a fresh connection; return what the replica sent
    back before closing (``None`` if it kept the connection open)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        if half_close:
            writer.write_eof()
        try:
            return await asyncio.wait_for(reader.read(), timeout=5.0)
        except asyncio.TimeoutError:
            return None
    finally:
        writer.close()


@pytest.mark.parametrize(
    "data,half_close",
    [pytest.param(data, half_close, id=name.replace(" ", "-"))
     for name, data, half_close in BAD_FRAMES],
)
def test_bad_frame_costs_one_connection(
    data, half_close, loopback, run, capfd
):
    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        async with loopback(data_size_bytes=D) as cluster:
            client = cluster.client("good")
            await client.write(b"before!!")
            target = cluster.servers["s0"]
            before = (
                target.protocol.state.ts, target.protocol.state.block,
                target.protocol.applied_count, target.journal.entry_count(),
            )

            answer = await send_bad_frame(target.port, data, half_close)

            after = (
                target.protocol.state.ts, target.protocol.state.block,
                target.protocol.applied_count, target.journal.entry_count(),
            )
            await client.write(b"after!!!")
            value = await client.read()
            history = client.history()
            await client.close()
        return unhandled, answer, before, after, value, history

    unhandled, answer, before, after, value, history = run(scenario())
    assert unhandled == []
    assert answer == b""  # closed, and no reply frame before the close
    assert after == before
    assert value == b"after!!!"
    report = check_strong_regularity(history)
    assert report.ok, report.note
    assert tuple(capfd.readouterr()) == ("", "")


def test_stray_reply_is_ignored_by_the_client(loopback, run):
    """A reply that decodes but is not ``(tag, request_id, ...)`` matches
    no quorum round; the operation completes on the real replies."""

    async def scenario():
        async with loopback(data_size_bytes=D) as cluster:
            client = cluster.client("good")
            await client.connect()
            for stray in ((1,), (), ("ts",)):
                client._queue.put_nowait(("s0", stray))
            await client.write(b"through!")
            value = await client.read()
            await client.close()
        return value

    assert run(scenario()) == b"through!"
