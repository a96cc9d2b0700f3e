"""Length-prefixed framing for the TCP transport.

One frame is a 4-byte big-endian length followed by that many payload
bytes (one tuple encoded by :mod:`repro.service.wire`). TCP is a byte
stream; the prefix is what turns it back into discrete protocol messages. A
length above :data:`MAX_FRAME_BYTES` raises
:class:`~repro.errors.WireError` immediately — a desynchronized or
hostile peer must not make the server allocate gigabytes.
"""

from __future__ import annotations

import asyncio
import struct

from repro.errors import WireError

#: Hard ceiling on one frame's payload. Generous: the largest legitimate
#: frame is one write request carrying a full replica block.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def pack_frame(body: bytes) -> bytes:
    """Prefix one payload with its length."""
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame — a peer that died mid-send — raises
    :class:`~repro.errors.WireError`: the stream is unrecoverable.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireError("connection closed inside a frame header") from error
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise WireError("connection closed inside a frame body") from error


async def write_frame(writer: asyncio.StreamWriter, body: bytes) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(pack_frame(body))
    await writer.drain()
