"""Binary wire codec for protocol payloads.

The protocol machines exchange plain tuples carrying
:class:`~repro.registers.timestamps.Timestamp` and
:class:`~repro.coding.oracles.CodeBlock` values. On the simulated network
those objects travel by reference; over TCP they must survive a byte
round-trip **losslessly** — a decoded timestamp must still compare with
``>`` against a local one, a decoded block must still carry its source tag
and bit size for the storage ledger.

Every value is one type byte, a fixed big-endian ``struct`` body and, for
the variable-length kinds, that many raw bytes:

=========  ====  ==========  ============================================
value      type  body        tail
=========  ====  ==========  ============================================
``None``   N     —           —
``False``  F     —           —
``True``   T     —           —
int        i     ``>q``      — (int64; anything wider is refused)
float      d     ``>d``      —
str        s     ``>I``      that many UTF-8 bytes
bytes      b     ``>I``      that many bytes
tuple      (     ``>I``      that many encoded values
Timestamp  t     ``>qI``     ``num``, then the client's UTF-8 bytes
CodeBlock  B     ``>qqqqI``  ``index, source.op_uid, source.index,
                             size_bits``, then the raw payload bytes
=========  ====  ==========  ============================================

Sequences decode to *tuples* — protocol payloads and request ids are
tuples, and quorum rounds compare request ids by equality. A block's
payload travels as itself: one copy into the frame, one copy out of it.
The replica journal stores each write in this same value encoding.

:func:`decode_payload` raises :class:`~repro.errors.WireError`, and
nothing else, on an unknown type byte (the text frames of earlier
versions start with ``[``), a value cut short, a length or count that
runs past the frame (checked before anything is read), nesting deeper
than :data:`MAX_DEPTH`, invalid UTF-8, bytes left after the value, or a
top level that is not a tuple. :func:`encode_payload` raises it for an
object outside the table and for an int outside int64.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import WireError
from repro.registers.timestamps import Timestamp

#: Deepest tuple nesting accepted either way. Protocol payloads nest two
#: deep; the cap turns a hostile frame of nested counts into a
#: :class:`WireError` instead of a ``RecursionError``.
MAX_DEPTH = 16

_NONE, _FALSE, _TRUE = ord("N"), ord("F"), ord("T")
_INT, _FLOAT, _STR, _BYTES = ord("i"), ord("d"), ord("s"), ord("b")
_TUPLE, _TS, _BLOCK = ord("("), ord("t"), ord("B")


def _layout(body: str):
    """``(pack, unpack_from, size)`` of one fixed body, written once.

    ``pack`` takes the type byte first (one ``struct`` call per value);
    ``unpack_from`` reads the body alone, the type byte already consumed.
    """
    bare = struct.Struct(">" + body)
    return struct.Struct(">B" + body).pack, bare.unpack_from, bare.size


_PACK_TYPE = struct.Struct(">B").pack  # None, False, True: no body
_PACK_INT, _UNPACK_INT, _INT_SIZE = _layout("q")
_PACK_FLOAT, _UNPACK_FLOAT, _FLOAT_SIZE = _layout("d")
_PACK_LEN, _UNPACK_LEN, _LEN_SIZE = _layout("I")
_PACK_TS, _UNPACK_TS, _TS_SIZE = _layout("qI")
_PACK_BLOCK, _UNPACK_BLOCK, _BLOCK_SIZE = _layout("qqqqI")


def _encode(value: Any, parts: list[bytes], depth: int) -> None:
    """Append the encoding of one value to ``parts``.

    Dispatch is on the exact type: a subclass instance could not come
    back as itself, so it is refused like any other foreign object.
    """
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        parts.append(_PACK_LEN(_STR, len(raw)))
        parts.append(raw)
    elif kind is tuple or kind is list:
        if depth >= MAX_DEPTH:
            raise WireError(f"payload nests deeper than {MAX_DEPTH}")
        parts.append(_PACK_LEN(_TUPLE, len(value)))
        for item in value:
            _encode(item, parts, depth + 1)
    elif kind is int:
        parts.append(_PACK_INT(_INT, value))
    elif kind is Timestamp:
        client = value.client.encode("utf-8")
        parts.append(_PACK_TS(_TS, value.num, len(client)))
        parts.append(client)
    elif kind is CodeBlock:
        parts.append(_PACK_BLOCK(
            _BLOCK, value.index, value.source.op_uid, value.source.index,
            value.size_bits, len(value.payload),
        ))
        parts.append(value.payload)
    elif kind is bytes or kind is bytearray:
        parts.append(_PACK_LEN(_BYTES, len(value)))
        parts.append(value)
    elif kind is bool:
        parts.append(_PACK_TYPE(_TRUE if value else _FALSE))
    elif value is None:
        parts.append(_PACK_TYPE(_NONE))
    elif kind is float:
        parts.append(_PACK_FLOAT(_FLOAT, value))
    else:
        raise WireError(f"cannot encode {kind.__name__} on the wire")


def _tail(view: memoryview, start: int, length: int) -> int:
    """End offset of a ``length``-byte tail; refuses one past the frame."""
    end = start + length
    if end > len(view):
        raise WireError(
            f"length {length} at offset {start} runs past the "
            f"{len(view)}-byte frame"
        )
    return end


def _decode(view: memoryview, offset: int, depth: int) -> tuple[Any, int]:
    """Decode the value at ``offset``; return it and the offset after it."""
    kind = view[offset]
    offset += 1
    if kind == _STR:
        (length,) = _UNPACK_LEN(view, offset)
        offset += _LEN_SIZE
        end = _tail(view, offset, length)
        return str(view[offset:end], "utf-8"), end
    if kind == _TUPLE:
        (count,) = _UNPACK_LEN(view, offset)
        offset += _LEN_SIZE
        _tail(view, offset, count)  # every item is at least one byte
        if depth >= MAX_DEPTH:
            raise WireError(f"frame nests deeper than {MAX_DEPTH}")
        items = []
        for _ in range(count):
            item, offset = _decode(view, offset, depth + 1)
            items.append(item)
        return tuple(items), offset
    if kind == _INT:
        return _UNPACK_INT(view, offset)[0], offset + _INT_SIZE
    if kind == _TS:
        num, length = _UNPACK_TS(view, offset)
        offset += _TS_SIZE
        end = _tail(view, offset, length)
        return Timestamp(num, str(view[offset:end], "utf-8")), end
    if kind == _BLOCK:
        index, op_uid, source_index, size_bits, length = \
            _UNPACK_BLOCK(view, offset)
        offset += _BLOCK_SIZE
        end = _tail(view, offset, length)
        return CodeBlock(
            payload=view[offset:end].tobytes(),  # the one copy
            index=index,
            source=BlockSource(op_uid, source_index),
            size_bits=size_bits,
        ), end
    if kind == _BYTES:
        (length,) = _UNPACK_LEN(view, offset)
        offset += _LEN_SIZE
        end = _tail(view, offset, length)
        return view[offset:end].tobytes(), end
    if kind == _NONE:
        return None, offset
    if kind == _TRUE:
        return True, offset
    if kind == _FALSE:
        return False, offset
    if kind == _FLOAT:
        return _UNPACK_FLOAT(view, offset)[0], offset + _FLOAT_SIZE
    raise WireError(f"unknown type byte 0x{kind:02x} at offset {offset - 1}")


def encode_payload(payload: tuple) -> bytes:
    """One protocol payload -> its frame body."""
    parts: list[bytes] = []
    try:
        _encode(payload, parts, 0)
        return b"".join(parts)
    except (struct.error, TypeError, AttributeError) as error:
        # An int outside int64, or a Timestamp/CodeBlock whose fields are
        # not of their declared types.
        raise WireError(f"unencodable wire payload: {error}") from error


def decode_payload(data: bytes) -> tuple:
    """Frame body -> protocol payload tuple (:class:`WireError` on junk)."""
    view = memoryview(data)
    try:
        decoded, end = _decode(view, 0, 0)
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise WireError(f"undecodable wire payload: {error}") from error
    if end != len(view):
        raise WireError(
            f"{len(view) - end} trailing byte(s) after the wire payload"
        )
    if not isinstance(decoded, tuple):
        raise WireError(
            f"wire payload is {type(decoded).__name__}, expected tuple"
        )
    return decoded
