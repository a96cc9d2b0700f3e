"""Append-only replica journal: crash recovery for one server.

The file itself (magic, checksummed records, signed header, flush per
record, tail rule, hard error on any other damage) is
:class:`repro.journal.SignedJournal`, shared with the sweep checkpoint;
this module is the replica-state codec on top of it. A record body is the
applied write's ``Timestamp`` then its ``CodeBlock``, each in the value
encoding of :mod:`repro.service.wire` — one encoding of a block in the
whole service. Every write a server applies is appended **before** the
acknowledgement leaves the process (write-ahead — see
:class:`~repro.msgnet.protocol.ServerProtocol`'s ``on_apply`` contract), so
a SIGKILLed server restarts exactly at the last state any client could
have observed as acknowledged. Write-ahead here is ``flush()``, not
``fsync``: SIGKILL-durable, not power-loss-durable.

Failure semantics mirror :class:`~repro.errors.CheckpointError` (and
:class:`~repro.errors.JournalError` subclasses it): a journal written by a
different replica configuration — another server name, crash budget, or
value size — refuses to load rather than silently resurrecting the wrong
state.
"""

from __future__ import annotations

import hashlib
import struct

from repro.coding.oracles import CodeBlock
from repro.errors import JournalError, WireError
from repro.journal import SignedJournal
from repro.registers.timestamps import Timestamp
from repro.service.wire import _decode as decode_value
from repro.service.wire import _encode as encode_value

#: Journal file format version (independent of the wire schema).
JOURNAL_VERSION = 2

#: Magic string identifying a replica journal header record.
JOURNAL_MAGIC = "repro-replica-journal"


def replica_signature(
    name: str, index: int, f: int, data_size_bytes: int, scheme: str
) -> str:
    """SHA-256 over the replica configuration a journal belongs to.

    Two server processes share a signature iff replaying one's journal
    into the other is sound: same replica identity, same cluster shape,
    same value size, same coding scheme. The hashed bytes are the wire
    encoding of those five fields, which is injective.
    """
    parts: list[bytes] = []
    encode_value((name, index, f, data_size_bytes, scheme), parts, 0)
    return hashlib.sha256(b"".join(parts)).hexdigest()


class ReplicaJournal(SignedJournal):
    """Append-only journal of one replica's applied writes.

    The header record pins the magic, version, and replica signature; every
    further record is one applied write. The server process is the only
    writer. :meth:`load` returns ``(Timestamp, CodeBlock)`` pairs in apply
    order, ignores a torn tail (never acknowledged — the ack follows the
    flush) and raises :class:`~repro.errors.JournalError` for a foreign or
    damaged file.
    """

    MAGIC = JOURNAL_MAGIC
    VERSION = JOURNAL_VERSION
    OWNER = "replica configuration"
    ERROR = JournalError

    def _decode(self, body: bytes) -> tuple[Timestamp, CodeBlock]:
        try:
            ts, offset = decode_value(memoryview(body), 0, 0)
            block, end = decode_value(memoryview(body), offset, 0)
        except (struct.error, WireError) as error:
            raise ValueError(error) from error
        if (type(ts), type(block), end) != (Timestamp, CodeBlock, len(body)):
            raise ValueError("body is not one (Timestamp, CodeBlock) write")
        return ts, block

    def recovered(self) -> tuple[Timestamp, CodeBlock] | None:
        """The replica state to restart from: the highest journaled write.

        Entries are appended in apply order, and the apply rule only
        adopts strictly newer timestamps — so the journal is strictly
        increasing and the last entry is the recovery point. The maximum
        is taken anyway: recovery must not depend on an invariant the
        crash may have interrupted. A running maximum over the record
        walk: one block in memory beside the best so far.
        """
        return max(self.records(), key=lambda entry: entry[0], default=None)

    def append(self, ts: Timestamp, block: CodeBlock) -> None:
        """Persist one applied write (flushed before this returns)."""
        parts: list[bytes] = []
        encode_value(ts, parts, 0)
        encode_value(block, parts, 0)
        self._write_record(b"".join(parts))

    def entry_count(self) -> int:
        """Applied writes currently recoverable from the file (validates
        every record, holds one at a time)."""
        return sum(1 for _ in self.records())
