"""Append-only replica journal: crash recovery for one server.

The file itself (signed header, flush-per-line, tail rule, hard error on
any other damage) is :class:`repro.journal.SignedJournal`, shared with the
sweep checkpoint; this module is the replica-state codec on top of it.
Every write a server applies is appended **before** the acknowledgement
leaves the process (write-ahead — see
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

import base64
import hashlib
import json

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import JournalError
from repro.journal import SignedJournal
from repro.registers.timestamps import Timestamp

#: Journal file format version (independent of the wire schema).
JOURNAL_VERSION = 1

#: Magic string identifying a replica journal header line.
JOURNAL_MAGIC = "repro-replica-journal"


def replica_signature(
    name: str, index: int, f: int, data_size_bytes: int, scheme: str
) -> str:
    """SHA-256 over the replica configuration a journal belongs to.

    Two server processes share a signature iff replaying one's journal
    into the other is sound: same replica identity, same cluster shape,
    same value size, same coding scheme.
    """
    payload = {
        "name": name,
        "index": index,
        "f": f,
        "data_size_bytes": data_size_bytes,
        "scheme": scheme,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ReplicaJournal(SignedJournal):
    """Append-only JSONL journal of one replica's applied writes.

    Line 0 pins the magic, version, and replica signature; every further
    line is one applied write ``{"ts": [num, client], "block": {...}}``.
    The server process is the only writer. :meth:`load` returns the
    applied writes as ``(Timestamp, CodeBlock)`` pairs in apply order,
    ignores unterminated trailing text (that write was never acknowledged
    — the ack follows the flush) and raises
    :class:`~repro.errors.JournalError` for a foreign or damaged file.
    """

    MAGIC = JOURNAL_MAGIC
    VERSION = JOURNAL_VERSION
    OWNER = "replica configuration"
    ERROR = JournalError

    def _decode(self, entry: dict) -> tuple[Timestamp, CodeBlock]:
        raw = entry["block"]
        return (
            Timestamp(int(entry["ts"][0]), entry["ts"][1]),
            CodeBlock(
                payload=base64.b64decode(raw["p"]),
                index=int(raw["i"]),
                source=BlockSource(int(raw["op"]), int(raw["si"])),
                size_bits=int(raw["b"]),
            ),
        )

    def recovered(self) -> tuple[Timestamp, CodeBlock] | None:
        """The replica state to restart from: the highest journaled write.

        Entries are appended in apply order, and the apply rule only
        adopts strictly newer timestamps — so the journal is strictly
        increasing and the last entry is the recovery point. The maximum
        is taken anyway: recovery must not depend on an invariant the
        crash may have interrupted.
        """
        entries = self.load()
        if not entries:
            return None
        return max(entries, key=lambda entry: entry[0])

    def append(self, ts: Timestamp, block: CodeBlock) -> None:
        """Persist one applied write (flushed before this returns)."""
        self._write_line({
            "ts": [ts.num, ts.client],
            "block": {
                "p": base64.b64encode(block.payload).decode("ascii"),
                "i": block.index,
                "op": block.source.op_uid,
                "si": block.source.index,
                "b": block.size_bits,
            },
        })

    def entry_count(self) -> int:
        """Applied writes currently recoverable from the file."""
        return len(self.load())
