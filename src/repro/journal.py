"""The one signed, append-only binary journal both persistence layers use.

Sweep checkpoints (:class:`repro.analysis.executor.SweepJournal`) and
replica write-ahead logs (:class:`repro.service.journal.ReplicaJournal`)
are the same file: :data:`FILE_MAGIC`, then records, each a ``>III`` head
(body length, ``crc32(body)``, ``crc32`` of the head's first 8 bytes) and
its body. Record 1 is the signed header, a JSON body pinning a magic
string, a format version, a SHA-256 signature of everything that must match
for the file to be reusable, and any extra pinned fields.
:class:`SignedJournal` owns the file — framing, checksums, flush per
record, the tail rule, trim-before-append, the error type — and each
journal kind is only a record <-> body-bytes codec on top of it.

**Tail rule:** a record exists iff its whole head and body are on disk. The
single writer flushes each record whole, so a kill can only leave a short
head, or a short body behind a head whose checksum holds: ``load`` ignores
it and ``open_for_append`` truncates it (that write was never
acknowledged). Anything else — a foreign magic, a checksum mismatch, a body
the codec cannot decode — is damage and raises, last record included, and
the file is left untouched. CRC-32 catches every single-bit flip, so a
flipped length cannot pass for a torn tail and roll back an acknowledged
write.

Durability is ``flush()``, not ``fsync``: a record survives the death of
the writing process (SIGKILL), not the loss of the machine's page cache.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Iterator
from pathlib import Path

from repro.errors import CheckpointError

#: First bytes of every journal file. The high byte and the newline catch
#: text-mode mangling; a JSONL-era file (``{``) fails here.
FILE_MAGIC = b"\x89repjnl\n"

#: Record head: body length, crc32(body), crc32 of the first 8 head bytes.
_HEAD = struct.Struct(">III")
_CHECKED, _CRC = struct.Struct(">II"), struct.Struct(">I")


class SignedJournal:
    """A signed append-only binary file; subclasses supply the record codec.

    A subclass sets :attr:`MAGIC`, :attr:`VERSION`, :attr:`OWNER` and
    (optionally) :attr:`ERROR`, implements :meth:`_decode`, and adds an
    ``append`` that builds one record body and hands it to
    :meth:`_write_record`. Keyword arguments beyond ``signature`` are extra
    header fields pinned exactly like the signature.
    """

    #: Header magic naming the journal kind.
    MAGIC = ""
    #: File format version of this journal kind.
    VERSION = 2
    #: What the signature identifies, for the foreign-file refusal message.
    OWNER = ""
    #: Raised for every unusable-file condition.
    ERROR = CheckpointError

    def __init__(self, path: str | Path, signature: str, **pinned) -> None:
        self.path = Path(path)
        self.signature = signature
        self.pinned = pinned
        self._handle = None

    # ------------------------------------------------------------- reading

    def _decode(self, body: bytes):
        """Rebuild one record from its body bytes (codec hook).

        ``KeyError``/``IndexError``/``TypeError``/``ValueError`` raised
        here are reported as a malformed record.
        """
        raise NotImplementedError

    def _walk(self, handle) -> Iterator[tuple[int, bytes]]:
        """``(end offset, body)`` of every whole record, header first,
        streamed one body at a time; raises on damage, stops at a torn
        tail."""
        magic = handle.read(len(FILE_MAGIC))
        if magic != FILE_MAGIC[:len(magic)]:
            raise self.ERROR(
                f"{self.path}: not a {self.MAGIC} file (file magic "
                f"{magic!r}, expected {FILE_MAGIC!r}); refusing to touch it"
            )
        if magic != FILE_MAGIC:
            return  # empty, or killed while writing the magic itself
        end = len(magic)
        number = 0
        while head := handle.read(_HEAD.size):
            if len(head) < _HEAD.size:
                return
            number += 1
            length, body_crc, head_crc = _HEAD.unpack(head)
            if zlib.crc32(head[:8]) != head_crc:
                raise self._corrupt(number, end, "head")
            body = handle.read(length)
            if len(body) < length:
                return
            if zlib.crc32(body) != body_crc:
                raise self._corrupt(number, end, "body")
            if number == 1:
                self._check_header(body)
            end += _HEAD.size + length
            yield end, body

    def _corrupt(self, number: int, end: int, part: str):
        return self.ERROR(
            f"{self.path}: record {number} at byte {end}: corrupt journal "
            f"record ({part} checksum mismatch)"
        )

    def records(self) -> Iterator:
        """Decoded records in file order, validated, one in memory at a
        time (nothing when no whole record is on disk). Raises
        :attr:`ERROR` for a foreign magic, a missing or foreign header,
        and any whole record — the last included — that fails a checksum
        or does not decode."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            walk = self._walk(handle)
            next(walk, None)  # the header record, checked by the walk
            for number, (_end, body) in enumerate(walk, start=2):
                try:
                    record = self._decode(body)
                except (KeyError, IndexError, TypeError, ValueError) as error:
                    raise self.ERROR(
                        f"{self.path}: record {number}: malformed journal "
                        f"record: {error}"
                    ) from error
                yield record

    def load(self) -> list:
        """Every decoded record, in file order (see :meth:`records`)."""
        return list(self.records())

    def _header(self) -> dict:
        return {
            "journal": self.MAGIC,
            "journal_version": self.VERSION,
            "signature": self.signature,
            **self.pinned,
        }

    def _check_header(self, body: bytes) -> None:
        try:
            header = json.loads(body)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("journal") != self.MAGIC:
            raise self.ERROR(
                f"{self.path}: not a {self.MAGIC} file (missing header)"
            )
        if header.get("journal_version") != self.VERSION:
            raise self.ERROR(
                f"{self.path}: unsupported journal version "
                f"{header.get('journal_version')!r}"
            )
        for key, expected in self._header().items():
            if header.get(key) != expected:
                raise self.ERROR(
                    f"{self.path}: journal was written for a different "
                    f"{self.OWNER} ({key} {header.get(key)!r} != "
                    f"{expected!r}); refusing to load it"
                )

    # ------------------------------------------------------------- writing

    def open_for_append(self) -> None:
        """Open for appending, after the walk has validated every record
        (a foreign or damaged file raises untouched); truncate a torn tail,
        and write magic and header when no whole header record exists."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        end = 0
        if self.path.exists():
            with open(self.path, "rb") as handle:
                for end, _body in self._walk(handle):
                    pass  # validate every record; keep the last end
        self._handle = open(self.path, "ab")
        self._handle.truncate(end)
        if not end:
            self._handle.write(FILE_MAGIC)
            self._write_record(
                json.dumps(self._header(), sort_keys=True).encode()
            )

    def _write_record(self, body: bytes) -> None:
        checked = _CHECKED.pack(len(body), zlib.crc32(body))
        self._handle.write(checked + _CRC.pack(zlib.crc32(checked)))
        self._handle.write(body)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
