"""The one signed, append-only JSONL journal both persistence layers use.

Sweep checkpoints (:class:`repro.analysis.executor.SweepJournal`) and
replica write-ahead logs (:class:`repro.service.journal.ReplicaJournal`)
are the same file: line 1 is a header pinning a magic string, a format
version, a SHA-256 signature of everything that must match for the file to
be reusable, and any extra pinned fields; every further line is one record.
:class:`SignedJournal` owns that file — header, flush-per-line write, the
tail rule, trim-before-append, and which error type to raise — and each
journal kind is only a record <-> dict codec on top of it.

**Tail rule:** a line exists iff its terminating ``\\n`` is on disk. The
single writer flushes each line whole, so the only artifact a kill can
leave is unterminated trailing text; :meth:`SignedJournal.load` ignores it
and :meth:`SignedJournal.open_for_append` truncates it away, whether or not
it happens to parse (its write was never acknowledged, so dropping it is
indistinguishable from the kill arriving a moment earlier). A *terminated*
line that does not parse or decode is damage, never a crash artifact, and
raises — last line included.

Durability is ``flush()``, not ``fsync``: a record survives the death of
the writing process (SIGKILL), not the loss of the machine's page cache.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import CheckpointError


class SignedJournal:
    """A signed append-only JSONL file; subclasses supply the record codec.

    A subclass sets :attr:`MAGIC`, :attr:`VERSION`, :attr:`OWNER` and
    (optionally) :attr:`ERROR`, implements :meth:`_decode`, and adds an
    ``append`` that builds one record dict and hands it to
    :meth:`_write_line`. Keyword arguments beyond ``signature`` are extra
    header fields pinned exactly like the signature.
    """

    #: Header magic naming the journal kind.
    MAGIC = ""
    #: File format version of this journal kind.
    VERSION = 1
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

    def _decode(self, entry: dict):
        """Rebuild one record from its line's dict (codec hook).

        ``KeyError``/``IndexError``/``TypeError``/``ValueError`` raised
        here are reported as a malformed entry at that line.
        """
        raise NotImplementedError

    def _complete(self) -> bytes:
        """Every byte up to the last newline on disk (the tail rule)."""
        if not self.path.exists():
            return b""
        data = self.path.read_bytes()
        return data[: data.rfind(b"\n") + 1]

    def load(self) -> list:
        """Decoded records of every complete line, validated, in file order.

        Returns ``[]`` when the journal does not exist or holds no complete
        line. Raises :attr:`ERROR` when the header is missing or pins a
        different magic, version, signature or pinned field, and when any
        complete line — the last one included — fails to parse or decode.
        """
        records = []
        lines = self._complete().split(b"\n")[:-1]
        for number, line in enumerate(lines, start=1):
            try:
                entry = json.loads(line)
            except ValueError as error:
                raise self.ERROR(
                    f"{self.path}:{number}: corrupt journal line: {error}"
                ) from error
            if not isinstance(entry, dict):
                raise self.ERROR(
                    f"{self.path}:{number}: journal line is not an object"
                )
            if number == 1:
                self._check_header(entry)
                continue
            try:
                records.append(self._decode(entry))
            except (KeyError, IndexError, TypeError, ValueError) as error:
                raise self.ERROR(
                    f"{self.path}:{number}: malformed journal entry: {error}"
                ) from error
        return records

    def _header(self) -> dict:
        return {
            "journal": self.MAGIC,
            "journal_version": self.VERSION,
            "signature": self.signature,
            **self.pinned,
        }

    def _check_header(self, header: dict) -> None:
        if header.get("journal") != self.MAGIC:
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
        """Open for appending; write the header when nothing is on disk.

        Unterminated trailing text (see the tail rule) is truncated away
        first — appending after it would fuse two lines into one
        permanently corrupt line. Does not validate the file: call
        :meth:`load` first when it may hold someone else's records.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        complete = self._complete()
        self._handle = open(self.path, "a")
        self._handle.truncate(len(complete))
        if not complete:
            self._write_line(self._header())

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
