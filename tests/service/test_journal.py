"""Replica journal: the crash-recovery substrate, CheckpointError semantics."""

import tracemalloc

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import CheckpointError, JournalError
from repro.journal import FILE_MAGIC
from repro.registers.timestamps import Timestamp
from repro.service.journal import (
    JOURNAL_VERSION,
    ReplicaJournal,
    replica_signature,
)
from repro.service.wire import _encode

SIG = replica_signature("s0", 0, 1, 8, "replication")


def block(tag: bytes, op_uid: int):
    payload = tag * 8
    return CodeBlock(
        payload=payload, index=0,
        source=BlockSource(op_uid, 0), size_bits=len(payload) * 8,
    )


def wire_values(*values) -> bytes:
    parts = []
    for value in values:
        _encode(value, parts, 0)
    return b"".join(parts)


def journal_with(path, entries):
    journal = ReplicaJournal(path, SIG)
    journal.open_for_append()
    for num, client, blk in entries:
        journal.append(Timestamp(num, client), blk)
    journal.close()
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        journal = journal_with(tmp_path / "j.jsonl", [
            (1, "w0", block(b"a", 1)),
            (2, "w1", block(b"b", 2)),
        ])
        entries = journal.load()
        assert [ts for ts, _ in entries] == [
            Timestamp(1, "w0"), Timestamp(2, "w1"),
        ]
        assert entries[1][1] == block(b"b", 2)

    def test_missing_file_loads_empty(self, tmp_path):
        assert ReplicaJournal(tmp_path / "absent.jsonl", SIG).load() == []

    def test_recovered_is_maximum_entry(self, tmp_path):
        journal = journal_with(tmp_path / "j.jsonl", [
            (1, "w0", block(b"a", 1)),
            (3, "w1", block(b"c", 3)),
            (2, "w0", block(b"b", 2)),  # out of order on purpose
        ])
        ts, blk = journal.recovered()
        assert ts == Timestamp(3, "w1")
        assert blk == block(b"c", 3)

    def test_recovered_none_when_empty(self, tmp_path):
        journal = ReplicaJournal(tmp_path / "j.jsonl", SIG)
        journal.open_for_append()  # header only
        journal.close()
        assert journal.recovered() is None

    def test_reopen_appends_after_existing_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        second = ReplicaJournal(path, SIG)
        second.open_for_append()
        second.append(Timestamp(2, "w1"), block(b"b", 2))
        second.close()
        assert second.entry_count() == 2


class TestCrashArtifacts:
    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1)),
                            (2, "w1", block(b"b", 2))])
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # SIGKILL mid-append
        entries = ReplicaJournal(path, SIG).load()
        assert [ts for ts, _ in entries] == [Timestamp(1, "w0")]

    def test_open_for_append_trims_partial_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header_only = len(journal_with(tmp_path / "h.jsonl", []).path
                          .read_bytes())
        whole = journal_with(tmp_path / "w.jsonl",
                             [(2, "w1", block(b"b", 2))]).path.read_bytes()
        torn = whole[header_only:-5]  # head and most of the body
        journal_with(path, [(1, "w0", block(b"a", 1))])
        with open(path, "ab") as handle:
            handle.write(torn)
        journal = ReplicaJournal(path, SIG)
        journal.open_for_append()
        journal.append(Timestamp(3, "w2"), block(b"c", 3))
        journal.close()
        # The torn record is gone; the new entry follows the first one.
        assert [ts for ts, _ in journal.load()] == [
            Timestamp(1, "w0"), Timestamp(3, "w2"),
        ]


class TestCorruption:
    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1)),
                            (2, "w1", block(b"b", 2))])
        data = bytearray(path.read_bytes())
        first_end = len(journal_with(
            tmp_path / "one.jsonl", [(1, "w0", block(b"a", 1))]
        ).path.read_bytes())
        data[first_end - 1] ^= 0x40  # last byte of the *first* entry
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="record 2 .*corrupt"):
            ReplicaJournal(path, SIG).load()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header_only = len(journal_with(tmp_path / "h.jsonl", []).path
                          .read_bytes())
        journal_with(path, [(1, "w0", block(b"a", 1))])
        path.write_bytes(FILE_MAGIC + path.read_bytes()[header_only:])
        with pytest.raises(JournalError, match="missing header"):
            ReplicaJournal(path, SIG).load()

    def test_version_mismatch_raises(self, tmp_path):
        class FutureJournal(ReplicaJournal):
            VERSION = JOURNAL_VERSION + 1

        path = tmp_path / "j.jsonl"
        future = FutureJournal(path, SIG)
        future.open_for_append()
        future.close()
        with pytest.raises(JournalError, match="version"):
            ReplicaJournal(path, SIG).load()

    def test_foreign_signature_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        other = replica_signature("s1", 1, 1, 8, "replication")
        with pytest.raises(JournalError, match="different replica"):
            ReplicaJournal(path, other).load()

    def test_malformed_entry_fields_raise(self, tmp_path):
        """Well-framed records (checksums hold) whose body is not one
        ``Timestamp`` then one ``CodeBlock``."""
        for number, body in enumerate([
            wire_values(Timestamp(2, "w1")),  # no block
            wire_values(Timestamp(2, "w1"), Timestamp(3, "w1")),
            wire_values(block(b"b", 2), Timestamp(2, "w1")),  # swapped
            wire_values(Timestamp(2, "w1"), block(b"b", 2), None),
            b"\xff",  # unknown type byte
            b"",
        ]):
            path = tmp_path / f"j{number}.jsonl"
            journal = journal_with(path, [(1, "w0", block(b"a", 1))])
            journal.open_for_append()
            journal._write_record(body)
            journal.close()
            with pytest.raises(JournalError, match="malformed"):
                ReplicaJournal(path, SIG).load()

    def test_journal_error_is_checkpoint_error(self):
        # Journal-aware callers can catch either failure domain.
        assert issubclass(JournalError, CheckpointError)


class TestBoundedMemory:
    def test_recovery_holds_one_block_at_a_time(self, tmp_path):
        """``recovered()`` and ``entry_count()`` fold over the record walk:
        200 journaled 64 KiB blocks, a few blocks of peak memory."""
        size = 64 * 1024
        journal = ReplicaJournal(tmp_path / "j.jsonl", SIG)
        journal.open_for_append()
        for number in range(1, 201):
            payload = bytes([number]) * size
            journal.append(Timestamp(number, "w0"), CodeBlock(
                payload=payload, index=0, source=BlockSource(number, 0),
                size_bits=size * 8,
            ))
        journal.close()
        for fold in (journal.recovered, journal.entry_count):
            tracemalloc.start()
            try:
                result = fold()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * size, (fold.__name__, peak)
        assert journal.recovered()[0] == Timestamp(200, "w0")
        assert result == 200


class TestSignature:
    @pytest.mark.parametrize("change", [
        {"name": "s1"}, {"index": 1}, {"f": 2},
        {"data_size_bytes": 16}, {"scheme": "rs"},
    ])
    def test_every_config_field_is_pinned(self, change):
        base = dict(name="s0", index=0, f=1, data_size_bytes=8,
                    scheme="replication")
        assert replica_signature(**base) != replica_signature(
            **{**base, **change}
        )
