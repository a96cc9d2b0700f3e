"""The one signed journal (:mod:`repro.journal`), under both of its codecs.

Every property here is a property of the shared file — the tail rule,
trim-before-append, the header — so each test runs once per codec: replica
entries (:class:`~repro.service.journal.ReplicaJournal`) and sweep cells
(:class:`~repro.analysis.executor.SweepJournal`). No sockets, no sweeps.
"""

import hashlib

import pytest

from repro.analysis.executor import SweepJournal
from repro.analysis.sweeps import SweepRecord
from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import CheckpointError, JournalError
from repro.registers.timestamps import Timestamp
from repro.service.journal import ReplicaJournal, replica_signature

RECORD = SweepRecord(
    register="adaptive", f=2, k=2, n=6, c=4, data_bits=384, seed=21,
    peak_bo_state_bits=1728, peak_storage_bits=2304,
    final_bo_state_bits=1152, completed_writes=4, steps=321, thm1_bits=576,
    adaptive_bound_bits=3456, disintegrated_bits=1152, lrc_floor_bits=768,
    scenario="churn+crash", padded=False, completed_reads=4, bo_crashes=1,
    client_crashes=1, wall_clock_s=0.012345, worker=2,
    coding_backend="numpy-nibble",
)


def replica_entry(number: int) -> tuple[Timestamp, CodeBlock]:
    payload = bytes([number, 0xFF]) + b"golden"
    return Timestamp(number, f"w{number}"), CodeBlock(
        payload=payload, index=2, source=BlockSource(40 + number, 2),
        size_bits=len(payload) * 8,
    )


class ReplicaCodec:
    """Replica entries; ``load()`` is the entry list itself."""

    error = JournalError
    signature = replica_signature("s0", 0, 1, 8, "replication")
    entries = [replica_entry(number) for number in (1, 2, 3)]
    extra = replica_entry(4)
    # Both lines were written at the parent of the one-journal refactor
    # (commit dd59c39); files from either side must load on the other.
    header = (
        b'{"journal": "repro-replica-journal", "journal_version": 1, '
        b'"signature": "fdbeeb3037e57964d3660038198707b9d61d9d4da8043020'
        b'62402bcaed23f0d1"}\n'
    )
    golden_entry = (Timestamp(7, "w3"), CodeBlock(
        payload=b"\x00\xffgolden!", index=2, source=BlockSource(41, 2),
        size_bits=64,
    ))
    golden_line_sha256 = (
        "a06b3cacaa66e9b4db87aa0122d38f8cef3f76f54ceef02c9d62a912b81fb3c8"
    )

    @classmethod
    def journal(cls, path):
        return ReplicaJournal(path, cls.signature)

    @staticmethod
    def loaded(journal):
        return journal.load()


class SweepCodec:
    """Sweep cells; ``load()`` is ``{cell index: record}`` in file order."""

    error = CheckpointError
    signature = (
        "9602bacb71dfa115e04189d324ab68b106c17ff1d9e9d33942cb0a8c077cd6e7"
    )
    entries = [(0, RECORD), (5, RECORD), (3, RECORD)]
    extra = (11, RECORD)
    header = (
        b'{"journal": "repro-sweep-journal", "journal_version": 1, '
        b'"signature": "9602bacb71dfa115e04189d324ab68b106c17ff1d9e9d339'
        b'42cb0a8c077cd6e7", "total_cells": 12}\n'
    )
    golden_entry = (3, RECORD)
    golden_line_sha256 = (
        "f337f47a553a8f809cd864f93a5b085fb18aed8072c95805bb32d51702ee9054"
    )

    @classmethod
    def journal(cls, path):
        return SweepJournal(path, cls.signature, 12)

    @staticmethod
    def loaded(journal):
        return list(journal.load().items())


@pytest.fixture(params=[ReplicaCodec, SweepCodec],
                ids=["replica", "sweep"])
def codec(request):
    return request.param


def write(codec, path, entries):
    journal = codec.journal(path)
    journal.open_for_append()
    for entry in entries:
        journal.append(*entry)
    journal.close()
    return path.read_bytes()


class TestFormatPins:
    def test_header_and_entry_bytes_match_the_parent_commit(self, codec,
                                                            tmp_path):
        data = write(codec, tmp_path / "j.jsonl", [codec.golden_entry])
        header, entry = data.splitlines(keepends=True)
        assert header == codec.header
        assert hashlib.sha256(entry).hexdigest() == codec.golden_line_sha256

    def test_parent_written_header_is_accepted(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(codec.header)
        assert codec.loaded(codec.journal(path)) == []
        assert write(codec, path, [codec.extra]).startswith(codec.header)
        assert codec.loaded(codec.journal(path)) == [codec.extra]


class TestTailRule:
    def test_truncation_at_every_byte_offset(self, codec, tmp_path):
        """A cut anywhere loads a prefix of what was written (or raises
        the codec's error), and the file is never bricked: open + one
        append + load round-trips."""
        path = tmp_path / "j.jsonl"
        full = write(codec, path, codec.entries)
        loads = 0
        for cut in range(len(full) + 1):
            path.write_bytes(full[:cut])
            try:
                prefix = codec.loaded(codec.journal(path))
            except codec.error:
                continue
            loads += 1
            assert prefix == codec.entries[:len(prefix)]
            # Exactly the entries whose newline survived the cut.
            assert len(prefix) == max(0, full[:cut].count(b"\n") - 1)
            write(codec, path, [codec.extra])
            assert codec.loaded(codec.journal(path)) == \
                prefix + [codec.extra]
        assert loads == len(full) + 1  # no offset needs manual repair

    def test_unterminated_tail_is_dropped_even_when_it_parses(self, codec,
                                                              tmp_path):
        """The cut that removes only the final newline leaves a last line
        that is valid JSON — it still does not exist: ``load`` must not
        serve an entry that ``open_for_append`` is about to trim."""
        path = tmp_path / "j.jsonl"
        full = write(codec, path, codec.entries)
        path.write_bytes(full[:-1])
        assert codec.loaded(codec.journal(path)) == codec.entries[:-1]

    def test_bit_flip_in_terminated_last_line_raises(self, codec, tmp_path):
        """A newline-terminated line was acknowledged; if it no longer
        parses that is damage, not a crash artifact — refuse, do not roll
        back to the previous entry."""
        path = tmp_path / "j.jsonl"
        full = bytearray(write(codec, path, codec.entries))
        last_line_start = full.rindex(b"\n", 0, len(full) - 1) + 1
        full[last_line_start] ^= 0x01  # the line's opening brace
        path.write_bytes(bytes(full))
        with pytest.raises(codec.error, match="corrupt"):
            codec.journal(path).load()

    def test_undecodable_terminated_last_line_raises(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        write(codec, path, codec.entries)
        with open(path, "ab") as handle:
            handle.write(b'{"valid": "json, wrong shape"}\n')
        with pytest.raises(codec.error, match="malformed"):
            codec.journal(path).load()
