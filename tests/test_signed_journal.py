"""The one signed journal (:mod:`repro.journal`), under both of its codecs.

Every property here is a property of the shared file — the magic, the
checksummed record framing, the tail rule, trim-before-append, the header
— so each test runs once per codec: replica entries
(:class:`~repro.service.journal.ReplicaJournal`) and sweep cells
(:class:`~repro.analysis.executor.SweepJournal`). No sockets, no sweeps.

The damage model: a cut at any byte offset loads exactly the records that
are wholly on disk and stays appendable; a single-bit flip anywhere in a
complete file, a flipped length field, and a file from the JSONL era all
end in the codec's error, and a refused file is never modified.
"""

import hashlib

import pytest

from repro.analysis.executor import SweepJournal
from repro.analysis.sweeps import SweepRecord
from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import CheckpointError, JournalError
from repro.journal import FILE_MAGIC
from repro.registers.timestamps import Timestamp
from repro.service.journal import ReplicaJournal, replica_signature

RECORD = SweepRecord(
    register="adaptive", f=2, k=2, n=6, c=4, data_bits=384, seed=21,
    peak_bo_state_bits=1728, peak_storage_bits=2304,
    final_bo_state_bits=1152, completed_writes=4, steps=321, thm1_bits=576,
    adaptive_bound_bits=3456, disintegrated_bits=1152, lrc_floor_bits=768,
    scenario="churn+crash", padded=False, completed_reads=4, bo_crashes=1,
    client_crashes=1, wall_clock_s=0.012345, worker=2,
)

#: Size of a record head: body length, crc32(body), crc32(first 8 bytes).
HEAD = 12


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
    # The file magic plus the signed header record, as first written by
    # the binary record format.
    header = (
        FILE_MAGIC + b'\x00\x00\x00\x8b\xaa\x1d\xc8\xd3\x89\xc5I\x80'
        b'{"journal": "repro-replica-journal", "journal_version": 2, '
        b'"signature": "1b5cc7a41eb0bb907562e3bae98f62b4361c69cc37dee153'
        b'93fc131ad265cff0"}'
    )
    golden_entry = (Timestamp(7, "w3"), CodeBlock(
        payload=b"\x00\xffgolden!", index=2, source=BlockSource(41, 2),
        size_bits=64,
    ))
    golden_record_sha256 = (
        "4ca1433692a51e5c80305baaa65f874b61d0ba12f76e6d49ca2899afbc065914"
    )
    # The header line of the JSONL-era format, byte for byte.
    jsonl_header = (
        b'{"journal": "repro-replica-journal", "journal_version": 1, '
        b'"signature": "fdbeeb3037e57964d3660038198707b9d61d9d4da8043020'
        b'62402bcaed23f0d1"}\n'
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
        FILE_MAGIC + b'\x00\x00\x00\x9c\xf2\x16\x96\x9f\x02\xbb\xb7\xdf'
        b'{"journal": "repro-sweep-journal", "journal_version": 2, '
        b'"signature": "9602bacb71dfa115e04189d324ab68b106c17ff1d9e9d339'
        b'42cb0a8c077cd6e7", "total_cells": 12}'
    )
    golden_entry = (3, RECORD)
    golden_record_sha256 = (
        "1c315c1fce2be3465f9e8a36f79c55152a8b133e03a68e107a75998e5c535c7f"
    )
    jsonl_header = (
        b'{"journal": "repro-sweep-journal", "journal_version": 1, '
        b'"signature": "9602bacb71dfa115e04189d324ab68b106c17ff1d9e9d339'
        b'42cb0a8c077cd6e7", "total_cells": 12}\n'
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


def record_ends(codec, tmp_path):
    """File size after the header and after each of ``codec.entries``."""
    return [
        len(write(codec, tmp_path / f"ends{count}", codec.entries[:count]))
        for count in range(len(codec.entries) + 1)
    ]


def assert_refused_untouched(codec, path):
    """Both ``load`` and ``open_for_append`` refuse; the bytes stay."""
    before = path.read_bytes()
    with pytest.raises(codec.error):
        codec.journal(path).load()
    with pytest.raises(codec.error):
        codec.journal(path).open_for_append()
    assert path.read_bytes() == before


class TestFormatPins:
    def test_header_and_record_bytes_are_pinned(self, codec, tmp_path):
        data = write(codec, tmp_path / "j", [codec.golden_entry])
        assert data.startswith(codec.header)
        record = data[len(codec.header):]
        assert hashlib.sha256(record).hexdigest() == \
            codec.golden_record_sha256

    def test_parent_written_header_is_accepted(self, codec, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(codec.header)
        assert codec.loaded(codec.journal(path)) == []
        assert write(codec, path, [codec.extra]).startswith(codec.header)
        assert codec.loaded(codec.journal(path)) == [codec.extra]


class TestTailRule:
    def test_truncation_at_every_byte_offset(self, codec, tmp_path):
        """A cut anywhere loads exactly the records wholly on disk, and
        the file is never bricked: open + one append + load round-trips."""
        ends = record_ends(codec, tmp_path)
        path = tmp_path / "j"
        full = write(codec, path, codec.entries)
        assert len(full) == ends[-1]
        for cut in range(len(full) + 1):
            path.write_bytes(full[:cut])
            whole = sum(1 for end in ends[1:] if end <= cut)
            prefix = codec.loaded(codec.journal(path))
            assert prefix == codec.entries[:whole]
            write(codec, path, [codec.extra])
            assert codec.loaded(codec.journal(path)) == \
                prefix + [codec.extra]

    def test_unterminated_tail_is_dropped_even_when_it_parses(self, codec,
                                                              tmp_path):
        """A last record one byte short of its body does not exist, though
        its head checks: ``load`` must not serve an entry that
        ``open_for_append`` is about to trim."""
        path = tmp_path / "j"
        full = write(codec, path, codec.entries)
        path.write_bytes(full[:-1])
        assert codec.loaded(codec.journal(path)) == codec.entries[:-1]
        write(codec, path, [codec.extra])
        assert codec.loaded(codec.journal(path)) == \
            codec.entries[:-1] + [codec.extra]

    def test_bit_flip_in_terminated_last_line_raises(self, codec, tmp_path):
        """A whole last record was acknowledged; if its body no longer
        checks that is damage, not a crash artifact — refuse, do not roll
        back to the previous entry."""
        path = tmp_path / "j"
        full = bytearray(write(codec, path, codec.entries))
        full[-1] ^= 0x01
        path.write_bytes(bytes(full))
        with pytest.raises(codec.error, match="corrupt"):
            codec.journal(path).load()

    def test_undecodable_terminated_last_line_raises(self, codec, tmp_path):
        """A whole record whose checksums hold but whose body is not the
        codec's shape is malformed, not torn."""
        path = tmp_path / "j"
        write(codec, path, codec.entries)
        journal = codec.journal(path)
        journal.open_for_append()
        journal._write_record(b'{"valid": "json, wrong shape"}')
        journal.close()
        with pytest.raises(codec.error, match="malformed"):
            codec.journal(path).load()


class TestDamage:
    def test_single_bit_flip_at_every_byte_offset_raises(self, codec,
                                                         tmp_path):
        """CRC-32 catches every single-bit error: a flip in any byte —
        magic, head, header body, entry body — is refused by ``load``,
        never served as a shorter or different journal, and refused by
        ``open_for_append`` before it truncates or writes anything. The
        flipped bit rotates with the offset, so every bit position is hit
        in every region of the file."""
        path = tmp_path / "j"
        full = write(codec, path, codec.entries)
        journal = codec.journal(path)
        for offset in range(len(full)):
            damaged = bytearray(full)
            damaged[offset] ^= 1 << (offset % 8)
            path.write_bytes(damaged)
            with pytest.raises(codec.error):
                journal.load()
            with pytest.raises(codec.error):
                journal.open_for_append()
            assert path.read_bytes() == damaged

    @pytest.mark.parametrize("byte, mask", [(0, 0x80), (3, 0x01)],
                             ids=["past-eof", "off-by-one"])
    def test_flipped_length_of_last_record_raises(self, codec, tmp_path,
                                                  byte, mask):
        """A length that now runs past EOF would look like a torn tail and
        silently drop the last acknowledged write; the head checksum
        refuses it instead."""
        ends = record_ends(codec, tmp_path)
        path = tmp_path / "j"
        full = bytearray(write(codec, path, codec.entries))
        full[ends[-2] + byte] ^= mask  # inside the last record's length
        path.write_bytes(bytes(full))
        with pytest.raises(codec.error, match="corrupt"):
            codec.journal(path).load()
        assert_refused_untouched(codec, path)

    @pytest.mark.parametrize("tail", [b"", b"{\"ts\": [1, \"w0\"]}\n", b"{"],
                             ids=["header", "entry", "torn"])
    def test_jsonl_era_file_is_refused_untouched(self, codec, tmp_path,
                                                 tail):
        path = tmp_path / "j"
        path.write_bytes(codec.jsonl_header + tail)
        with pytest.raises(codec.error, match="file magic"):
            codec.journal(path).load()
        assert_refused_untouched(codec, path)

    def test_header_record_is_required(self, codec, tmp_path):
        """A file whose first record is an entry, not the signed header,
        is refused."""
        path = tmp_path / "j"
        full = write(codec, path, codec.entries)
        path.write_bytes(FILE_MAGIC + full[len(codec.header):])
        with pytest.raises(codec.error, match="missing header"):
            codec.journal(path).load()
        assert_refused_untouched(codec, path)
