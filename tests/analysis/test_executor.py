"""Tests for the sweep engine: pool fan-out, merge, resume.

The determinism matrix here is the acceptance criterion: pooled
``run_sweep`` JSON must be byte-identical to the in-process ``workers=1``
reference for workers in {2, 4} on the reference scenario grid — crash
firing records included — and that reference is pinned by a golden hash.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

import repro.analysis.executor as executor_module
from repro.analysis import (
    RECORD_METADATA_FIELDS,
    Scenario,
    SweepGrid,
    SweepJournal,
    SweepRecord,
    SweepResult,
    default_chunk_size,
    run_sweep,
    sweep_cells,
    sweep_signature,
)
from repro.errors import CheckpointError, ParameterError

#: The reference scenario grid: a crash-free wave and churn-with-crashes
#: over (f=2, k=2) — 6 points x 2 scenarios = 12 cells, heavy enough to
#: exercise chunked dispatch, light enough for CI.
GRID = SweepGrid.cartesian(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2,), ks=(2,), cs=(1, 2), data_sizes=(48,), seed=21,
)

SCENARIOS = (
    Scenario("uniform"),
    Scenario("churn+crash", pattern="churn", ops_per_client=2,
             bo_crashes=1, client_crashes=1),
)

ENGINE_KNOBS = dict(max_steps=400_000, lrc_locality=2,
                    audit_storage_every=0)


#: sha256 of ``run_sweep(GRID, scenarios=SCENARIOS)`` stripped JSON,
#: computed at the parent of the one-engine refactor (commit dd59c39).
GOLDEN_SWEEP_SHA256 = (
    "2b10a5fe6696951afc45c82333cdf6433c65542e771ff43145ad1ad06f963295"
)


@pytest.fixture(scope="module")
def serial_reference():
    """The in-process reference: ``workers=1`` is a plain cell loop."""
    return run_sweep(GRID, scenarios=SCENARIOS, workers=1)


def test_reference_matches_golden_hash(serial_reference):
    stripped = serial_reference.to_json(include_timing=False)
    assert hashlib.sha256(stripped.encode()).hexdigest() == \
        GOLDEN_SWEEP_SHA256


class TestPooledDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pooled_json_byte_identical_to_serial(self, serial_reference,
                                                  workers):
        """The acceptance matrix: any worker count, same bytes."""
        pooled = run_sweep(GRID, scenarios=SCENARIOS, workers=workers)
        assert pooled.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_pooled_records_carry_worker_metadata(self):
        pooled = run_sweep(GRID, scenarios=SCENARIOS, workers=2,
                           chunk_size=1)
        workers_seen = {record.worker for record in pooled.records}
        # Pool workers are numbered globally per parent process, so the
        # exact values depend on pools created earlier; what matters is
        # that pooled cells carry real (positive) worker numbers from at
        # most two processes.
        assert workers_seen
        assert all(worker > 0 for worker in workers_seen)
        assert len(workers_seen) <= 2
        serial = run_sweep(GRID, scenarios=SCENARIOS, workers=1)
        assert {record.worker for record in serial.records} == {0}

    def test_crash_cells_fire_identically_in_pool(self, serial_reference):
        pooled = run_sweep(GRID, scenarios=SCENARIOS, workers=2)
        for ours, theirs in zip(pooled.records,
                                serial_reference.records):
            assert (ours.bo_crashes, ours.client_crashes) == \
                (theirs.bo_crashes, theirs.client_crashes)
        crashed = pooled.select(scenario="churn+crash")
        assert crashed and all(r.bo_crashes == 1 for r in crashed)

    def test_progress_sees_every_cell_once(self):
        seen = []
        run_sweep(GRID, scenarios=SCENARIOS, workers=2,
                  progress=lambda done, total, point: seen.append(done))
        assert sorted(seen) == list(range(1, len(GRID) * 2 + 1))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            run_sweep(GRID, workers=0)


class TestMetadataStripping:
    def test_include_timing_false_strips_all_metadata_fields(
        self, serial_reference
    ):
        document = json.loads(serial_reference.to_json(include_timing=False))
        for record in document["records"]:
            for field in RECORD_METADATA_FIELDS:
                assert field not in record
        for field in RECORD_METADATA_FIELDS:
            assert field not in document["record_fields"]

    def test_results_differing_only_in_metadata_compare_equal(
        self, serial_reference
    ):
        from dataclasses import replace

        relabelled = SweepResult([
            replace(record, worker=record.worker + 7,
                    wall_clock_s=record.wall_clock_s + 1.0)
            for record in serial_reference.records
        ])
        assert relabelled.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)
        # With timing included they differ — metadata is still recorded.
        assert relabelled.to_json() != serial_reference.to_json()
        assert '"worker"' in serial_reference.to_json()


class TestChunking:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(10, 1) == 10
        assert default_chunk_size(8, 4) == 1
        assert default_chunk_size(1000, 4) == 32  # capped
        assert default_chunk_size(100, 4) == 7  # ~4 tasks per worker

    def test_explicit_chunk_size_still_deterministic(self,
                                                     serial_reference):
        pooled = run_sweep(GRID, scenarios=SCENARIOS, workers=2,
                           chunk_size=5)
        assert pooled.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)


class TestCheckpointJournal:
    def _checkpoint(self, tmp_path):
        return tmp_path / "sweep.journal.jsonl"

    def test_journal_written_and_resume_recomputes_nothing(
        self, tmp_path, monkeypatch, serial_reference
    ):
        checkpoint = self._checkpoint(tmp_path)
        run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint)
        cells = sweep_cells(GRID, SCENARIOS)
        journal = SweepJournal(
            checkpoint, sweep_signature(cells, **ENGINE_KNOBS), len(cells)
        )
        assert sorted(journal.load()) == list(range(len(GRID) * 2))

        def boom(*args, **kwargs):
            raise AssertionError("resume recomputed a completed cell")

        monkeypatch.setattr(executor_module, "execute_cell", boom)
        resumed = run_sweep(GRID, scenarios=SCENARIOS,
                            checkpoint=checkpoint, resume=True)
        assert resumed.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_existing_checkpoint_without_resume_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint)
        with pytest.raises(CheckpointError, match="resume"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint)

    def test_resume_without_existing_journal_starts_fresh(self, tmp_path,
                                                          serial_reference):
        checkpoint = self._checkpoint(tmp_path)
        result = run_sweep(GRID, scenarios=SCENARIOS,
                           checkpoint=checkpoint, resume=True)
        assert result.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)
        assert checkpoint.exists()

    def test_truncated_trailing_line_tolerated_and_recomputed(
        self, tmp_path, monkeypatch, serial_reference
    ):
        """Kill-mid-write leaves half a record; resume recomputes
        exactly that cell and still reproduces the serial bytes."""
        checkpoint = self._checkpoint(tmp_path)
        run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint)
        whole = checkpoint.read_bytes()
        checkpoint.write_bytes(whole[:-25])  # chop mid-record

        calls = []
        real = executor_module.execute_cell
        monkeypatch.setattr(
            executor_module, "execute_cell",
            lambda *args, **kwargs: calls.append(args) or
            real(*args, **kwargs),
        )
        resumed = run_sweep(GRID, scenarios=SCENARIOS,
                            checkpoint=checkpoint, resume=True)
        assert len(calls) == 1
        assert resumed.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)
        # The resume must have trimmed the partial record before
        # appending: the journal is whole again (every cell loads, a
        # second resume recomputes nothing and reproduces the same bytes).
        cells = sweep_cells(GRID, SCENARIOS)
        assert len(SweepJournal(
            checkpoint, sweep_signature(cells, **ENGINE_KNOBS), len(cells)
        ).load()) == len(cells)
        again = run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                          resume=True)
        assert len(calls) == 1  # nothing recomputed the second time
        assert again.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_corrupt_interior_line_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint)
        data = bytearray(checkpoint.read_bytes())
        data[len(data) // 2] ^= 0x20  # a byte inside a non-trailing record
        checkpoint.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="corrupt"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      resume=True)

    def test_journal_from_different_grid_raises(self, tmp_path):
        """A journal must never silently merge into a different sweep."""
        checkpoint = self._checkpoint(tmp_path)
        other_grid = SweepGrid.cartesian(
            registers=("adaptive",), fs=(1,), ks=(2,), cs=(1, 2, 4),
            data_sizes=(48,), seed=3,
        )
        run_sweep(other_grid, checkpoint=checkpoint)
        with pytest.raises(CheckpointError, match="different sweep"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      resume=True)

    def test_journal_with_different_engine_knobs_raises(self, tmp_path):
        """The signature pins engine knobs too: a journal measured with
        different audit/step settings is not the same sweep."""
        checkpoint = self._checkpoint(tmp_path)
        run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                  max_steps=200_000)
        with pytest.raises(CheckpointError, match="different sweep"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      resume=True)

    def test_resume_after_interrupt_mid_scenario(self, tmp_path,
                                                 serial_reference):
        """Interrupt the sweep partway through the *second* scenario (the
        classic CI-timeout shape), then resume: only the unfinished cells
        run, and the merged result matches the uninterrupted bytes."""
        checkpoint = self._checkpoint(tmp_path)
        cells_total = len(GRID) * 2
        interrupt_after = len(GRID) + 2  # 2 cells into scenario 2

        def interrupter(done, total, point):
            if done >= interrupt_after:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      progress=interrupter)
        cells = sweep_cells(GRID, SCENARIOS)
        journaled = SweepJournal(
            checkpoint, sweep_signature(cells, **ENGINE_KNOBS), len(cells)
        ).load()
        assert len(journaled) == interrupt_after

        resumed_cells = []
        resumed = run_sweep(
            GRID, scenarios=SCENARIOS, checkpoint=checkpoint, resume=True,
            progress=lambda done, total, point: resumed_cells.append(done),
        )
        assert len(resumed_cells) == cells_total - interrupt_after
        assert resumed.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_parallel_resume_of_serial_journal(self, tmp_path,
                                               serial_reference):
        """Worker count is execution metadata: a serial journal resumes
        under a pool (and vice versa) with identical measured bytes."""
        checkpoint = self._checkpoint(tmp_path)
        interrupt_after = 3

        def interrupter(done, total, point):
            if done >= interrupt_after:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      progress=interrupter)
        resumed = run_sweep(GRID, scenarios=SCENARIOS,
                            checkpoint=checkpoint, resume=True, workers=2)
        assert resumed.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_journal_total_cells_mismatch_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        cells = sweep_cells(GRID, SCENARIOS)
        signature = sweep_signature(cells, **ENGINE_KNOBS)
        journal = SweepJournal(checkpoint, signature, len(cells))
        journal.open_for_append()
        journal.close()
        with pytest.raises(CheckpointError, match="cells"):
            SweepJournal(checkpoint, signature, len(cells) + 5).load()

    def test_journal_cell_index_out_of_range_raises(self, tmp_path,
                                                    serial_reference):
        checkpoint = self._checkpoint(tmp_path)
        cells = sweep_cells(GRID, SCENARIOS)
        signature = sweep_signature(cells, **ENGINE_KNOBS)
        journal = SweepJournal(checkpoint, signature, len(cells))
        journal.open_for_append()
        journal.append(len(cells) + 3, serial_reference.records[0])
        journal.close()
        with pytest.raises(CheckpointError, match="outside"):
            journal.load()

    def test_resume_of_journal_with_unknown_record_field_raises(
        self, tmp_path, serial_reference
    ):
        """A checkpoint whose records carry a field ``SweepRecord`` no
        longer has (``coding_backend``, written before the kernel
        registry was removed) is refused, not silently resumed."""
        checkpoint = self._checkpoint(tmp_path)
        cells = sweep_cells(GRID, SCENARIOS)
        journal = SweepJournal(
            checkpoint, sweep_signature(cells, **ENGINE_KNOBS), len(cells)
        )
        journal.open_for_append()
        record = dict(asdict(serial_reference.records[0]),
                      coding_backend="numpy-nibble")
        journal._write_record(
            json.dumps({"cell": 0, "record": record}).encode()
        )
        journal.close()
        with pytest.raises(CheckpointError, match="coding_backend"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      resume=True)

    def test_not_a_journal_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.write_text('{"some": "other json"}\n')
        with pytest.raises(CheckpointError, match="file magic"):
            run_sweep(GRID, scenarios=SCENARIOS, checkpoint=checkpoint,
                      resume=True)
        assert checkpoint.read_text() == '{"some": "other json"}\n'



class TestSweepSignature:
    def test_signature_stable_across_processes_inputs(self):
        cells = sweep_cells(GRID, SCENARIOS)
        assert sweep_signature(cells, **ENGINE_KNOBS) == \
            sweep_signature(list(cells), **ENGINE_KNOBS)

    def test_signature_sensitive_to_every_axis(self):
        cells = sweep_cells(GRID, SCENARIOS)
        base = sweep_signature(cells, **ENGINE_KNOBS)
        assert sweep_signature(cells[:-1], **ENGINE_KNOBS) != base
        assert sweep_signature(
            sweep_cells(GRID, SCENARIOS[:1]), **ENGINE_KNOBS
        ) != base
        knobs = dict(ENGINE_KNOBS, audit_storage_every=1)
        assert sweep_signature(cells, **knobs) != base

    def test_record_round_trips_through_journal_json(self,
                                                     serial_reference):
        record = serial_reference.records[-1]
        rebuilt = SweepRecord(**json.loads(json.dumps(asdict(record))))
        assert rebuilt == record
