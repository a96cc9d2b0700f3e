"""Workload-pattern tests: staggered, read-heavy, churn.

Every builder returns a :class:`Workload` that :func:`run_workload` runs
and meters exactly like the uniform wave — the parity tests here pin that
shared surface (``spec``, peak breakdown, ``history``).
"""

import pytest

from repro.registers import (
    AdaptiveRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
)
from repro.spec import History, check_strong_regularity, check_strong_safety
from repro.storage import StorageMeter
from repro.workloads import (
    WorkloadSpec,
    churn,
    read_heavy,
    run_register_workload,
    run_workload,
    staggered_writers,
)

SETUP = RegisterSetup(f=1, k=2, data_size_bytes=8)


class TestStaggered:
    def test_drains_completely(self):
        result = run_workload(staggered_writers(
            AdaptiveRegister, SETUP, writers=3, writes_each=2,
        ))
        assert result.run.quiescent
        assert result.completed_writes == 6

    def test_gc_holds_under_sustained_load(self):
        result = run_workload(staggered_writers(
            AdaptiveRegister, SETUP, writers=4, writes_each=3,
        ))
        meter = StorageMeter(result.sim)
        assert meter.bo_only_cost_bits() == (
            SETUP.n * SETUP.data_size_bits // SETUP.k
        )

    def test_regular_history(self):
        result = run_workload(staggered_writers(
            CodedOnlyRegister, SETUP, writers=3, writes_each=2, seed=5,
        ))
        history = History.from_trace(result.trace, SETUP.v0())
        assert check_strong_regularity(history).ok


class TestReadHeavy:
    @pytest.mark.parametrize("register_cls",
                             [AdaptiveRegister, SafeCodedRegister])
    def test_many_readers_drain(self, register_cls):
        result = run_workload(
            read_heavy(register_cls, SETUP, readers=6, reads_each=3)
        )
        assert result.run.quiescent
        assert result.completed_reads == 18
        assert result.completed_writes == 1

    def test_safe_register_histories_stay_safe(self):
        result = run_workload(read_heavy(
            SafeCodedRegister, SETUP, readers=4, reads_each=2, writers=2,
            seed=3,
        ))
        history = History.from_trace(result.trace, SETUP.v0())
        assert check_strong_safety(history).ok


class TestChurn:
    def test_waves_complete(self):
        result = run_workload(
            churn(AdaptiveRegister, SETUP, waves=3, clients_per_wave=2)
        )
        assert result.run.quiescent
        assert result.completed_writes == 6
        assert result.completed_reads == 6

    def test_nothing_runs_before_drain(self):
        """The builder enqueues wave 0 and runs nothing; later waves are
        phases, enqueued only after the wave before them drains."""
        workload = churn(AdaptiveRegister, SETUP, waves=2, clients_per_wave=2)
        assert workload.sim.time == 0
        assert list(workload.sim.clients) == ["c0-0", "c0-1"]
        assert len(workload.phases) == 1
        result = run_workload(workload)
        assert list(result.sim.clients)[2:] == ["c1-0", "c1-1"]
        assert result.completed_writes == 4

    def test_rejects_zero_waves(self):
        with pytest.raises(ValueError, match="waves"):
            churn(AdaptiveRegister, SETUP, waves=0)

    def test_later_waves_read_recent_values(self):
        """Each read-after-own-write in a drained wave returns a value from
        its own wave or a concurrent client — never an ancient one."""
        result = run_workload(churn(
            AdaptiveRegister, SETUP, waves=3, clients_per_wave=1, seed=7,
        ))
        reads = sorted(
            (op for op in result.trace.reads() if op.complete),
            key=lambda op: op.invoke_time,
        )
        writes_by_value = {op.written: op for op in result.trace.writes()}
        for read in reads:
            writer = writes_by_value.get(read.result)
            assert writer is not None, "read returned an unwritten value"
            # The matching write must not belong to a later wave.
            assert writer.invoke_time <= read.return_time

    def test_churn_history_regular(self):
        result = run_workload(churn(
            CodedOnlyRegister, SETUP, waves=2, clients_per_wave=2, seed=9,
        ))
        history = History.from_trace(result.trace, SETUP.v0())
        assert check_strong_regularity(history).ok

    def test_timestamps_propagate_across_waves(self):
        result = run_workload(
            churn(AdaptiveRegister, SETUP, waves=3, clients_per_wave=1)
        )
        top = max(bo.state.stored_ts for bo in result.sim.base_objects)
        assert top.num >= 3  # at least one ts per wave


class TestWorkloadResultParity:
    """Pattern workloads come back as the uniform wave's WorkloadResult."""

    def test_spec_describes_schedule_shape(self):
        workload = staggered_writers(AdaptiveRegister, SETUP, writers=3,
                                     writes_each=2, seed=4)
        assert workload.spec == WorkloadSpec(writers=3, writes_per_writer=2,
                                             readers=0, seed=4)
        workload = read_heavy(AdaptiveRegister, SETUP, readers=5,
                              reads_each=2, writers=2, seed=4)
        assert workload.spec == WorkloadSpec(writers=2, writes_per_writer=1,
                                             readers=5, reads_per_reader=2,
                                             seed=4)
        assert run_workload(workload).spec is workload.spec

    def test_drain_measures_peaks_like_the_runner(self):
        """A single-write-per-writer staggered run is the uniform wave;
        both paths must measure identical peaks."""
        uniform = run_register_workload(
            AdaptiveRegister, SETUP,
            WorkloadSpec(writers=3, writes_per_writer=1, readers=0, seed=2),
        )
        pattern = run_workload(staggered_writers(
            AdaptiveRegister, SETUP, writers=3, writes_each=1, seed=2,
        ))
        # Staggered values use different tags, so peaks agree as shapes,
        # not bytes: same sizes everywhere means identical bit counts.
        assert pattern.peak_bo_state_bits == uniform.peak_bo_state_bits
        assert pattern.peak_storage_bits == uniform.peak_storage_bits
        assert pattern.final_bo_state_bits == uniform.final_bo_state_bits
        assert pattern.run.steps == uniform.run.steps

    def test_history_and_series_available(self):
        result = run_workload(
            read_heavy(AdaptiveRegister, SETUP, readers=2, reads_each=1),
            keep_series=True,
        )
        assert check_strong_regularity(result.history).ok
        assert result.series, "keep_series must record the Definition 2 curve"
        assert result.peak_storage_bits == max(bits for _, bits in result.series)

    def test_series_spans_every_churn_wave(self):
        result = run_workload(
            churn(AdaptiveRegister, SETUP, waves=3, clients_per_wave=1),
            keep_series=True,
        )
        assert len(result.series) == result.run.steps

    def test_pattern_sims_share_the_coding_fast_paths(self):
        """Builders install the runner's BatchEncodePlan/DecodeShareCache."""
        workload = churn(AdaptiveRegister, SETUP, waves=2, clients_per_wave=2)
        assert workload.sim.encode_plan is not None
        assert len(workload.sim.encode_plan) == 4  # every wave, one pass
        assert workload.sim.decode_cache is not None
        writes_only = staggered_writers(AdaptiveRegister, SETUP, writers=2)
        assert writes_only.sim.encode_plan is not None
