"""Workload generator and runner tests."""

import pytest

from repro.errors import SchedulerExhausted
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CASRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.sim import FairScheduler, RandomScheduler
from repro.workloads import (
    WorkloadSpec,
    make_value,
    run_register_workload,
)

SETUP = RegisterSetup(f=1, k=2, data_size_bytes=16)


class TestMakeValue:
    def test_deterministic(self):
        assert make_value(SETUP, "a", 1) == make_value(SETUP, "a", 1)

    def test_distinct_tags_distinct_values(self):
        values = {make_value(SETUP, f"t{i}") for i in range(50)}
        assert len(values) == 50

    def test_seed_changes_values(self):
        assert make_value(SETUP, "a", 1) != make_value(SETUP, "a", 2)

    def test_length_matches_register_width(self):
        wide = RegisterSetup(f=1, k=2, data_size_bytes=100)
        assert len(make_value(wide, "x")) == 100


class TestWorkloadSpec:
    def test_concurrency_equals_writers(self):
        spec = WorkloadSpec(writers=5)
        assert spec.concurrency == 5

    def test_write_values_shape(self):
        spec = WorkloadSpec(writers=2, writes_per_writer=3)
        values = spec.write_values(SETUP)
        assert set(values) == {"w0", "w1"}
        assert all(len(per_writer) == 3 for per_writer in values.values())

    def test_all_values_distinct(self):
        spec = WorkloadSpec(writers=3, writes_per_writer=3)
        values = spec.write_values(SETUP)
        flat = [v for per_writer in values.values() for v in per_writer]
        assert len(set(flat)) == len(flat)


class TestRunner:
    def test_result_counts(self):
        spec = WorkloadSpec(writers=2, writes_per_writer=2, readers=2,
                            reads_per_reader=1, seed=1)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        assert result.completed_writes == 4
        assert result.completed_reads == 2
        assert result.run.quiescent

    def test_deterministic_given_seeded_scheduler(self):
        spec = WorkloadSpec(writers=2, writes_per_writer=1, readers=1,
                            reads_per_reader=1, seed=5)
        first = run_register_workload(
            AdaptiveRegister, SETUP, spec, scheduler=RandomScheduler(9)
        )
        second = run_register_workload(
            AdaptiveRegister, SETUP, spec, scheduler=RandomScheduler(9)
        )
        assert first.peak_storage_bits == second.peak_storage_bits
        assert first.run.steps == second.run.steps

    def test_budget_exhaustion_raises_when_required(self):
        spec = WorkloadSpec(writers=2, writes_per_writer=2, readers=1,
                            reads_per_reader=1)
        with pytest.raises(SchedulerExhausted):
            run_register_workload(
                AdaptiveRegister, SETUP, spec, max_steps=10,
            )

    def test_quiescence_on_the_last_allowed_step_is_not_exhaustion(self):
        setup = RegisterSetup(f=1, k=2, data_size_bytes=8)
        spec = WorkloadSpec(writers=2, writes_per_writer=1, readers=1,
                            reads_per_reader=1, seed=3)
        needed = run_register_workload(AdaptiveRegister, setup, spec).run.steps
        assert needed == 66
        result = run_register_workload(
            AdaptiveRegister, setup, spec, max_steps=needed,
        )
        assert result.run.quiescent
        assert result.sim.quiescent()
        with pytest.raises(SchedulerExhausted):
            run_register_workload(
                AdaptiveRegister, setup, spec, max_steps=needed - 1,
            )

    def test_budget_exhaustion_tolerated_when_not_required(self):
        spec = WorkloadSpec(writers=2, writes_per_writer=2, readers=1,
                            reads_per_reader=1)
        result = run_register_workload(
            AdaptiveRegister, SETUP, spec, max_steps=10,
            require_quiescence=False,
        )
        assert result.run.exhausted

    def test_history_property(self):
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=1,
                            reads_per_reader=1, seed=2)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        history = result.history
        assert len(history.writes()) == 1
        assert len(history.reads()) == 1
        assert history.v0 == SETUP.v0()

    def test_configure_hook_wraps_scheduler(self):
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=0)
        seen = {}

        def configure(sim, scheduler):
            seen["sim"] = sim
            seen["scheduler"] = scheduler
            return scheduler

        base = FairScheduler()
        run_register_workload(
            AdaptiveRegister, SETUP, spec, scheduler=base, configure=configure
        )
        assert seen["scheduler"] is base
        assert seen["sim"].protocol.name == "adaptive"

    def test_zero_workload_is_quiescent(self):
        spec = WorkloadSpec(writers=0, readers=0)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        assert result.run.quiescent
        assert result.run.steps == 0


class TestEncodePriming:
    """The batched write-wave encode must be measurement-invisible."""

    def _measurements(self, result):
        return (
            result.peak_storage_bits,
            result.peak_bo_state_bits,
            result.final_bo_state_bits,
            result.run.steps,
            result.completed_writes,
            result.completed_reads,
        )

    @pytest.mark.parametrize(
        "register_cls, setup",
        [
            (AdaptiveRegister, SETUP),
            (CodedOnlyRegister, SETUP),
            (CASRegister, SETUP),
            (SafeCodedRegister, SETUP),
            (ABDRegister, replication_setup(f=1, data_size_bytes=16)),
        ],
    )
    def test_priming_changes_no_measurement(self, register_cls, setup):
        spec = WorkloadSpec(writers=6, writes_per_writer=2, readers=2,
                            reads_per_reader=1, seed=3)
        primed = run_register_workload(register_cls, setup, spec)
        lazy = run_register_workload(
            register_cls, setup, spec, prime_encodes=False
        )
        assert self._measurements(primed) == self._measurements(lazy)

    def test_replication_scheme_skips_the_plan(self):
        # ABD's "encode" is a copy: no stacked pass to share, no plan.
        spec = WorkloadSpec(writers=4, writes_per_writer=1, readers=0, seed=3)
        result = run_register_workload(
            ABDRegister, replication_setup(f=1, data_size_bytes=16), spec
        )
        assert result.sim.encode_plan is None

    def test_wave_shares_one_stacked_encode_pass(self):
        spec = WorkloadSpec(writers=8, writes_per_writer=1, readers=0, seed=3)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        plan = result.sim.encode_plan
        assert plan is not None
        assert len(plan) == 8  # one cached codeword per distinct value

    def test_single_write_skips_the_plan(self):
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=0, seed=3)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        assert result.sim.encode_plan is None

    def test_plan_disabled_on_request(self):
        spec = WorkloadSpec(writers=4, writes_per_writer=1, readers=0, seed=3)
        result = run_register_workload(
            AdaptiveRegister, SETUP, spec, prime_encodes=False
        )
        assert result.sim.encode_plan is None


class TestDecodeSharing:
    """The shared read-side decode pass must be measurement-invisible."""

    def _observables(self, result):
        return (
            result.peak_storage_bits,
            result.peak_bo_state_bits,
            result.final_bo_state_bits,
            result.run.steps,
            result.completed_writes,
            result.completed_reads,
            [(op.op_uid, op.kind, op.result, op.invoke_time, op.return_time)
             for op in result.trace.ops.values()],
        )

    @pytest.mark.parametrize(
        "register_cls, setup",
        [
            (AdaptiveRegister, SETUP),
            (CodedOnlyRegister, SETUP),
            (CASRegister, SETUP),
            (SafeCodedRegister, SETUP),
            (ABDRegister, replication_setup(f=1, data_size_bytes=16)),
        ],
    )
    def test_sharing_changes_no_observable(self, register_cls, setup):
        spec = WorkloadSpec(writers=3, writes_per_writer=1, readers=4,
                            reads_per_reader=2, seed=5)
        shared = run_register_workload(register_cls, setup, spec)
        unshared = run_register_workload(
            register_cls, setup, spec, share_decodes=False
        )
        assert self._observables(shared) == self._observables(unshared)

    def test_read_storm_hits_the_shared_pass(self):
        """Readers of one quiescent codeword share a single decode."""
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=6,
                            reads_per_reader=2, seed=1)
        result = run_register_workload(AdaptiveRegister, SETUP, spec)
        cache = result.sim.decode_cache
        assert cache is not None
        assert cache.hits > 0

    def test_sharing_disabled_on_request(self):
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=1)
        result = run_register_workload(
            AdaptiveRegister, SETUP, spec, share_decodes=False
        )
        assert result.sim.decode_cache is None
