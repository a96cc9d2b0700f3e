"""Incremental storage ledger vs the full-walk reference meter.

The tentpole invariant of the O(1)-per-action loop: at *every* scheduler
action, for every register, under crashes and random schedules, the
delta-maintained :class:`StorageLedger` reports bit-identical Definition 2
numbers to :class:`ReferenceStorageMeter`'s full state walk.
"""

import pytest

from repro.errors import MeasurementError
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CASRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.sim import (
    FailurePlan,
    RandomScheduler,
    Simulation,
    at_time,
    seeded_crash_schedule,
)
from repro.storage import ReferenceStorageMeter, StorageMeter
from repro.workloads import (
    WorkloadSpec,
    churn,
    make_value,
    run_register_workload,
    run_workload,
    staggered_writers,
)

CODED_SETUP = RegisterSetup(f=2, k=2, data_size_bytes=16)

REGISTERS = [
    (ABDRegister, replication_setup(f=2, data_size_bytes=16)),
    (CodedOnlyRegister, CODED_SETUP),
    (CASRegister, CODED_SETUP),
    (AdaptiveRegister, CODED_SETUP),
    (SafeCodedRegister, CODED_SETUP),
]


def assert_ledger_matches_reference(sim):
    """Ledger == full walk: breakdown fields and every per-object count."""
    ledger = StorageMeter(sim)
    reference = ReferenceStorageMeter(sim)
    assert ledger.breakdown() == reference.breakdown()
    for bo in sim.base_objects:
        assert ledger.bo_bits(bo.bo_id) == reference.bo_bits(bo.bo_id), (
            f"bo {bo.bo_id} diverged"
        )


class TestRandomizedParity:
    """All five registers x RandomScheduler x crash plans, every action."""

    @pytest.mark.parametrize("register_cls,setup", REGISTERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ledger_equals_full_walk_at_every_action(
        self, register_cls, setup, seed
    ):
        spec = WorkloadSpec(
            writers=2, writes_per_writer=2, readers=2, reads_per_reader=1,
            seed=seed,
        )

        def configure(sim, scheduler):
            # Crash one base object mid-run and one client early; both
            # exercise the ledger's drop paths while work is in flight.
            plan = FailurePlan(scheduler)
            plan.crash_base_object(0, at_time(7 + seed))
            plan.crash_client("w0", at_time(11 + seed))
            return plan

        result = run_register_workload(
            register_cls,
            setup,
            spec,
            scheduler=RandomScheduler(seed=seed),
            configure=configure,
            require_quiescence=False,
            audit_storage_every=1,
        )
        assert_ledger_matches_reference(result.sim)
        # The audited run must have made real progress to be meaningful.
        assert result.run.steps > 10

    @pytest.mark.parametrize("register_cls,setup", REGISTERS)
    def test_parity_after_fair_quiescent_run(self, register_cls, setup):
        result = run_register_workload(
            register_cls,
            setup,
            WorkloadSpec(writers=3, writes_per_writer=1, readers=2,
                         reads_per_reader=1),
            audit_storage_every=5,
        )
        assert result.run.quiescent
        assert_ledger_matches_reference(result.sim)


class TestPatternScenarioParity:
    """Pattern workloads (churn, staggered) x every register x crash
    injection: the ledger must equal the full walk at *every* action, not
    just under uniform writer waves — the scenario-sweep engine drives
    exactly these shapes (``audit_storage_every=1`` re-checks ledger ==
    reference after each scheduler action; a divergence raises
    :class:`~repro.errors.MeasurementError` mid-run)."""

    @pytest.mark.parametrize("register_cls,setup", REGISTERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_churn_with_crashes_audits_every_action(
        self, register_cls, setup, seed
    ):
        workload = churn(register_cls, setup, waves=2, clients_per_wave=2,
                         seed=seed)
        schedule = seeded_crash_schedule(
            seed, bo_count=setup.n, bo_crashes=1,
            client_names=("c0-0", "c0-1"), client_crashes=1,
        )
        result = run_workload(
            workload,
            configure=lambda sim, sch: schedule.install(sch),
            audit_storage_every=1,
        )
        assert result.run.quiescent
        assert_ledger_matches_reference(result.sim)
        assert result.sim.crashed_base_objects() == 1

    @pytest.mark.parametrize("register_cls,setup", REGISTERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_staggered_with_crashes_audits_every_action(
        self, register_cls, setup, seed
    ):
        workload = staggered_writers(register_cls, setup, writers=3,
                                     writes_each=2, seed=seed)
        schedule = seeded_crash_schedule(
            seed, bo_count=setup.n, bo_crashes=2,
            client_names=("sw0", "sw1", "sw2"), client_crashes=1,
        )
        result = run_workload(
            workload,
            RandomScheduler(seed=seed),
            configure=lambda sim, sch: schedule.install(sch),
            audit_storage_every=1,
        )
        assert result.run.quiescent
        assert_ledger_matches_reference(result.sim)
        # Crash-free peaks would count all n objects; the audited run
        # must really have killed its scheduled victims.
        assert result.sim.crashed_base_objects() == 2


class TestCrashEdgeCases:
    def fresh(self, register_cls=SafeCodedRegister):
        setup = RegisterSetup(f=1, k=2, data_size_bytes=16)
        sim = Simulation(register_cls(setup))
        return sim, setup

    def start_write(self, sim, setup, name="w0"):
        client = sim.add_client(name)
        client.enqueue_write(make_value(setup, name))
        sim.step_client(client)
        return client

    def test_bo_crash_with_undelivered_response(self):
        """Crash after apply but before delivery drops the response bits."""
        sim, setup = self.fresh()
        client = sim.add_client("r0")
        client.enqueue_read()
        sim.step_client(client)
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        assert StorageMeter(sim).breakdown().undelivered_response_bits > 0
        assert_ledger_matches_reference(sim)
        sim.crash_base_object(rmw.bo_id)
        assert StorageMeter(sim).breakdown().undelivered_response_bits == 0
        assert StorageMeter(sim).bo_bits(rmw.bo_id) == 0
        assert_ledger_matches_reference(sim)

    def test_trigger_on_crashed_object_counts_nothing(self):
        sim, setup = self.fresh()
        sim.crash_base_object(0)
        before = StorageMeter(sim).breakdown()
        self.start_write(sim, setup)
        # The dropped trigger on object 0 must not enter the args ledger.
        assert_ledger_matches_reference(sim)
        after = StorageMeter(sim).breakdown()
        assert after.bo_state_bits == before.bo_state_bits

    def test_client_crash_keeps_responses_in_storage(self):
        """A crashed client's applied-but-undelivered responses stay billed
        to the base object until dropped at delivery (Definition 2)."""
        sim, setup = self.fresh()
        self.start_write(sim, setup)
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        sim.crash_client("w0")
        assert_ledger_matches_reference(sim)
        sim.deliver_response(rmw.rmw_id)  # drop path
        assert_ledger_matches_reference(sim)

    def test_double_bo_crash_is_idempotent(self):
        sim, setup = self.fresh()
        self.start_write(sim, setup)
        sim.crash_base_object(1)
        sim.crash_base_object(1)
        assert_ledger_matches_reference(sim)

    def test_pending_args_of_crashed_client_still_counted(self):
        """Triggered RMWs survive client crashes; so do their parameters."""
        sim, setup = self.fresh()
        self.start_write(sim, setup)
        sim.crash_client("w0")
        assert_ledger_matches_reference(sim)
        # The surviving pending RMWs may still take effect.
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        assert_ledger_matches_reference(sim)


class TestAuditAndResync:
    def test_audit_passes_on_clean_sim(self):
        setup = RegisterSetup(f=1, k=2, data_size_bytes=16)
        sim = Simulation(SafeCodedRegister(setup))
        StorageMeter(sim).audit()

    def test_audit_detects_out_of_band_mutation(self):
        """Rewriting state behind the kernel's back must be caught."""
        setup = RegisterSetup(f=1, k=2, data_size_bytes=16)
        sim = Simulation(SafeCodedRegister(setup))
        meter = StorageMeter(sim)
        meter.audit()
        sim.base_objects[0].state = None  # whitebox tampering
        with pytest.raises(MeasurementError):
            meter.audit()

    def test_resync_recovers_from_out_of_band_mutation(self):
        setup = RegisterSetup(f=1, k=2, data_size_bytes=16)
        sim = Simulation(SafeCodedRegister(setup))
        meter = StorageMeter(sim)
        sim.base_objects[0].state = None
        sim.storage_ledger.resync()
        meter.audit()
        assert_ledger_matches_reference(sim)

    def test_ledger_attaches_mid_run(self):
        """A ledger created after actions seeds from the live state."""
        setup = RegisterSetup(f=1, k=2, data_size_bytes=16)
        sim = Simulation(SafeCodedRegister(setup))
        client = sim.add_client("w0")
        client.enqueue_write(make_value(setup, "w0"))
        sim.step_client(client)
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        # First meter access happens only now.
        assert_ledger_matches_reference(sim)
