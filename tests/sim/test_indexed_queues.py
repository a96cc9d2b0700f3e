"""Indexed kernel queues vs the definitional (filter + sort) queries.

The kernel's O(1) accessors (`first_appliable`, `first_deliverable`,
per-client variants, counts, nth-sampling arrays) must agree with the
reference definitions — "pending RMWs on live objects, oldest first" and
"applied RMWs of live clients, oldest first" — at every step of arbitrary
schedules, including crashes, for every register. The per-client
accessors must also agree when a solo reader starts after a random prefix
has frozen other clients' work; and every blocked client's pushed wait
count must equal a recount over its handles.
"""

import random

import pytest

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
    RandomScheduler,
    RMWStatus,
    Simulation,
    WaitResponses,
)
from repro.sim.schedulers import SoloClientScheduler
from repro.storage import StorageLedger
from repro.workloads import WorkloadSpec, make_value, run_register_workload

SETUP = RegisterSetup(f=1, k=2, data_size_bytes=16)

REGISTERS = [
    SafeCodedRegister,
    ABDRegister,
    CodedOnlyRegister,
    CASRegister,
    AdaptiveRegister,
]


def setup_for(register_cls):
    if register_cls is ABDRegister:
        return replication_setup(f=1, data_size_bytes=16)
    return SETUP


def reference_appliable(sim):
    return sorted(
        (r for r in sim.pending.values()
         if not sim.base_objects[r.bo_id].crashed),
        key=lambda r: r.rmw_id,
    )


def reference_deliverable(sim):
    return sorted(
        (r for r in sim.applied.values()
         if not sim.clients[r.client_name].crashed),
        key=lambda r: r.rmw_id,
    )


def assert_queues_match_reference(sim):
    appliable = reference_appliable(sim)
    deliverable = reference_deliverable(sim)
    assert sim.appliable_rmws() == appliable
    assert sim.deliverable_responses() == deliverable
    assert sim.appliable_count() == len(appliable)
    assert sim.deliverable_count() == len(deliverable)
    first = sim.first_appliable()
    assert first is (appliable[0] if appliable else None)
    first_del = sim.first_deliverable()
    assert first_del is (deliverable[0] if deliverable else None)
    # The sampling arrays cover exactly the same sets (order-free).
    assert {sim.appliable_nth(i).rmw_id for i in range(len(appliable))} == \
        {r.rmw_id for r in appliable}
    assert {sim.deliverable_nth(i).rmw_id for i in range(len(deliverable))} \
        == {r.rmw_id for r in deliverable}
    for name, client in sim.clients.items():
        own_appliable = [r for r in appliable if r.client_name == name]
        assert sim.first_appliable_for(name) is (
            own_appliable[0] if own_appliable else None
        )
        own_deliverable = [r for r in deliverable if r.client_name == name]
        assert sim.first_deliverable_for(name) is (
            own_deliverable[0] if own_deliverable else None
        )


def assert_waits_match_recount(sim):
    """Each blocked client's O(1) wait check equals a recount."""
    for client in sim.clients.values():
        wait = client.current.waiting if client.current else None
        if isinstance(wait, WaitResponses):
            delivered = sum(
                handle.status is RMWStatus.DELIVERED for handle in wait.handles
            )
            assert wait.delivered == delivered
            assert wait.satisfied() == (delivered >= wait.need)


def loaded_sim(register_cls=SafeCodedRegister):
    setup = setup_for(register_cls)
    sim = Simulation(register_cls(setup))
    values = WorkloadSpec(writers=3, writes_per_writer=1).write_values(setup)
    for name, writes in values.items():
        client = sim.add_client(name)
        for value in writes:
            client.enqueue_write(value)
    reader = sim.add_client("r0")
    reader.enqueue_read()
    return sim


def random_run_with_crashes(sim, seed, steps=300):
    """Yield after every action of a random run with seeded crashes."""
    scheduler = RandomScheduler(seed=seed)
    rng = random.Random(1000 + seed)
    crashed_bos = 0
    for _ in range(steps):
        action = scheduler.next_action(sim)
        if action is None:
            break
        sim.execute(action)
        roll = rng.random()
        if roll < 0.03 and crashed_bos < sim.protocol.setup.f:
            sim.crash_base_object(rng.randrange(len(sim.base_objects)))
            crashed_bos = sim.crashed_base_objects()
        elif roll < 0.05:
            name = rng.choice(list(sim.clients))
            if not sim.clients[name].crashed:
                sim.crash_client(name)
        yield


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_indices_match_reference_under_random_schedule_with_crashes(seed):
    for register_cls in REGISTERS:
        sim = loaded_sim(register_cls)
        for _ in random_run_with_crashes(sim, seed):
            assert_queues_match_reference(sim)
            assert_waits_match_recount(sim)
        assert_queues_match_reference(sim)


@pytest.mark.parametrize("register_cls", REGISTERS)
def test_solo_reader_after_a_frozen_prefix_matches_reference(register_cls):
    """A random prefix freezes work of every client; the solo reader's
    per-client queries must match the reference from then on."""
    sim = loaded_sim(register_cls)
    for step, _ in enumerate(random_run_with_crashes(sim, seed=5)):
        if step == 40:
            break
    assert sim.pending or sim.applied, "the prefix must leave frozen work"
    sim.add_client("solo").enqueue_read()
    solo = SoloClientScheduler("solo")
    while (action := solo.next_action(sim)) is not None:
        sim.execute(action)
        assert_queues_match_reference(sim)
        assert_waits_match_recount(sim)
    [op] = [op for op in sim.trace.ops.values() if op.client == "solo"]
    assert op.complete


def test_fair_run_builds_no_sampling_index():
    """A metered fair run attaches the storage ledger and nothing else."""
    result = run_register_workload(
        SafeCodedRegister, SETUP,
        WorkloadSpec(writers=3, writes_per_writer=1, readers=1,
                     reads_per_reader=1),
    )
    assert result.run.quiescent and result.sim.quiescent()
    assert [type(listener) for listener in result.sim._listeners] == \
        [StorageLedger]


def test_pending_only_ever_holds_live_objects():
    """The invariant `appliable_rmws` rides on: crashes purge pending."""
    sim = loaded_sim()
    for client in list(sim.clients.values()):
        if client.queue:
            sim.step_client(client)
    assert sim.pending
    sim.crash_base_object(0)
    assert all(rmw.bo_id != 0 for rmw in sim.pending.values())
    # Ids are monotone, so dict order is oldest-first without sorting.
    ids = [rmw.rmw_id for rmw in sim.pending.values()]
    assert ids == sorted(ids)


def test_first_deliverable_skips_crashed_clients_lazily():
    setup = SETUP
    sim = Simulation(SafeCodedRegister(setup))
    for name in ("w0", "w1"):
        client = sim.add_client(name)
        client.enqueue_write(make_value(setup, name))
        sim.step_client(client)
    first = sim.first_appliable_for("w0")
    second = sim.first_appliable_for("w1")
    assert first.rmw_id < second.rmw_id
    sim.apply_rmw(first.rmw_id)
    sim.apply_rmw(second.rmw_id)
    sim.crash_client(first.client_name)
    assert sim.first_deliverable() is sim.applied[second.rmw_id]
    assert sim.first_deliverable_for(first.client_name) is None
    assert_queues_match_reference(sim)


def test_deliverable_count_tracks_apply_deliver_crash():
    sim = loaded_sim()
    for client in list(sim.clients.values()):
        if client.queue:
            sim.step_client(client)
    assert sim.deliverable_count() == 0
    rmws = sim.appliable_rmws()[:3]
    for rmw in rmws:
        sim.apply_rmw(rmw.rmw_id)
    assert sim.deliverable_count() == 3
    sim.deliver_response(rmws[0].rmw_id)
    assert sim.deliverable_count() == 2
    sim.crash_client(rmws[1].client_name)
    assert sim.deliverable_count() == len(reference_deliverable(sim))
