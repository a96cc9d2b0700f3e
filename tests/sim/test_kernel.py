"""Kernel lifecycle tests: trigger/apply/deliver, crashes, waits, runs."""

import pytest

from repro.errors import ParameterError, ProtocolError
from repro.sim import (
    Action,
    ActionKind,
    FairScheduler,
    RMWStatus,
    Simulation,
)
from repro.sim.trace import EventKind, EventLog, OpKind
from tests.helpers import CounterProtocol, counter_sim, small_setup


def start_write(sim: Simulation, name: str = "w0"):
    """Enqueue one write and step the client once (triggers its RMWs)."""
    client = sim.add_client(name)
    client.enqueue_write(bytes(8))
    sim.step_client(client)
    return client


class TestTriggerApplyDeliver:
    def test_trigger_registers_pending(self):
        sim = counter_sim()
        start_write(sim)
        assert len(sim.pending) == sim.protocol.n
        assert all(
            rmw.status is RMWStatus.PENDING for rmw in sim.pending.values()
        )

    def test_trigger_does_not_change_state(self):
        sim = counter_sim()
        start_write(sim)
        assert all(bo.state.value == 0 for bo in sim.base_objects)

    def test_apply_mutates_exactly_one_object(self):
        sim = counter_sim()
        start_write(sim)
        first = sim.appliable_rmws()[0]
        sim.apply_rmw(first.rmw_id)
        changed = [bo.bo_id for bo in sim.base_objects if bo.state.value == 1]
        assert changed == [first.bo_id]

    def test_apply_moves_to_applied_queue(self):
        sim = counter_sim()
        start_write(sim)
        first = sim.appliable_rmws()[0]
        sim.apply_rmw(first.rmw_id)
        assert first.rmw_id in sim.applied
        assert first.rmw_id not in sim.pending
        assert first.status is RMWStatus.APPLIED

    def test_response_not_visible_until_delivery(self):
        sim = counter_sim()
        start_write(sim)
        first = sim.appliable_rmws()[0]
        sim.apply_rmw(first.rmw_id)
        assert first.response is None
        sim.deliver_response(first.rmw_id)
        assert first.response == 1
        assert first.status is RMWStatus.DELIVERED

    def test_apply_unknown_rmw_raises(self):
        sim = counter_sim()
        with pytest.raises(ProtocolError):
            sim.apply_rmw(99)

    def test_deliver_unknown_rmw_raises(self):
        sim = counter_sim()
        with pytest.raises(ProtocolError):
            sim.deliver_response(99)

    def test_double_apply_raises(self):
        sim = counter_sim()
        start_write(sim)
        first = sim.appliable_rmws()[0]
        sim.apply_rmw(first.rmw_id)
        with pytest.raises(ProtocolError):
            sim.apply_rmw(first.rmw_id)

    def test_time_advances_per_action(self):
        sim = counter_sim()
        before = sim.time
        start_write(sim)
        assert sim.time == before + 1

    def test_apply_deliver_action(self):
        sim = counter_sim()
        start_write(sim)
        first = sim.appliable_rmws()[0]
        sim.execute(Action(ActionKind.APPLY_DELIVER, first.rmw_id))
        assert first.status is RMWStatus.DELIVERED


class TestWaits:
    def test_client_blocks_until_quorum(self):
        sim = counter_sim(f=1, k=2)  # n=4, quorum=3
        client = start_write(sim)
        assert not client.runnable()
        rmws = sim.appliable_rmws()
        for rmw in rmws[:2]:
            sim.apply_rmw(rmw.rmw_id)
            sim.deliver_response(rmw.rmw_id)
        assert not client.runnable()
        sim.apply_rmw(rmws[2].rmw_id)
        sim.deliver_response(rmws[2].rmw_id)
        assert client.runnable()

    def test_wait_count_follows_status_writes_both_ways(self):
        sim = counter_sim()
        client = start_write(sim)
        wait = client.current.waiting
        first = sim.appliable_rmws()[0]
        sim.apply_rmw(first.rmw_id)
        sim.deliver_response(first.rmw_id)
        assert wait.delivered == 1
        first.status = RMWStatus.DELIVERED  # rewriting the same status
        assert wait.delivered == 1
        first.status = RMWStatus.APPLIED    # a whitebox write back
        assert wait.delivered == 0

    def test_op_completes_after_wait_satisfied(self):
        sim = counter_sim()
        client = start_write(sim)
        for rmw in sim.appliable_rmws():
            sim.apply_rmw(rmw.rmw_id)
        for rmw_id in list(sim.applied):
            sim.deliver_response(rmw_id)
        sim.step_client(client)
        assert client.current is None
        assert client.completed_ops == 1
        [op] = sim.trace.completed_ops()
        assert op.result == "ok"

    def test_unsatisfiable_wait_raises_when_strict(self):
        sim = counter_sim(f=1, k=2)  # n=4, quorum=3
        client = start_write(sim)
        sim.crash_base_object(0)
        sim.crash_base_object(1)  # only 2 objects left < quorum
        with pytest.raises(ProtocolError):
            sim.step_client(client)

    def test_unsatisfiable_wait_tolerated_when_lenient(self):
        protocol = CounterProtocol(small_setup(f=1, k=2))
        sim = Simulation(protocol, strict_waits=False)
        client = start_write(sim)
        sim.crash_base_object(0)
        sim.crash_base_object(1)
        sim.step_client(client)  # no-op, no exception
        assert client.current is not None


class TestCrashes:
    def test_bo_crash_drops_pending(self):
        sim = counter_sim()
        start_write(sim)
        victim = sim.appliable_rmws()[0]
        sim.crash_base_object(victim.bo_id)
        assert victim.status is RMWStatus.DROPPED
        assert victim.rmw_id not in sim.pending

    def test_bo_crash_drops_undelivered_response(self):
        sim = counter_sim()
        start_write(sim)
        victim = sim.appliable_rmws()[0]
        sim.apply_rmw(victim.rmw_id)
        sim.crash_base_object(victim.bo_id)
        assert victim.status is RMWStatus.DROPPED
        assert victim.rmw_id not in sim.applied

    def test_trigger_on_crashed_bo_is_dropped(self):
        sim = counter_sim()
        sim.crash_base_object(0)
        client = start_write(sim)
        dropped = [
            h for h in client.current.handles if h.status is RMWStatus.DROPPED
        ]
        assert [h.bo_id for h in dropped] == [0]

    def test_crashed_client_not_runnable(self):
        sim = counter_sim()
        client = start_write(sim)
        sim.crash_client("w0")
        assert not client.runnable()
        assert client not in sim.runnable_clients()

    def test_crashed_clients_rmws_still_apply(self):
        """The paper's model: triggered RMWs survive client crashes."""
        sim = counter_sim()
        start_write(sim)
        sim.crash_client("w0")
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        assert sim.base_objects[rmw.bo_id].state.value == 1

    def test_response_to_crashed_client_dropped(self):
        sim = counter_sim()
        start_write(sim)
        rmw = sim.appliable_rmws()[0]
        sim.apply_rmw(rmw.rmw_id)
        sim.crash_client("w0")
        assert not sim.deliverable_responses()
        sim.deliver_response(rmw.rmw_id)  # direct call: dropped, not delivered
        assert rmw.status is RMWStatus.DROPPED
        assert rmw.response is None

    def test_stepping_crashed_client_raises(self):
        sim = counter_sim()
        client = start_write(sim)
        sim.crash_client("w0")
        with pytest.raises(ProtocolError):
            sim.step_client(client)

    def test_crash_events_traced(self):
        sim = counter_sim()
        sim.attach(EventLog(sim))
        sim.add_client("w0")
        sim.crash_base_object(2)
        sim.crash_client("w0")
        assert len(sim.trace.events_of_kind(EventKind.CRASH_BO)) == 1
        assert len(sim.trace.events_of_kind(EventKind.CRASH_CLIENT)) == 1


class TestEnabledActions:
    def test_initially_quiescent(self):
        sim = counter_sim()
        assert sim.quiescent()

    def test_enqueued_op_enables_step(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        client.enqueue_write(bytes(8))
        kinds = {action.kind for action in sim.enabled_actions()}
        assert kinds == {ActionKind.STEP_CLIENT}

    def test_pending_rmws_enable_apply(self):
        sim = counter_sim()
        start_write(sim)
        kinds = {action.kind for action in sim.enabled_actions()}
        assert ActionKind.APPLY in kinds

    def test_duplicate_client_name_rejected(self):
        sim = counter_sim()
        sim.add_client("x")
        with pytest.raises(ParameterError):
            sim.add_client("x")

    def test_trigger_on_unknown_bo_rejected(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        client.enqueue_write(bytes(8))
        # Build a context manually to bypass protocol code.
        sim.step_client(client)
        ctx = client.current
        with pytest.raises(ProtocolError):
            ctx.trigger(999, lambda s, a: (s, None), None)


class TestRun:
    def test_run_to_quiescence(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        client.enqueue_write(bytes(8))
        client.enqueue_write(bytes(8))
        result = sim.run(FairScheduler())
        assert result.quiescent
        assert client.completed_ops == 2

    def test_counter_reads_see_writes(self):
        sim = counter_sim()
        writer = sim.add_client("w0")
        writer.enqueue_write(bytes(8))
        sim.run(FairScheduler())
        reader = sim.add_client("r0")
        reader.enqueue_read()
        sim.run(FairScheduler())
        [read_op] = [op for op in sim.trace.ops.values() if op.kind is OpKind.READ]
        assert read_op.result == 1

    def test_until_predicate_stops_run(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        client.enqueue_write(bytes(8))
        result = sim.run(FairScheduler(), until=lambda s: s.time >= 3)
        assert result.stopped_by_predicate
        assert sim.time >= 3

    def test_max_steps_exhaustion_reported(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        for _ in range(50):
            client.enqueue_write(bytes(8))
        result = sim.run(FairScheduler(), max_steps=5)
        assert result.exhausted
        assert result.steps == 5

    def test_on_action_called_every_step(self):
        sim = counter_sim()
        client = sim.add_client("w0")
        client.enqueue_write(bytes(8))
        calls = []
        result = sim.run(FairScheduler(), on_action=lambda s, a: calls.append(a))
        assert len(calls) == result.steps
