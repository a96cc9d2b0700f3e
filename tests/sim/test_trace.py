"""Trace-recording tests."""

from repro.registers import AdaptiveRegister, RegisterSetup
from repro.sim.trace import EventKind, EventLog, OpKind, OpRecord, Trace
from repro.workloads import WorkloadSpec, run_register_workload
from tests.helpers import counter_sim


class TestOpRecord:
    def test_complete_flag(self):
        record = OpRecord(0, "c", OpKind.WRITE, invoke_time=1)
        assert not record.complete
        record.return_time = 5
        assert record.complete

    def test_precedes(self):
        first = OpRecord(0, "a", OpKind.WRITE, invoke_time=0, return_time=3)
        second = OpRecord(1, "b", OpKind.READ, invoke_time=4, return_time=8)
        assert first.precedes(second)
        assert not second.precedes(first)

    def test_incomplete_never_precedes(self):
        first = OpRecord(0, "a", OpKind.WRITE, invoke_time=0)
        second = OpRecord(1, "b", OpKind.READ, invoke_time=9, return_time=10)
        assert not first.precedes(second)


class TestTrace:
    def test_invoke_return_cycle(self):
        trace = Trace()
        record = trace.record_invoke(1, 0, "c1", OpKind.WRITE, b"v")
        assert record.invoke_time == 1
        assert not record.complete
        trace.record_return(7, 0, "ok")
        assert record.return_time == 7
        assert record.result == "ok"
        assert trace.completed_ops() == [record]

    def test_writes_and_reads_split(self):
        trace = Trace()
        trace.record_invoke(1, 0, "c1", OpKind.WRITE, b"v")
        trace.record_invoke(2, 1, "c2", OpKind.READ, None)
        assert len(trace.writes()) == 1
        assert len(trace.reads()) == 1

    def test_events_of_kind(self):
        sim = counter_sim()
        sim.attach(EventLog(sim))
        trace = sim.trace
        client = sim.add_client("c1")
        client.enqueue_write(bytes(8))
        sim.step_client(client)
        for rmw in sim.appliable_rmws()[:2]:
            sim.apply_rmw(rmw.rmw_id)
        assert len(trace.events_of_kind(EventKind.APPLY)) == 2
        assert trace.rmw_count() == 2

    def test_keep_events_false_drops_events_not_ops(self):
        sim = counter_sim()  # no EventLog attached
        trace = sim.trace
        client = sim.add_client("c1")
        client.enqueue_write(bytes(8))
        sim.step_client(client)
        record = trace.ops[client.current.op_uid]
        assert trace.events == []
        assert trace.ops[0] is record

    def test_event_details_preserved(self):
        sim = counter_sim()
        sim.attach(EventLog(sim))
        trace = sim.trace
        client = sim.add_client("c3")
        client.enqueue_write(bytes(8))
        sim.step_client(client)                      # time 1
        first, second = sim.appliable_rmws()[:2]
        sim.apply_rmw(first.rmw_id)                  # time 2
        sim.apply_rmw(second.rmw_id)                 # time 3
        sim.deliver_response(first.rmw_id)           # time 4
        [event] = trace.events_of_kind(EventKind.DELIVER)
        assert event.time == 4
        assert event.details == {"rmw": first.rmw_id, "client": "c3"}


class TestRmwCount:
    """Applies are counted by the base objects, so the count does not
    depend on whether an event log was attached."""

    def test_rmw_count_equals_applies_with_and_without_event_log(self):
        counts = {}
        for keep_events in (False, True):
            result = run_register_workload(
                AdaptiveRegister, RegisterSetup(f=1, k=2, data_size_bytes=16),
                WorkloadSpec(writers=2, writes_per_writer=1, readers=1,
                             reads_per_reader=1),
                keep_events=keep_events,
            )
            counts[keep_events] = result.trace.rmw_count()
            if keep_events:
                applies = len(result.trace.events_of_kind(EventKind.APPLY))
            else:
                assert result.trace.events == []
        assert counts[False] == counts[True] == applies > 0
