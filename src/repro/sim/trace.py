"""Run traces, operation records and the opt-in event log.

The kernel records every invocation and return in :class:`Trace.ops`. The
per-operation view (:class:`OpRecord`) is what the consistency checkers
consume: it captures the paper's ``trace(r)`` — the subsequence of
invocations and returns — plus written/returned values.

The full event stream (invocations, returns, triggers, applies,
deliveries, drops and crashes) is recorded only when an :class:`EventLog`
is attached to the simulation; it appends a :class:`TraceEvent` per
transition to ``trace.events``. Without one, no event is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.actions import RMW, KernelListener, RMWStatus

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.base_object import BaseObject
    from repro.sim.kernel import Simulation


class OpKind(enum.Enum):
    WRITE = "write"
    READ = "read"


class EventKind(enum.Enum):
    INVOKE = "invoke"
    RETURN = "return"
    TRIGGER = "trigger"
    APPLY = "apply"
    DELIVER = "deliver"
    DROP = "drop"
    CRASH_BO = "crash-bo"
    CRASH_CLIENT = "crash-client"


@dataclass(frozen=True)
class TraceEvent:
    time: int
    kind: EventKind
    details: dict[str, Any]


@dataclass
class OpRecord:
    """One high-level operation's lifecycle."""

    op_uid: int
    client: str
    kind: OpKind
    written: bytes | None = None
    result: Any = None
    invoke_time: int = -1
    return_time: int | None = None

    @property
    def complete(self) -> bool:
        return self.return_time is not None

    def precedes(self, other: "OpRecord") -> bool:
        """Real-time precedence: this op returned before ``other`` invoked."""
        return self.return_time is not None and self.return_time < other.invoke_time


class Trace:
    """Append-only record of a run: its operations, and its events when an
    :class:`EventLog` is attached. ``base_objects`` are the run's objects,
    whose apply counters :meth:`rmw_count` sums."""

    def __init__(self, base_objects: Sequence["BaseObject"] = ()) -> None:
        self.base_objects = base_objects
        self.events: list[TraceEvent] = []
        self.ops: dict[int, OpRecord] = {}

    def record_invoke(
        self,
        time: int,
        op_uid: int,
        client: str,
        kind: OpKind,
        written: bytes | None,
    ) -> OpRecord:
        record = OpRecord(
            op_uid=op_uid,
            client=client,
            kind=kind,
            written=written,
            invoke_time=time,
        )
        self.ops[op_uid] = record
        return record

    def record_return(self, time: int, op_uid: int, result: Any) -> OpRecord:
        record = self.ops[op_uid]
        record.return_time = time
        record.result = result
        return record

    # ------------------------------------------------------------- queries

    def completed_ops(self) -> list[OpRecord]:
        return [op for op in self.ops.values() if op.complete]

    def writes(self) -> list[OpRecord]:
        return [op for op in self.ops.values() if op.kind is OpKind.WRITE]

    def reads(self) -> list[OpRecord]:
        return [op for op in self.ops.values() if op.kind is OpKind.READ]

    def events_of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    def rmw_count(self) -> int:
        """Number of RMWs that took effect during the run."""
        return sum(bo.applied_count for bo in self.base_objects)


class EventLog(KernelListener):
    """The listener that records ``sim``'s events into ``sim.trace.events``,
    stamped with the kernel clock. Attach it before the run:
    ``sim.attach(EventLog(sim))``."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.events = sim.trace.events

    def event(self, kind: EventKind, **details: Any) -> None:
        self.events.append(TraceEvent(self.sim.time, kind, details))

    def on_invoke(self, op: OpRecord) -> None:
        self.event(EventKind.INVOKE, op=op.op_uid, client=op.client,
                   op_kind=op.kind.value)

    def on_return(self, op: OpRecord) -> None:
        self.event(EventKind.RETURN, op=op.op_uid, client=op.client)

    def on_trigger(self, rmw: RMW) -> None:
        self.event(EventKind.TRIGGER, rmw=rmw.rmw_id, bo=rmw.bo_id,
                   client=rmw.client_name, label=rmw.label)

    def on_trigger_dropped(self, rmw: RMW) -> None:
        self.event(EventKind.DROP, rmw=rmw.rmw_id, bo=rmw.bo_id,
                   reason="crashed")

    def on_apply(self, rmw: RMW) -> None:
        self.event(EventKind.APPLY, rmw=rmw.rmw_id, bo=rmw.bo_id,
                   client=rmw.client_name, label=rmw.label)

    def on_deliver(self, rmw: RMW) -> None:
        if rmw.status is RMWStatus.DROPPED:
            self.event(EventKind.DROP, rmw=rmw.rmw_id, reason="client-crashed")
        else:
            self.event(EventKind.DELIVER, rmw=rmw.rmw_id,
                       client=rmw.client_name)

    def on_bo_crash(self, bo_id: int, dropped_pending: list[RMW],
                    dropped_applied: list[RMW]) -> None:
        self.event(EventKind.CRASH_BO, bo=bo_id)

    def on_client_crash(self, name: str) -> None:
        self.event(EventKind.CRASH_CLIENT, client=name)
