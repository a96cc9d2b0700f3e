"""The asynchronous fault-prone shared-memory simulator (Section 2).

* :class:`~repro.sim.kernel.Simulation` — the kernel: base objects,
  clients, pending/applied RMW queues, action execution.
* :class:`~repro.sim.schedulers.FairScheduler` /
  :class:`~repro.sim.schedulers.RandomScheduler` /
  :class:`~repro.sim.schedulers.SequentialScheduler` — environments.
* :class:`~repro.sim.failures.FailurePlan` — crash injection.
* :class:`~repro.sim.trace.Trace` — run recording for the checkers;
  :class:`~repro.sim.trace.EventLog` — the opt-in event stream.
"""

from repro.sim.actions import (
    Action,
    ActionKind,
    Pause,
    RMWHandle,
    RMWStatus,
    WaitResponses,
)
from repro.sim.base_object import BaseObject
from repro.sim.client import Client, OperationContext
from repro.sim.failures import (
    CrashSchedule,
    FailurePlan,
    after_ops_complete,
    at_time,
    seeded_crash_schedule,
)
from repro.sim.kernel import RunResult, Simulation
from repro.sim.schedulers import (
    FairScheduler,
    RandomScheduler,
    Scheduler,
    SequentialScheduler,
)
from repro.sim.trace import EventKind, EventLog, OpKind, OpRecord, Trace

__all__ = [
    "Action",
    "ActionKind",
    "BaseObject",
    "Client",
    "CrashSchedule",
    "EventKind",
    "EventLog",
    "FailurePlan",
    "FairScheduler",
    "OpKind",
    "OpRecord",
    "OperationContext",
    "Pause",
    "RMWHandle",
    "RMWStatus",
    "RandomScheduler",
    "RunResult",
    "Scheduler",
    "SequentialScheduler",
    "Simulation",
    "Trace",
    "WaitResponses",
    "after_ops_complete",
    "at_time",
    "seeded_crash_schedule",
]
