"""The simulation kernel: asynchronous fault-prone shared memory.

The kernel realises the paper's model (Section 2) exactly:

* a set ``B`` of ``n`` base objects supporting atomic RMW, of which any
  ``f`` may crash;
* an unbounded set of clients, any number of which may crash;
* an environment (here: a :class:`~repro.sim.schedulers.Scheduler`) that
  decides, action by action, which enabled transition happens next —
  stepping a client's local code, letting a pending RMW take effect, or
  delivering an applied RMW's response.

Because *triggering* an RMW and the RMW *taking effect* are separate
transitions, a scheduler can hold any RMW pending indefinitely; because
apply and delivery are also separate, responses can lag arbitrarily. This is
precisely the freedom the paper's adversary Ad (Definition 7) exploits, and
the freedom a fair scheduler must eventually resolve (Appendix A's fairness:
every RMW by a correct client on a correct object eventually responds, and
every correct client gets infinitely many opportunities to step).

Granularity note: one ``STEP_CLIENT`` action advances a protocol coroutine
to its next ``yield``, during which it may trigger several RMWs (the
pseudo-code's ``|| for`` burst). Splitting the burst further would not change
any bound: triggers have no shared-memory effect until applied, and the
scheduler fully controls applies.

Performance note: one :class:`~repro.sim.actions.RMW` record is the
protocol's handle and the kernel's queue entry for its whole life, and the
kernel keeps just two queues and one heap:

* ``pending`` only ever holds RMWs on **live** objects (crashes drop
  theirs, triggers on crashed objects are dropped at registration) and rmw
  ids are monotone, so the insertion-ordered dict *is* the oldest-first
  appliable queue;
* ``applied`` holds undelivered responses, with a lazy min-heap over rmw
  ids for the oldest deliverable one.

Every transition (trigger, apply, deliver, the ``crash_*`` pair, each
invocation and return) notifies the attached
:class:`~repro.sim.actions.KernelListener` hooks, and everything else
rides them: the Definition 2 storage ledger, the opt-in
:class:`~repro.sim.trace.EventLog`, and the sampling arrays that only
random schedules read. Each is built from the queues when first read, so
a fair run builds no sampling array and records no events. Crashes (at
most ``f`` plus one per client) and the per-client queries of solo and
sequential schedules scan the queues.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ParameterError, ProtocolError
from repro.sim.actions import (
    RMW,
    Action,
    ActionKind,
    KernelListener,
    Pause,
    RMWStatus,
    WaitResponses,
)
from repro.sim.base_object import BaseObject
from repro.sim.client import Client, OperationContext
from repro.sim.trace import OpKind, Trace

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.registers.base import RegisterProtocol
    from repro.sim.schedulers import Scheduler
    from repro.storage.cost import StorageLedger

_APPLIED = RMWStatus.APPLIED
_DELIVERED = RMWStatus.DELIVERED
_DROPPED = RMWStatus.DROPPED


@dataclass
class RunResult:
    """Outcome of :meth:`Simulation.run`."""

    steps: int
    quiescent: bool
    stopped_by_predicate: bool

    @property
    def exhausted(self) -> bool:
        return not self.quiescent and not self.stopped_by_predicate


class _SwapSet:
    """Rmw ids in a swap-remove array: O(1) add, discard and indexing."""

    def __init__(self, rmw_ids: Iterable[int] = ()) -> None:
        self.ids: list[int] = list(rmw_ids)
        self.pos = {rmw_id: index for index, rmw_id in enumerate(self.ids)}

    def add(self, rmw_id: int) -> None:
        self.pos[rmw_id] = len(self.ids)
        self.ids.append(rmw_id)

    def discard(self, rmw_id: int) -> None:
        index = self.pos.pop(rmw_id, None)
        if index is not None:
            last = self.ids.pop()
            if last != rmw_id:
                self.ids[index] = last
                self.pos[last] = index


class _SamplingIndex(KernelListener):
    """The appliable and deliverable sets as swap-remove arrays, for
    :class:`~repro.sim.schedulers.RandomScheduler`'s uniform draws."""

    def __init__(self, sim: "Simulation") -> None:
        self.clients = sim.clients
        self.applied = sim.applied
        self.appliable = _SwapSet(sim.pending)
        self.deliverable = _SwapSet(
            rmw.rmw_id for rmw in sim.applied.values()
            if not sim.clients[rmw.client_name].crashed
        )

    def on_trigger(self, rmw: RMW) -> None:
        self.appliable.add(rmw.rmw_id)

    def on_apply(self, rmw: RMW) -> None:
        self.appliable.discard(rmw.rmw_id)
        if not self.clients[rmw.client_name].crashed:
            self.deliverable.add(rmw.rmw_id)

    def on_deliver(self, rmw: RMW) -> None:
        self.deliverable.discard(rmw.rmw_id)

    def on_bo_crash(self, bo_id: int, dropped_pending: list[RMW],
                    dropped_applied: list[RMW]) -> None:
        for rmw in dropped_pending:
            self.appliable.discard(rmw.rmw_id)
        for rmw in dropped_applied:
            self.deliverable.discard(rmw.rmw_id)

    def on_client_crash(self, name: str) -> None:
        # Its responses stay in storage but can never be delivered.
        for rmw in self.applied.values():
            if rmw.client_name == name:
                self.deliverable.discard(rmw.rmw_id)


class Simulation:
    """One run of a register protocol over fault-prone shared memory."""

    def __init__(self, protocol: "RegisterProtocol",
                 strict_waits: bool = True) -> None:
        self.protocol = protocol
        self.scheme = protocol.scheme
        self.strict_waits = strict_waits
        self.time = 0
        self.base_objects = [
            BaseObject(bo_id, protocol.initial_bo_state(bo_id))
            for bo_id in range(protocol.n)
        ]
        self.trace = Trace(self.base_objects)
        self.clients: dict[str, Client] = {}
        self.pending: dict[int, RMW] = {}
        self.applied: dict[int, RMW] = {}
        self._next_rmw_id = 0
        self._next_op_uid = 0
        #: Lazy min-heap of applied rmw ids (settled/undeliverable entries
        #: are discarded when they surface at the top).
        self._applied_heap: list[int] = []
        self._listeners: list[KernelListener] = []
        #: Listeners built on first use, by class (see :meth:`_lazy`).
        self._built: dict[type, KernelListener] = {}
        #: Optional :class:`~repro.coding.oracles.BatchEncodePlan`: when set
        #: (by a workload runner that knows the write wave up front), every
        #: freshly created encode oracle is warmed from its one stacked
        #: encode pass instead of encoding lazily. Purely a cache warm-up —
        #: payloads, tags, and measurements are identical either way.
        self.encode_plan = None
        #: Optional :class:`~repro.coding.oracles.DecodeShareCache`: when set
        #: (by a workload runner), readers that assemble the same block set
        #: share one stacked decode pass instead of decoding per read.
        #: Also a pure cache — decoded values are identical either way.
        self.decode_cache = None

    # ----------------------------------------------------------- listeners

    def attach(self, listener: KernelListener) -> KernelListener:
        """Notify ``listener`` of every transition from now on."""
        self._listeners.append(listener)
        return listener

    def _lazy(self, cls: type) -> Any:
        """The attached ``cls(self)`` listener, built from the current state
        on first use and kept current by the hooks from then on."""
        listener = self._built.get(cls)
        if listener is None:
            listener = self._built[cls] = self.attach(cls(self))
        return listener

    @property
    def storage_ledger(self) -> "StorageLedger":
        """The shared incremental storage ledger (created on first use).

        Creating it seeds the ledger from the current state with one full
        walk; from then on the kernel's transition hooks keep it current,
        so every :class:`~repro.storage.cost.StorageMeter` read is O(1)
        regardless of how much protocol state has accreted.
        """
        from repro.storage.cost import StorageLedger

        return self._lazy(StorageLedger)

    # ------------------------------------------------------------- clients

    def add_client(self, name: str) -> Client:
        if name in self.clients:
            raise ParameterError(f"duplicate client name {name!r}")
        client = Client(name, self)
        self.clients[name] = client
        return client

    # ------------------------------------------------------------ triggers

    def register_rmw(
        self,
        ctx: OperationContext,
        bo_id: int,
        fn: Any,
        args: Any,
        label: str,
    ) -> RMW:
        """Record a pending RMW (called via ``OperationContext.trigger``)."""
        if not 0 <= bo_id < len(self.base_objects):
            raise ProtocolError(f"trigger on unknown base object {bo_id}")
        rmw_id = self._next_rmw_id
        self._next_rmw_id += 1
        rmw = RMW(rmw_id, bo_id, ctx.op_uid, label, ctx.client.name, fn, args)
        if self.base_objects[bo_id].crashed:
            # Triggering on a crashed object is allowed; it just never responds.
            rmw.status = _DROPPED
            for listener in self._listeners:
                listener.on_trigger_dropped(rmw)
            return rmw
        self.pending[rmw_id] = rmw
        for listener in self._listeners:
            listener.on_trigger(rmw)
        return rmw

    # ----------------------------------------------------- enabled actions

    def runnable_clients(self) -> list[Client]:
        return [client for client in self.clients.values() if client.runnable()]

    def appliable_rmws(self) -> list[RMW]:
        """Pending RMWs whose base object is live, oldest first.

        ``pending`` only ever holds RMWs on live objects (crashes drop
        theirs, triggers on crashed objects never register) and rmw ids are
        monotone, so the insertion-ordered dict is already this list — no
        filter, no sort.
        """
        return list(self.pending.values())

    def deliverable_responses(self) -> list[RMW]:
        """Applied RMWs whose client is live, oldest first."""
        return sorted(
            (rmw for rmw in self.applied.values()
             if not self.clients[rmw.client_name].crashed),
            key=lambda rmw: rmw.rmw_id,
        )

    # O(1)-ish accessors used by the schedulers' hot paths.

    def first_appliable(self) -> RMW | None:
        """Oldest pending RMW (its object is live by invariant), if any."""
        return next(iter(self.pending.values()), None)

    def first_appliable_for(self, client_name: str) -> RMW | None:
        """Oldest pending RMW triggered by ``client_name``, if any."""
        return next((rmw for rmw in self.pending.values()
                     if rmw.client_name == client_name), None)

    def first_deliverable(self) -> RMW | None:
        """Oldest applied RMW whose client is live, if any.

        Amortised O(log) via the lazy heap: settled entries and entries of
        crashed clients (permanently undeliverable — crashes are final) are
        discarded as they surface.
        """
        heap = self._applied_heap
        while heap:
            rmw = self.applied.get(heap[0])
            if rmw is None or self.clients[rmw.client_name].crashed:
                heapq.heappop(heap)
                continue
            return rmw
        return None

    def first_deliverable_for(self, client_name: str) -> RMW | None:
        """Oldest applied RMW awaiting delivery to live ``client_name``."""
        client = self.clients.get(client_name)
        if client is None or client.crashed:
            return None
        return min((rmw for rmw in self.applied.values()
                    if rmw.client_name == client_name),
                   key=lambda rmw: rmw.rmw_id, default=None)

    def appliable_count(self) -> int:
        return len(self.pending)

    def deliverable_count(self) -> int:
        return len(self._lazy(_SamplingIndex).deliverable.ids)

    def appliable_nth(self, index: int) -> RMW:
        """The ``index``-th appliable RMW in arbitrary (stable) order —
        uniform-sampling support; ordering is *not* oldest-first."""
        return self.pending[self._lazy(_SamplingIndex).appliable.ids[index]]

    def deliverable_nth(self, index: int) -> RMW:
        """The ``index``-th deliverable response in arbitrary order."""
        return self.applied[self._lazy(_SamplingIndex).deliverable.ids[index]]

    def enabled_actions(self) -> list[Action]:
        actions = [
            Action(ActionKind.STEP_CLIENT, client.name)
            for client in self.runnable_clients()
        ]
        actions.extend(
            Action(ActionKind.APPLY, rmw.rmw_id) for rmw in self.appliable_rmws()
        )
        actions.extend(
            Action(ActionKind.DELIVER, rmw.rmw_id)
            for rmw in self.deliverable_responses()
        )
        return actions

    def quiescent(self) -> bool:
        if self.pending or self.first_deliverable() is not None:
            return False
        return not any(client.runnable() for client in self.clients.values())

    # ------------------------------------------------------------- actions

    def execute(self, action: Action) -> None:
        """Perform one schedulable action and advance time."""
        kind = action.kind
        if kind is ActionKind.APPLY:
            self.apply_rmw(action.target)
        elif kind is ActionKind.DELIVER:
            self.deliver_response(action.target)
        elif kind is ActionKind.STEP_CLIENT:
            self.step_client(self.clients[action.target])
        elif kind is ActionKind.APPLY_DELIVER:
            self.apply_rmw(action.target)
            self.deliver_response(action.target)
        else:  # pragma: no cover - exhaustive enum
            raise ParameterError(f"unknown action {action}")

    def step_client(self, client: Client) -> None:
        """Advance a client's coroutine to its next yield (or start an op)."""
        self.time += 1
        if client.crashed:
            raise ProtocolError(f"stepping crashed client {client.name}")
        if client.current is None:
            if not client.queue:
                return
            queued = client.queue.popleft()
            ctx = OperationContext(
                kernel=self,
                client=client,
                op_uid=self._next_op_uid,
                kind=queued.kind,
                value=queued.value,
            )
            self._next_op_uid += 1
            client.current = ctx
            record = self.trace.record_invoke(
                self.time, ctx.op_uid, client.name, queued.kind, queued.value
            )
            for listener in self._listeners:
                listener.on_invoke(record)
            if queued.kind is OpKind.WRITE:
                ctx.generator = self.protocol.write_gen(ctx, queued.value)
            else:
                ctx.generator = self.protocol.read_gen(ctx)
        ctx = client.current
        waiting = ctx.waiting
        if waiting is not None and not waiting.satisfied():
            if self.strict_waits and waiting.unsatisfiable():
                raise ProtocolError(
                    f"client {client.name} waits for {waiting.need} responses "
                    "that can never arrive (too many crashes)"
                )
            return  # not actually runnable; benign no-op for lenient schedulers
        ctx.waiting = None
        try:
            yielded = ctx.generator.send(None)
        except StopIteration as stop:
            self._complete_op(client, ctx, stop.value)
            return
        if isinstance(yielded, (WaitResponses, Pause)):
            ctx.waiting = yielded
        else:
            raise ProtocolError(
                f"protocol yielded {type(yielded).__name__}; expected "
                "WaitResponses or Pause"
            )

    def _complete_op(self, client: Client, ctx: OperationContext, result: Any) -> None:
        ctx.expire_oracles()
        record = self.trace.record_return(self.time, ctx.op_uid, result)
        client.current = None
        client.completed_ops += 1
        for listener in self._listeners:
            listener.on_return(record)

    def apply_rmw(self, rmw_id: int) -> None:
        """Let a pending RMW take effect on its base object."""
        self.time += 1
        rmw = self.pending.pop(rmw_id, None)
        if rmw is None:
            raise ProtocolError(f"apply of unknown/settled RMW {rmw_id}")
        rmw.held = self.base_objects[rmw.bo_id].apply(rmw.fn, rmw.args)
        rmw._status = _APPLIED  # no wait counts APPLIED: skip the setter
        self.applied[rmw_id] = rmw
        heapq.heappush(self._applied_heap, rmw_id)
        for listener in self._listeners:
            listener.on_apply(rmw)

    def deliver_response(self, rmw_id: int) -> None:
        """Deliver an applied RMW's response to its client."""
        self.time += 1
        rmw = self.applied.pop(rmw_id, None)
        if rmw is None:
            raise ProtocolError(f"delivery of unknown/settled RMW {rmw_id}")
        if self.clients[rmw.client_name].crashed:
            rmw.status = _DROPPED
        else:
            rmw.response = rmw.held
            rmw.status = _DELIVERED
        # Delivered or dropped, the response left storage either way.
        for listener in self._listeners:
            listener.on_deliver(rmw)

    # -------------------------------------------------------------- crashes

    def crash_base_object(self, bo_id: int) -> None:
        """Crash a base object; its pending and undelivered RMWs drop."""
        self.time += 1
        self.base_objects[bo_id].crash()
        dropped = []
        for queue in (self.pending, self.applied):
            own = [rmw for rmw in queue.values() if rmw.bo_id == bo_id]
            for rmw in own:
                del queue[rmw.rmw_id]
                rmw.status = _DROPPED
            dropped.append(own)
        for listener in self._listeners:
            listener.on_bo_crash(bo_id, *dropped)

    def crash_client(self, name: str) -> None:
        """Crash a client. Its already-triggered RMWs may still take effect,
        and its applied responses stay in storage, undeliverable."""
        self.time += 1
        self.clients[name].crash()
        for listener in self._listeners:
            listener.on_client_crash(name)

    def crashed_base_objects(self) -> int:
        return sum(1 for bo in self.base_objects if bo.crashed)

    # ------------------------------------------------------------------ run

    def run(
        self,
        scheduler: "Scheduler",
        max_steps: int = 200_000,
        until: Callable[["Simulation"], bool] | None = None,
        on_action: Callable[["Simulation", Action], None] | None = None,
    ) -> RunResult:
        """Drive the simulation with ``scheduler``.

        Stops when the scheduler reports quiescence (returns ``None``), the
        ``until`` predicate fires, or ``max_steps`` actions have executed.
        """
        steps = 0
        next_action, execute = scheduler.next_action, self.execute
        while steps < max_steps:
            if until is not None and until(self):
                return RunResult(steps, quiescent=False, stopped_by_predicate=True)
            action = next_action(self)
            if action is None:
                return RunResult(steps, quiescent=True, stopped_by_predicate=False)
            execute(action)
            if on_action is not None:
                on_action(self, action)
            steps += 1
        return RunResult(steps, self.quiescent(), stopped_by_predicate=False)
