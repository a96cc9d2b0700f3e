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

Performance note: the kernel maintains *indexed queues* so the schedulers'
hot paths are O(1) (amortised) per action instead of rebuilding sorted
action lists each step. Two invariants make this cheap:

* ``pending`` only ever holds RMWs on **live** objects (a base-object crash
  drops its pending RMWs, and triggers on crashed objects are dropped at
  registration), and rmw ids are assigned monotonically — so the
  insertion-ordered dict *is* the oldest-first appliable queue;
* ``applied`` is keyed per base object and per client, with a lazy min-heap
  over rmw ids for the globally oldest deliverable response and a
  swap-remove array for O(1) uniform sampling.

Mutation is funnelled through exactly four transitions — ``register_rmw``,
``apply_rmw``, ``deliver_response``, and the ``crash_*`` pair — each of
which notifies the attached :class:`KernelListener` hooks. The incremental
storage ledger (:class:`~repro.storage.cost.StorageLedger`) rides these
hooks to keep Definition 2 bits as a delta ledger rather than re-walking
the whole system state per action.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ParameterError, ProtocolError
from repro.sim.actions import (
    Action,
    ActionKind,
    AppliedRMW,
    Pause,
    PendingRMW,
    RMWHandle,
    RMWStatus,
    WaitResponses,
)
from repro.sim.base_object import BaseObject
from repro.sim.client import Client, OperationContext
from repro.sim.trace import EventKind, OpKind, Trace

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.registers.base import RegisterProtocol
    from repro.sim.schedulers import Scheduler
    from repro.storage.cost import StorageLedger


class KernelListener:
    """Observer of the kernel's state-mutating transitions.

    Subclass and override the hooks you need; every hook is a no-op by
    default. Listeners are notified *after* the kernel's own bookkeeping,
    so the simulation state they observe is the post-transition state.
    The incremental storage ledger is the only listener: the kernel
    attaches it when :attr:`Simulation.storage_ledger` is first read.
    """

    def on_trigger(self, rmw: PendingRMW) -> None:
        """``rmw`` was registered as pending (its object is live)."""

    def on_apply(self, rmw: AppliedRMW) -> None:
        """``rmw`` took effect; its object's state is already updated."""

    def on_deliver(self, rmw: AppliedRMW) -> None:
        """``rmw`` left the applied set (delivered, or dropped because its
        client crashed) — either way its response left storage."""

    def on_bo_crash(
        self,
        bo_id: int,
        dropped_pending: list[PendingRMW],
        dropped_applied: list[AppliedRMW],
    ) -> None:
        """Base object ``bo_id`` crashed, dropping the listed RMWs."""

    def on_client_crash(self, name: str) -> None:
        """Client ``name`` crashed (no storage effect under Definition 2)."""


@dataclass
class RunResult:
    """Outcome of :meth:`Simulation.run`."""

    steps: int
    quiescent: bool
    stopped_by_predicate: bool

    @property
    def exhausted(self) -> bool:
        return not self.quiescent and not self.stopped_by_predicate


class Simulation:
    """One run of a register protocol over fault-prone shared memory."""

    def __init__(self, protocol: "RegisterProtocol", strict_waits: bool = True,
                 keep_events: bool = True) -> None:
        self.protocol = protocol
        self.scheme = protocol.scheme
        self.strict_waits = strict_waits
        self.time = 0
        self.trace = Trace(keep_events=keep_events)
        self.base_objects = [
            BaseObject(bo_id, protocol.initial_bo_state(bo_id))
            for bo_id in range(protocol.n)
        ]
        self.clients: dict[str, Client] = {}
        self.pending: dict[int, PendingRMW] = {}
        self.applied: dict[int, AppliedRMW] = {}
        self._next_rmw_id = 0
        self._next_op_uid = 0
        # Indexed queues (see the module docstring's performance note).
        self._pending_by_bo: dict[int, dict[int, PendingRMW]] = {}
        self._pending_by_client: dict[str, dict[int, PendingRMW]] = {}
        self._applied_by_bo: dict[int, dict[int, AppliedRMW]] = {}
        self._applied_by_client: dict[str, dict[int, AppliedRMW]] = {}
        #: Lazy min-heap of applied rmw ids (settled/undeliverable entries
        #: are discarded when they surface at the top).
        self._applied_heap: list[int] = []
        # Swap-remove arrays + position maps: O(1) add/discard/uniform-sample
        # over the appliable and deliverable sets (RandomScheduler's path).
        self._pending_arr: list[int] = []
        self._pending_pos: dict[int, int] = {}
        self._deliverable_arr: list[int] = []
        self._deliverable_pos: dict[int, int] = {}
        self._listeners: list[KernelListener] = []
        self._storage_ledger: "StorageLedger | None" = None
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

    # ------------------------------------------------------------- ledger

    @property
    def storage_ledger(self) -> "StorageLedger":
        """The shared incremental storage ledger (created on first use).

        Creating it seeds the ledger from the current state with one full
        walk; from then on the kernel's transition hooks keep it current,
        so every :class:`~repro.storage.cost.StorageMeter` read is O(1)
        regardless of how much protocol state has accreted.
        """
        if self._storage_ledger is None:
            from repro.storage.cost import StorageLedger

            self._storage_ledger = StorageLedger(self)
            self._listeners.append(self._storage_ledger)
        return self._storage_ledger

    # -------------------------------------------------- swap-remove arrays

    @staticmethod
    def _arr_add(arr: list[int], pos: dict[int, int], rmw_id: int) -> None:
        pos[rmw_id] = len(arr)
        arr.append(rmw_id)

    @staticmethod
    def _arr_discard(arr: list[int], pos: dict[int, int], rmw_id: int) -> None:
        index = pos.pop(rmw_id, None)
        if index is None:
            return
        last = arr.pop()
        if last != rmw_id:
            arr[index] = last
            pos[last] = index

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
    ) -> RMWHandle:
        """Record a pending RMW (called via ``OperationContext.trigger``)."""
        if not 0 <= bo_id < len(self.base_objects):
            raise ProtocolError(f"trigger on unknown base object {bo_id}")
        rmw_id = self._next_rmw_id
        self._next_rmw_id += 1
        handle = RMWHandle(
            rmw_id=rmw_id,
            bo_id=bo_id,
            op_uid=ctx.op_uid,
            label=label,
        )
        if self.base_objects[bo_id].crashed:
            # Triggering on a crashed object is allowed; it just never responds.
            handle.status = RMWStatus.DROPPED
            self.trace.event(
                self.time, EventKind.DROP, rmw=rmw_id, bo=bo_id, reason="crashed"
            )
            return handle
        rmw = PendingRMW(
            rmw_id=rmw_id,
            bo_id=bo_id,
            client_name=ctx.client.name,
            op_uid=ctx.op_uid,
            fn=fn,
            args=args,
            label=label,
            handle=handle,
            trigger_time=self.time,
        )
        self.pending[rmw_id] = rmw
        self._pending_by_bo.setdefault(bo_id, {})[rmw_id] = rmw
        self._pending_by_client.setdefault(rmw.client_name, {})[rmw_id] = rmw
        self._arr_add(self._pending_arr, self._pending_pos, rmw_id)
        self.trace.event(
            self.time, EventKind.TRIGGER, rmw=rmw_id, bo=bo_id,
            client=ctx.client.name, label=label,
        )
        for listener in self._listeners:
            listener.on_trigger(rmw)
        return handle

    def _unindex_pending(self, rmw: PendingRMW) -> None:
        self._pending_by_bo[rmw.bo_id].pop(rmw.rmw_id, None)
        self._pending_by_client[rmw.client_name].pop(rmw.rmw_id, None)
        self._arr_discard(self._pending_arr, self._pending_pos, rmw.rmw_id)

    def _unindex_applied(self, rmw: AppliedRMW) -> None:
        self._applied_by_bo[rmw.bo_id].pop(rmw.rmw_id, None)
        self._applied_by_client[rmw.client_name].pop(rmw.rmw_id, None)
        self._arr_discard(
            self._deliverable_arr, self._deliverable_pos, rmw.rmw_id
        )

    # ----------------------------------------------------- enabled actions

    def runnable_clients(self) -> list[Client]:
        return [client for client in self.clients.values() if client.runnable()]

    def appliable_rmws(self) -> list[PendingRMW]:
        """Pending RMWs whose base object is live, oldest first.

        ``pending`` only ever holds RMWs on live objects (crashes drop
        theirs, triggers on crashed objects never register) and rmw ids are
        monotone, so the insertion-ordered dict is already this list — no
        filter, no sort.
        """
        return list(self.pending.values())

    def deliverable_responses(self) -> list[AppliedRMW]:
        """Applied RMWs whose client is live, oldest first."""
        return [self.applied[rmw_id] for rmw_id in sorted(self._deliverable_arr)]

    # O(1)-ish accessors used by the schedulers' hot paths.

    def first_appliable(self) -> PendingRMW | None:
        """Oldest pending RMW (its object is live by invariant), if any."""
        return next(iter(self.pending.values()), None)

    def first_appliable_for(self, client_name: str) -> PendingRMW | None:
        """Oldest pending RMW triggered by ``client_name``, if any."""
        per_client = self._pending_by_client.get(client_name)
        if not per_client:
            return None
        return next(iter(per_client.values()))

    def first_deliverable(self) -> AppliedRMW | None:
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

    def first_deliverable_for(self, client_name: str) -> AppliedRMW | None:
        """Oldest applied RMW awaiting delivery to live ``client_name``."""
        client = self.clients.get(client_name)
        if client is None or client.crashed:
            return None
        per_client = self._applied_by_client.get(client_name)
        if not per_client:
            return None
        # Apply order need not be rmw-id order; min over own work only.
        return per_client[min(per_client)]

    def appliable_count(self) -> int:
        return len(self.pending)

    def deliverable_count(self) -> int:
        return len(self._deliverable_arr)

    def appliable_nth(self, index: int) -> PendingRMW:
        """The ``index``-th appliable RMW in arbitrary (stable) order —
        uniform-sampling support; ordering is *not* oldest-first."""
        return self.pending[self._pending_arr[index]]

    def deliverable_nth(self, index: int) -> AppliedRMW:
        """The ``index``-th deliverable response in arbitrary order."""
        return self.applied[self._deliverable_arr[index]]

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
        if self.pending or self._deliverable_arr:
            return False
        return not any(client.runnable() for client in self.clients.values())

    # ------------------------------------------------------------- actions

    def execute(self, action: Action) -> None:
        """Perform one schedulable action and advance time."""
        if action.kind is ActionKind.STEP_CLIENT:
            self.step_client(self.clients[action.target])
        elif action.kind is ActionKind.APPLY:
            self.apply_rmw(action.target)
        elif action.kind is ActionKind.DELIVER:
            self.deliver_response(action.target)
        elif action.kind is ActionKind.APPLY_DELIVER:
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
            self.trace.record_invoke(
                self.time, ctx.op_uid, client.name, queued.kind, queued.value
            )
            if queued.kind is OpKind.WRITE:
                ctx.generator = self.protocol.write_gen(ctx, queued.value)
            else:
                ctx.generator = self.protocol.read_gen(ctx)
        ctx = client.current
        waiting = ctx.waiting
        if isinstance(waiting, WaitResponses) and not waiting.satisfied():
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
        self.trace.record_return(self.time, ctx.op_uid, result)
        client.current = None
        client.completed_ops += 1

    def apply_rmw(self, rmw_id: int) -> None:
        """Let a pending RMW take effect on its base object."""
        self.time += 1
        rmw = self.pending.pop(rmw_id, None)
        if rmw is None:
            raise ProtocolError(f"apply of unknown/settled RMW {rmw_id}")
        self._unindex_pending(rmw)
        base_object = self.base_objects[rmw.bo_id]
        response = base_object.apply(rmw.fn, rmw.args)
        rmw.handle.status = RMWStatus.APPLIED
        applied = AppliedRMW(
            rmw_id=rmw_id,
            bo_id=rmw.bo_id,
            client_name=rmw.client_name,
            op_uid=rmw.op_uid,
            response=response,
            handle=rmw.handle,
            apply_time=self.time,
        )
        self.applied[rmw_id] = applied
        self._applied_by_bo.setdefault(rmw.bo_id, {})[rmw_id] = applied
        self._applied_by_client.setdefault(rmw.client_name, {})[rmw_id] = applied
        heapq.heappush(self._applied_heap, rmw_id)
        if not self.clients[rmw.client_name].crashed:
            self._arr_add(self._deliverable_arr, self._deliverable_pos, rmw_id)
        self.trace.event(
            self.time, EventKind.APPLY, rmw=rmw_id, bo=rmw.bo_id,
            client=rmw.client_name, label=rmw.label,
        )
        for listener in self._listeners:
            listener.on_apply(applied)

    def deliver_response(self, rmw_id: int) -> None:
        """Deliver an applied RMW's response to its client."""
        self.time += 1
        rmw = self.applied.pop(rmw_id, None)
        if rmw is None:
            raise ProtocolError(f"delivery of unknown/settled RMW {rmw_id}")
        self._unindex_applied(rmw)
        client = self.clients[rmw.client_name]
        if client.crashed:
            rmw.handle.status = RMWStatus.DROPPED
            self.trace.event(
                self.time, EventKind.DROP, rmw=rmw_id, reason="client-crashed"
            )
        else:
            rmw.handle.response = rmw.response
            rmw.handle.status = RMWStatus.DELIVERED
            self.trace.event(
                self.time, EventKind.DELIVER, rmw=rmw_id, client=rmw.client_name
            )
        # Delivered or dropped, the response left storage either way.
        for listener in self._listeners:
            listener.on_deliver(rmw)

    # -------------------------------------------------------------- crashes

    def crash_base_object(self, bo_id: int) -> None:
        """Crash a base object; its pending work is dropped.

        O(own work): the per-object indices hand over exactly the RMWs that
        involve ``bo_id`` — no scan of the global queues.
        """
        self.time += 1
        base_object = self.base_objects[bo_id]
        base_object.crash()
        dropped_pending = list(self._pending_by_bo.pop(bo_id, {}).values())
        for rmw in dropped_pending:
            del self.pending[rmw.rmw_id]
            self._pending_by_client[rmw.client_name].pop(rmw.rmw_id, None)
            self._arr_discard(self._pending_arr, self._pending_pos, rmw.rmw_id)
            rmw.handle.status = RMWStatus.DROPPED
        dropped_applied = list(self._applied_by_bo.pop(bo_id, {}).values())
        for rmw in dropped_applied:
            del self.applied[rmw.rmw_id]
            self._applied_by_client[rmw.client_name].pop(rmw.rmw_id, None)
            self._arr_discard(
                self._deliverable_arr, self._deliverable_pos, rmw.rmw_id
            )
            rmw.handle.status = RMWStatus.DROPPED
        self.trace.event(self.time, EventKind.CRASH_BO, bo=bo_id)
        for listener in self._listeners:
            listener.on_bo_crash(bo_id, dropped_pending, dropped_applied)

    def crash_client(self, name: str) -> None:
        """Crash a client. Its already-triggered RMWs may still take effect."""
        self.time += 1
        self.clients[name].crash()
        # Its applied-but-undelivered responses stay in storage (they sit at
        # the base objects) but can never be delivered: drop them from the
        # deliverable sampling set, O(own work) via the per-client index.
        for rmw_id in self._applied_by_client.get(name, {}):
            self._arr_discard(self._deliverable_arr, self._deliverable_pos, rmw_id)
        self.trace.event(self.time, EventKind.CRASH_CLIENT, client=name)
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
        while steps < max_steps:
            if until is not None and until(self):
                return RunResult(steps, quiescent=False, stopped_by_predicate=True)
            action = scheduler.next_action(self)
            if action is None:
                return RunResult(steps, quiescent=True, stopped_by_predicate=False)
            self.execute(action)
            if on_action is not None:
                on_action(self, action)
            steps += 1
        return RunResult(steps, self.quiescent(), stopped_by_predicate=False)
