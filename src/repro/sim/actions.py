"""The RMW record, schedulable actions and protocol yield-points.

A protocol coroutine interacts with the kernel in exactly two ways:

* it calls :meth:`OperationContext.trigger` to register a pending RMW on a
  base object (non-blocking — the RMW takes effect only when a scheduler
  applies it) and gets back that RMW's :class:`RMW` record;
* it ``yield``s a :class:`WaitResponses` to suspend until enough of its
  RMWs have responded (or a bare :class:`Pause` to let time pass).

Schedulers, in turn, pick from the kernel's enabled :class:`Action` set:
step a client coroutine, apply a pending RMW, or deliver an applied RMW's
response. ``APPLY_DELIVER`` performs apply and delivery atomically — the
paper's adversary Ad uses exactly that shape in rule 1 of Definition 7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.trace import OpRecord


class RMWStatus(enum.Enum):
    """Lifecycle of a triggered RMW."""

    PENDING = "pending"        # triggered, has not taken effect
    APPLIED = "applied"        # took effect; response not yet delivered
    DELIVERED = "delivered"    # response reached the client
    DROPPED = "dropped"        # base object crashed before taking effect


_DELIVERED = RMWStatus.DELIVERED


@dataclass(slots=True, eq=False)
class RMW:
    """One triggered RMW: the protocol's handle and the kernel's queue
    entry from trigger to delivery (Section 2).

    While pending, ``args`` (the *visible* parameters) count as the
    triggering client's state; once applied, the response is ``held`` at
    the base object and counts as its storage until delivered (Definition
    2). Only delivery copies it to ``response``, so a protocol never sees a
    response the model has not delivered. ``fn(state, args) ->
    (new_state, response)`` must be pure. Setting ``status`` updates the
    delivered count of every :class:`WaitResponses` over this record.
    """

    rmw_id: int
    bo_id: int
    op_uid: int
    label: str
    client_name: str = ""
    fn: Any = None
    args: Any = None
    held: Any = None
    response: Any = None
    _status: RMWStatus = field(default=RMWStatus.PENDING, init=False)
    _waits: tuple = field(default=(), init=False, repr=False)

    @property
    def status(self) -> RMWStatus:
        return self._status

    @status.setter
    def status(self, status: RMWStatus) -> None:
        delivered = status is _DELIVERED
        if (self._status is _DELIVERED) is not delivered:
            for wait in self._waits:
                wait.delivered += 1 if delivered else -1
        self._status = status

    @property
    def responded(self) -> bool:
        return self._status is _DELIVERED


#: The protocol-facing name of the record :meth:`OperationContext.trigger`
#: returns.
RMWHandle = RMW


class WaitResponses:
    """Yielded by a protocol: resume once ``need`` handles have responded.

    The wait registers with each handle, and each handle keeps
    ``delivered`` current as its status changes, so :meth:`satisfied` —
    asked for every blocked client on every scheduler pick — is O(1).
    """

    __slots__ = ("handles", "need", "delivered")

    def __init__(self, handles: list[RMW], need: int) -> None:
        self.handles = handles
        self.need = need
        self.delivered = 0
        for handle in handles:
            handle._waits += (self,)
            if handle._status is _DELIVERED:
                self.delivered += 1

    def satisfied(self) -> bool:
        return self.delivered >= self.need

    def unsatisfiable(self) -> bool:
        """True when too many RMWs were dropped for ``need`` to be reached."""
        live = sum(
            1 for handle in self.handles if handle.status is not RMWStatus.DROPPED
        )
        return live < self.need


@dataclass
class Pause:
    """Yielded by a protocol to cede control for one scheduling step."""

    def satisfied(self) -> bool:
        return True

    def unsatisfiable(self) -> bool:
        return False


class ActionKind(enum.Enum):
    """What a scheduler may do next."""

    STEP_CLIENT = "step"
    APPLY = "apply"
    DELIVER = "deliver"
    APPLY_DELIVER = "apply+deliver"


@dataclass(frozen=True)
class Action:
    """One schedulable kernel action.

    ``target`` is a client name for ``STEP_CLIENT`` and an ``rmw_id``
    otherwise.
    """

    kind: ActionKind
    target: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Action({self.kind.value}, {self.target})"


class KernelListener:
    """Observer of the kernel's transitions.

    Subclass and override the hooks you need; every hook is a no-op by
    default. Listeners are notified *after* the kernel's own bookkeeping,
    so the simulation state they observe is the post-transition state.
    Attach one with :meth:`Simulation.attach`. The Definition 2 storage
    ledger, the event log, and the random scheduler's sampling arrays
    are all listeners, each attached only when something reads it.
    """

    def on_invoke(self, op: "OpRecord") -> None:
        """Operation ``op`` was invoked."""

    def on_return(self, op: "OpRecord") -> None:
        """Operation ``op`` returned."""

    def on_trigger(self, rmw: RMW) -> None:
        """``rmw`` was registered as pending (its object is live)."""

    def on_trigger_dropped(self, rmw: RMW) -> None:
        """``rmw`` was triggered on a crashed object and dropped at once
        (it never entered storage)."""

    def on_apply(self, rmw: RMW) -> None:
        """``rmw`` took effect; its object's state is already updated."""

    def on_deliver(self, rmw: RMW) -> None:
        """``rmw`` left the applied set — delivered, or dropped because its
        client crashed (see ``rmw.status``); either way its response left
        storage."""

    def on_bo_crash(
        self, bo_id: int, dropped_pending: list[RMW], dropped_applied: list[RMW]
    ) -> None:
        """Base object ``bo_id`` crashed, dropping the listed RMWs."""

    def on_client_crash(self, name: str) -> None:
        """Client ``name`` crashed (no storage effect under Definition 2)."""
