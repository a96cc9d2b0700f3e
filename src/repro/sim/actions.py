"""Schedulable actions and protocol yield-points.

A protocol coroutine interacts with the kernel in exactly two ways:

* it calls :meth:`OperationContext.trigger` to register a pending RMW on a
  base object (non-blocking — the RMW takes effect only when a scheduler
  applies it);
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
from typing import Any


class RMWStatus(enum.Enum):
    """Lifecycle of a triggered RMW."""

    PENDING = "pending"        # triggered, has not taken effect
    APPLIED = "applied"        # took effect; response not yet delivered
    DELIVERED = "delivered"    # response reached the client
    DROPPED = "dropped"        # base object crashed before taking effect


@dataclass
class RMWHandle:
    """Client-side view of one triggered RMW."""

    rmw_id: int
    bo_id: int
    op_uid: int
    label: str
    status: RMWStatus = RMWStatus.PENDING
    response: Any = None

    @property
    def responded(self) -> bool:
        return self.status is RMWStatus.DELIVERED


@dataclass
class WaitResponses:
    """Yielded by a protocol: resume once ``need`` handles have responded."""

    handles: list[RMWHandle]
    need: int

    def satisfied(self) -> bool:
        # Asked for every blocked client on every scheduler pick.
        left = self.need
        for handle in self.handles:
            if left <= 0:
                return True
            if handle.status is RMWStatus.DELIVERED:
                left -= 1
        return left <= 0

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


@dataclass
class PendingRMW:
    """Kernel record of a triggered-but-not-applied RMW.

    ``args`` is the *visible* parameter structure of the RMW (the paper
    counts blocks riding in pending RMW parameters as client state, so the
    cost meter walks ``args``). ``fn(state, args) -> (new_state, response)``
    must be a pure function.
    """

    rmw_id: int
    bo_id: int
    client_name: str
    op_uid: int
    fn: Any
    args: Any
    label: str
    handle: RMWHandle
    trigger_time: int = 0


@dataclass
class AppliedRMW:
    """Kernel record of an applied RMW whose response is undelivered.

    Until delivery the response is part of the *base object's* state
    ("all the responses of pending RMWs that took effect on it"), so the
    cost meter walks ``response``.
    """

    rmw_id: int
    bo_id: int
    client_name: str
    op_uid: int
    response: Any
    handle: RMWHandle
    apply_time: int = 0
    extra: dict = field(default_factory=dict)
