"""Clients and operation contexts.

A client performs at most one outstanding high-level operation at a time
(well-formedness, Appendix A). Operations are Python generator coroutines
produced by a register protocol; the :class:`OperationContext` is their
handle to the kernel — it triggers RMWs, creates coding oracles, and records
the operation's identity.

Oracles are created through the context so the kernel can expire them when
the operation returns (Definition 1: oracles expire when the operation
completes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.coding.oracles import DecodeOracle, EncodeOracle
from repro.errors import ProtocolError
from repro.sim.actions import RMW, Pause, WaitResponses
from repro.sim.trace import OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulation


@dataclass
class QueuedOp:
    """An operation waiting for its client to become free."""

    kind: OpKind
    value: bytes | None = None


class OperationContext:
    """The kernel-facing handle of one outstanding operation."""

    def __init__(
        self,
        kernel: "Simulation",
        client: "Client",
        op_uid: int,
        kind: OpKind,
        value: bytes | None,
    ) -> None:
        self.kernel = kernel
        self.client = client
        self.op_uid = op_uid
        self.kind = kind
        self.value = value
        self.generator: Generator | None = None
        self.waiting: WaitResponses | Pause | None = None
        self.handles: list[RMW] = []
        self._encode_oracles: list[EncodeOracle] = []
        self._decode_oracles: list[DecodeOracle] = []
        self.rounds = 0  # incremented by protocols for metrics

    # --------------------------------------------------------------- kernel

    def trigger(self, bo_id: int, fn: Any, args: Any, label: str = "") -> RMW:
        """Register a pending RMW on base object ``bo_id``."""
        handle = self.kernel.register_rmw(self, bo_id, fn, args, label)
        self.handles.append(handle)
        return handle

    # -------------------------------------------------------------- oracles

    def new_encode_oracle(self) -> EncodeOracle:
        """Create ``oracleE(client, w)`` for this (write) operation.

        When the kernel carries a :class:`~repro.coding.oracles.
        BatchEncodePlan` (a workload runner pre-encoded the write wave), the
        fresh oracle is warmed from the plan's shared stacked pass; its
        blocks are identical to what lazy encoding would produce.
        """
        if self.kind is not OpKind.WRITE or self.value is None:
            raise ProtocolError("encode oracle requested by a non-write operation")
        oracle = EncodeOracle(self.kernel.scheme, self.value, self.op_uid)
        if self.kernel.encode_plan is not None:
            self.kernel.encode_plan.prime(oracle)
        self._encode_oracles.append(oracle)
        return oracle

    def new_decode_oracle(self) -> DecodeOracle:
        """Create ``oracleD(client, r)`` for this (read) operation.

        When the kernel carries a :class:`~repro.coding.oracles.
        DecodeShareCache` (installed by a workload runner), readers that
        assemble the same block set share one stacked decode pass; decoded
        values are identical to per-read decoding.
        """
        oracle = DecodeOracle(
            self.kernel.scheme, share_cache=self.kernel.decode_cache
        )
        self._decode_oracles.append(oracle)
        return oracle

    def expire_oracles(self) -> None:
        """Expire all oracles (the operation completed)."""
        for oracle in self._encode_oracles:
            oracle.expire()
        for oracle in self._decode_oracles:
            oracle.expired = True


class Client:
    """A storage client: a queue of operations, at most one outstanding."""

    def __init__(self, name: str, kernel: "Simulation") -> None:
        self.name = name
        self.kernel = kernel
        self.queue: deque[QueuedOp] = deque()
        self.current: OperationContext | None = None
        self.crashed = False
        self.completed_ops = 0

    # ------------------------------------------------------------- enqueue

    def enqueue_write(self, value: bytes) -> None:
        self.queue.append(QueuedOp(OpKind.WRITE, value))

    def enqueue_read(self) -> None:
        self.queue.append(QueuedOp(OpKind.READ))

    # -------------------------------------------------------------- status

    def runnable(self) -> bool:
        """Can this client take a local step right now?"""
        if self.crashed:
            return False
        if self.current is None:
            return bool(self.queue)
        waiting = self.current.waiting
        return waiting is None or waiting.satisfied()

    def blocked_wait(self) -> WaitResponses | None:
        """Return the unsatisfied wait blocking this client, if any."""
        if self.current is not None and isinstance(
            self.current.waiting, WaitResponses
        ):
            if not self.current.waiting.satisfied():
                return self.current.waiting
        return None

    def crash(self) -> None:
        self.crashed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "crashed" if self.crashed else ("busy" if self.current else "idle")
        return f"<Client {self.name} {status}>"
