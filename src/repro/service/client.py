"""Async client library for the TCP ABD service.

A :class:`ServiceClient` drives the *same*
:class:`~repro.msgnet.protocol.WriteOperation` /
:class:`~repro.msgnet.protocol.ReadOperation` machines as the simulated
deployment — this module adds only what a real network demands:

* one TCP connection per server with a background reader task feeding a
  single inbound queue; *connects are themselves time-bounded*, so a
  black-holed replica (SYN into the void) cannot eat an operation's
  budget before the first byte moves;
* a **per-request timeout**: if no reply arrives within the current wait
  the client re-sends the current phase's requests to the servers still
  silent (safe: replies are deduplicated by sender, server writes are
  idempotent at equal timestamps). With a
  :class:`~repro.service.retry.BackoffPolicy` installed, successive
  waits grow exponentially with seeded jitter — deterministic per seed;
* an optional **per-operation deadline** (``op_deadline``): a wall-clock
  budget for the whole operation, distinct from the per-request timeout.
  Every wait and every reconnect is clamped to what remains of it;
* **bounded retry**: once the budget is spent (``retries`` resends, or
  the deadline) the operation raises
  :class:`~repro.errors.QuorumTimeout` carrying structured diagnostics —
  which servers answered, which stayed silent, attempts, elapsed — the
  client never blocks forever on a dead majority, unlike the model's
  block-as-it-must semantics (a CLI must report, not hang);
* a :class:`~repro.service.retry.HealthTracker` demoting repeatedly
  silent replicas from the *first-contact* set (fresh operations stop
  paying for them; resends still reach them, so a healed replica
  rejoins after its cooldown).

Every completed operation is recorded with monotonic-clock invoke/return
times, so :meth:`ServiceClient.history` (and :func:`merge_histories`
across concurrent clients) produces a
:class:`~repro.spec.histories.History` the existing linearizability /
regularity checkers consume unchanged — the consistency-over-sockets
suite in ``tests/service/test_consistency.py``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable, Sequence

from repro.coding.replication import ReplicationCode
from repro.errors import ParameterError, QuorumTimeout, WireError
from repro.msgnet.abd import OpRecord
from repro.msgnet.protocol import (
    ClientOperation,
    Payload,
    ReadOperation,
    WriteOperation,
)
from repro.service.framing import read_frame, write_frame
from repro.service.retry import BackoffPolicy, HealthTracker, RetryStats
from repro.service.wire import decode_payload, encode_payload
from repro.sim.trace import OpKind
from repro.spec.histories import History, HOp

#: Endpoint map: server name -> (host, port).
Endpoints = dict[str, tuple[str, int]]


def monotonic_now() -> int:
    """The shared client-side clock: monotonic nanoseconds.

    All clients in one process share it, so merged histories carry a
    consistent real-time precedence order — exactly what the
    linearizability checker needs.
    """
    return time.monotonic_ns()


class _Connection:
    """One server connection + its reader task."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.task: asyncio.Task | None = None

    @property
    def alive(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):
                pass
            self.task = None
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            self.reader = None


class ServiceClient:
    """A named ABD client over TCP; one operation at a time (well-formed)."""

    def __init__(
        self,
        name: str,
        endpoints: Endpoints,
        f: int,
        data_size_bytes: int,
        *,
        timeout: float = 2.0,
        retries: int = 2,
        v0: bytes | None = None,
        op_deadline: float | None = None,
        backoff: BackoffPolicy | None = None,
        health: HealthTracker | None = None,
    ) -> None:
        if f < 1:
            raise ParameterError("f must be >= 1")
        if len(endpoints) != 2 * f + 1:
            raise ParameterError(
                f"expected {2 * f + 1} endpoints for f={f}, "
                f"got {len(endpoints)}"
            )
        self.name = name
        self.endpoints = dict(endpoints)
        self.f = f
        self.majority = f + 1
        self.scheme = ReplicationCode(data_size_bytes, n=len(endpoints))
        self.v0 = v0 or bytes(data_size_bytes)
        self.timeout = timeout
        self.retries = retries
        if op_deadline is not None and op_deadline <= 0:
            raise ParameterError("op_deadline must be positive")
        self.op_deadline = op_deadline
        self.backoff = backoff
        self.health = health if health is not None \
            else HealthTracker(list(endpoints))
        self.stats = RetryStats()
        self.server_names = list(endpoints)
        self.ops: list[OpRecord] = []
        self.decisions: list[tuple] = []
        self._next_op_uid = 0
        self._queue: asyncio.Queue[tuple[str, Payload]] = asyncio.Queue()
        self._conns = {name: _Connection(name) for name in endpoints}

    # --------------------------------------------------------- connections

    async def connect(self) -> None:
        """Open every reachable server connection (down servers tolerated)."""
        for name in self.server_names:
            await self._ensure_connection(name)

    async def _ensure_connection(
        self, name: str, deadline: float | None = None
    ) -> bool:
        """Open (or reuse) the connection to ``name``, time-bounded.

        The connect wait is capped by the per-request ``timeout`` *and*
        by whatever remains of the operation deadline — a black-holed
        replica (connection attempts that neither succeed nor fail) must
        cost at most one request-timeout, never the whole budget.
        """
        conn = self._conns[name]
        if conn.alive:
            return True
        budget = self.timeout
        if deadline is not None:
            budget = min(budget, deadline - time.monotonic())
            if budget <= 0:
                return False
        host, port = self.endpoints[name]
        try:
            conn.reader, conn.writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=budget
            )
        except (OSError, asyncio.TimeoutError):
            conn.reader = conn.writer = None
            return False
        self.stats.reconnects += 1
        conn.task = asyncio.ensure_future(self._read_loop(conn))
        return True

    async def _read_loop(self, conn: _Connection) -> None:
        try:
            while True:
                body = await read_frame(conn.reader)
                if body is None:
                    break
                self._queue.put_nowait((conn.name, decode_payload(body)))
        except (WireError, ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            if conn.writer is not None:
                conn.writer.close()

    async def close(self) -> None:
        for conn in self._conns.values():
            await conn.close()

    # ---------------------------------------------------------- operations

    async def write(self, value: bytes) -> object:
        operation = WriteOperation(
            self.name, self._take_op_uid(), value, self.scheme,
            self.server_names, self.majority, decisions=self.decisions,
        )
        return await self._run(operation, OpKind.WRITE, value)

    async def read(self) -> bytes:
        operation = ReadOperation(
            self.name, self._take_op_uid(), self.scheme,
            self.server_names, self.majority, decisions=self.decisions,
        )
        return await self._run(operation, OpKind.READ, None)

    def _take_op_uid(self) -> int:
        op_uid = self._next_op_uid
        self._next_op_uid += 1
        return op_uid

    async def _run(
        self, operation: ClientOperation, kind: OpKind, written: bytes | None
    ) -> object:
        record = OpRecord(self.name, kind, written, monotonic_now())
        self.ops.append(record)
        started = time.monotonic()
        deadline = (
            started + self.op_deadline
            if self.op_deadline is not None else None
        )
        scope = f"{self.name}:{operation.op_uid}"
        # First contact goes to the replicas currently believed healthy
        # (never fewer than a majority); everyone else is reached by the
        # first resend, so demotion can never mask a live quorum.
        targets = set(self.health.first_contact(
            self.server_names, self.majority
        ))
        opening = operation.start()
        await self._send_all(
            [(s, p) for s, p in opening if s in targets], deadline
        )
        attempts = 0
        while not operation.done:
            wait = (
                self.backoff.delay(attempts, scope=scope)
                if self.backoff is not None else self.timeout
            )
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise self._quorum_timeout(
                        operation, attempts, started, "deadline exhausted"
                    )
                wait = min(wait, remaining)
            try:
                sender, payload = await asyncio.wait_for(
                    self._queue.get(), timeout=wait
                )
            except asyncio.TimeoutError:
                attempts += 1
                self.stats.timeouts += 1
                self.stats.delays.append(wait)
                out_of_budget = (
                    attempts > self.retries if deadline is None
                    else time.monotonic() >= deadline
                )
                if out_of_budget:
                    raise self._quorum_timeout(
                        operation, attempts, started,
                        f"no quorum of {self.majority}"
                    ) from None
                for name in operation.unanswered():
                    self.health.mark_silent(name)
                for name in self.server_names:
                    await self._ensure_connection(name, deadline)
                resent = operation.resend()
                self.stats.resent_messages += len(resent)
                await self._send_all(resent, deadline)
                continue
            self.health.mark_reply(sender)
            await self._send_all(
                operation.on_message(sender, payload), deadline
            )
        record.return_time = monotonic_now()
        record.result = operation.result
        return operation.result

    def _quorum_timeout(
        self, operation: ClientOperation, attempts: int, started: float,
        reason: str,
    ) -> QuorumTimeout:
        return QuorumTimeout(
            f"{self.name}: {operation.kind} op {operation.op_uid} "
            f"{reason} after {attempts} attempt(s); "
            f"answered={operation.answered()} silent={operation.unanswered()}",
            op_kind=operation.kind,
            op_uid=operation.op_uid,
            client=self.name,
            needed=self.majority,
            answered=tuple(operation.answered()),
            silent=tuple(operation.unanswered()),
            attempts=attempts,
            elapsed_s=time.monotonic() - started,
            deadline_s=self.op_deadline,
        )

    async def _send_all(
        self,
        outgoing: Iterable[tuple[str, Payload]],
        deadline: float | None = None,
    ) -> None:
        for recipient, payload in outgoing:
            conn = self._conns[recipient]
            if not conn.alive and not await self._ensure_connection(
                recipient, deadline
            ):
                continue  # down server: the quorum machinery absorbs it
            try:
                await write_frame(conn.writer, encode_payload(payload))
            except (ConnectionResetError, BrokenPipeError, OSError):
                conn.writer.close()

    # ------------------------------------------------------------- history

    def history(self) -> History:
        return merge_histories([self], self.v0)


def merge_histories(
    clients: Sequence[ServiceClient], v0: bytes | None = None
) -> History:
    """One checker-ready history across concurrent clients.

    All clients must live in one process (they share the monotonic
    clock). Op uids are reassigned globally; per-client op order is
    preserved by invoke time.
    """
    if not clients:
        raise ParameterError("no clients to merge")
    records = [record for client in clients for record in client.ops]
    records.sort(key=lambda record: (record.invoke_time, record.client))
    ops = [
        HOp(
            op_uid=index,
            client=record.client,
            kind=record.kind,
            written=record.written,
            result=record.result,
            invoke_time=record.invoke_time,
            return_time=record.return_time,
        )
        for index, record in enumerate(records)
    ]
    return History(ops, v0 if v0 is not None else clients[0].v0)


# ----------------------------------------------------------- one-shot RPC


async def probe(
    host: str, port: int, request: Payload, want_tag: str,
    timeout: float = 2.0,
) -> Payload | None:
    """Single request/reply against one server; ``None`` if unreachable.

    The status and doctor commands use this — no client identity, no
    history, just one framed round-trip.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
    except (OSError, asyncio.TimeoutError):
        return None
    try:
        await write_frame(writer, encode_payload(request))
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            body = await asyncio.wait_for(read_frame(reader),
                                          timeout=remaining)
            if body is None:
                return None
            payload = decode_payload(body)
            if payload[:2] == (want_tag, request[1]):
                return payload
    except (WireError, ConnectionResetError, asyncio.TimeoutError, OSError):
        return None
    finally:
        writer.close()
