"""Transport-agnostic ABD protocol machines (the sans-I/O core).

Attiya-Bar-Noy-Dolev is a *message* protocol: its correctness lives in
what a participant decides when a payload arrives, not in how the payload
travelled. This module isolates exactly that decision layer — timestamps,
quorum tracking, coded replica blocks, server state — as plain state
machines with **no transport reference at all**:

* :class:`ServerProtocol` — one replica server. ``handle(sender, payload)``
  is a pure step: it mutates the replica state and returns the replies to
  emit, ``[(recipient, payload), ...]``.
* :class:`WriteOperation` / :class:`ReadOperation` — one client operation
  each. ``start()`` returns the opening broadcast; ``on_message`` consumes
  one reply and returns follow-up messages; ``done``/``result`` expose the
  outcome. Duplicate replies (a retried request answered twice) are
  deduplicated by sender, so the machines are safe under at-least-once
  transports.

Every quorum/timestamp decision is appended to a caller-supplied
``decisions`` list — ``("choose-ts", op_uid, num, client)`` and friends —
which is what the sim-vs-TCP parity tests compare: the *same* machine
driven over the simulated :class:`~repro.msgnet.network.Network` and over
the asyncio TCP transport (``repro.service``) must log identical
decisions. There is deliberately no protocol code anywhere else: both
transports import these classes (see ``repro.msgnet.abd``, which registers
``handle``/``on_message`` as network node handlers, and
``repro.service.server`` / ``repro.service.client``).

Message vocabulary (all payloads are tuples ``(tag, request_id, *rest)``;
request ids are ``(op_uid, phase)`` pairs, unique per client):

====================  =======================================  =================
request               reply                                    server effect
====================  =======================================  =================
``("read-ts", rid)``  ``("ts", rid, ts)``                      none
``("write", rid,      ``("ack", rid)``                         adopt ``(ts,
ts, block)``                                                   block)`` if newer
``("read", rid)``     ``("value", rid, ts, block)``            none
``("status", rid)``   ``("status-reply", rid, ts, size_bits,   none
                      applied_count)``
``("ping", rid)``     ``("pong", rid)``                        none
====================  =======================================  =================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.coding.oracles import BlockSource, CodeBlock
from repro.coding.scheme import CodingScheme
from repro.errors import ParameterError, ProtocolError
from repro.registers.base import INITIAL_OP_UID
from repro.registers.timestamps import TS_ZERO, Timestamp

# ----------------------------------------------------------- message tags

READ_TS = "read-ts"
REPLY_TS = "ts"
WRITE = "write"
REPLY_ACK = "ack"
READ = "read"
REPLY_VALUE = "value"
STATUS = "status"
REPLY_STATUS = "status-reply"
PING = "ping"
REPLY_PONG = "pong"

#: One protocol message: ``(tag, request_id, *rest)``.
Payload = tuple
#: Messages a machine wants sent: ``[(recipient, payload), ...]``.
Outgoing = list[tuple[str, Payload]]


@dataclass
class ServerState:
    """One server's replica (exposed for storage metering)."""

    block: CodeBlock
    ts: Timestamp


def initial_block(scheme: CodingScheme, value: bytes, index: int) -> CodeBlock:
    """The block a fresh replica holds for the initial value ``v0``."""
    return CodeBlock(
        payload=scheme.encode_block(value, index),
        index=index,
        source=BlockSource(INITIAL_OP_UID, index),
        size_bits=scheme.block_size_bits(index),
    )


class ServerProtocol:
    """The replica-side ABD state machine.

    Holds one timestamped block and answers the five request tags. The
    only mutation is the ``write`` rule — adopt strictly newer ``(ts,
    block)`` pairs — which makes retried writes idempotent: an equal-ts
    replay is acknowledged without touching state. ``on_apply`` (when set)
    fires *before* the ack is returned, so a write-ahead journal that
    appends in the callback is guaranteed to persist state ahead of the
    acknowledgement (the crash-recovery contract).
    """

    def __init__(
        self,
        name: str,
        scheme: CodingScheme,
        index: int,
        initial_value: bytes,
        state: ServerState | None = None,
        on_apply: Callable[[Timestamp, CodeBlock], None] | None = None,
    ) -> None:
        self.name = name
        self.scheme = scheme
        self.index = index
        self.state = state or ServerState(
            initial_block(scheme, initial_value, index), TS_ZERO
        )
        self.on_apply = on_apply
        self.applied_count = 0

    # ----------------------------------------------------------- stepping

    def handle(self, sender: str, payload: Payload) -> Outgoing:
        """Consume one request; return the replies to emit.

        Requests arrive from outside the process, so a malformed one —
        not ``(tag, request_id, *operands)``, an unknown tag, the wrong
        operand count, a ``write`` that does not carry a timestamp and a
        block of this scheme's size — raises :class:`ProtocolError`
        with the replica state untouched.
        """
        if not isinstance(payload, tuple) or len(payload) < 2:
            raise ProtocolError(
                f"server {self.name}: request is not (tag, request_id, ...)"
            )
        tag, request_id, *rest = payload
        if len(rest) != (2 if tag == WRITE else 0):
            raise ProtocolError(
                f"server {self.name}: malformed {tag!r} request "
                f"({len(rest)} operand(s))"
            )
        if tag == READ_TS:
            return [(sender, (REPLY_TS, request_id, self.state.ts))]
        if tag == WRITE:
            ts, block = rest
            self._check_write(ts, block)
            if ts > self.state.ts:
                self.state.ts = ts
                self.state.block = block
                self.applied_count += 1
                if self.on_apply is not None:
                    self.on_apply(ts, block)
            return [(sender, (REPLY_ACK, request_id))]
        if tag == READ:
            return [(
                sender,
                (REPLY_VALUE, request_id, self.state.ts, self.state.block),
            )]
        if tag == STATUS:
            return [(
                sender,
                (REPLY_STATUS, request_id, self.state.ts,
                 self.state.block.size_bits, self.applied_count),
            )]
        if tag == PING:
            return [(sender, (REPLY_PONG, request_id))]
        raise ProtocolError(f"server {self.name}: unknown request tag {tag!r}")

    def _check_write(self, ts: object, block: object) -> None:
        """Refuse a ``write`` this replica could not store or serve."""
        if not isinstance(ts, Timestamp) or not isinstance(block, CodeBlock):
            raise ProtocolError(
                f"server {self.name}: write carries "
                f"({type(ts).__name__}, {type(block).__name__}), "
                f"expected (Timestamp, CodeBlock)"
            )
        try:
            want_bits = self.scheme.block_size_bits(block.index)
        except ParameterError as error:
            raise ProtocolError(f"server {self.name}: {error}") from error
        if block.size_bits != want_bits \
                or len(block.payload) * 8 != want_bits:
            raise ProtocolError(
                f"server {self.name}: block {block.index} is "
                f"{block.size_bits} bits ({len(block.payload)} payload "
                f"bytes), scheme says {want_bits}"
            )


# ------------------------------------------------------ client operations


class _QuorumRound:
    """Replies to one broadcast, deduplicated by responding server."""

    def __init__(self, want_tag: str, request_id: tuple, need: int) -> None:
        self.want_tag = want_tag
        self.request_id = request_id
        self.need = need
        self.replies: dict[str, tuple] = {}
        self.closed = False

    def offer(self, sender: str, payload: Payload) -> bool:
        """Absorb a reply; True when this message completed the quorum.

        A reply too short to be ``(tag, request_id, *rest)`` matches no
        round and is ignored like any other stray message.
        """
        if self.closed or payload[:2] != (self.want_tag, self.request_id):
            return False
        if sender in self.replies:  # duplicate via retry — ignore
            return False
        self.replies[sender] = payload[2:]
        if len(self.replies) >= self.need:
            self.closed = True
            return True
        return False


class ClientOperation:
    """Common machinery: phase bookkeeping, resend, decision logging."""

    kind: str

    def __init__(
        self,
        client: str,
        op_uid: int,
        scheme: CodingScheme,
        servers: Sequence[str],
        majority: int,
        decisions: list[tuple] | None = None,
    ) -> None:
        self.client = client
        self.op_uid = op_uid
        self.scheme = scheme
        self.servers = list(servers)
        self.majority = majority
        self.decisions = decisions if decisions is not None else []
        self.done = False
        self.result: Any = None
        self._round: _QuorumRound | None = None
        self._current: Outgoing = []

    def _open_round(
        self, phase: int, want_tag: str, requests: Outgoing
    ) -> Outgoing:
        self._round = _QuorumRound(want_tag, (self.op_uid, phase), self.majority)
        self._current = requests
        return list(requests)

    def resend(self) -> Outgoing:
        """Re-emit the current phase's requests to servers still silent.

        Safe under at-least-once delivery: replies are deduplicated by
        sender and server-side writes are idempotent at equal timestamps.
        """
        if self.done or self._round is None:
            return []
        answered = self._round.replies.keys()
        return [
            (server, payload)
            for server, payload in self._current
            if server not in answered
        ]

    def unanswered(self) -> list[str]:
        """Servers still silent in the current phase (diagnostics)."""
        if self.done or self._round is None:
            return []
        return [
            server for server, _payload in self._current
            if server not in self._round.replies
        ]

    def answered(self) -> list[str]:
        """Servers that already replied in the current phase."""
        if self._round is None:
            return []
        return list(self._round.replies)

    def _decide(self, *entry: object) -> None:
        self.decisions.append(tuple(entry))

    def start(self) -> Outgoing:
        raise NotImplementedError

    def on_message(self, sender: str, payload: Payload) -> Outgoing:
        raise NotImplementedError


class WriteOperation(ClientOperation):
    """One ABD write: read-ts round, then store at a majority."""

    kind = "write"

    def __init__(
        self,
        client: str,
        op_uid: int,
        value: bytes,
        scheme: CodingScheme,
        servers: Sequence[str],
        majority: int,
        decisions: list[tuple] | None = None,
    ) -> None:
        super().__init__(client, op_uid, scheme, servers, majority, decisions)
        scheme.check_value(value)
        self.value = value
        self.chosen_ts: Timestamp | None = None

    def start(self) -> Outgoing:
        return self._open_round(1, REPLY_TS, [
            (server, (READ_TS, (self.op_uid, 1)))
            for server in self.servers
        ])

    def on_message(self, sender: str, payload: Payload) -> Outgoing:
        if self.done or not self._round.offer(sender, payload):
            return []
        if self.chosen_ts is None:
            # Phase 1 quorum: pick the next timestamp above everything seen.
            self._decide("phase1-quorum", self.op_uid, len(self._round.replies))
            max_ts = max(reply[0] for reply in self._round.replies.values())
            self.chosen_ts = Timestamp(max_ts.num + 1, self.client)
            self._decide("choose-ts", self.op_uid,
                         self.chosen_ts.num, self.chosen_ts.client)
            # Phase 2: every message carries a full replica block — the
            # in-flight cost the model charges (Section 3.2).
            return self._open_round(2, REPLY_ACK, [
                (server, (WRITE, (self.op_uid, 2), self.chosen_ts,
                          self._block_for(index)))
                for index, server in enumerate(self.servers)
            ])
        self._decide("phase2-quorum", self.op_uid, len(self._round.replies))
        self.done = True
        self.result = "ok"
        return []

    def _block_for(self, index: int) -> CodeBlock:
        return CodeBlock(
            payload=self.scheme.encode_block(self.value, index),
            index=index,
            source=BlockSource(self.op_uid, index),
            size_bits=self.scheme.block_size_bits(index),
        )


class ReadOperation(ClientOperation):
    """One ABD read: collect a majority, return the freshest replica.

    No write-back — strongly regular, exactly like
    :class:`repro.registers.abd.ABDRegister`.
    """

    kind = "read"

    def start(self) -> Outgoing:
        return self._open_round(1, REPLY_VALUE, [
            (server, (READ, (self.op_uid, 1)))
            for server in self.servers
        ])

    def on_message(self, sender: str, payload: Payload) -> Outgoing:
        if self.done or not self._round.offer(sender, payload):
            return []
        self._decide("read-quorum", self.op_uid, len(self._round.replies))
        best_ts, best_block = max(
            self._round.replies.values(), key=lambda reply: reply[0]
        )
        self._decide("read-select", self.op_uid, best_ts.num, best_ts.client)
        self.done = True
        self.result = self.scheme.decode({best_block.index: best_block.payload})
        return []
