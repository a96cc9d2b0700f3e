"""ABD over real messages — the register in its native habitat.

Attiya-Bar-Noy-Dolev [4] is a *message-passing* algorithm; the paper's
shared-memory model abstracts it. This module closes the loop: ``n = 2f+1``
server processes each hold one timestamped replica, clients broadcast
request messages and await majority acknowledgements, and the network
scheduler (fair or adversarial-random) controls every delivery.

Since the protocol/transport split, the state machines themselves live in
:mod:`repro.msgnet.protocol` (:class:`~repro.msgnet.protocol.ServerProtocol`,
:class:`~repro.msgnet.protocol.WriteOperation`,
:class:`~repro.msgnet.protocol.ReadOperation`) — the very same classes the
asyncio TCP service (:mod:`repro.service`) runs over real sockets. This
module is only the *simulated deployment*: it registers each machine's
step function as the handler of one :mod:`repro.msgnet.network` node.

The point of the module is the *equivalence* the paper relies on: the
message-passing system and the shared-memory emulation have the same
storage profile (``(2f+1) D`` server bits, replicas transiently riding the
network) and the same consistency level — demonstrated in
``tests/msgnet/`` by running both and checking both histories with the
same checker, and extended to real TCP in ``tests/service/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.coding.replication import ReplicationCode
from repro.errors import ParameterError
from repro.msgnet.network import (
    FairMsgScheduler,
    MsgScheduler,
    Network,
    run_network,
)
from repro.msgnet.protocol import (
    Outgoing,
    Payload,
    ReadOperation,
    ServerProtocol,
    ServerState,
    WriteOperation,
)
from repro.sim.trace import OpKind
from repro.spec.histories import History, HOp

__all__ = ["MsgABDSystem", "OpRecord", "ServerState"]


@dataclass
class OpRecord:
    client: str
    kind: OpKind
    written: bytes | None
    invoke_time: int
    return_time: int | None = None
    result: Any = None


class MsgABDSystem:
    """A complete message-passing ABD deployment (simulated transport)."""

    def __init__(self, f: int, data_size_bytes: int,
                 initial_value: bytes | None = None,
                 network: Network | None = None) -> None:
        if f < 1:
            raise ParameterError("f must be >= 1")
        self.f = f
        self.n = 2 * f + 1
        self.majority = f + 1
        self.scheme = ReplicationCode(data_size_bytes, n=self.n)
        self.v0 = initial_value or bytes(data_size_bytes)
        self.network = network if network is not None else Network()
        self.clock = 0
        self.server_states: dict[str, ServerState] = {}
        self.ops: list[OpRecord] = []
        #: Quorum/timestamp decisions in commit order — the parity log.
        self.decisions: list[tuple] = []
        #: Per-client reply deliveries, replayable through fresh machines.
        self.deliveries: dict[str, list[tuple[str, Payload]]] = {}
        #: Unfinished operations by client name — the chaos runner's
        #: resend hook (:func:`repro.faults.simnet.run_chaos`).
        self.live_ops: dict[str, object] = {}
        self._next_op_uid = 0
        self.server_names = [f"s{i}" for i in range(self.n)]
        for index, name in enumerate(self.server_names):
            protocol = ServerProtocol(name, self.scheme, index, self.v0)
            self.server_states[name] = protocol.state
            self.network.add_node(name, protocol.handle)

    # ------------------------------------------------------------- clients

    def add_writer(self, name: str, value: bytes) -> None:
        operation = WriteOperation(
            name, self._take_op_uid(), value, self.scheme,
            self.server_names, self.majority, decisions=self.decisions,
        )
        self._launch(name, OpKind.WRITE, value, operation)

    def add_reader(self, name: str) -> None:
        operation = ReadOperation(
            name, self._take_op_uid(), self.scheme,
            self.server_names, self.majority, decisions=self.decisions,
        )
        self._launch(name, OpKind.READ, None, operation)

    def _take_op_uid(self) -> int:
        op_uid = self._next_op_uid
        self._next_op_uid += 1
        return op_uid

    def _launch(self, name, kind, written, operation) -> None:
        record = OpRecord(name, kind, written, self.clock)
        self.ops.append(record)
        log = self.deliveries.setdefault(name, [])
        self.live_ops[name] = operation

        def handle(sender: str, payload: Payload) -> Outgoing:
            # An operation that never reaches its quorum simply never
            # finishes — as it must beyond ``f`` crashes. Replies after it
            # finished are consumed and ignored.
            if operation.done:
                return []
            log.append((sender, payload))
            outgoing = operation.on_message(sender, payload)
            if operation.done:
                record.return_time = self.clock
                record.result = operation.result
                self.live_ops.pop(name, None)
            return outgoing

        self.network.add_node(name, handle)
        for recipient, payload in operation.start():
            self.network.send(name, recipient, payload)

    # ----------------------------------------------------------------- run

    def run(self, scheduler: MsgScheduler | None = None,
            max_steps: int = 200_000) -> int:
        scheduler = scheduler or FairMsgScheduler()

        def tick(network, msg_id):
            self.clock += 1
            network.advance(self.clock)

        return run_network(self.network, scheduler, max_steps=max_steps,
                           on_action=tick)

    def resend_pending(self) -> int:
        """Re-emit every blocked operation's unanswered requests.

        The simulated analogue of the TCP client's retry timer: under
        message loss an operation without resends blocks forever, so an
        outer driver (:func:`repro.faults.simnet.run_chaos`) calls this
        between scheduling rounds. Re-sent requests traverse the network
        (and any installed fault layer) like first sends; the protocol
        machines deduplicate the extra replies. Returns the number of
        messages emitted.
        """
        emitted = 0
        for name, operation in list(self.live_ops.items()):
            if self.network.nodes[name].crashed:
                continue
            for recipient, payload in operation.resend():
                self.network.send(name, recipient, payload)
                emitted += 1
        return emitted

    @property
    def pending_ops(self) -> int:
        """Operations that have not yet returned."""
        return sum(
            1 for record in self.ops if record.return_time is None
        )

    def crash_server(self, name: str) -> None:
        self.network.crash_node(name)

    # ------------------------------------------------------------ metering

    def server_storage_bits(self) -> int:
        """Replica bits at live servers — the bo-state analogue."""
        return sum(
            state.block.size_bits
            for name, state in self.server_states.items()
            if not self.network.nodes[name].crashed
        )

    def total_storage_bits(self) -> int:
        """Servers + in-flight messages (Definition 2's channel charge)."""
        return self.server_storage_bits() + self.network.storage_bits_in_flight()

    # ------------------------------------------------------------- history

    def history(self) -> History:
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
            for index, record in enumerate(self.ops)
        ]
        return History(ops, self.v0)
