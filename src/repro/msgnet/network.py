"""An asynchronous message-passing simulator.

The paper's Section 2 model — fault-prone shared memory — is the standard
abstraction of a *message-passing* system where each base object lives on
a storage node reachable over an asynchronous network (the reduction of
Attiya-Bar-Noy-Dolev [4]). This package provides that concrete layer:

* :class:`Node` — a name, a crash flag and a handler
  ``(sender, payload) -> [(recipient, payload), ...]``: the signature of
  the sans-I/O machines in :mod:`repro.msgnet.protocol`;
* :class:`Network` — the in-flight message multiset plus crash state.
  Delivering a message runs its recipient's handler and sends what it
  returns; the order is fully scheduler-controlled (per-link FIFO is
  *not* assumed — the weakest, paper-compatible network);
* :class:`MsgScheduler` implementations — fair and seeded-random.

Storage accounting carries over unchanged: a message payload may contain
:class:`~repro.coding.oracles.CodeBlock` instances, and
:meth:`Network.storage_bits_in_flight` charges them exactly like the
kernel charges pending RMW parameters — "information in channels is
counted" (Section 3.2). A message is in flight and charged, or consumed
by its handler; nothing sits in between.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ProtocolError, SimulationError
from repro.storage.blockstore import collect_blocks

#: What a node does with one delivery: ``handler(sender, payload)`` returns
#: the messages to send, ``[(recipient, payload), ...]``.
Handler = Callable[[str, Any], list]


@dataclass(frozen=True)
class Message:
    """One in-flight message."""

    msg_id: int
    sender: str
    recipient: str
    payload: Any

    def payload_bits(self) -> int:
        return sum(block.size_bits for block in collect_blocks(self.payload))


@dataclass
class Node:
    """A named endpoint: deliveries to it run ``handler``."""

    name: str
    handler: Handler
    crashed: bool = False


class Network:
    """The asynchronous network: nodes + in-flight messages."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        #: In-flight messages by id; ids grow, so iteration is oldest first.
        self.in_flight: dict[int, Message] = {}
        self._next_msg_id = 0
        self.delivered_count = 0

    # ------------------------------------------------------------ topology

    def add_node(self, name: str, handler: Handler) -> Node:
        if name in self.nodes:
            raise SimulationError(f"duplicate node {name!r}")
        node = Node(name, handler)
        self.nodes[name] = node
        return node

    def crash_node(self, name: str) -> None:
        self.nodes[name].crashed = True
        # Messages addressed to a crashed node are dropped eagerly.
        for msg_id in [m for m, msg in self.in_flight.items()
                       if msg.recipient == name]:
            del self.in_flight[msg_id]

    # ------------------------------------------------------------ transport

    def send(self, sender: str, recipient: str, payload: Any) -> None:
        if recipient not in self.nodes:
            raise ProtocolError(f"send to unknown node {recipient!r}")
        if self.nodes[recipient].crashed:
            return  # silently dropped
        message = Message(self._next_msg_id, sender, recipient, payload)
        self._next_msg_id += 1
        self.in_flight[message.msg_id] = message

    def deliver(self, msg_id: int) -> None:
        """Consume one message: run its recipient's handler, send replies."""
        message = self.in_flight.pop(msg_id)
        self.delivered_count += 1
        handler = self.nodes[message.recipient].handler
        for recipient, payload in handler(message.sender, message.payload):
            self.send(message.recipient, recipient, payload)

    # ------------------------------------------------------------ queries

    def quiescent(self) -> bool:
        return not self.in_flight

    def storage_bits_in_flight(self) -> int:
        """Bits in code blocks riding the network right now."""
        return sum(message.payload_bits() for message in self.in_flight.values())

    # -------------------------------------------------------------- clock

    def advance(self, tick: int) -> None:
        """Clock hook: the runner reports scheduler time after each action.

        The base network is timeless; :class:`repro.faults.simnet.FaultyNetwork`
        overrides this to release delayed messages and fire partition /
        crash windows at their scheduled ticks.
        """


class MsgScheduler(ABC):
    """Chooses the next message to deliver."""

    @abstractmethod
    def next_action(self, network: Network) -> int | None:
        """Return the ``msg_id`` to deliver, or None when nothing is in flight."""


class FairMsgScheduler(MsgScheduler):
    """Deliver the oldest in-flight message (global FIFO)."""

    def next_action(self, network: Network) -> int | None:
        return next(iter(network.in_flight), None)


class RandomMsgScheduler(MsgScheduler):
    """Deliver a uniformly random in-flight message (seeded)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def next_action(self, network: Network) -> int | None:
        if not network.in_flight:
            return None
        return self.rng.choice(list(network.in_flight))


def run_network(
    network: Network,
    scheduler: MsgScheduler,
    max_steps: int = 200_000,
    on_action: Callable[[Network, int], None] | None = None,
) -> int:
    """Deliver until quiescence or budget; return deliveries made."""
    steps = 0
    while steps < max_steps:
        msg_id = scheduler.next_action(network)
        if msg_id is None:
            return steps
        network.deliver(msg_id)
        if on_action is not None:
            on_action(network, msg_id)
        steps += 1
    return steps
