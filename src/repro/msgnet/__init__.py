"""Asynchronous message-passing substrate and ABD in its native form.

The shared-memory model of Section 2 abstracts storage nodes reached over
a network; this package provides that concrete layer (nodes, in-flight
messages, adversary-controlled delivery) plus the Attiya-Bar-Noy-Dolev
register implemented directly on messages, so the emulation equivalence
the paper's model rests on can be exercised end to end.

The protocol logic itself (timestamps, quorums, coded replica blocks) is
transport-agnostic: :mod:`repro.msgnet.protocol` holds the sans-I/O state
machines, whose step functions :mod:`repro.msgnet.abd` registers as node
handlers on the simulated :class:`Network`, and :mod:`repro.service` runs
the *same* machines over asyncio TCP sockets. Delivering a message runs
its recipient's handler, so a message is in flight and charged, or
consumed by its handler.
"""

from repro.msgnet.abd import MsgABDSystem, OpRecord, ServerState
from repro.msgnet.network import (
    FairMsgScheduler,
    Message,
    MsgScheduler,
    Network,
    Node,
    RandomMsgScheduler,
    run_network,
)
from repro.msgnet.protocol import (
    ReadOperation,
    ServerProtocol,
    WriteOperation,
)

__all__ = [
    "FairMsgScheduler",
    "Message",
    "MsgABDSystem",
    "MsgScheduler",
    "Network",
    "Node",
    "OpRecord",
    "RandomMsgScheduler",
    "ReadOperation",
    "ServerProtocol",
    "ServerState",
    "WriteOperation",
    "run_network",
]
