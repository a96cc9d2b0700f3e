"""Definition 2 on the message network: every unconsumed block is charged.

"Information in channels is counted" (Section 3.2): at every point of a
run, storage is the replica bits at live servers plus the code blocks in
every message that was sent and whose recipient has not yet consumed it.
This suite recomputes that sum independently of the network — by
wrapping every node's handler to see what it consumes and what it sends —
and checks it against :meth:`MsgABDSystem.total_storage_bits` after every
delivery of randomly scheduled runs.
"""

import pytest

from repro.coding.oracles import CodeBlock
from repro.msgnet import MsgABDSystem, RandomMsgScheduler

D = 1024


def block_bits(payload) -> int:
    return sum(item.size_bits for item in payload if isinstance(item, CodeBlock))


def track_unconsumed(system: MsgABDSystem) -> list:
    """Wrap every handler; return the live list of unconsumed block messages.

    Only messages that carry blocks are tracked. None are in flight when
    this is called: an operation's opening broadcast carries metadata only.
    """
    unconsumed: list[tuple[str, str, tuple]] = []

    def wrap(name, handler):
        def handle(sender, payload):
            for index, (src, dst, sent) in enumerate(unconsumed):
                if sent is payload and (src, dst) == (sender, name):
                    del unconsumed[index]
                    break
            outgoing = handler(sender, payload)
            unconsumed.extend(
                (name, recipient, reply)
                for recipient, reply in outgoing
                if block_bits(reply)
            )
            return outgoing

        return handle

    for name, node in system.network.nodes.items():
        node.handler = wrap(name, node.handler)
    return unconsumed


def definition2_bits(system: MsgABDSystem, unconsumed: list) -> int:
    replicas = sum(
        state.block.size_bits for state in system.server_states.values()
    )
    return replicas + sum(block_bits(payload) for _, _, payload in unconsumed)


@pytest.mark.parametrize("seed", range(50))
def test_total_storage_charges_every_unconsumed_block(seed):
    system = MsgABDSystem(f=1, data_size_bytes=D)
    for index in range(3):
        system.add_writer(f"w{index}", bytes([index + 1]) * D)
    system.add_reader("r0")
    unconsumed = track_unconsumed(system)
    scheduler = RandomMsgScheduler(seed)
    peak = deliveries = 0
    assert system.total_storage_bits() == definition2_bits(system, unconsumed)
    while (msg_id := scheduler.next_action(system.network)) is not None:
        system.network.deliver(msg_id)
        deliveries += 1
        expected = definition2_bits(system, unconsumed)
        assert system.total_storage_bits() == expected, (
            f"seed {seed}, delivery {deliveries}"
        )
        peak = max(peak, expected)
    assert all(op.return_time is not None for op in system.ops)
    assert not unconsumed
    # Three replicas at rest, plus at least one write round riding the
    # network at some point.
    assert peak >= (3 + 3) * D * 8
