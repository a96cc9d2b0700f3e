"""Message-passing simulator tests."""

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import ProtocolError, SimulationError
from repro.msgnet import (
    FairMsgScheduler,
    Network,
    RandomMsgScheduler,
    run_network,
)


def echo(sender, payload):
    """Reply to every message with its payload."""
    return [(sender, ("echo", payload))]


def sink(results):
    """A handler that records every payload and replies nothing."""

    def handle(sender, payload):
        results.append(payload)
        return []

    return handle


def ignore(sender, payload):
    return []


class TestTransport:
    def test_send_and_deliver(self):
        network = Network()
        results = []
        network.add_node("a", sink(results))
        network.add_node("b", echo)
        network.send("a", "b", "hello")
        run_network(network, FairMsgScheduler())
        assert results == [("echo", "hello")]

    def test_messages_pending_until_delivered(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", echo)
        network.send("a", "b", "x")
        assert len(network.in_flight) == 1
        [msg_id] = network.in_flight
        network.deliver(msg_id)
        # The handler ran at delivery: only its reply is in flight now.
        [reply] = network.in_flight.values()
        assert (reply.sender, reply.recipient, reply.payload) == (
            "b", "a", ("echo", "x")
        )
        assert network.delivered_count == 1

    def test_send_to_unknown_node_raises(self):
        network = Network()
        network.add_node("a", ignore)
        with pytest.raises(ProtocolError):
            network.send("a", "ghost", "x")

    def test_reply_to_unknown_node_raises(self):
        network = Network()
        network.add_node("a", lambda sender, payload: [("ghost", "y")])
        network.send("outside", "a", "x")
        with pytest.raises(ProtocolError):
            network.deliver(next(iter(network.in_flight)))

    def test_duplicate_node_rejected(self):
        network = Network()
        network.add_node("a", ignore)
        with pytest.raises(SimulationError):
            network.add_node("a", ignore)

    def test_no_fifo_assumed(self):
        """A scheduler may reorder same-link messages arbitrarily."""
        network = Network()
        received = []
        network.add_node("sink", sink(received))
        network.add_node("src", ignore)
        network.send("src", "sink", 1)
        network.send("src", "sink", 2)
        # Deliver in reverse order: allowed.
        ids = sorted(network.in_flight)
        network.deliver(ids[1])
        network.deliver(ids[0])
        assert received == [2, 1]


class TestCrashes:
    def test_crashed_recipient_drops_in_flight(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", ignore)
        network.send("a", "b", "x")
        network.crash_node("b")
        assert not network.in_flight
        assert network.quiescent()

    def test_send_to_crashed_is_dropped_silently(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", ignore)
        network.crash_node("b")
        network.send("a", "b", "x")
        assert not network.in_flight

    def test_crashed_node_handler_never_runs(self):
        network = Network()
        received = []
        network.add_node("a", sink(received))
        network.add_node("b", ignore)
        network.send("b", "a", "before")
        network.crash_node("a")
        network.send("b", "a", "after")
        assert network.nodes["a"].crashed
        assert run_network(network, FairMsgScheduler()) == 0
        assert received == []

    def test_reply_to_crashed_sender_is_dropped(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", echo)
        network.send("a", "b", "x")
        network.crash_node("a")
        run_network(network, FairMsgScheduler())
        assert network.quiescent()
        assert network.delivered_count == 1


class TestScheduling:
    def test_quiescence(self):
        network = Network()
        assert network.quiescent()
        assert FairMsgScheduler().next_action(network) is None
        assert RandomMsgScheduler(0).next_action(network) is None

    def test_fair_scheduler_delivers_oldest_first(self):
        network = Network()
        received = []
        network.add_node("sink", sink(received))
        network.add_node("src", ignore)
        for index in range(5):
            network.send("src", "sink", index)
        network.deliver(sorted(network.in_flight)[2])
        run_network(network, FairMsgScheduler())
        assert received == [2, 0, 1, 3, 4]

    def test_fair_scheduler_drains_ping_pong(self):
        network = Network()
        results = []
        network.add_node("b", echo)
        for index in range(3):
            name = f"a{index}"
            network.add_node(name, sink(results))
            network.send(name, "b", index)
        steps = run_network(network, FairMsgScheduler())
        assert steps == 6  # three requests, three replies
        assert sorted(payload for _, payload in results) == [0, 1, 2]
        assert network.quiescent()

    def test_run_network_respects_budget(self):
        network = Network()
        network.add_node("a", lambda sender, payload: [("b", payload)])
        network.add_node("b", lambda sender, payload: [("a", payload)])
        network.send("a", "b", "loop")
        assert run_network(network, FairMsgScheduler(), max_steps=7) == 7
        assert len(network.in_flight) == 1

    def test_random_scheduler_deterministic_per_seed(self):
        def run_once(seed):
            network = Network()
            results = []
            network.add_node("b", echo)
            network.add_node("a", sink(results))
            for index in range(6):
                network.send("a", "b", index)
            order = []
            steps = run_network(
                network, RandomMsgScheduler(seed),
                on_action=lambda net, msg_id: order.append(msg_id),
            )
            return steps, order, results

        assert run_once(5) == run_once(5)
        assert run_once(5)[1] != run_once(6)[1]


class TestStorageInFlight:
    def test_code_blocks_in_messages_are_charged(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", ignore)
        block = CodeBlock(
            payload=bytes(8), index=0, source=BlockSource(1, 0), size_bits=64
        )
        network.send("a", "b", ("write", block))
        assert network.storage_bits_in_flight() == 64
        [msg_id] = network.in_flight
        network.deliver(msg_id)
        assert network.storage_bits_in_flight() == 0

    def test_forwarded_block_stays_charged(self):
        """A handler that passes a block on keeps it in the channels."""
        network = Network()
        network.add_node("a", ignore)
        network.add_node("relay", lambda sender, payload: [("a", payload)])
        block = CodeBlock(
            payload=bytes(8), index=0, source=BlockSource(1, 0), size_bits=64
        )
        network.send("a", "relay", ("write", block))
        [msg_id] = network.in_flight
        network.deliver(msg_id)
        assert network.storage_bits_in_flight() == 64

    def test_metadata_messages_are_free(self):
        network = Network()
        network.add_node("a", ignore)
        network.add_node("b", ignore)
        network.send("a", "b", ("read-ts", 7, "meta"))
        assert network.storage_bits_in_flight() == 0
