"""Unit tests for the sans-I/O ABD protocol machines.

These drive :mod:`repro.msgnet.protocol` directly — no network, no
sockets, no scheduler — by feeding payloads by hand and asserting on the
returned outgoing messages and the decision log. Both transports (the
simulated :class:`~repro.msgnet.network.Network` and the asyncio TCP
service) run exactly these machines, so every property proven here holds
for both.
"""

import dataclasses

import pytest

from repro.coding.replication import ReplicationCode
from repro.errors import ProtocolError
from repro.msgnet.protocol import (
    PING,
    READ,
    READ_TS,
    REPLY_ACK,
    REPLY_PONG,
    REPLY_STATUS,
    REPLY_TS,
    REPLY_VALUE,
    STATUS,
    WRITE,
    ReadOperation,
    ServerProtocol,
    WriteOperation,
)
from repro.registers.timestamps import TS_ZERO, Timestamp

D = 8
SERVERS = ["s0", "s1", "s2"]
MAJORITY = 2


def make_scheme(n: int = 3) -> ReplicationCode:
    return ReplicationCode(D, n=n)


def make_server(index: int = 0, **kwargs) -> ServerProtocol:
    return ServerProtocol(
        f"s{index}", make_scheme(), index, bytes(D), **kwargs
    )


def block_for(value: bytes, index: int, op_uid: int = 7):
    writer = WriteOperation(
        "w", op_uid, value, make_scheme(), SERVERS, MAJORITY
    )
    return writer._block_for(index)


NEWER = Timestamp(9, "x")
GOOD_BLOCK = block_for(b"y" * D, 0)

MALFORMED_REQUESTS = {
    "not a tuple": [READ_TS, (0, 1)],
    "empty": (),
    "tag only": (READ_TS,),
    "read with an operand": (READ, (0, 1), "extra"),
    "write without operands": (WRITE, (0, 2)),
    "write without a block": (WRITE, (0, 2), NEWER),
    "write with three operands": (WRITE, (0, 2), NEWER, GOOD_BLOCK, "extra"),
    "write of a non-block": (WRITE, (0, 2), NEWER, "junk"),
    "write at a non-timestamp": (WRITE, (0, 2), (9, "x"), GOOD_BLOCK),
    "write of a short block": (WRITE, (0, 2), NEWER, dataclasses.replace(
        GOOD_BLOCK, payload=b"y", size_bits=8)),
    "write whose size_bits lies": (WRITE, (0, 2), NEWER, dataclasses.replace(
        GOOD_BLOCK, size_bits=D * 4)),
    "write of a block index outside the scheme": (
        WRITE, (0, 2), NEWER, dataclasses.replace(GOOD_BLOCK, index=3)),
}


class TestServerProtocol:
    def test_read_ts_returns_current_timestamp(self):
        server = make_server()
        [(recipient, reply)] = server.handle("c", (READ_TS, (0, 1)))
        assert recipient == "c"
        assert reply == (REPLY_TS, (0, 1), TS_ZERO)

    def test_write_adopts_strictly_newer(self):
        server = make_server()
        ts = Timestamp(1, "w")
        block = block_for(b"x" * D, 0)
        [(_, reply)] = server.handle("c", (WRITE, (0, 2), ts, block))
        assert reply == (REPLY_ACK, (0, 2))
        assert server.state.ts == ts
        assert server.state.block == block
        assert server.applied_count == 1

    def test_equal_ts_replay_acked_without_apply(self):
        server = make_server()
        ts = Timestamp(1, "w")
        server.handle("c", (WRITE, (0, 2), ts, block_for(b"x" * D, 0)))
        stale = block_for(b"y" * D, 0)
        [(_, reply)] = server.handle("c", (WRITE, (0, 2), ts, stale))
        assert reply == (REPLY_ACK, (0, 2))  # retried write is safe
        assert server.state.block != stale  # ...but state is untouched
        assert server.applied_count == 1

    def test_older_ts_ignored(self):
        server = make_server()
        server.handle(
            "c", (WRITE, (0, 2), Timestamp(5, "w"), block_for(b"x" * D, 0))
        )
        server.handle(
            "c", (WRITE, (1, 2), Timestamp(3, "v"), block_for(b"y" * D, 0))
        )
        assert server.state.ts == Timestamp(5, "w")

    def test_read_returns_ts_and_block(self):
        server = make_server()
        ts = Timestamp(2, "w")
        block = block_for(b"z" * D, 0)
        server.handle("c", (WRITE, (0, 2), ts, block))
        [(_, reply)] = server.handle("r", (READ, (9, 1)))
        assert reply == (REPLY_VALUE, (9, 1), ts, block)

    def test_status_reports_bits_and_applied_count(self):
        server = make_server()
        [(_, reply)] = server.handle("c", (STATUS, ("admin", 0)))
        tag, _rid, ts, size_bits, applied = reply
        assert tag == REPLY_STATUS
        assert ts == TS_ZERO
        assert size_bits == D * 8
        assert applied == 0

    def test_ping_pongs(self):
        server = make_server()
        [(_, reply)] = server.handle("c", (PING, (0, 0)))
        assert reply == (REPLY_PONG, (0, 0))

    def test_unknown_tag_raises(self):
        server = make_server()
        with pytest.raises(ProtocolError):
            server.handle("c", ("gossip", (0, 1)))

    @pytest.mark.parametrize(
        "request_", MALFORMED_REQUESTS.values(), ids=MALFORMED_REQUESTS.keys()
    )
    def test_malformed_request_raises_with_state_untouched(self, request_):
        applies = []
        server = make_server(on_apply=lambda ts, block: applies.append(ts))
        before = dataclasses.replace(server.state)
        with pytest.raises(ProtocolError):
            server.handle("c", request_)
        assert server.state == before
        assert server.applied_count == 0 and applies == []

    def test_on_apply_fires_before_ack(self):
        """The write-ahead contract: journal append precedes the ack."""
        events = []
        server = make_server(on_apply=lambda ts, block: events.append(
            ("applied", ts.num)
        ))
        replies = server.handle(
            "c", (WRITE, (0, 2), Timestamp(1, "w"), block_for(b"x" * D, 0))
        )
        events.append(("acked", replies[0][1][0]))
        assert events == [("applied", 1), ("acked", REPLY_ACK)]

    def test_on_apply_skipped_for_replay(self):
        applies = []
        server = make_server(on_apply=lambda ts, block: applies.append(ts))
        ts = Timestamp(1, "w")
        server.handle("c", (WRITE, (0, 2), ts, block_for(b"x" * D, 0)))
        server.handle("c", (WRITE, (0, 2), ts, block_for(b"x" * D, 0)))
        assert len(applies) == 1


class TestWriteOperation:
    def make(self, decisions=None):
        return WriteOperation(
            "w", 3, b"v" * D, make_scheme(), SERVERS, MAJORITY,
            decisions=decisions,
        )

    def test_start_broadcasts_read_ts(self):
        op = self.make()
        outgoing = op.start()
        assert [recipient for recipient, _ in outgoing] == SERVERS
        assert all(p == (READ_TS, (3, 1)) for _, p in outgoing)

    def test_two_phase_happy_path(self):
        decisions = []
        op = self.make(decisions)
        op.start()
        assert op.on_message("s0", (REPLY_TS, (3, 1), TS_ZERO)) == []
        phase2 = op.on_message("s1", (REPLY_TS, (3, 1), Timestamp(4, "u")))
        # Phase 1 quorum reached: next ts above everything seen, block
        # per server index.
        assert [r for r, _ in phase2] == SERVERS
        assert all(p[0] == WRITE and p[2] == Timestamp(5, "w")
                   for _, p in phase2)
        assert not op.done
        op.on_message("s2", (REPLY_ACK, (3, 2)))
        op.on_message("s0", (REPLY_ACK, (3, 2)))
        assert op.done and op.result == "ok"
        assert decisions == [
            ("phase1-quorum", 3, 2),
            ("choose-ts", 3, 5, "w"),
            ("phase2-quorum", 3, 2),
        ]

    def test_duplicate_replies_do_not_complete_quorum(self):
        op = self.make()
        op.start()
        op.on_message("s0", (REPLY_TS, (3, 1), TS_ZERO))
        assert op.on_message("s0", (REPLY_TS, (3, 1), TS_ZERO)) == []
        assert op.chosen_ts is None  # still one distinct responder

    def test_mismatched_request_id_ignored(self):
        op = self.make()
        op.start()
        assert op.on_message("s0", (REPLY_TS, (99, 1), TS_ZERO)) == []
        assert op.on_message("s0", (REPLY_ACK, (3, 1))) == []

    def test_reply_too_short_to_unpack_is_ignored(self):
        op = self.make()
        op.start()
        for stray in ((), (1,), (REPLY_TS,)):
            assert op.on_message("s0", stray) == []
        assert op.answered() == []

    def test_resend_targets_only_silent_servers(self):
        op = self.make()
        op.start()
        op.on_message("s1", (REPLY_TS, (3, 1), TS_ZERO))
        resent = op.resend()
        assert [recipient for recipient, _ in resent] == ["s0", "s2"]
        assert all(p == (READ_TS, (3, 1)) for _, p in resent)

    def test_resend_after_done_is_empty(self):
        op = self.make()
        op.start()
        for name in SERVERS[:2]:
            op.on_message(name, (REPLY_TS, (3, 1), TS_ZERO))
        for name in SERVERS[:2]:
            op.on_message(name, (REPLY_ACK, (3, 2)))
        assert op.done and op.resend() == []

    def test_late_phase1_reply_after_quorum_is_ignored(self):
        op = self.make()
        op.start()
        op.on_message("s0", (REPLY_TS, (3, 1), TS_ZERO))
        op.on_message("s1", (REPLY_TS, (3, 1), TS_ZERO))
        # s2's straggler phase-1 reply must not restart phase 2.
        assert op.on_message("s2", (REPLY_TS, (3, 1), Timestamp(9, "x"))) == []
        assert op.chosen_ts == Timestamp(1, "w")


class TestReadOperation:
    def test_selects_freshest_replica(self):
        decisions = []
        op = ReadOperation(
            "r", 6, make_scheme(), SERVERS, MAJORITY, decisions=decisions
        )
        op.start()
        old = block_for(b"o" * D, 0, op_uid=1)
        new = block_for(b"n" * D, 1, op_uid=2)
        op.on_message("s0", (REPLY_VALUE, (6, 1), Timestamp(1, "a"), old))
        op.on_message("s1", (REPLY_VALUE, (6, 1), Timestamp(2, "b"), new))
        assert op.done
        assert op.result == b"n" * D
        assert decisions == [("read-quorum", 6, 2), ("read-select", 6, 2, "b")]

    def test_initial_read_returns_v0(self):
        scheme = make_scheme()
        op = ReadOperation("r", 0, scheme, SERVERS, MAJORITY)
        op.start()
        initial = block_for(bytes(D), 0, op_uid=-1)
        op.on_message("s0", (REPLY_VALUE, (0, 1), TS_ZERO, initial))
        op.on_message("s2", (REPLY_VALUE, (0, 1), TS_ZERO, initial))
        assert op.result == bytes(D)


class TestDeliveryReplay:
    def test_sim_deliveries_replay_through_fresh_machines(self):
        """The recorded delivery log is sufficient to re-drive fresh
        machines to the same result — the replay half of the parity
        story."""
        from repro.msgnet import MsgABDSystem

        system = MsgABDSystem(f=1, data_size_bytes=D)
        system.add_writer("w0", b"q" * D)
        system.run()
        system.add_reader("r0")
        system.run()

        fresh = ReadOperation(
            "r0", 1, make_scheme(), system.server_names, system.majority
        )
        fresh.start()
        for sender, payload in system.deliveries["r0"]:
            fresh.on_message(sender, payload)
        [read] = [op for op in system.ops if op.kind.value == "read"]
        assert fresh.done and fresh.result == read.result == b"q" * D
