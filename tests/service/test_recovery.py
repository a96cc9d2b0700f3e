"""Crash recovery: SIGKILL mid-write, journal restart, linearizable after."""

import os
import signal

import pytest

from repro.errors import JournalError
from repro.registers.timestamps import TS_ZERO, Timestamp
from repro.service import (
    ReplicaJournal,
    ReplicaServer,
    ServerConfig,
    ServiceClient,
    StateDir,
    cluster_status,
    restart_dead,
    start_cluster,
    replica_signature,
    stop_cluster,
)
from repro.service.statedir import pid_alive
from repro.spec import check_linearizability, check_strong_regularity


def sigkill(state: StateDir, name: str) -> None:
    pid = state.read_pid(name)
    os.kill(pid, signal.SIGKILL)
    while pid_alive(pid):  # reaped by pid 1; zombie counts as dead
        pass


class TestDaemonRecovery:
    def test_sigkill_f_servers_midwave_then_restart(self, tmp_path, run):
        """Kill f servers with a write wave in flight; revive them from
        their journals; the revived state is timestamp-consistent and
        subsequent reads linearize with everything acknowledged."""
        state_dir = tmp_path / "cluster"
        start_cluster(state_dir, f=1, data_size_bytes=8)
        state = StateDir(state_dir)
        meta = state.read_meta()
        endpoints = {
            server["name"]: (meta["host"], state.read_port(server["name"]))
            for server in meta["servers"]
        }
        try:
            async def wave_with_crash():
                writer = ServiceClient("w0", endpoints, 1, 8, timeout=5.0)
                await writer.write(b"wave-00!")
                await writer.write(b"wave-01!")
                # Crash one server (the full f budget) mid-wave...
                sigkill(state, "s0")
                # ...the wave keeps completing against the live majority.
                await writer.write(b"wave-02!")
                await writer.write(b"wave-03!")
                await writer.close()
                return writer

            writer = run(wave_with_crash())
            assert not state.server_alive("s0")

            revived = restart_dead(state_dir)
            assert revived == ["s0"]

            # Revived state is ts-consistent: nobody is ahead of the max.
            # A write returns on a *majority* ack, so s0 may have been the
            # straggler for either pre-crash write; what ABD guarantees is
            # that s0 restarts at whatever its own journal holds, never
            # above the cluster max (wave-03's, held by s1 and s2).
            _meta, view = cluster_status(state_dir)
            assert view.alive_count == 3
            assert view.timestamp_consistent()
            assert view.max_ts == Timestamp(4, "w0")
            s0 = next(s for s in view.statuses if s.name == "s0")
            journaled = ReplicaJournal(
                state.journal_path("s0"),
                replica_signature("s0", 0, 1, 8, "replication"),
            ).recovered()
            assert s0.ts == (TS_ZERO if journaled is None else journaled[0])
            assert s0.ts <= Timestamp(2, "w0")  # s0 died before wave-02

            async def read_after():
                # Fresh endpoints: the revived s0 is on a new port.
                fresh = {
                    server["name"]: (
                        meta["host"], state.read_port(server["name"])
                    )
                    for server in meta["servers"]
                }
                reader = ServiceClient("r0", fresh, 1, 8, timeout=5.0)
                value = await reader.read()
                await reader.close()
                return reader, value

            reader, value = run(read_after())
            assert value == b"wave-03!"

            from repro.service import merge_histories
            history = merge_histories([writer, reader])
            assert check_linearizability(history).ok
            assert check_strong_regularity(history).ok
        finally:
            stop_cluster(state_dir)

    def test_full_cluster_restart_recovers_all_journals(self, tmp_path, run):
        state_dir = tmp_path / "cluster"
        start_cluster(state_dir, f=1, data_size_bytes=8)
        state = StateDir(state_dir)
        meta = state.read_meta()
        endpoints = {
            server["name"]: (meta["host"], state.read_port(server["name"]))
            for server in meta["servers"]
        }

        async def write_then_close():
            client = ServiceClient("w0", endpoints, 1, 8, timeout=5.0)
            await client.write(b"persist!")
            await client.close()

        run(write_then_close())
        for name in ("s0", "s1", "s2"):  # hard-crash the whole cluster
            sigkill(state, name)

        # start_cluster over the all-dead dir is the recovery path.
        start_cluster(state_dir, f=1, data_size_bytes=8)
        try:
            _meta, view = cluster_status(state_dir)
            assert view.alive_count == 3
            assert view.max_ts == Timestamp(1, "w0")

            async def read_back():
                fresh = {
                    server["name"]: (
                        meta["host"], state.read_port(server["name"])
                    )
                    for server in meta["servers"]
                }
                client = ServiceClient("r0", fresh, 1, 8, timeout=5.0)
                value = await client.read()
                await client.close()
                return value

            assert run(read_back()) == b"persist!"
        finally:
            stop_cluster(state_dir)


class TestLoopbackRecovery:
    def test_acknowledged_write_survives_abrupt_stop(self, loopback, run):
        """Write-ahead contract at the server object level: the journal
        already holds any write the client saw acknowledged, so a server
        rebuilt over the same state dir resumes at that state."""

        async def scenario():
            cluster = loopback()
            async with cluster:
                client = cluster.client("w0")
                await client.write(b"ackd-one")
                await client.close()
                config = cluster.servers["s0"].config
            # Cluster fully stopped; rebuild s0 alone from its journal.
            reborn = ReplicaServer(ServerConfig(
                name=config.name, index=config.index, f=config.f,
                data_size_bytes=config.data_size_bytes,
                state_dir=config.state_dir,
            ))
            await reborn.start()
            ts = reborn.protocol.state.ts
            await reborn.drain()
            return ts

        assert run(scenario()) == Timestamp(1, "w0")

    def test_corrupted_journal_refuses_to_start(self, tmp_path, run):
        config = ServerConfig(
            name="s0", index=0, f=1, data_size_bytes=8,
            state_dir=str(tmp_path / "cluster"),
        )

        async def write_and_stop():
            server = ReplicaServer(config)
            await server.start()
            server.protocol.handle("c", (
                "write", (0, 2), Timestamp(1, "w0"),
                _block(server, b"x" * 8),
            ))
            await server.drain()

        run(write_and_stop())
        journal = StateDir(config.state_dir).journal_path("s0")
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0x01  # a flip in the acknowledged last record
        journal.write_bytes(bytes(data))

        async def try_restart():
            await ReplicaServer(config).start()

        with pytest.raises(JournalError, match="corrupt"):
            run(try_restart())
        assert journal.read_bytes() == data  # refused, never rewritten

    def test_foreign_journal_refuses_to_start(self, tmp_path, run):
        state_dir = str(tmp_path / "cluster")

        async def start_stop(config):
            server = ReplicaServer(config)
            await server.start()
            await server.drain()

        run(start_stop(ServerConfig(
            name="s0", index=0, f=1, data_size_bytes=8, state_dir=state_dir,
        )))
        # Same file, different replica shape (f=2 -> n=5): must refuse.
        with pytest.raises(JournalError, match="different replica"):
            run(start_stop(ServerConfig(
                name="s0", index=0, f=2, data_size_bytes=8,
                state_dir=state_dir,
            )))


def _block(server, value):
    from repro.coding.oracles import BlockSource, CodeBlock

    index = server.config.index
    return CodeBlock(
        payload=server.scheme.encode_block(value, index),
        index=index,
        source=BlockSource(0, index),
        size_bits=server.scheme.block_size_bits(index),
    )
