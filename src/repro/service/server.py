"""One replica server: the ABD state machine behind an asyncio TCP socket.

A :class:`ReplicaServer` wraps exactly the
:class:`~repro.msgnet.protocol.ServerProtocol` the simulator runs — zero
protocol logic lives here. This module contributes only the production
shell around it:

* **Transport** — length-prefixed binary frames (``framing``/``wire``)
  over asyncio TCP; one request frame in, its reply frames out on the
  same connection. A frame that does not decode, or decodes to a request
  the protocol refuses, closes that connection and nothing else.
* **Durability** — a write-ahead :class:`~repro.service.journal.ReplicaJournal`:
  the protocol's ``on_apply`` hook appends (and flushes) before the ack
  frame is written, so SIGKILL can never lose an acknowledged write. On
  start the server recovers its ``(ts, block)`` from the journal.
* **Lifecycle** — pid/port files appear only once the listener is up
  (the daemon's readiness signal); SIGTERM triggers a graceful drain:
  stop accepting, let in-flight requests finish, flush and close the
  journal, remove runtime files, exit 0.

``python -m repro server ...`` (see :func:`main`) is the subprocess entry
point ``repro serve`` spawns ``n`` times.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from dataclasses import dataclass

from repro.coding.replication import ReplicationCode
from repro.errors import ParameterError, ProtocolError, ReproError, WireError
from repro.msgnet.protocol import ServerProtocol, ServerState
from repro.service.framing import read_frame, write_frame
from repro.service.journal import ReplicaJournal, replica_signature
from repro.service.statedir import StateDir, atomic_write
from repro.service.wire import decode_payload, encode_payload

#: How long a drain waits for in-flight requests before forcing the issue.
DRAIN_GRACE_S = 5.0


@dataclass
class ServerConfig:
    """Everything one replica process needs to come up."""

    name: str
    index: int
    f: int
    data_size_bytes: int
    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in <name>.port
    handle_delay_s: float = 0.0  # test hook: per-request artificial latency

    @property
    def n(self) -> int:
        return 2 * self.f + 1

    def validate(self) -> None:
        if self.f < 1:
            raise ParameterError("f must be >= 1")
        if not 0 <= self.index < self.n:
            raise ParameterError(
                f"server index {self.index} outside [0, {self.n})"
            )
        if self.data_size_bytes < 1:
            raise ParameterError("data size must be >= 1 byte")


class ReplicaServer:
    """The asyncio shell around one :class:`ServerProtocol` replica."""

    def __init__(self, config: ServerConfig) -> None:
        config.validate()
        self.config = config
        self.state_dir = StateDir(config.state_dir)
        self.scheme = ReplicationCode(config.data_size_bytes, n=config.n)
        self.signature = replica_signature(
            config.name, config.index, config.f, config.data_size_bytes,
            self.scheme.name,
        )
        self.journal = ReplicaJournal(
            self.state_dir.journal_path(config.name), self.signature
        )
        self.protocol: ServerProtocol | None = None
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self.stopped = asyncio.Event()

    # ------------------------------------------------------------ recovery

    def _recover_protocol(self) -> ServerProtocol:
        """Build the replica state machine, replaying the journal if any."""
        recovered = self.journal.recovered()
        state = None
        if recovered is not None:
            ts, block = recovered
            state = ServerState(block, ts)
        protocol = ServerProtocol(
            self.config.name, self.scheme, self.config.index,
            bytes(self.config.data_size_bytes), state=state,
            on_apply=self.journal.append,
        )
        return protocol

    # --------------------------------------------------------------- start

    async def start(self) -> None:
        """Recover, listen, and publish pid/port files (readiness)."""
        self.protocol = self._recover_protocol()
        self.journal.open_for_append()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.state_dir.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.state_dir.port_path(self.config.name),
                     f"{self.port}\n")
        atomic_write(self.state_dir.pid_path(self.config.name),
                     f"{os.getpid()}\n")

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    # ---------------------------------------------------------- connections

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    body = await read_frame(reader)
                except WireError:
                    break  # peer died mid-frame or desynchronized
                if body is None or self._draining:
                    break
                self._busy += 1
                self._idle.clear()
                try:
                    await self._handle_frame(body, writer)
                except (WireError, ProtocolError):
                    # Undecodable or malformed request: it costs its
                    # sender this connection; the replica is untouched.
                    break
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_frame(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        payload = decode_payload(body)
        if self.config.handle_delay_s > 0:
            await asyncio.sleep(self.config.handle_delay_s)
        # The TCP transport is connection-addressed: every reply the
        # protocol emits for this request goes back on this connection,
        # so the sender name is only informational.
        replies = self.protocol.handle("client", payload)
        for _recipient, reply in replies:
            await write_frame(writer, encode_payload(reply))

    # ---------------------------------------------------------------- drain

    async def drain(self) -> None:
        """Graceful stop: no new work, finish in-flight, persist, exit."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=DRAIN_GRACE_S)
        except asyncio.TimeoutError:  # pragma: no cover - pathological stall
            pass
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self.journal.close()
        self.state_dir.clear_runtime_files(self.config.name)
        self.stopped.set()

    async def run_until_stopped(self) -> None:
        await self.start()
        self.install_signal_handlers()
        await self.stopped.wait()


# ----------------------------------------------------------- process entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro server",
        description="One ABD replica server process (spawned by "
                    "`repro serve`; not normally run by hand)",
    )
    parser.add_argument("--name", required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--f", type=int, required=True)
    parser.add_argument("--data-size", type=int, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--handle-delay-ms", type=float, default=0.0,
                        help="test hook: artificial per-request latency")
    return parser


def main(argv=None) -> int:
    """Run one replica to completion; 0 on graceful drain, 1 on error."""
    args = build_parser().parse_args(argv)
    config = ServerConfig(
        name=args.name, index=args.index, f=args.f,
        data_size_bytes=args.data_size, state_dir=args.state_dir,
        host=args.host, port=args.port,
        handle_delay_s=args.handle_delay_ms / 1000.0,
    )
    server = ReplicaServer(config)
    try:
        asyncio.run(server.run_until_stopped())
    except ReproError as error:
        print(f"{config.name}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
