"""The five workloads and the closed loop that times them.

All load comes from one process, one thread, one closed-loop client: the
next op starts when the previous one returned. The replicas of a
``LoopbackCluster`` share the client's event loop, so a service op's
latency is the summed CPU path of the client and the ``2f + 1`` replicas
plus loopback syscalls, with no injected message delay.

The untraced pass touches the program only through ``LoopbackCluster``,
``ServiceClient.write/read/connect/close``, ``run_register_workload`` and
``ReedSolomonCode.encode_batch/decode_batch``; the checkers and counters
read afterwards run outside every timed span.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
from pathlib import Path
from time import perf_counter, perf_counter_ns

from repro.analysis.sweeps import theorem1_bound_bits
from repro.coding.reed_solomon import ReedSolomonCode
from repro.errors import ReproError
from repro.registers.adaptive import AdaptiveRegister
from repro.registers.base import RegisterSetup
from repro.service.client import merge_histories
from repro.service.loopback import LoopbackCluster
from repro.sim.schedulers import FairScheduler
from repro.spec.regularity import check_strong_regularity
from repro.workloads.generators import WorkloadSpec
from repro.workloads.runner import run_register_workload

#: Ops between output checks. The regularity checker is quadratic in the
#: window and an uncleared 64 KiB read history grows past 300 MB, so the
#: client's history is checked and cleared this often, between timed ops.
WINDOW = 500

#: A window also ends after this long, so that slow ops (a 20 ms simulator
#: cell) still give a traced pass several windows of each kind.
WINDOW_S = 1.0

#: Distinct values per pool, cycled, so histories hold references.
POOL = 64

#: What the journal does per append, printed with every service result so
#: both sides of a comparison state the same policy.
FLUSH_POLICY = "flush per append, no fsync (survives SIGKILL, not power loss)"


class CheckFailed(Exception):
    """An output or durability check failed; the message names it."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


class Workload:
    """What the timing loop needs from a workload.

    ``setup`` builds inputs and warms up; ``op`` is the timed unit;
    ``verify`` names what was wrong with the op just run (or ``None``);
    ``check_window`` runs between windows; ``finish`` returns the closing
    facts after the last checks; ``close`` releases what ``setup`` opened.
    """

    #: The share that takes the time no span covers.
    remainder = "other"

    async def check_window(self) -> None:
        pass

    async def close(self) -> None:
        pass


class ServiceWorkload(Workload):
    """``LoopbackCluster(f=1)`` with journals on disk; writes or reads."""

    remainder = "transport"
    f = 1

    def __init__(self, data_size: int, warmup: int, reads: bool) -> None:
        self.data_size = self.user_bytes_per_op = data_size
        self.warmup = warmup
        self.reads = reads
        self.cluster = None
        self.client = None

    async def setup(self, seed: int, work_dir: Path, tracer) -> None:
        rng = random.Random(seed)
        self.pool = [rng.randbytes(self.data_size) for _ in range(POOL)]
        self.state_dir = work_dir / "state"
        self.cluster = LoopbackCluster(self.f, self.data_size, self.state_dir)
        await self.cluster.start()
        self.client = self.cluster.client("c0", timeout=10.0)
        await self.client.connect()
        self.writes = 0
        self.result = None
        for _ in range(self.warmup):
            await self._write()
        self.window_start = self.last
        self._forget_history()
        self.journal_bytes_at_start = self._journal_bytes()

    async def _write(self) -> None:
        value = self.pool[self.writes % POOL]
        self.result = await self.client.write(value)
        self.last = value
        self.writes += 1

    async def op(self) -> None:
        if self.reads:
            self.result = await self.client.read()
        else:
            await self._write()

    def verify(self) -> str | None:
        if self.reads:
            if self.result != self.last:
                return "read did not return the last acknowledged write"
        elif self.result != "ok":
            return f"write returned {self.result!r}"
        return None

    async def check_window(self) -> None:
        """One untimed read, then the checker over this window's history."""
        got = await self.client.read()
        require(got == self.last,
                "read after a window did not return the last "
                "acknowledged write")
        history = merge_histories([self.client], self.window_start)
        report = check_strong_regularity(history)
        require(report.ok,
                f"window history is not strongly regular: "
                f"{[str(v) for v in report.violations[:3]]}")
        self.window_start = self.last
        self._forget_history()

    def _forget_history(self) -> None:
        self.client.ops.clear()
        self.client.decisions.clear()

    def _journal_bytes(self) -> int:
        return sum(
            server.journal.path.stat().st_size
            for server in self.cluster.servers.values()
        )

    async def finish(self) -> dict:
        servers = self.cluster.servers.values()
        # A drain drops frames still queued at a replica outside the last
        # majority; every replica must have applied every write first.
        for _ in range(5000):
            if all(s.protocol.applied_count == self.writes for s in servers):
                break
            await asyncio.sleep(0.001)
        storage_ratio = self.cluster.server_storage_bits() / (
            8 * self.data_size
        )
        require(storage_ratio == 2 * self.f + 1,
                f"storage_ratio {storage_ratio} != 2f+1")
        journal_bytes = self._journal_bytes()
        await self.close()
        facts = {
            "storage_ratio": storage_ratio,
            "journal_ratio": 0.0,
            "journal_bytes": 0,
            "flush_policy": FLUSH_POLICY,
        }
        if not self.reads:
            facts["journal_ratio"] = journal_bytes / (
                self.writes * self.data_size
            )
            facts["journal_bytes"] = (
                journal_bytes - self.journal_bytes_at_start
            )
            await self._check_durable()
        return facts

    async def _check_durable(self) -> None:
        """Restart from the journals alone; nothing acknowledged is lost."""
        async with LoopbackCluster(
            self.f, self.data_size, self.state_dir
        ) as again:
            client = again.client("c1", timeout=10.0)
            await client.connect()
            try:
                got = await client.read()
            finally:
                await client.close()
            counts = {
                name: server.journal.entry_count()
                for name, server in again.servers.items()
            }
        require(got == self.last,
                "after restart a read did not return the last "
                "acknowledged write")
        require(all(count == self.writes for count in counts.values()),
                f"journal entries {counts} != {self.writes} writes")

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        if self.cluster is not None:
            await self.cluster.drain()
            self.cluster = None


class SimCell(Workload):
    """One simulator cell per op: the sweep user's unit of work."""

    data_size = 1024
    warmup = 20
    f, k, writers, readers, per_client = 2, 4, 4, 4, 2
    user_bytes_per_op = writers * per_client * data_size

    async def setup(self, seed: int, work_dir: Path, tracer) -> None:
        self.tracer = tracer
        self.seed = seed
        self.cells = 0
        self.register = RegisterSetup(
            f=self.f, k=self.k, data_size_bytes=self.data_size
        )
        self.floor_bits = theorem1_bound_bits(
            self.f, self.writers, 8 * self.data_size
        )
        self.peak_bits = 0
        self.facts = {"actions": 0, "decode_hits": 0, "decode_misses": 0}
        for _ in range(self.warmup):
            await self.op()
        self.facts = dict.fromkeys(self.facts, 0)

    async def op(self) -> None:
        spec = WorkloadSpec(
            writers=self.writers, writes_per_writer=self.per_client,
            readers=self.readers, reads_per_reader=self.per_client,
            seed=self.seed + self.cells,
        )
        self.cells += 1
        scheduler = None
        if self.tracer is not None:
            scheduler = self.tracer.scheduler(FairScheduler())
        self.result = run_register_workload(
            AdaptiveRegister, self.register, spec, scheduler=scheduler,
            keep_events=False,
        )

    def verify(self) -> str | None:
        result = self.result
        ops = self.per_client * self.writers, self.per_client * self.readers
        if not result.run.quiescent:
            return "cell did not reach quiescence"
        if (result.completed_writes, result.completed_reads) != ops:
            return "cell did not complete all 16 ops"
        if result.peak_storage_bits < self.floor_bits:
            return (f"peak {result.peak_storage_bits} bits is below the "
                    f"Theorem 1 floor {self.floor_bits}")
        self.peak_bits = max(self.peak_bits, result.peak_storage_bits)
        self.facts["actions"] += result.run.steps
        self.facts["decode_hits"] += result.sim.decode_cache.hits
        self.facts["decode_misses"] += result.sim.decode_cache.misses
        return None

    async def finish(self) -> dict:
        return {
            "storage_ratio": self.peak_bits / (8 * self.data_size),
            "journal_ratio": 0.0,
            **self.facts,
        }


class CodeWave(Workload):
    """Encode 8 values to all ``n`` blocks, erase ``f``, decode them back."""

    data_size = 65536
    warmup = 50
    k, n, f, batch = 4, 8, 2, 8
    user_bytes_per_op = batch * data_size

    async def setup(self, seed: int, work_dir: Path, tracer) -> None:
        rng = random.Random(seed)
        # 64 waves x 8 values x 64 KiB = 32 MiB: larger than any CPU cache,
        # so a wave never finds its input warm.
        self.pool = [
            [rng.randbytes(self.data_size) for _ in range(self.batch)]
            for _ in range(POOL)
        ]
        self.patterns = list(
            itertools.combinations(range(self.n), self.f)
        )
        self.code = ReedSolomonCode(self.k, self.n, self.data_size)
        # Warm-up visits every erasure pattern once, so the scheme's
        # 256-entry inverse cache holds all 28 before timing starts; the
        # timed waves then draw theirs from the seed.
        self.draws = list(range(len(self.patterns))) * 2 + [
            rng.randrange(len(self.patterns)) for _ in range(4096)
        ]
        self.waves = 0
        for _ in range(self.warmup):
            await self.op()

    async def op(self) -> None:
        self.values = self.pool[self.waves % POOL]
        erased = self.patterns[self.draws[self.waves % len(self.draws)]]
        self.waves += 1
        self.encoded = self.code.encode_batch(self.values, range(self.n))
        survivors = [
            {index: block for index, block in blocks.items()
             if index not in erased}
            for blocks in self.encoded
        ]
        self.decoded = self.code.decode_batch(survivors)

    def verify(self) -> str | None:
        if self.decoded != self.values:
            return "decode did not return the encoded values"
        return None

    async def finish(self) -> dict:
        stored = sum(len(block) for block in self.encoded[0].values())
        return {
            "storage_ratio": stored / self.data_size,
            "journal_ratio": 0.0,
        }


#: name -> factory. Why each exists is in BENCHMARK.json and the README.
WORKLOADS = {
    "svc-write-small": lambda: ServiceWorkload(16, 200, reads=False),
    "svc-write-large": lambda: ServiceWorkload(65536, 100, reads=False),
    "svc-read-large": lambda: ServiceWorkload(65536, 100, reads=True),
    "sim-cell": SimCell,
    "code-wave": CodeWave,
}


async def quiesce(tracer) -> None:
    """Wait until a millisecond passes with no traced call.

    A replica outside an op's answering majority does its work after the
    op returned. Letting it finish before tracing pauses (and before it
    resumes) is what makes the ``*_per_op`` counts repeat exactly.
    """
    if tracer is None:
        return
    while True:
        seen = tracer.seen
        await asyncio.sleep(0.001)
        if tracer.seen == seen:
            return


async def run_pass(workload, seed: int, seconds: float, work_dir: Path,
                   tracer=None) -> dict:
    """Set up, time ops for ``seconds``, check, tear down.

    Ops run in windows of at most :data:`WINDOW` ops or :data:`WINDOW_S`
    seconds; the output checks run between windows. With a tracer, every
    other window records spans and the rest pass through the wrappers
    unrecorded: the two sets of windows see the same journal size, heap
    and machine phase, so their throughput ratio is the tracing overhead
    (two separate passes differ by more than that on a shared machine).

    Returns the raw material: latencies of the ops that succeeded
    (``latencies_ns``: every window untraced, the recorded windows when
    traced; ``reference_ns``: the unrecorded windows of a traced pass),
    the attempted/failed counts, the first failure's reason and the
    workload's closing facts. A :class:`CheckFailed` propagates after
    the workload is closed.
    """
    if tracer is not None:
        tracer.paused = True
    try:
        await workload.setup(seed, work_dir, tracer)
        gc.collect()
        latencies: list[int] = []
        reference: list[int] = []
        attempted = failed = windows = 0
        reason = None
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            recording = tracer is not None and windows % 2 == 0
            sink = reference if tracer is not None and not recording \
                else latencies
            windows += 1
            window_end = min(deadline, perf_counter() + WINDOW_S)
            if recording:
                tracer.paused = False
            for _ in range(WINDOW):
                if perf_counter() >= window_end:
                    break
                if recording:
                    tracer.op = attempted
                attempted += 1
                start = perf_counter_ns()
                try:
                    await workload.op()
                    elapsed = perf_counter_ns() - start
                    problem = workload.verify()
                except ReproError as error:
                    problem = f"{type(error).__name__}: {error}"
                if problem is None:
                    sink.append(elapsed)
                else:
                    failed += 1
                    reason = reason or problem
            if recording:
                tracer.op = -1
                await quiesce(tracer)
                tracer.paused = True
            await workload.check_window()
            await quiesce(tracer)
        facts = await workload.finish()
    finally:
        await workload.close()
    return {
        "latencies_ns": latencies,
        "reference_ns": reference,
        "attempted": attempted,
        "failed": failed,
        "reason": reason,
        "facts": facts,
    }
