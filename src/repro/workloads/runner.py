"""The experiment runner: build a workload, then run it metered.

A builder (:func:`uniform_wave`, the paper's c-burst, or one of the
:mod:`~repro.workloads.patterns`) returns a :class:`Workload`;
:func:`run_workload` runs it and returns a :class:`WorkloadResult`
bundling the trace, the storage measurements, and the checker-ready
history. It is the one place a simulation is metered, so sweep cells,
pattern runs and keyspace shards take their Definition 2 peak the same
way. :func:`run_register_workload` does both steps in one call.

Because a builder knows every write value before the simulation starts,
:func:`new_simulation` pre-encodes the whole wave through one
:class:`~repro.coding.oracles.BatchEncodePlan` — the runner-side twin of
:func:`~repro.coding.oracles.prime_encode_oracles` — so a sweep with
hundreds of concurrent writers pays a single stacked
:meth:`~repro.coding.scheme.CodingScheme.encode_batch` pass instead of one
matrix multiplication per writer. Priming never changes payloads, source
tags, or storage measurements; ``prime_encodes=False`` restores fully lazy
encoding (useful when benchmarking the encode path itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Type

from repro.coding.oracles import BatchEncodePlan, DecodeShareCache
from repro.coding.scheme import MDSCodingScheme
from repro.errors import SchedulerExhausted
from repro.registers.base import RegisterProtocol, RegisterSetup
from repro.sim.kernel import RunResult, Simulation
from repro.sim.schedulers import FairScheduler, Scheduler
from repro.sim.trace import EventLog, Trace
from repro.storage.cost import PeakTracker, StorageMeter
from repro.workloads.generators import WorkloadSpec, reader_name


@dataclass
class Workload:
    """A built register simulation that has not run yet.

    ``sim`` has the clients that start at once enqueued; each of
    ``phases`` enqueues a later stage (churn's waves 1 and up) once the
    one before it is quiescent. ``spec`` describes the schedule's shape
    (total writers, writes per writer, readers).
    """

    sim: Simulation
    spec: WorkloadSpec
    phases: list[Callable[[Simulation], None]] = field(default_factory=list)


@dataclass
class WorkloadResult:
    """Everything an experiment wants to know about one run.

    The storage fields are the paper's two cost notions, measured at every
    scheduler action over the run:

    * ``peak_storage_bits`` — the Definition 2 cost: base-object states
      *plus* everything parked in the channels (pending RMW arguments and
      undelivered responses). This is the quantity Theorem 1 lower-bounds
      and the reason channel-parking (Section 3.2) cannot evade it.
    * ``peak_bo_state_bits`` — base-object state only, the quantity the
      paper's upper-bound analyses (Section 5) count; ``final_bo_state_bits``
      is the same measure after quiescence (i.e. after garbage collection
      has settled).

    ``series`` (when requested via ``keep_series``) holds ``(time, bits)``
    samples of the Definition 2 cost; ``history`` rebuilds the
    invoke/return operation history the Appendix A checkers consume.
    """

    sim: Simulation
    run: RunResult
    peak_storage_bits: int
    peak_bo_state_bits: int
    final_bo_state_bits: int
    spec: WorkloadSpec | None = None
    series: list[tuple[int, int]] = field(default_factory=list)

    @property
    def trace(self) -> Trace:
        return self.sim.trace

    @property
    def history(self) -> "History":
        """Checker-ready history of this run."""
        from repro.spec.histories import History

        return History.from_trace(self.sim.trace, self.sim.protocol.setup.v0())

    @property
    def completed_writes(self) -> int:
        return sum(1 for op in self.trace.writes() if op.complete)

    @property
    def completed_reads(self) -> int:
        return sum(1 for op in self.trace.reads() if op.complete)

    @property
    def total_rmw_applies(self) -> int:
        return self.trace.rmw_count()


def new_simulation(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    wave: list[bytes],
    *,
    keep_events: bool = False,
    prime_encodes: bool = True,
    share_decodes: bool = True,
) -> Simulation:
    """A fresh simulation with the coding fast paths installed for ``wave``.

    ``prime_encodes`` pre-encodes the write wave when a stacked pass saves
    work: only MDS matrix codes with two or more values benefit
    (replication's "encode" is a copy; rateless schemes have no fixed
    codeword). ``share_decodes`` lets readers assembling the same block
    set share one decode pass through a
    :class:`~repro.coding.oracles.DecodeShareCache`. Both are caches only
    and never change any measurement. ``keep_events`` attaches an
    :class:`~repro.sim.trace.EventLog`, filling ``sim.trace.events``.
    """
    sim = Simulation(protocol_cls(setup))
    if keep_events:
        sim.attach(EventLog(sim))
    if (prime_encodes and len(wave) >= 2
            and isinstance(sim.scheme, MDSCodingScheme)):
        sim.encode_plan = BatchEncodePlan(
            sim.scheme, wave, range(sim.scheme.n)
        )
    if share_decodes:
        sim.decode_cache = DecodeShareCache(sim.scheme)
    return sim


def uniform_wave(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    spec: WorkloadSpec | None = None,
    *,
    keep_events: bool = False,
    prime_encodes: bool = True,
    share_decodes: bool = True,
) -> Workload:
    """The paper's c-burst: every writer and reader of ``spec`` enqueued
    at once (the concurrency ``c`` equals ``spec.writers`` — each client
    keeps at most one write outstanding)."""
    spec = spec or WorkloadSpec()
    values = spec.write_values(setup)
    sim = new_simulation(
        protocol_cls, setup,
        [value for per_writer in values.values() for value in per_writer],
        keep_events=keep_events, prime_encodes=prime_encodes,
        share_decodes=share_decodes,
    )
    for name, per_writer in values.items():
        client = sim.add_client(name)
        for value in per_writer:
            client.enqueue_write(value)
    for index in range(spec.readers):
        client = sim.add_client(reader_name(index))
        for _ in range(spec.reads_per_reader):
            client.enqueue_read()
    return Workload(sim, spec)


def run_workload(
    workload: Workload,
    scheduler: Scheduler | None = None,
    max_steps: int = 400_000,
    *,
    keep_series: bool = False,
    require_quiescence: bool = True,
    configure: Callable[[Simulation, Scheduler], Scheduler] | None = None,
    audit_storage_every: int = 0,
) -> WorkloadResult:
    """Run ``workload`` and every later phase, metering storage throughout.

    One :class:`~repro.storage.cost.PeakTracker` samples the Definition 2
    cost and the base-object state after every action of every phase;
    ``max_steps`` budgets the whole run. ``configure`` may wrap the
    scheduler (e.g. in a :class:`~repro.sim.failures.FailurePlan`) before
    anything runs, so a crash plan spans phase boundaries.
    ``require_quiescence`` raises :class:`SchedulerExhausted` if the budget
    runs out first — which, for fair schedulers and FW-terminating
    registers, indicates a liveness bug worth failing loudly on: a
    truncated run must never masquerade as a measured one.
    ``audit_storage_every = N`` cross-checks the incremental storage ledger
    against the full-walk reference meter every ``N`` actions (CI smoke
    runs use this).
    """
    sim = workload.sim
    scheduler = scheduler or FairScheduler()
    if configure is not None:
        scheduler = configure(sim, scheduler)
    meter = StorageMeter(sim)
    tracker = PeakTracker(
        meter, keep_series=keep_series, audit_every=audit_storage_every
    )
    steps = 0
    for phase in (None, *workload.phases):
        if phase is not None:
            phase(sim)
        run = sim.run(scheduler, max_steps=max_steps - steps, on_action=tracker)
        steps += run.steps
        if not run.quiescent:
            break
    run = replace(run, steps=steps)
    if require_quiescence and run.exhausted:
        spec = workload.spec
        raise SchedulerExhausted(
            f"{sim.protocol.name}: {max_steps} steps without quiescence "
            f"({spec.writers} writers, {spec.readers} readers)"
        )
    return WorkloadResult(
        sim=sim,
        run=run,
        peak_storage_bits=tracker.peak_bits,
        peak_bo_state_bits=tracker.peak_bo_only_bits,
        final_bo_state_bits=meter.bo_only_cost_bits(),
        spec=workload.spec,
        series=tracker.series,
    )


def run_register_workload(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    spec: WorkloadSpec | None = None,
    scheduler: Scheduler | None = None,
    max_steps: int = 400_000,
    keep_series: bool = False,
    keep_events: bool = False,
    require_quiescence: bool = True,
    configure: Callable[[Simulation, Scheduler], Scheduler] | None = None,
    prime_encodes: bool = True,
    share_decodes: bool = True,
    audit_storage_every: int = 0,
) -> WorkloadResult:
    """Run ``spec``'s uniform wave against a fresh register: the
    experiment primitive behind the examples and most benchmarks.
    :func:`uniform_wave` then :func:`run_workload`, with their keywords."""
    workload = uniform_wave(
        protocol_cls, setup, spec, keep_events=keep_events,
        prime_encodes=prime_encodes, share_decodes=share_decodes,
    )
    return run_workload(
        workload, scheduler, max_steps, keep_series=keep_series,
        require_quiescence=require_quiescence, configure=configure,
        audit_storage_every=audit_storage_every,
    )
