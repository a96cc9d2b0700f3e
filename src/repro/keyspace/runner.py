"""The sharded keyspace: million-key workloads over many registers.

Every workload elsewhere in this repository drives *one* register. This
module models the north star's "heavy traffic from millions of users"
scenario: ``keys`` logical keys are sharded onto ``shards`` register
instances (each its own ``n = 2f + k`` base-object pool) by a
consistent-hash ring, and a skewed stream of per-key operations is
driven through them in synchronous waves.

The mapping onto the paper's model is direct. A shard *is* a register;
clients writing different keys of the same shard are concurrent writers
of that register, so a shard's write concurrency in a wave — the paper's
``c`` — is simply the number of wave operations routed to it. Skew is
therefore the experiment's x-axis in disguise:

* ``uniform`` spreads a wave's operations over ~all shards, so per-shard
  ``c`` stays near ``wave_size / shards`` — concurrency spread thin;
* ``hotspot`` (fewer hot keys than shards) lands most of the wave on the
  few shards owning hot keys — concurrency concentrated, which is where
  coded-only storage grows like ``c * (n/k) * D`` while the adaptive
  register stays at ``(min(f, c) + 1) * (n/k) * D``.

Each ``(wave, shard)`` cell runs a fresh simulation to quiescence under
the fair scheduler through :func:`~repro.workloads.runner.run_workload`,
metered by the O(1) incremental
:class:`~repro.storage.cost.StorageLedger`, so aggregate Definition 2
bits across hundreds of shard runs stay cheap to track. Co-located
coded shards share one scheme object, one per-wave
:class:`~repro.coding.oracles.BatchEncodePlan` stacked over the *union*
write wave, and one :class:`~repro.coding.oracles.DecodeShareCache` —
the cross-shard twin of the single-register runner's batching, and pure
caching: measurements are identical with the pools disabled.

Per shard, the realized peak Definition 2 cost is checked against the
Theorem 1 floor at that shard's own maximum concurrency
(:func:`~repro.analysis.bounds.theorem1_bound_bits`) — the per-shard
lower-bound audit the keyspace benchmark asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.bounds import theorem1_bound_bits
from repro.coding.oracles import BatchEncodePlan, DecodeShareCache
from repro.coding.scheme import CodingScheme, MDSCodingScheme
from repro.errors import ParameterError, SchedulerExhausted
from repro.keyspace.hashing import HashRing
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CASRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.sim.kernel import Simulation
from repro.workloads.generators import (
    KEY_SKEWS,
    WorkloadSpec,
    cumulative_weights,
    make_value,
    sample_keys,
    skew_weights,
)
from repro.workloads.runner import Workload, run_workload

#: Registers the keyspace can shard over (ABD is the replication point).
KEYSPACE_REGISTERS = {
    "abd": ABDRegister,
    "adaptive": AdaptiveRegister,
    "cas": CASRegister,
    "coded-only": CodedOnlyRegister,
    "safe": SafeCodedRegister,
}


@dataclass(frozen=True)
class KeyspaceSpec:
    """Shape of one sharded-keyspace run — the experiment's free variables.

    ``keys`` is the keyspace size (ids ``0 .. keys-1``; a million keys is
    just a million-entry popularity vector — only *touched* keys cost
    simulation time). Each of ``waves`` waves draws ``wave_size`` write
    operations (and ``reads_per_wave`` reads) from the ``skew``
    distribution — every draw is one client with one outstanding
    operation, so repeated hot keys mean *concurrent* writers. ``seed``
    determines every draw and every written value.
    """

    keys: int
    shards: int
    register: str = "adaptive"
    f: int = 1
    k: int = 2
    data_size_bytes: int = 16
    skew: str = "uniform"
    zipf_s: float = 1.1
    hot_keys: int = 8
    hot_weight: float = 0.9
    waves: int = 4
    wave_size: int = 64
    reads_per_wave: int = 0
    vnodes: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.register not in KEYSPACE_REGISTERS:
            raise ParameterError(
                f"unknown register {self.register!r}; known: "
                f"{sorted(KEYSPACE_REGISTERS)}"
            )
        if self.skew not in KEY_SKEWS:
            raise ParameterError(
                f"unknown key skew {self.skew!r}; known: {KEY_SKEWS}"
            )
        if min(self.keys, self.shards, self.waves, self.wave_size) < 1:
            raise ParameterError(
                "keys, shards, waves, and wave_size must all be >= 1"
            )
        if self.reads_per_wave < 0:
            raise ParameterError("reads_per_wave must be >= 0")
        if self.register != "abd" and self.data_size_bytes % self.k != 0:
            raise ParameterError(
                "data_size_bytes must be divisible by k for coded shards"
            )

    @property
    def n(self) -> int:
        """Base objects per shard (``2f + k`` coded, ``2f + 1`` for ABD)."""
        if self.register == "abd":
            return 2 * self.f + 1
        return 2 * self.f + self.k

    @property
    def data_size_bits(self) -> int:
        return self.data_size_bytes * 8

    @property
    def total_ops(self) -> int:
        return self.waves * (self.wave_size + self.reads_per_wave)

    def weights(self) -> list[float]:
        """The popularity vector this spec's waves draw from."""
        return skew_weights(
            self.skew, self.keys, zipf_s=self.zipf_s,
            hot_keys=self.hot_keys, hot_weight=self.hot_weight,
        )


@dataclass
class ShardStats:
    """One shard's accumulated measurements across every wave.

    ``max_c`` is the shard's realized write concurrency (the largest
    write count any single wave routed to it) — the ``c`` its Theorem 1
    floor is evaluated at. ``peak_storage_bits`` is the largest
    Definition 2 cost (base-object state + channel-parked bits) observed
    at any action of any of its waves; ``final_bo_state_bits`` is the
    at-rest state after the shard's *last* wave settled (GC included).
    """

    shard: int
    waves_active: int = 0
    max_c: int = 0
    write_ops: int = 0
    read_ops: int = 0
    completed_writes: int = 0
    completed_reads: int = 0
    steps: int = 0
    peak_storage_bits: int = 0
    peak_bo_state_bits: int = 0
    final_bo_state_bits: int = 0
    thm1_floor_bits: int = 0

    @property
    def floor_ok(self) -> bool:
        """Peak Definition 2 bits meet the shard's own Theorem 1 floor."""
        return self.waves_active == 0 or (
            self.peak_storage_bits >= self.thm1_floor_bits
        )


@dataclass
class KeyspaceResult:
    """Everything a sharded run measured, per shard and in aggregate."""

    spec: KeyspaceSpec
    shard_stats: list[ShardStats]
    distinct_keys: int
    wall_clock_s: float = 0.0
    #: (wave, shard) -> write concurrency, for distribution diagnostics.
    wave_concurrency: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def active_shards(self) -> int:
        return sum(1 for stats in self.shard_stats if stats.waves_active)

    @property
    def max_shard_c(self) -> int:
        return max((stats.max_c for stats in self.shard_stats), default=0)

    @property
    def total_actions(self) -> int:
        return sum(stats.steps for stats in self.shard_stats)

    @property
    def completed_writes(self) -> int:
        return sum(stats.completed_writes for stats in self.shard_stats)

    @property
    def completed_reads(self) -> int:
        return sum(stats.completed_reads for stats in self.shard_stats)

    @property
    def aggregate_peak_storage_bits(self) -> int:
        """Sum of per-shard Definition 2 peaks (each at its own worst
        action — a per-shard-peak total, not one simultaneous snapshot)."""
        return sum(stats.peak_storage_bits for stats in self.shard_stats)

    @property
    def aggregate_peak_bo_state_bits(self) -> int:
        """Sum of per-shard base-object-state peaks (the Section 5 count)."""
        return sum(stats.peak_bo_state_bits for stats in self.shard_stats)

    @property
    def aggregate_final_bits(self) -> int:
        """At-rest base-object bits across all shards after settling."""
        return sum(stats.final_bo_state_bits for stats in self.shard_stats)

    @property
    def floor_violations(self) -> list[int]:
        """Shards whose measured peak fell below their Theorem 1 floor."""
        return [
            stats.shard for stats in self.shard_stats if not stats.floor_ok
        ]

    @property
    def actions_per_s(self) -> float:
        """Aggregate scheduler throughput across every shard simulation."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.total_actions / self.wall_clock_s


def _shard_setup(
    spec: KeyspaceSpec, scheme: CodingScheme | None
) -> RegisterSetup:
    if spec.register == "abd":
        return replication_setup(
            f=spec.f, data_size_bytes=spec.data_size_bytes
        )
    # Every coded shard's setup returns the *same* scheme object: the
    # BatchEncodePlan/DecodeShareCache pools key on scheme identity, so
    # object sharing is what lets co-located shards share one stacked
    # encode pass and one decode cache.
    return RegisterSetup(
        f=spec.f, k=spec.k, data_size_bytes=spec.data_size_bytes,
        scheme_factory=lambda _setup: scheme,
    )


def _shared_scheme(spec: KeyspaceSpec) -> CodingScheme | None:
    """One scheme object for all of a run's coded shards (None for ABD)."""
    if spec.register == "abd":
        return None
    template = RegisterSetup(
        f=spec.f, k=spec.k, data_size_bytes=spec.data_size_bytes
    )
    return template.build_scheme()


def _run_shard_wave(
    spec: KeyspaceSpec,
    setup: RegisterSetup,
    writes: list[tuple[int, bytes]],
    reads: int,
    wave: int,
    encode_plan: BatchEncodePlan | None,
    decode_cache: DecodeShareCache | None,
    stats: ShardStats,
    *,
    max_steps: int,
    audit_storage_every: int,
) -> None:
    """Run one shard's slice of one wave and fold it into ``stats``."""
    protocol = KEYSPACE_REGISTERS[spec.register](setup)
    sim = Simulation(protocol, keep_events=False)
    sim.encode_plan = encode_plan
    sim.decode_cache = decode_cache
    for slot, value in writes:
        client = sim.add_client(f"w{wave}.{slot}")
        client.enqueue_write(value)
    for reader in range(reads):
        client = sim.add_client(f"r{wave}.{reader}")
        client.enqueue_read()
    shape = WorkloadSpec(writers=len(writes), readers=reads)
    try:
        result = run_workload(
            Workload(sim, shape), max_steps=max_steps,
            audit_storage_every=audit_storage_every,
        )
    except SchedulerExhausted as exhausted:
        raise SchedulerExhausted(
            f"keyspace shard {stats.shard} wave {wave}: {exhausted}"
        ) from exhausted
    stats.waves_active += 1
    stats.max_c = max(stats.max_c, len(writes))
    stats.write_ops += len(writes)
    stats.read_ops += reads
    stats.completed_writes += result.completed_writes
    stats.completed_reads += result.completed_reads
    stats.steps += result.run.steps
    stats.peak_storage_bits = max(
        stats.peak_storage_bits, result.peak_storage_bits
    )
    stats.peak_bo_state_bits = max(
        stats.peak_bo_state_bits, result.peak_bo_state_bits
    )
    stats.final_bo_state_bits = result.final_bo_state_bits


def run_keyspace(
    spec: KeyspaceSpec,
    *,
    max_steps: int = 400_000,
    audit_storage_every: int = 0,
    progress: Callable[[int, int], None] | None = None,
) -> KeyspaceResult:
    """Drive ``spec``'s skewed key stream through its sharded registers.

    Wave by wave: draw the wave's keys, route them over the consistent
    hash ring, and run each loaded shard's register simulation to
    quiescence — all shards of a wave sharing one stacked encode plan
    over the union write wave (coded registers) and the run-wide decode
    cache. Deterministic end to end: the result is a pure function of
    ``spec`` and the engine knobs.

    ``audit_storage_every = N`` cross-checks every shard's incremental
    ledger against the full-walk reference meter every ``N`` actions.
    ``progress`` (if given) is called as ``progress(done_waves, waves)``.
    """
    ring = HashRing(spec.shards, vnodes=spec.vnodes)
    cum_weights = cumulative_weights(spec.weights())
    scheme = _shared_scheme(spec)
    setup = _shard_setup(spec, scheme)
    decode_cache = (
        DecodeShareCache(scheme)
        if isinstance(scheme, MDSCodingScheme) else None
    )
    stats = [ShardStats(shard=shard) for shard in range(spec.shards)]
    touched: set[int] = set()
    wave_concurrency: dict[tuple[int, int], int] = {}
    started = time.perf_counter()
    for wave in range(spec.waves):
        write_keys = sample_keys(
            cum_weights, spec.wave_size, spec.seed, f"wave{wave}.w"
        )
        read_keys = sample_keys(
            cum_weights, spec.reads_per_wave, spec.seed, f"wave{wave}.r"
        )
        touched.update(write_keys)
        touched.update(read_keys)
        writes_by_shard: dict[int, list[tuple[int, bytes]]] = {}
        wave_values: list[bytes] = []
        for slot, key in enumerate(write_keys):
            # Values are distinct per operation (same key, two clients,
            # two values) so concurrent hot-key writers are real writes,
            # not no-op overwrites.
            value = make_value(setup, f"key{key}.wave{wave}.op{slot}",
                               spec.seed)
            writes_by_shard.setdefault(ring.shard_of(key), []).append(
                (slot, value)
            )
            wave_values.append(value)
        reads_by_shard: dict[int, int] = {}
        for key in read_keys:
            shard = ring.shard_of(key)
            reads_by_shard[shard] = reads_by_shard.get(shard, 0) + 1
        encode_plan = None
        if isinstance(scheme, MDSCodingScheme) and len(wave_values) >= 2:
            # One stacked encode pass for the whole wave, shared by every
            # shard simulation the wave touches.
            encode_plan = BatchEncodePlan(
                scheme, wave_values, range(scheme.n)
            )
        for shard in sorted(set(writes_by_shard) | set(reads_by_shard)):
            shard_writes = writes_by_shard.get(shard, [])
            wave_concurrency[(wave, shard)] = len(shard_writes)
            _run_shard_wave(
                spec, setup, shard_writes, reads_by_shard.get(shard, 0),
                wave, encode_plan, decode_cache, stats[shard],
                max_steps=max_steps,
                audit_storage_every=audit_storage_every,
            )
        if progress is not None:
            progress(wave + 1, spec.waves)
    for shard_stats in stats:
        shard_stats.thm1_floor_bits = (
            theorem1_bound_bits(spec.f, shard_stats.max_c,
                                spec.data_size_bits)
            if shard_stats.max_c else 0
        )
    return KeyspaceResult(
        spec=spec,
        shard_stats=stats,
        distinct_keys=len(touched),
        wall_clock_s=round(time.perf_counter() - started, 6),
        wave_concurrency=wave_concurrency,
    )
