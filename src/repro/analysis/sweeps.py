"""Regime-sweep engine: crossover curves over (scenario, n, k, f, c, D) grids.

The paper's headline result is a *shape*: adaptive storage follows
``Theta(min(f, c) * D)`` (Section 5), linear in concurrency like a coded
store before the crossover at ``c ~ k`` and flat like replication beyond
it. One grid point is a single workload run; reproducing the shape needs
*many* points — every register, many ``(f, k)`` regimes, a span of
concurrency levels, several value sizes, and (because the bounds are
adversarial) workloads with crashes and shaped load, not just crash-free
uniform writer waves. This module is the engine for that:

* :class:`SweepGrid` — declare the grid (cartesian or explicit) over
  register class, ``f``, ``k``, ``c``, ``D`` (optionally padded to expose
  the :class:`~repro.coding.padding.PaddedScheme` constants), and seed;
* :class:`Scenario` — the workload axis: a shape (uniform wave or one of
  the :mod:`~repro.workloads.patterns` generators) bound to an optional
  seed-derived deterministic crash plan
  (:func:`~repro.sim.failures.seeded_crash_schedule`);
* :func:`execute_cell` — run one ``scenario x point`` cell
  deterministically: one workload builder call, then
  :func:`~repro.workloads.runner.run_workload`, which meters it like
  every other simulation (:func:`repro.analysis.executor.run_sweep` is
  the one engine that runs the whole cell list — in-process at
  ``workers=1``, pooled above);
* :class:`SweepResult` — the measured table: renderable via
  :func:`~repro.analysis.tables.format_table`, serialisable to JSON
  (``benchmarks/results/``), sliceable into per-curve series.

Each record also carries the closed-form **reference overlays** of
:mod:`repro.analysis.bounds` — ``thm1_bits`` (this paper's Theorem 1),
``adaptive_bound_bits`` (Section 5), ``disintegrated_bits``
(Berger–Keidar–Spiegelman, arXiv:1805.06265) and ``lrc_floor_bits``
(Cadambe–Mazumdar, arXiv:1308.3200) — so measured curves can be plotted
against the literature.

The bounds are linear in ``D``, so sweeping ``D`` down to a few bytes
(with ``pad=True`` for sizes no code dimension divides) exposes the
additive terms the asymptotic curves hide: the 4-byte length prefix and
per-block rounding of :class:`~repro.coding.padding.PaddedScheme`, and the
per-block constants of small codewords.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from repro.analysis.bounds import (
    adaptive_upper_bound_bits,
    disintegrated_bound_bits,
    lrc_storage_floor_bits,
    theorem1_bound_bits,
)
from repro.analysis.tables import (
    flat_within,
    format_table,
    monotone_nondecreasing,
)
from repro.coding.padding import PaddedScheme
from repro.coding.reed_solomon import ReedSolomonCode
from repro.errors import ParameterError
from repro.keyspace import KeyspaceSpec, run_keyspace
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CASRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.sim.failures import CrashSchedule, seeded_crash_schedule
from repro.workloads import (
    WorkloadResult,
    WorkloadSpec,
    churn,
    read_heavy,
    run_workload,
    staggered_writers,
    uniform_wave,
)

# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class RegisterEntry:
    """One sweepable register: protocol class, setup builder, k-use flag.

    ``uses_k = False`` marks replication-based registers whose setup
    ignores the grid's code dimension (ABD: ``k = 1``, ``n = 2f + 1``);
    the grid canonicalises their points to ``k = 1`` so a cartesian
    product does not re-run byte-identical simulations once per k value.
    """

    cls: type
    build_setup: Callable[["SweepPoint"], RegisterSetup]
    uses_k: bool = True


def _padded_scheme_factory(setup: RegisterSetup) -> PaddedScheme:
    """Length-prefix-and-pad RS codec for D values no ``k`` divides."""
    return PaddedScheme(
        setup.data_size_bytes,
        setup.k,
        lambda padded_bytes: ReedSolomonCode(setup.k, setup.n, padded_bytes),
    )


def _coded_setup(point: "SweepPoint") -> RegisterSetup:
    if point.padded:
        return RegisterSetup(
            f=point.f, k=point.k, data_size_bytes=point.data_size_bytes,
            scheme_factory=_padded_scheme_factory,
        )
    return RegisterSetup(
        f=point.f, k=point.k, data_size_bytes=point.data_size_bytes
    )


#: Register classes the sweep engine can drive, by table name. ABD is the
#: ``k = 1`` (replication) point of the code space; every other register
#: uses the coded ``n = 2f + k`` setup.
REGISTER_REGISTRY: dict[str, RegisterEntry] = {
    "abd": RegisterEntry(
        ABDRegister,
        lambda p: replication_setup(f=p.f, data_size_bytes=p.data_size_bytes),
        uses_k=False,
    ),
    "coded-only": RegisterEntry(CodedOnlyRegister, _coded_setup),
    "cas": RegisterEntry(CASRegister, _coded_setup),
    "adaptive": RegisterEntry(AdaptiveRegister, _coded_setup),
    "safe": RegisterEntry(SafeCodedRegister, _coded_setup),
}


def register_uses_k(name: str) -> bool:
    """True when register ``name``'s setup honours the grid's ``k``."""
    if name not in REGISTER_REGISTRY:
        raise ParameterError(
            f"unknown register {name!r}; known: {sorted(REGISTER_REGISTRY)}"
        )
    return REGISTER_REGISTRY[name].uses_k


# -------------------------------------------------------------- scenarios


#: Workload shapes a :class:`Scenario` can bind, each with the workload
#: fields it reads. ``uniform`` is the paper's c-burst via
#: :func:`~repro.workloads.runner.uniform_wave`; the rest are the
#: :mod:`~repro.workloads.patterns` builders.
SCENARIO_PATTERNS = {
    "uniform": ("ops_per_client", "readers", "reads_per_reader"),
    "staggered": ("ops_per_client",),
    "read-heavy": ("readers", "reads_per_reader"),
    "churn": ("ops_per_client",),
}


@dataclass(frozen=True)
class Scenario:
    """One workload shape plus an optional deterministic failure plan.

    A scenario turns a grid point's ``(register, f, k, c, D, seed)`` into a
    concrete run. ``pattern`` picks the shape; ``c`` always drives the
    writer pool (uniform/staggered writers, read-heavy's writer side,
    churn's clients per wave), so the c-axis keeps meaning *write
    concurrency* across scenarios:

    * ``uniform`` — the classic burst: ``c`` writers x ``ops_per_client``
      writes, plus ``readers`` reader clients;
    * ``staggered`` — ``c`` writers pipelining ``ops_per_client`` writes
      back-to-back (sustained-load GC shape);
    * ``read-heavy`` — ``c`` writers against a fixed pool of ``readers``
      repeat readers (``reads_per_reader`` each, FW-termination stress);
    * ``churn`` — ``ops_per_client`` waves of ``c`` write-then-read
      clients (client-turnover shape).

    Setting a field the pattern does not read raises
    :class:`~repro.errors.ParameterError`.

    ``bo_crashes``/``client_crashes`` attach a seed-derived deterministic
    :class:`~repro.sim.failures.CrashSchedule`: base-object kills are
    clamped to the point's ``f`` budget, client kills to the first ``c``
    clients the builder created, and both fire at seed-jittered times
    starting at ``crash_start``. Same seed, same crash victims, same
    firing order — byte-identical sweep JSON extends to crash runs.
    """

    name: str
    pattern: str = "uniform"
    ops_per_client: int = 1
    readers: int = 0
    reads_per_reader: int = 1
    bo_crashes: int = 0
    client_crashes: int = 0
    crash_start: int = 15
    crash_spacing: int = 13

    def __post_init__(self) -> None:
        if self.pattern not in SCENARIO_PATTERNS:
            raise ParameterError(
                f"unknown scenario pattern {self.pattern!r}; known: "
                f"{tuple(SCENARIO_PATTERNS)}"
            )
        used = SCENARIO_PATTERNS[self.pattern]
        for field in fields(self):
            # uniform reads every workload field, so it names them all
            if (field.name in SCENARIO_PATTERNS["uniform"]
                    and field.name not in used
                    and getattr(self, field.name) != field.default):
                raise ParameterError(
                    f"pattern {self.pattern!r} does not use {field.name}"
                )
        if self.ops_per_client < 1:
            raise ParameterError("ops_per_client must be >= 1")
        if min(self.readers, self.reads_per_reader, self.bo_crashes,
               self.client_crashes) < 0:
            raise ParameterError("scenario counts must be >= 0")
        if self.crash_start < 0 or self.crash_spacing < 1:
            raise ParameterError(
                "need crash_start >= 0 and crash_spacing >= 1"
            )
        if self.pattern == "read-heavy" and self.readers < 1:
            raise ParameterError("read-heavy scenarios need readers >= 1")

    @property
    def has_crashes(self) -> bool:
        return bool(self.bo_crashes or self.client_crashes)

    def crash_schedule(
        self, point: "SweepPoint", n: int, clients: Iterable[str]
    ) -> CrashSchedule:
        """The point's deterministic crash plan (empty when crash-free).

        Client kills are drawn from the first ``c`` of ``clients`` (the
        built simulation's, in creation order: they exist from the first
        action, so every kill can fire). Base-object kills are clamped to
        ``f`` (the model's budget) and client kills to that cohort, so a
        scenario written for large grids degrades gracefully on small
        regimes instead of raising.
        """
        if not self.has_crashes:
            return CrashSchedule()
        cohort = tuple(itertools.islice(clients, point.c))
        return seeded_crash_schedule(
            point.seed,
            bo_count=n,
            bo_crashes=min(self.bo_crashes, point.f),
            client_names=cohort,
            client_crashes=min(self.client_crashes, len(cohort)),
            start=self.crash_start,
            spacing=self.crash_spacing,
        )


#: The default scenario: the paper's crash-free uniform writer wave.
UNIFORM_SCENARIO = Scenario("uniform")


# ------------------------------------------------------------------- grid


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a register run at fixed ``(f, k, c, D, seed)``.

    ``register`` names an entry of :data:`REGISTER_REGISTRY`; ``c`` is the
    paper's write-concurrency (the number of concurrent writer clients);
    ``data_size_bytes`` is ``D / 8``. The register's ``n`` is derived from
    its setup (``2f + k`` coded, ``2f + 1`` for ABD). ``padded`` codes the
    value through a :class:`~repro.coding.padding.PaddedScheme` (length
    prefix + zero pad), lifting the ``k | D`` divisibility requirement —
    the D-axis device for exposing small-D additive constants.
    """

    register: str
    f: int
    k: int
    c: int
    data_size_bytes: int
    seed: int = 0
    padded: bool = False

    def setup(self) -> RegisterSetup:
        """Build (and thereby validate) this point's register setup."""
        if self.register not in REGISTER_REGISTRY:
            raise ParameterError(
                f"unknown register {self.register!r}; known: "
                f"{sorted(REGISTER_REGISTRY)}"
            )
        if self.c < 1:
            raise ParameterError("concurrency c must be >= 1")
        return REGISTER_REGISTRY[self.register].build_setup(self)

    @property
    def n(self) -> int:
        return self.setup().n


@dataclass(frozen=True)
class SweepGrid:
    """An ordered set of sweep points (duplicates collapsed, order kept)."""

    points: tuple[SweepPoint, ...]

    @classmethod
    def explicit(cls, points: Iterable[SweepPoint]) -> "SweepGrid":
        """Build a grid from explicit points, validating each.

        Points of registers that ignore ``k`` (see
        :func:`register_uses_k`) are canonicalised to ``k = 1`` (and
        ``padded = False`` — replication shards nothing, so there is
        nothing to pad) before deduplication, so an ABD point appears —
        and runs — once per ``(f, c, D, seed)`` no matter how many k
        values the grid spans.
        """
        canonical = (
            point
            if register_uses_k(point.register)
            else replace(point, k=1, padded=False)
            for point in points
        )
        unique = tuple(dict.fromkeys(canonical))
        for point in unique:
            point.setup()
        return cls(unique)

    @classmethod
    def cartesian(
        cls,
        *,
        registers: Sequence[str],
        fs: Sequence[int],
        ks: Sequence[int],
        cs: Sequence[int],
        data_sizes: Sequence[int],
        seed: int = 0,
        pad: bool = False,
        where: Callable[[SweepPoint], bool] | None = None,
    ) -> "SweepGrid":
        """Cartesian product grid, optionally filtered by ``where``.

        Without ``pad``, ``data_sizes`` entries must be divisible by every
        ``k`` they meet (pick a multiple of ``lcm(ks)``), or use ``where``
        to skip the offending combinations; invalid surviving points raise
        :class:`~repro.errors.ParameterError` at grid-build time, not
        mid-sweep. With ``pad=True`` every coded point routes through a
        :class:`~repro.coding.padding.PaddedScheme`, which accepts any
        value size — the D-axis mode.
        """
        points = []
        for register, f, k, data, c in itertools.product(
            registers, fs, ks, data_sizes, cs
        ):
            point = SweepPoint(
                register=register, f=f, k=k, c=c,
                data_size_bytes=data, seed=seed, padded=pad,
            )
            if where is not None and not where(point):
                continue
            points.append(point)
        return cls.explicit(points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def nk_points(self) -> list[tuple[int, int]]:
        """Distinct ``(n, k)`` pairs the grid covers, sorted."""
        return sorted({(point.n, point.k) for point in self.points})


# ---------------------------------------------------------------- results


@dataclass(frozen=True)
class SweepRecord:
    """One executed ``scenario x grid-point`` cell: parameters,
    measurements, overlays.

    ``scenario`` names the :class:`Scenario` that shaped the run;
    ``bo_crashes``/``client_crashes`` count the crashes that actually
    *fired* (deterministic per seed — a scheduled kill may never fire if
    the run drains first). ``wall_clock_s`` is the measured wall-clock of
    the cell's simulation run and ``worker`` the pool-worker number that
    executed it (``0`` for in-process ``workers=1`` runs — see
    :mod:`repro.analysis.executor`). Both are *metadata*, not measurement:
    :meth:`SweepResult.to_json` can exclude them to obtain the
    deterministic byte-identical document two identical sweeps agree on —
    regardless of worker count.
    """

    register: str
    f: int
    k: int
    n: int
    c: int
    data_bits: int
    seed: int
    peak_bo_state_bits: int
    peak_storage_bits: int
    final_bo_state_bits: int
    completed_writes: int
    steps: int
    thm1_bits: int
    adaptive_bound_bits: int
    disintegrated_bits: int
    lrc_floor_bits: int
    scenario: str = "uniform"
    padded: bool = False
    completed_reads: int = 0
    bo_crashes: int = 0
    client_crashes: int = 0
    wall_clock_s: float = 0.0
    worker: int = 0


#: Per-record execution metadata: fields that describe *how* a cell ran
#: (how long, on which pool worker), never *what* it measured. These are
#: exactly the fields ``to_json(include_timing=False)`` strips so
#: determinism checks compare pure measurement payloads.
RECORD_METADATA_FIELDS = ("wall_clock_s", "worker")


@dataclass
class RecordTable:
    """A flat table of frozen-dataclass records plus rendering/IO helpers.

    The one container behind every sweep result; a concrete table names
    its record type, JSON schema version and default columns as class
    attributes and adds only the slicing helpers specific to its axes.
    """

    records: list

    #: The frozen dataclass every row is an instance of.
    RECORD: ClassVar[type]
    #: JSON document version written by :meth:`to_json`.
    VERSION: ClassVar[int]
    #: Default columns of :meth:`table`.
    COLUMNS: ClassVar[tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.records)

    def select(self, **filters: object) -> list:
        """Records whose fields equal every ``filters`` entry, in order."""
        return [
            record
            for record in self.records
            if all(getattr(record, key) == value for key, value in filters.items())
        ]

    def table(self, columns: Sequence[str] | None = None) -> str:
        """Render the records as an aligned monospace table."""
        columns = list(columns or self.COLUMNS)
        rows = [
            [getattr(record, column) for column in columns]
            for record in self.records
        ]
        return format_table(columns, rows)

    def to_json(self, include_timing: bool = True) -> str:
        """Serialise to a stable, versioned JSON document.

        ``include_timing=False`` drops the per-record execution metadata
        (:data:`RECORD_METADATA_FIELDS`), yielding the deterministic
        document two runs of the same cells agree on byte-for-byte — at
        any worker count (every *measured* field is deterministic — crash
        victims and firing order included, since crash plans are
        seed-derived; wall-clock and pool placement are not).
        """
        records = [asdict(record) for record in self.records]
        record_fields = [field.name for field in fields(self.RECORD)]
        if not include_timing:
            for metadata_field in RECORD_METADATA_FIELDS:
                record_fields.remove(metadata_field)
                for record in records:
                    del record[metadata_field]
        return json.dumps(
            {
                "version": self.VERSION,
                "record_fields": record_fields,
                "records": records,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str):
        """Rebuild a table from :meth:`to_json` output.

        Only the current version is read, and each record must carry
        exactly the record type's fields (the execution metadata, which
        has defaults, may be absent). Anything else raises
        :class:`~repro.errors.ParameterError` naming the unexpected and
        the missing fields.
        """
        document = json.loads(text)
        if document.get("version") != cls.VERSION:
            raise ParameterError(
                f"unsupported {cls.__name__} version "
                f"{document.get('version')!r} (this build reads "
                f"{cls.VERSION})"
            )
        record_fields = fields(cls.RECORD)
        names = {field.name for field in record_fields}
        required = {
            field.name for field in record_fields
            if field.default is MISSING and field.default_factory is MISSING
        }
        records = []
        for position, record in enumerate(document["records"]):
            unexpected = sorted(record.keys() - names)
            missing = sorted(required - record.keys())
            if unexpected or missing:
                raise ParameterError(
                    f"{cls.__name__} record {position} does not match "
                    f"{cls.RECORD.__name__}: unexpected fields "
                    f"{unexpected}, missing fields {missing}"
                )
            records.append(cls.RECORD(**record))
        return cls(records)

    def save(self, path: str | Path) -> Path:
        """Write the JSON document to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path):
        """Read a table back from a :meth:`save` file."""
        return cls.from_json(Path(path).read_text())


class SweepResult(RecordTable):
    """The measured register sweep: a :class:`RecordTable` of
    :class:`SweepRecord` rows plus per-curve slicing."""

    RECORD = SweepRecord
    # Held at 4 when a metadata field was dropped, so the pinned
    # timing-stripped documents stay byte-identical.
    VERSION = 4
    COLUMNS = (
        "scenario", "register", "f", "k", "n", "c", "data_bits",
        "peak_bo_state_bits", "thm1_bits", "disintegrated_bits",
        "adaptive_bound_bits", "lrc_floor_bits",
    )

    def series(
        self, y: str = "peak_bo_state_bits", x: str = "c", **filters: object
    ) -> list[tuple[int, int]]:
        """One curve: sorted ``(x, y)`` samples of the matching records."""
        return sorted(
            (getattr(record, x), getattr(record, y))
            for record in self.select(**filters)
        )

    def nk_points(self) -> list[tuple[int, int]]:
        """Distinct ``(n, k)`` pairs measured, sorted."""
        return sorted({(record.n, record.k) for record in self.records})

    def scenarios(self) -> list[str]:
        """Scenario names present, in record (sweep execution) order."""
        return list(dict.fromkeys(record.scenario for record in self.records))


def render_crossover_blocks(
    result: SweepResult, cs: Sequence[int]
) -> str:
    """Render one measured-vs-overlay table per scenario x coded regime.

    The shared renderer behind ``bench_crossover.py`` and
    ``bench_scenario_sweep.py``: rows are the measured per-register curves
    over ``cs`` (k-ignoring registers contribute their per-f curve),
    followed by the Theorem 1 / BKS'18 / LRC overlay rows. The caller
    pre-filters ``result`` to one ``(D, padded)`` slice; scenarios render
    as separate blocks.
    """
    blocks = []
    for scenario in result.scenarios():
        sub = SweepResult(result.select(scenario=scenario))
        registers = list(dict.fromkeys(r.register for r in sub.records))
        regimes = sorted(
            {(r.f, r.k) for r in sub.records if register_uses_k(r.register)}
        )
        for f, k in regimes:
            sample = sub.select(f=f, k=k, register="coded-only") or \
                sub.select(f=f, k=k)
            n = sample[0].n
            rows = []
            for register in registers:
                filters = (
                    dict(f=f, k=k) if register_uses_k(register) else dict(f=f)
                )
                series = dict(sub.series(register=register, **filters))
                rows.append([register] + [series.get(c, "-") for c in cs])
            by_c = {r.c: r for r in sample}
            for label, field in (
                ("~thm1 (lower bd)", "thm1_bits"),
                ("~bks18 (disint.)", "disintegrated_bits"),
                ("~lrc floor (r=2)", "lrc_floor_bits"),
            ):
                rows.append(
                    [label]
                    + [getattr(by_c[c], field) if c in by_c else "-"
                       for c in cs]
                )
            blocks.append(format_table(
                [f"{scenario} f={f} k={k} n={n}"] + [f"c={c}" for c in cs],
                rows,
            ))
    return "\n\n".join(blocks)


def crossover_shape_violations(result: SweepResult) -> list[str]:
    """Check the paper's cross-regime curve shapes; return violations.

    The two shape facts every crossover sweep must reproduce, checked per
    ``(scenario, D, padded)`` group so scenario and D axes never mix into
    one curve: ABD (replication) storage is flat in ``c`` at every ``f``,
    and coded-only storage is monotone nondecreasing in ``c`` at every
    ``(f, k)``.

    Crash scenarios get the failure-adapted form: a crashed base object's
    bits vanish from every later snapshot and a crashed writer may leave a
    partial wave, so exact flatness/monotonicity is only required up to a
    relative slack of ``fired crashes / n`` — the largest peak fraction a
    single victim can hide. Registers absent from ``result`` are skipped.
    An empty list means the shapes hold — the single criterion shared by
    ``repro report``, the crossover benchmark CLI, and the scenario-sweep
    smoke tests.
    """
    violations: list[str] = []
    groups = sorted(
        {(r.scenario, r.data_bits, r.padded) for r in result.records}
    )
    for scenario, data_bits, padded in groups:
        sub = SweepResult(
            result.select(scenario=scenario, data_bits=data_bits,
                          padded=padded)
        )
        slack = max(
            ((r.bo_crashes + r.client_crashes) / r.n for r in sub.records),
            default=0.0,
        )
        label = f"scenario={scenario} D={data_bits}"
        regimes = sorted(
            {(r.f, r.k) for r in sub.records if register_uses_k(r.register)}
        )
        for f, k in regimes:
            abd = [y for _, y in sub.series(f=f, register="abd")]
            if not flat_within(abd, slack=slack):
                violations.append(
                    f"ABD not flat in c at {label} f={f} "
                    f"(slack {slack:.2f}): {abd}"
                )
            coded = [y for _, y in sub.series(f=f, k=k, register="coded-only")]
            if not monotone_nondecreasing(coded, slack=slack):
                violations.append(
                    f"coded-only not monotone in c at {label} f={f}, k={k} "
                    f"(slack {slack:.2f}): {coded}"
                )
    return violations


# ----------------------------------------------------------------- engine


def _run_cell(
    scenario: Scenario,
    point: SweepPoint,
    *,
    max_steps: int,
    audit_storage_every: int,
) -> tuple[WorkloadResult, RegisterSetup, int, int]:
    """Execute one ``scenario x point`` cell: one builder call, then one
    :func:`~repro.workloads.runner.run_workload` (which raises
    :class:`~repro.errors.SchedulerExhausted` on a truncated run).

    Returns ``(outcome, setup, fired_bo, fired_client)``.
    """
    protocol_cls = REGISTER_REGISTRY[point.register].cls
    setup = point.setup()
    if scenario.pattern == "staggered":
        workload = staggered_writers(
            protocol_cls, setup, writers=point.c,
            writes_each=scenario.ops_per_client, seed=point.seed,
        )
    elif scenario.pattern == "read-heavy":
        workload = read_heavy(
            protocol_cls, setup, readers=scenario.readers,
            reads_each=scenario.reads_per_reader, writers=point.c,
            seed=point.seed,
        )
    elif scenario.pattern == "churn":
        workload = churn(
            protocol_cls, setup, waves=scenario.ops_per_client,
            clients_per_wave=point.c, seed=point.seed,
        )
    else:
        workload = uniform_wave(protocol_cls, setup, WorkloadSpec(
            writers=point.c, writes_per_writer=scenario.ops_per_client,
            readers=scenario.readers,
            reads_per_reader=scenario.reads_per_reader, seed=point.seed,
        ))
    schedule = scenario.crash_schedule(point, setup.n, workload.sim.clients)
    plans = []

    def configure(sim, scheduler):
        plans.append(schedule.install(scheduler))
        return plans[-1]

    outcome = run_workload(
        workload, max_steps=max_steps,
        configure=configure if len(schedule) else None,
        audit_storage_every=audit_storage_every,
    )
    fired_bo = plans[0].fired_bo_crashes if plans else 0
    fired_client = plans[0].fired_client_crashes if plans else 0
    return outcome, setup, fired_bo, fired_client


def normalize_scenarios(
    scenarios: Sequence[Scenario] | None,
) -> tuple[Scenario, ...]:
    """Resolve the scenario axis of a sweep call, validating it.

    ``scenarios = None`` is the single crash-free uniform wave
    (:data:`UNIFORM_SCENARIO`); an explicit sequence carries its shape on
    each :class:`Scenario` and must use distinct names.
    """
    if scenarios is None:
        return (UNIFORM_SCENARIO,)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ParameterError(f"duplicate scenario names: {names}")
    return tuple(scenarios)


def sweep_cells(
    grid: SweepGrid, scenarios: Sequence[Scenario]
) -> list[tuple[Scenario, SweepPoint]]:
    """The sweep's cell list: every ``scenario x point``, scenario-major.

    This ordering *is* the result-record ordering — the in-process loop
    runs it front to back, and a pool's outputs are merged back into it —
    so a cell's position here is its identity for checkpoint journals.
    """
    return [
        (scenario, point) for scenario in scenarios for point in grid
    ]


def execute_cell(
    scenario: Scenario,
    point: SweepPoint,
    *,
    max_steps: int = 400_000,
    lrc_locality: int = 2,
    audit_storage_every: int = 0,
    worker: int = 0,
) -> SweepRecord:
    """Run one ``scenario x point`` cell and build its :class:`SweepRecord`.

    The single record constructor: :func:`repro.analysis.executor.run_sweep`
    calls it in-process at ``workers=1`` (``worker = 0``) and from spawned
    pool workers above that — every field except the
    :data:`RECORD_METADATA_FIELDS` is a pure function of ``(scenario,
    point)`` and the keyword knobs, which is what makes pooled sweeps
    byte-identical to the in-process reference.
    """
    started = time.perf_counter()
    outcome, setup, fired_bo, fired_client = _run_cell(
        scenario, point, max_steps=max_steps,
        audit_storage_every=audit_storage_every,
    )
    wall_clock_s = round(time.perf_counter() - started, 6)
    data_bits = setup.data_size_bits
    return SweepRecord(
        register=point.register,
        f=point.f,
        k=point.k,
        n=setup.n,
        c=point.c,
        data_bits=data_bits,
        seed=point.seed,
        peak_bo_state_bits=outcome.peak_bo_state_bits,
        peak_storage_bits=outcome.peak_storage_bits,
        final_bo_state_bits=outcome.final_bo_state_bits,
        completed_writes=outcome.completed_writes,
        steps=outcome.run.steps,
        thm1_bits=theorem1_bound_bits(point.f, point.c, data_bits),
        adaptive_bound_bits=adaptive_upper_bound_bits(
            point.f, point.k, point.c, data_bits
        ),
        disintegrated_bits=disintegrated_bound_bits(
            point.f, point.c, data_bits
        ),
        lrc_floor_bits=lrc_storage_floor_bits(
            setup.n, point.f, data_bits, lrc_locality
        ),
        scenario=scenario.name,
        padded=point.padded,
        completed_reads=outcome.completed_reads,
        bo_crashes=fired_bo,
        client_crashes=fired_client,
        wall_clock_s=wall_clock_s,
        worker=worker,
    )


# ------------------------------------------------------- keyspace sweeps
#
# The keyspace axis: cells are whole sharded-keyspace runs
# (:func:`repro.keyspace.run_keyspace`) instead of single-register
# workloads, gridded over (skew, register, keys, shards). Cells stay
# pure functions of their spec + engine knobs — the property the
# executor's byte-identical merge (and these records' JSON determinism
# tests) rely on — so :func:`repro.analysis.executor.run_keyspace_sweep`
# runs them through the same pooled cell runner as register sweeps.


@dataclass(frozen=True)
class KeyspaceRecord:
    """One executed keyspace cell: the spec axes plus aggregate measures.

    ``aggregate_peak_storage_bits`` sums per-shard Definition 2 peaks
    (each shard at its own worst action); ``aggregate_thm1_floor_bits``
    sums each shard's Theorem 1 floor evaluated at that shard's realized
    write concurrency, and ``floor_violations`` counts shards whose peak
    fell below their own floor (0 everywhere or the sweep fails).
    ``wall_clock_s``/``worker`` are execution metadata
    exactly as on :class:`SweepRecord` (stripped by
    ``to_json(include_timing=False)``).
    """

    skew: str
    register: str
    f: int
    k: int
    n: int
    keys: int
    shards: int
    vnodes: int
    waves: int
    wave_size: int
    reads_per_wave: int
    data_bits: int
    seed: int
    zipf_s: float
    hot_keys: int
    hot_weight: float
    distinct_keys: int
    active_shards: int
    max_shard_c: int
    aggregate_peak_storage_bits: int
    aggregate_peak_bo_state_bits: int
    aggregate_final_bits: int
    aggregate_thm1_floor_bits: int
    floor_violations: int
    completed_writes: int
    completed_reads: int
    steps: int
    wall_clock_s: float = 0.0
    worker: int = 0


def keyspace_grid(
    *,
    skews: Sequence[str],
    registers: Sequence[str],
    keys: Sequence[int],
    shards: Sequence[int],
    f: int = 1,
    k: int = 2,
    data_size_bytes: int = 16,
    waves: int = 4,
    wave_size: int = 64,
    reads_per_wave: int = 0,
    zipf_s: float = 1.1,
    hot_keys: int = 8,
    hot_weight: float = 0.9,
    vnodes: int = 64,
    seed: int = 0,
) -> tuple[KeyspaceSpec, ...]:
    """Cartesian keyspace cell list over (skew, register, keys, shards).

    Each cell is a :class:`~repro.keyspace.KeyspaceSpec` (frozen, so the
    tuple is deduplicatable and pool-picklable); spec validation runs at
    grid-build time, mirroring :meth:`SweepGrid.explicit`.
    """
    specs = [
        KeyspaceSpec(
            keys=key_count, shards=shard_count, register=register, f=f,
            k=k, data_size_bytes=data_size_bytes, skew=skew,
            zipf_s=zipf_s, hot_keys=hot_keys, hot_weight=hot_weight,
            waves=waves, wave_size=wave_size,
            reads_per_wave=reads_per_wave, vnodes=vnodes, seed=seed,
        )
        for skew in skews
        for register in registers
        for key_count in keys
        for shard_count in shards
    ]
    return tuple(dict.fromkeys(specs))


def execute_keyspace_cell(
    spec: KeyspaceSpec,
    *,
    max_steps: int = 400_000,
    audit_storage_every: int = 0,
    worker: int = 0,
) -> KeyspaceRecord:
    """Run one keyspace cell and flatten it into its sweep record.

    Like :func:`execute_cell`, every field except the execution metadata
    is a pure function of ``(spec, knobs)`` — the pooled keyspace sweep
    is byte-identical to the ``workers=1`` one because of this.
    """
    started = time.perf_counter()
    outcome = run_keyspace(
        spec, max_steps=max_steps,
        audit_storage_every=audit_storage_every,
    )
    wall_clock_s = round(time.perf_counter() - started, 6)
    return KeyspaceRecord(
        skew=spec.skew,
        register=spec.register,
        f=spec.f,
        k=spec.k,
        n=spec.n,
        keys=spec.keys,
        shards=spec.shards,
        vnodes=spec.vnodes,
        waves=spec.waves,
        wave_size=spec.wave_size,
        reads_per_wave=spec.reads_per_wave,
        data_bits=spec.data_size_bits,
        seed=spec.seed,
        zipf_s=spec.zipf_s,
        hot_keys=spec.hot_keys,
        hot_weight=spec.hot_weight,
        distinct_keys=outcome.distinct_keys,
        active_shards=outcome.active_shards,
        max_shard_c=outcome.max_shard_c,
        aggregate_peak_storage_bits=outcome.aggregate_peak_storage_bits,
        aggregate_peak_bo_state_bits=outcome.aggregate_peak_bo_state_bits,
        aggregate_final_bits=outcome.aggregate_final_bits,
        aggregate_thm1_floor_bits=sum(
            stats.thm1_floor_bits for stats in outcome.shard_stats
        ),
        floor_violations=len(outcome.floor_violations),
        completed_writes=outcome.completed_writes,
        completed_reads=outcome.completed_reads,
        steps=outcome.total_actions,
        wall_clock_s=wall_clock_s,
        worker=worker,
    )


class KeyspaceSweepResult(RecordTable):
    """The measured keyspace sweep: a :class:`RecordTable` of
    :class:`KeyspaceRecord` rows (same timing-stripped determinism
    contract as :class:`SweepResult`)."""

    RECORD = KeyspaceRecord
    # Held at 2 when a metadata field was dropped, so the pinned
    # timing-stripped documents stay byte-identical.
    VERSION = 2
    COLUMNS = (
        "skew", "register", "keys", "shards", "max_shard_c",
        "aggregate_peak_bo_state_bits", "aggregate_peak_storage_bits",
        "aggregate_thm1_floor_bits", "floor_violations", "distinct_keys",
    )

    def skews(self) -> list[str]:
        """Skew names present, in record (sweep execution) order."""
        return list(dict.fromkeys(record.skew for record in self.records))


def keyspace_advantage_ratios(
    result: KeyspaceSweepResult,
    *,
    baseline: str = "coded-only",
    contender: str = "adaptive",
) -> dict[str, float]:
    """Per-skew storage-advantage ratio ``baseline / contender``.

    The crossover headline number: how many times more aggregate peak
    base-object storage the baseline register needs than the contender
    under each skew, at otherwise identical cells. Skews missing either
    register (or measured at mismatched shapes) are skipped.
    """
    ratios: dict[str, float] = {}
    for skew in result.skews():
        base = result.select(skew=skew, register=baseline)
        cont = result.select(skew=skew, register=contender)
        if len(base) != 1 or len(cont) != 1:
            continue
        if cont[0].aggregate_peak_bo_state_bits == 0:
            continue
        ratios[skew] = (
            base[0].aggregate_peak_bo_state_bits
            / cont[0].aggregate_peak_bo_state_bits
        )
    return ratios


def keyspace_shape_violations(result: KeyspaceSweepResult) -> list[str]:
    """Check the keyspace sweep's two required shapes; return violations.

    * **Floors** — every cell's shards all met their own Theorem 1 floor
      (``floor_violations == 0``).
    * **Crossover** — concentrating concurrency must widen the adaptive
      register's storage advantage: the coded-only/adaptive aggregate
      peak ratio under ``hotspot`` skew must strictly exceed the same
      ratio under ``uniform`` skew (checked when both skews carry both
      registers). This is the headline question the keyspace answers —
      spread thin, coded-only and adaptive track each other; on hot
      shards, coded-only pays ~``c`` codewords where adaptive caps at
      ``min(f, c) + 1``.

    An empty list means the shapes hold — the shared criterion of the
    keyspace benchmark, its tests, and ``repro keyspace``.
    """
    violations: list[str] = []
    for record in result.records:
        if record.floor_violations:
            violations.append(
                f"{record.skew}/{record.register}: "
                f"{record.floor_violations} shard(s) below their "
                f"Theorem 1 floor"
            )
    ratios = keyspace_advantage_ratios(result)
    if "uniform" in ratios and "hotspot" in ratios:
        if ratios["hotspot"] <= ratios["uniform"]:
            violations.append(
                "hot-key skew did not widen the adaptive advantage: "
                f"coded-only/adaptive ratio {ratios['hotspot']:.2f} "
                f"(hotspot) <= {ratios['uniform']:.2f} (uniform)"
            )
    return violations
