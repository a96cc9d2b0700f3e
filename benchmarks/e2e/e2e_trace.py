"""The traced pass: spans around each layer's public callables.

Tracing inside ``src/`` is a later issue. Here the benchmark wraps the
callables listed in :data:`TARGETS` for the duration of one pass and
restores them after; the untraced pass never imports this module's
wrappers, so end-to-end numbers are measured on unmodified code.

A span is ``(sid, name, start, end, parent, op, units)`` from
``perf_counter_ns``. Every traced callable is synchronous, so "the span
that is open when this one starts" is its parent even on an asyncio loop:
a task cannot be switched out in the middle of a synchronous call. Spans
go into one flat ``array('q')`` (no per-span Python objects for the
collector to walk) and are only read when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from e2e_stats import SPAN_FIELDS, layer_of, shares, span_totals


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` + dotted ``attr`` -> span ``name``.

    ``kind`` is ``"call"`` (time the call), ``"generator"`` (the callable
    returns a generator; time each ``send`` into it) — and ``subclasses``
    wraps the attribute on every loaded subclass that defines it, for
    abstract methods whose implementations live in subclasses.
    """

    module: str
    attr: str
    name: str
    units: Callable | None = None
    kind: str = "call"
    subclasses: bool = False


def _frame_bytes(tracer, args, result):
    """Bytes of one encoded frame; block payload bytes go to a counter."""
    tracer.counters["wire.block_bytes"] += sum(
        len(item.payload) for item in args[0] if hasattr(item, "payload")
    )
    return len(result)


def _encoded_bytes(tracer, args, result):
    """User bytes through ``encode_batch(self, values, indices)``."""
    return len(args[1]) * args[0].data_size_bytes


def _block_bytes(tracer, args, result):
    """User bytes through ``encode_block(self, value, index)``."""
    return args[0].data_size_bytes


def _generated_bytes(tracer, args, result):
    return sum(len(value) for values in result.values() for value in values)


#: Layer boundaries, by the names ISSUE 11 lists. Layer = the span name's
#: prefix; ``oracles`` is reported under ``share.coding`` (it lives in
#: ``repro.coding``) and ``registers`` is the protocol generators' code,
#: split out so ``kernel`` self time is the kernel's alone.
TARGETS = (
    Target("repro.service.wire", "encode_payload", "wire.encode",
           units=_frame_bytes),
    Target("repro.service.wire", "decode_payload", "wire.decode"),
    Target("repro.service.framing", "pack_frame", "framing.pack"),
    Target("repro.msgnet.protocol", "WriteOperation.start",
           "protocol.start"),
    Target("repro.msgnet.protocol", "WriteOperation.on_message",
           "protocol.client"),
    Target("repro.msgnet.protocol", "ReadOperation.start",
           "protocol.start"),
    Target("repro.msgnet.protocol", "ReadOperation.on_message",
           "protocol.client"),
    Target("repro.msgnet.protocol", "ServerProtocol.handle",
           "protocol.server"),
    Target("repro.service.journal", "ReplicaJournal.append",
           "journal.append"),
    Target("repro.coding.scheme", "CodingScheme.encode_batch",
           "coding.encode", units=_encoded_bytes, subclasses=True),
    # Overrides of the scalar shim bypass encode_batch (replication's
    # copy, Reed-Solomon's shard slice); the base shim delegates to it.
    Target("repro.coding.scheme", "CodingScheme.encode_block",
           "coding.encode", units=_block_bytes, subclasses=True),
    Target("repro.coding.scheme", "CodingScheme.decode_batch",
           "coding.decode", units=_encoded_bytes, subclasses=True),
    Target("repro.coding.gf256", "gf_matmul", "coding.kernel"),
    Target("repro.coding.oracles", "DecodeShareCache.decode",
           "oracles.decode"),
    Target("repro.coding.oracles", "BatchEncodePlan.__init__",
           "oracles.plan"),
    Target("repro.workloads.generators", "WorkloadSpec.write_values",
           "generators.values", units=_generated_bytes),
    Target("repro.sim.kernel", "Simulation.run", "kernel.run"),
    Target("repro.sim.kernel", "Simulation.register_rmw", "kernel.trigger"),
    Target("repro.storage.cost", "StorageLedger.on_trigger", "ledger.hook"),
    Target("repro.storage.cost", "StorageLedger.on_apply", "ledger.hook"),
    Target("repro.storage.cost", "StorageLedger.on_deliver", "ledger.hook"),
    Target("repro.storage.cost", "PeakTracker.__call__", "ledger.track"),
    Target("repro.registers.base", "RegisterProtocol.write_gen",
           "registers.step", kind="generator", subclasses=True),
    Target("repro.registers.base", "RegisterProtocol.read_gen",
           "registers.step", kind="generator", subclasses=True),
)

#: ``sim.schedulers`` has no callable to patch — the scheduler is an
#: argument — so the sim workload passes ``tracer.scheduler()`` instead.
SCHEDULER_SPAN = "scheduler.pick"


class Tracer:
    """Span recorder + the patches that feed it."""

    def __init__(self) -> None:
        self.buf = array("q")
        self.names: list[str] = []
        self.next_id = 0
        self.current = -1
        #: Index of the timed op in flight (-1 between ops). Replica work
        #: for op ``i`` that lands during op ``i + 1`` carries ``i + 1``.
        self.op = -1
        #: While paused (output checks) calls pass through unrecorded but
        #: still bump ``seen``, which is how the runner waits for quiet.
        self.paused = False
        self.seen = 0
        self.counters: Counter = Counter()
        #: layer -> names that could not be resolved at install time.
        self.missing: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str,
             units: Callable | None = None) -> Callable:
        """``fn`` with a span around each call."""
        code = self._code(name)
        tracer = self
        record = self.buf.extend
        now = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.seen += 1
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = tracer.current
            tracer.current = sid
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = now()
                tracer.current = parent
                record((sid, code, start, end, parent, tracer.op, 0))
                raise
            end = now()
            tracer.current = parent
            record((sid, code, start, end, parent, tracer.op,
                    units(tracer, args, result) if units else 0))
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """``fn`` returns a generator; span each ``send`` into it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _SpanGenerator(fn(*args, **kwargs), tracer, name)

        return traced

    def scheduler(self, inner):
        """``inner`` with a span around each ``next_action``."""
        return _SpanScheduler(inner, self)

    def spans(self) -> np.ndarray:
        """Every recorded span as an ``(n, 7)`` int64 array."""
        flat = np.frombuffer(self.buf, dtype=np.int64)
        return flat.reshape(-1, len(SPAN_FIELDS))

    # ------------------------------------------------------------- patches

    def install(self, targets=TARGETS) -> None:
        """Wrap every resolvable target; note the ones that are gone.

        A callable a later PR renamed costs that layer's metrics only:
        its name is kept in :attr:`missing` and the rest is unaffected.
        """
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError):
                self.missing.setdefault(layer_of(target.name), []).append(
                    f"{target.module}.{target.attr}"
                )

    def _install_one(self, target: Target) -> None:
        owner = importlib.import_module(target.module)
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            owners = _with_subclasses(owner) if target.subclasses else [owner]
            found = False
            for cls in owners:
                fn = cls.__dict__.get(leaf)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                found = True
                self._patches.append((cls, leaf, fn))
                setattr(cls, leaf, self._wrapper_for(fn, target))
            if not found:
                raise AttributeError(target.attr)
            return
        original = getattr(owner, leaf)
        wrapper = self._wrapper_for(original, target)
        # ``from module import name`` copies the reference, so every
        # module of the package that holds the original gets the wrapper.
        package = target.module.split(".", 1)[0]
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".", 1)[0] != package:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrapper_for(self, fn: Callable, target: Target) -> Callable:
        if target.kind == "generator":
            return self.wrap_generator(fn, target.name)
        return self.wrap(fn, target.name, target.units)

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


class _SpanGenerator:
    """A generator whose ``send`` is a span (the kernel only sends)."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self.send = tracer.wrap(inner.send, name)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _SpanScheduler:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.next_action = tracer.wrap(inner.next_action, SCHEDULER_SPAN)


# ------------------------------------------------------------ aggregation

#: Which layer's spans feed each share. Order is the order they print in.
SHARE_LAYERS = {
    "wire": ("wire",),
    "framing": ("framing",),
    "protocol": ("protocol",),
    "journal": ("journal",),
    "coding": ("coding", "oracles"),
    "generators": ("generators",),
    "scheduler": ("scheduler",),
    "kernel": ("kernel",),
    "ledger": ("ledger",),
    "registers": ("registers",),
}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, *, ops: int, timed_ns: int,
                  remainder: str, facts: dict,
                  fact_ops: int) -> dict[str, float | None]:
    """Every per-layer metric of one traced pass.

    ``ops`` and ``timed_ns`` are the recorded ops and their summed
    latency. ``facts`` carries the counts the program itself keeps
    (journal bytes, kernel actions, decode-cache hits) over all
    ``fact_ops`` timed ops of the pass, recorded or not. "Per op" is the
    pass total over ``ops`` — not per-op sums — because a replica outside
    the answering majority finishes its work during the next op. Metrics
    of a layer with a missing callable come back as ``None``.
    """
    totals = span_totals(tracer.spans(), tracer.names)

    def get(name: str, field: str) -> int:
        return totals.get(name, {}).get(field, 0)

    def us_per_op(name: str, field: str = "self_ns") -> float:
        return get(name, field) / 1e3 / ops

    def mb_per_s(name: str) -> float:
        return _per(get(name, "units") / 1e6,
                    get(name, "inclusive_ns") / 1e9)

    actions = facts.get("actions", 0) * ops / fact_ops
    wire_calls = get("wire.encode", "calls") + get("wire.decode", "calls")
    coding_ns = (get("coding.encode", "inclusive_ns")
                 + get("coding.decode", "inclusive_ns"))
    ledger_ns = get("ledger.hook", "self_ns") + get("ledger.track", "self_ns")
    ledger_calls = get("ledger.hook", "calls") + get("ledger.track", "calls")
    kernel_ns = get("kernel.run", "self_ns") + get("kernel.trigger", "self_ns")
    lookups = facts.get("decode_hits", 0) + facts.get("decode_misses", 0)
    metrics: dict[str, float | None] = {
        "wire.encode_us_per_op": us_per_op("wire.encode"),
        "wire.decode_us_per_op": us_per_op("wire.decode"),
        "wire.calls_per_op": wire_calls / ops,
        "wire.bytes_per_op": get("wire.encode", "units") / ops,
        "wire.expansion": _per(get("wire.encode", "units"),
                               tracer.counters["wire.block_bytes"]),
        "framing.us_per_op": us_per_op("framing.pack"),
        "protocol.client_us_per_op": (us_per_op("protocol.start")
                                      + us_per_op("protocol.client")),
        "protocol.server_us_per_op": us_per_op("protocol.server"),
        "protocol.msgs_per_op": (get("protocol.server", "calls")
                                 + get("protocol.client", "calls")) / ops,
        "journal.append_us_per_op": us_per_op("journal.append"),
        "journal.appends_per_op": get("journal.append", "calls") / ops,
        "journal.bytes_per_op": facts.get("journal_bytes", 0) / fact_ops,
        "coding.encode_us_per_op": us_per_op("coding.encode", "inclusive_ns"),
        "coding.decode_us_per_op": us_per_op("coding.decode", "inclusive_ns"),
        "coding.kernel_us_per_op": us_per_op("coding.kernel", "inclusive_ns"),
        "coding.kernel_share": _per(get("coding.kernel", "inclusive_ns"),
                                    coding_ns),
        "coding.encode_mb_per_s": mb_per_s("coding.encode"),
        "coding.decode_mb_per_s": mb_per_s("coding.decode"),
        "coding.calls_per_op": (get("coding.encode", "calls")
                                + get("coding.decode", "calls")) / ops,
        "generators.us_per_op": us_per_op("generators.values"),
        "generators.mb_per_s": mb_per_s("generators.values"),
        "scheduler.us_per_action": _per(
            get(SCHEDULER_SPAN, "self_ns") / 1e3, actions),
        "scheduler.picks_per_op": get(SCHEDULER_SPAN, "calls") / ops,
        "kernel.actions_per_op": actions / ops,
        "kernel.us_per_action": _per(kernel_ns / 1e3, actions),
        "ledger.us_per_action": _per(ledger_ns / 1e3, actions),
        "ledger.updates_per_op": ledger_calls / ops,
        "registers.us_per_op": us_per_op("registers.step"),
        "oracles.decode_cache_hit_rate": _per(
            facts.get("decode_hits", 0), lookups),
        "oracles.plan_us_per_op": us_per_op("oracles.plan", "inclusive_ns"),
    }
    self_by_layer: dict[str, int] = Counter()
    for name, entry in totals.items():
        self_by_layer[layer_of(name)] += entry["self_ns"]
    by_share = {
        share: sum(self_by_layer[layer] for layer in layers)
        for share, layers in SHARE_LAYERS.items()
    }
    covered = shares(by_share, timed_ns, remainder)
    for name in ("share.transport", "share.other"):
        covered.setdefault(name, 0.0)
    metrics.update(covered)
    if remainder == "transport":
        metrics["transport.us_per_op"] = (
            covered["share.transport"] * timed_ns / 1e3 / ops
        )
    else:
        metrics["transport.us_per_op"] = 0.0
    for layer in tracer.missing:
        for name in metrics:
            if name.startswith(f"{layer}.") or name == f"share.{layer}":
                metrics[name] = None
    return metrics
