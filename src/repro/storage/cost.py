"""The storage-cost meter (Definitions 2 and 6 of the paper).

Definition 2 counts the bits of every block instance stored anywhere in the
system at a point in time. Concretely, at any time the meter sums block bits
over:

* every live base object's state (blocks the protocol stored),
* every applied-but-undelivered RMW response (the paper folds these into
  the base object's state: "all the responses of pending RMWs that took
  effect on it"),
* every triggered-but-unapplied RMW's parameters (part of the triggering
  client's state: "the parameters of its pending RMWs that have not yet
  taken effect" — this is how the paper charges algorithms that park data
  in channels).

Meta-data (timestamps, counters) is free, and coding-oracle state is free.

Definition 6's ``||S(t, w)||`` — the bits operation ``w`` contributes in
*distinct-index* blocks outside its own client — is provided by
:meth:`StorageMeter.op_contribution_bits`, with an optional base-object
restriction used by the adversary's ``C-(t)`` bookkeeping (Lemma 2 applies
it to ``B \\ F(t)``).

Two implementations measure the same quantity:

* :class:`ReferenceStorageMeter` re-walks every base-object state, applied
  response, and pending RMW at every query — the executable definition,
  O(system state) per query;
* :class:`StorageLedger` maintains the same sums as a **delta ledger**
  updated at the kernel's four mutation points (trigger / apply / deliver /
  crash) via :class:`~repro.sim.kernel.KernelListener` hooks, making every
  query O(1). The Definition 2 cost only changes at those transitions, so
  the ledger is exact, not approximate; :meth:`StorageLedger.audit` (and
  :class:`PeakTracker`'s ``audit_every``) asserts ledger == full walk.

:class:`StorageMeter` — the class every caller uses — reads the ledger for
Definition 2 queries and falls back to traversal only for the per-operation
Definition 6 accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import MeasurementError, ParameterError
from repro.sim.actions import RMW, Action
from repro.sim.kernel import KernelListener
from repro.storage.blockstore import collect_blocks, total_bits

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.kernel import Simulation


@dataclass
class CostBreakdown:
    """Where the bits live at one instant."""

    bo_state_bits: int
    undelivered_response_bits: int
    pending_args_bits: int

    @property
    def total_bits(self) -> int:
        return (
            self.bo_state_bits
            + self.undelivered_response_bits
            + self.pending_args_bits
        )


class ReferenceStorageMeter:
    """The executable Definition 2: a full state walk per query.

    This is the reference implementation the incremental ledger is audited
    against — O(system state) per call, with no cached state of its own, so
    it is correct even for simulations whose state was mutated behind the
    kernel's back (as some whitebox tests do).
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim

    # ------------------------------------------------------- Definition 2

    def bo_bits(self, bo_id: int) -> int:
        """Bits stored at base object ``bo_id`` (state + its undelivered
        responses). Crashed objects hold no retrievable bits."""
        base_object = self.sim.base_objects[bo_id]
        if base_object.crashed:
            return 0
        bits = sum(b.size_bits for b in collect_blocks(base_object.state))
        bits += sum(
            b.size_bits
            for rmw in self.sim.applied.values()
            if rmw.bo_id == bo_id
            for b in collect_blocks(rmw.held)
        )
        return bits

    def breakdown(self) -> CostBreakdown:
        bo_state_bits = sum(
            sum(b.size_bits for b in collect_blocks(bo.state))
            for bo in self.sim.base_objects
            if not bo.crashed
        )
        undelivered = sum(
            sum(b.size_bits for b in collect_blocks(rmw.held))
            for rmw in self.sim.applied.values()
            if not self.sim.base_objects[rmw.bo_id].crashed
        )
        pending = sum(
            sum(b.size_bits for b in collect_blocks(rmw.args))
            for rmw in self.sim.pending.values()
        )
        return CostBreakdown(bo_state_bits, undelivered, pending)

    def cost_bits(self) -> int:
        """Definition 2's storage cost at the current instant."""
        return self.breakdown().total_bits

    def bo_only_cost_bits(self) -> int:
        """Bits in base-object states alone (excluding channel occupancy).

        Useful for comparing against the paper's closed-form per-object
        bounds, which count ``Vp``/``Vf`` contents only.
        """
        return self.breakdown().bo_state_bits

    # ------------------------------------------------------- Definition 6

    def op_contribution_bits(
        self,
        op_uid: int,
        bo_subset: Iterable[int] | None = None,
        include_channels: bool = False,
    ) -> int:
        """``||S(t, w)||``: distinct-index bits of ``op_uid`` in storage.

        ``bo_subset`` restricts to those base objects (Lemma 2 uses
        ``B \\ F(t)``); ``None`` means all live objects. When
        ``include_channels`` is set, blocks riding in undelivered responses
        and in *other* clients' pending RMW parameters are counted too.
        """
        return self.ops_contribution_bits(
            [op_uid], bo_subset=bo_subset, include_channels=include_channels
        )[op_uid]

    def ops_contribution_bits(
        self,
        op_uids: Iterable[int],
        bo_subset: Iterable[int] | None = None,
        include_channels: bool = False,
    ) -> dict[int, int]:
        """``||S(t, w)||`` for many operations, in one state sweep.

        Semantics match per-op :meth:`op_contribution_bits` calls, but base
        object states and channels are traversed once for the whole uid set
        — the adversary evaluates every outstanding write at each decision
        point, which would otherwise rescan the system per write.
        """
        chosen = (
            set(bo_subset)
            if bo_subset is not None
            else {bo.bo_id for bo in self.sim.base_objects}
        )
        wanted = set(op_uids)
        seen: dict[int, dict[int, int]] = {uid: {} for uid in wanted}

        def absorb(obj: object) -> None:
            for block in collect_blocks(obj):
                per_op = seen.get(block.source.op_uid)
                if per_op is not None:
                    per_op[block.source.index] = block.size_bits

        for bo in self.sim.base_objects:
            if bo.crashed or bo.bo_id not in chosen:
                continue
            absorb(bo.state)
        if include_channels:
            for rmw in self.sim.applied.values():
                if rmw.bo_id in chosen:
                    absorb(rmw.held)
            trace_ops = self.sim.trace.ops
            owner_of = {
                uid: trace_ops[uid].client
                for uid in wanted
                if uid in trace_ops
            }
            for rmw in self.sim.pending.values():
                # An op's blocks in its *own* client's pending RMWs don't
                # count (Definition 6 charges storage outside the writer).
                for block in collect_blocks(rmw.args):
                    uid = block.source.op_uid
                    per_op = seen.get(uid)
                    if per_op is None:
                        continue
                    if owner_of.get(uid) == rmw.client_name:
                        continue
                    per_op[block.source.index] = block.size_bits
        return {uid: sum(indexed.values()) for uid, indexed in seen.items()}


class StorageLedger(KernelListener):
    """Incremental Definition 2 accounting: O(1) per query, exact.

    The ledger caches, per base object, the block bits of its state and of
    its applied-but-undelivered responses, and per pending RMW the bits of
    its parameters. Each cache entry changes at exactly one kernel
    transition, where the attached :class:`~repro.sim.kernel.KernelListener`
    hook applies the delta:

    * ``on_trigger`` adds the new RMW's parameter bits;
    * ``on_apply`` retires those parameter bits, adds the response bits,
      and re-walks *one* object's state (the only state that changed);
    * ``on_deliver`` retires the response bits (delivered or dropped);
    * ``on_bo_crash`` zeroes the crashed object's state and response bits
      and retires its dropped pending parameters;
    * ``on_client_crash`` is a no-op — a crashed client's pending
      parameters and applied responses remain in storage under Definition 2.

    The per-action cost is therefore O(bits that changed), not O(system
    state); a :class:`PeakTracker` sampling every action goes from
    O(actions x state) to O(total state churn).

    One sharp edge: the ledger trusts the kernel to be the only mutator.
    Code that rewrites ``base_object.state`` directly (whitebox tests)
    must call :meth:`resync` — or use :class:`ReferenceStorageMeter`.
    :meth:`audit` asserts ledger == full walk and names the first
    discrepancy.
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._bo_state_bits = [0] * len(sim.base_objects)
        self._bo_response_bits = [0] * len(sim.base_objects)
        self._args_bits: dict[int, int] = {}
        self._response_bits: dict[int, int] = {}
        self.bo_state_total = 0
        self.undelivered_total = 0
        self.pending_args_total = 0
        self.resync()

    def resync(self) -> None:
        """Reseed every cache from the current state (one full walk)."""
        self.bo_state_total = 0
        self.undelivered_total = 0
        self.pending_args_total = 0
        self._args_bits.clear()
        self._response_bits.clear()
        for bo in self.sim.base_objects:
            bits = 0 if bo.crashed else total_bits(bo.state)
            self._bo_state_bits[bo.bo_id] = bits
            self._bo_response_bits[bo.bo_id] = 0
            self.bo_state_total += bits
        for rmw in self.sim.pending.values():
            bits = total_bits(rmw.args)
            self._args_bits[rmw.rmw_id] = bits
            self.pending_args_total += bits
        for rmw in self.sim.applied.values():
            # Crashed objects never hold applied entries (crashes drop them).
            bits = total_bits(rmw.held)
            self._response_bits[rmw.rmw_id] = bits
            self._bo_response_bits[rmw.bo_id] += bits
            self.undelivered_total += bits

    # ------------------------------------------------------- kernel hooks

    def on_trigger(self, rmw: RMW) -> None:
        bits = total_bits(rmw.args)
        self._args_bits[rmw.rmw_id] = bits
        self.pending_args_total += bits

    def on_apply(self, rmw: RMW) -> None:
        self.pending_args_total -= self._args_bits.pop(rmw.rmw_id, 0)
        response_bits = total_bits(rmw.held)
        self._response_bits[rmw.rmw_id] = response_bits
        self._bo_response_bits[rmw.bo_id] += response_bits
        self.undelivered_total += response_bits
        new_state_bits = total_bits(self.sim.base_objects[rmw.bo_id].state)
        self.bo_state_total += new_state_bits - self._bo_state_bits[rmw.bo_id]
        self._bo_state_bits[rmw.bo_id] = new_state_bits

    def on_deliver(self, rmw: RMW) -> None:
        response_bits = self._response_bits.pop(rmw.rmw_id, 0)
        self._bo_response_bits[rmw.bo_id] -= response_bits
        self.undelivered_total -= response_bits

    def on_bo_crash(
        self,
        bo_id: int,
        dropped_pending: list[RMW],
        dropped_applied: list[RMW],
    ) -> None:
        for rmw in dropped_pending:
            self.pending_args_total -= self._args_bits.pop(rmw.rmw_id, 0)
        for rmw in dropped_applied:
            self.undelivered_total -= self._response_bits.pop(rmw.rmw_id, 0)
        self._bo_response_bits[bo_id] = 0
        self.bo_state_total -= self._bo_state_bits[bo_id]
        self._bo_state_bits[bo_id] = 0

    # ------------------------------------------------------------ queries

    def breakdown(self) -> CostBreakdown:
        return CostBreakdown(
            self.bo_state_total, self.undelivered_total, self.pending_args_total
        )

    def bo_bits(self, bo_id: int) -> int:
        if self.sim.base_objects[bo_id].crashed:
            return 0
        return self._bo_state_bits[bo_id] + self._bo_response_bits[bo_id]

    # -------------------------------------------------------------- audit

    def audit(self) -> None:
        """Assert ledger == reference full walk; raise on any divergence."""
        reference = ReferenceStorageMeter(self.sim)
        expected = reference.breakdown()
        actual = self.breakdown()
        if expected != actual:
            raise MeasurementError(
                f"storage ledger diverged from full walk: ledger={actual}, "
                f"reference={expected}"
            )
        for bo in self.sim.base_objects:
            if self.bo_bits(bo.bo_id) != reference.bo_bits(bo.bo_id):
                raise MeasurementError(
                    f"storage ledger diverged at base object {bo.bo_id}: "
                    f"ledger={self.bo_bits(bo.bo_id)}, "
                    f"reference={reference.bo_bits(bo.bo_id)}"
                )


class StorageMeter(ReferenceStorageMeter):
    """Measures storage cost of a running simulation — ledger-backed.

    Drop-in equal to :class:`ReferenceStorageMeter` (the randomized ledger
    parity suite asserts bit-identical results at every action), but
    Definition 2 queries read the simulation's shared
    :class:`StorageLedger` in O(1) instead of re-walking the system state.
    Definition 6 queries (:meth:`op_contribution_bits` and friends) still
    traverse — they need per-source block identities, not sums.
    """

    def __init__(self, sim: "Simulation") -> None:
        super().__init__(sim)
        self.ledger = sim.storage_ledger

    def bo_bits(self, bo_id: int) -> int:
        return self.ledger.bo_bits(bo_id)

    def breakdown(self) -> CostBreakdown:
        return self.ledger.breakdown()

    def audit(self) -> None:
        """Assert the backing ledger matches a reference full walk."""
        self.ledger.audit()


class PeakTracker:
    """Records the worst-case (and optionally the full series of) storage.

    Register it as ``on_action`` in :meth:`Simulation.run`; the paper's
    "storage cost of an algorithm" is the max over all times of all runs,
    which this tracker realises for one run. With a ledger-backed
    :class:`StorageMeter` each sample is O(1), so per-action tracking no
    longer dominates simulation wall-clock.

    ``audit_every = N`` cross-checks the incremental ledger against the
    full-walk reference every ``N`` actions (and raises
    :class:`~repro.errors.MeasurementError` on divergence) — the paranoid
    mode CI smoke runs use.
    """

    def __init__(
        self,
        meter: StorageMeter,
        keep_series: bool = False,
        audit_every: int = 0,
    ) -> None:
        if audit_every and not hasattr(meter, "audit"):
            # Fail loudly: a requested audit must never be a silent no-op.
            raise ParameterError(
                f"audit_every={audit_every} needs a meter with an audit() "
                f"method; {type(meter).__name__} has none"
            )
        self.meter = meter
        self.keep_series = keep_series
        self.audit_every = audit_every
        self.peak_bits = meter.cost_bits()
        self.peak_bo_only_bits = meter.bo_only_cost_bits()
        self.series: list[tuple[int, int]] = []
        self.actions_seen = 0

    def __call__(self, sim: "Simulation", action: Action) -> None:
        breakdown = self.meter.breakdown()
        total = breakdown.total_bits
        if total > self.peak_bits:
            self.peak_bits = total
        if breakdown.bo_state_bits > self.peak_bo_only_bits:
            self.peak_bo_only_bits = breakdown.bo_state_bits
        if self.keep_series:
            self.series.append((sim.time, total))
        self.actions_seen += 1
        if self.audit_every and self.actions_seen % self.audit_every == 0:
            self.meter.audit()
