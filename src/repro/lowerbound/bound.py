"""The Theorem 1 experiment driver (Lemma 3 made executable).

:func:`run_lower_bound_experiment` invokes ``c`` concurrent writes against a
register under the freezing adversary :class:`AdAdversary` and runs until
Lemma 3's disjunction fires:

* ``|F(t)| > f`` — at least ``f + 1`` base objects each hold ``>= ell``
  bits, so storage is at least ``(f + 1) * ell``; or
* ``|C+(t)| = c`` — all ``c`` outstanding writes each contribute more than
  ``D - ell`` bits of distinct blocks, so storage is at least
  ``c * (D - ell + 1)`` (Observation 1).

The driver also verifies Corollary 1 along the way: no write may complete
before the disjunction fires (a completion would contradict Lemma 1 for a
correct black-box register).

Setting ``ell = D/2`` instantiates Theorem 1's bound
``min((f+1), c) * D/2 = Omega(min(f, c) * D)``; setting ``ell = D`` yields
Corollary 2 (algorithms that never hold a full replica in ``f + 1`` objects
pay ``Omega(cD)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from repro.analysis.bounds import lemma3_bound_bits
from repro.lowerbound.adversary import AdAdversary, AdSnapshot, compute_snapshot
from repro.registers.base import RegisterProtocol, RegisterSetup
from repro.sim.kernel import Simulation
from repro.storage.cost import StorageMeter
from repro.workloads.generators import make_value, writer_name


@dataclass
class LowerBoundOutcome:
    """What the adversary achieved."""

    fired: str                       # "frozen", "concurrency", "both" or "none"
    time: int
    steps: int
    storage_bits: int                # Definition 2 cost when fired
    bo_state_bits: int               # base-object-state share of the above
    frozen_count: int
    c_plus_count: int
    concurrency: int                 # the c the run was configured with
    f: int
    ell_bits: int
    data_bits: int
    writes_completed: int            # must stay 0 before firing (Corollary 1)
    snapshot: AdSnapshot

    @property
    def lemma3_bound_bits(self) -> int:
        """min((f+1) * ell, c * (D - ell + 1)) — the guaranteed storage."""
        return lemma3_bound_bits(
            self.f, self.concurrency, self.data_bits, self.ell_bits
        )

    @property
    def asymptotic_bound_bits(self) -> int:
        """min(f, c) * D / 2 — the shape of Omega(min(f, c) * D); Theorem 1
        itself is :func:`repro.analysis.bounds.theorem1_bound_bits`."""
        return min(self.f, self.concurrency) * self.data_bits // 2

    @property
    def bound_satisfied(self) -> bool:
        return self.storage_bits >= self.lemma3_bound_bits


def run_lower_bound_experiment(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    concurrency: int,
    ell_bits: int | None = None,
    max_steps: int = 500_000,
    seed: int = 0,
) -> LowerBoundOutcome:
    """Drive ``concurrency`` writes with Ad until Lemma 3 fires.

    Returns the outcome with the measured storage at the firing instant.
    ``fired == "none"`` means the budget ran out or the adversary starved
    everything first — for a correct lock-free register that indicates the
    parameters never force the disjunction (e.g. ``ell`` below the initial
    per-object load) and is surfaced for the caller to assert on.
    """
    ell = ell_bits if ell_bits is not None else setup.data_size_bits // 2
    protocol = protocol_cls(setup)
    sim = Simulation(protocol)
    for index in range(concurrency):
        client = sim.add_client(writer_name(index))
        client.enqueue_write(make_value(setup, f"lb{index}", seed))

    adversary = AdAdversary(ell_bits=ell)

    def fired_state(simulation: Simulation) -> str:
        snapshot = compute_snapshot(simulation, ell, adversary._frozen)
        frozen_fired = len(snapshot.frozen) > setup.f
        # C+ can only be "all outstanding writes" once all writes started.
        started = len(snapshot.c_plus) + len(snapshot.c_minus)
        c_plus_fired = started == concurrency and len(snapshot.c_plus) == concurrency
        if frozen_fired and c_plus_fired:
            return "both"
        if frozen_fired:
            return "frozen"
        if c_plus_fired:
            return "concurrency"
        return "none"

    run = sim.run(
        adversary,
        max_steps=max_steps,
        until=lambda simulation: fired_state(simulation) != "none",
    )
    fired = fired_state(sim)
    snapshot = compute_snapshot(sim, ell, adversary._frozen)
    meter = StorageMeter(sim)
    breakdown = meter.breakdown()
    completed_writes = sum(1 for op in sim.trace.writes() if op.complete)
    return LowerBoundOutcome(
        fired=fired,
        time=sim.time,
        steps=run.steps,
        storage_bits=breakdown.total_bits,
        bo_state_bits=breakdown.bo_state_bits,
        frozen_count=len(snapshot.frozen),
        c_plus_count=len(snapshot.c_plus),
        concurrency=concurrency,
        f=setup.f,
        ell_bits=ell,
        data_bits=setup.data_size_bits,
        writes_completed=completed_writes,
        snapshot=snapshot,
    )
