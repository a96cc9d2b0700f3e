"""Executable black-box coding (Definition 5) and Lemma 1's argument.

Definition 5 says: in a black-box algorithm, replacing the value a write
``w`` feeds its encode oracle yields a run with *identical* client and
base-object states at every time — except that blocks sourced to ``w``
carry the new value's payloads. Lemma 1 weaponises this: pick the new
value *I-colliding* with the old one on exactly the indices ``w`` has in
storage; then even the payloads are unchanged, the two runs are fully
indistinguishable, and a solo reader must return the same value in both —
so it can never return ``w``'s value (which differs between the runs)
without violating regularity in one of them.

This module runs that argument on real registers:

1. record a run of ``c`` concurrent writes up to a cut predicate;
2. compute the replaced write's stored index set ``I`` and an I-colliding
   value (``repro.lowerbound.colliding``);
3. replay the *same action script* with the replaced value
   (:class:`~repro.sim.schedulers.ScriptedScheduler`);
4. mechanically verify Definition 5's state correspondence at the cut;
5. run a solo reader in both worlds and verify it returns identical bytes
   — and never the replaced write's (old or new) value.

Any register built on this package's oracles should pass; an algorithm
that sneaked payload bytes into its control flow would be caught at
step 3 or 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Type

from repro.errors import ParameterError, SchedulerExhausted
from repro.lowerbound.colliding import xor_bytes
from repro.registers.base import RegisterProtocol, RegisterSetup
from repro.sim.actions import Action
from repro.sim.kernel import Simulation
from repro.sim.schedulers import Scheduler, ScriptedScheduler, SoloClientScheduler
from repro.sim.trace import OpKind
from repro.storage.blockstore import collect_blocks
from repro.workloads.generators import make_value, writer_name


@dataclass
class RecordedRun:
    """A run plus the action script that produced it."""

    sim: Simulation
    actions: list[Action] = field(default_factory=list)


def record_run(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    values: list[bytes],
    scheduler: Scheduler,
    until,
    max_steps: int = 200_000,
) -> RecordedRun:
    """Run ``len(values)`` concurrent writers, recording the action script."""
    sim = Simulation(protocol_cls(setup))
    for index, value in enumerate(values):
        sim.add_client(writer_name(index)).enqueue_write(value)
    recorded = RecordedRun(sim)
    sim.run(
        scheduler,
        max_steps=max_steps,
        until=until,
        on_action=lambda _sim, action: recorded.actions.append(action),
    )
    return recorded


def replay_run(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    values: list[bytes],
    actions: list[Action],
) -> Simulation:
    """Re-execute a recorded action script on fresh state."""
    sim = Simulation(protocol_cls(setup))
    for index, value in enumerate(values):
        sim.add_client(writer_name(index)).enqueue_write(value)
    script = ScriptedScheduler(actions)
    sim.run(script, max_steps=len(actions) + 1)
    if not script.exhausted:
        raise ParameterError("replay diverged: script not fully consumed")
    return sim


def stored_indices_of(sim: Simulation, op_uid: int) -> set[int]:
    """Distinct block numbers of ``op_uid`` anywhere in the system.

    Includes base-object states, undelivered responses, and pending RMW
    parameters — every place a payload byte of the write exists outside
    its oracle.
    """
    indices: set[int] = set()

    def absorb(obj) -> None:
        for block in collect_blocks(obj):
            if block.source.op_uid == op_uid:
                indices.add(block.source.index)

    for base_object in sim.base_objects:
        if not base_object.crashed:
            absorb(base_object.state)
    for rmw in sim.applied.values():
        absorb(rmw.held)
    for rmw in sim.pending.values():
        absorb(rmw.args)
    return indices


def _block_map(sim: Simulation) -> dict[tuple, list[bytes]]:
    """Map every block location to its payload instances.

    Key: (region, source op, block number); value: sorted payload list.
    Two runs correspond (Definition 5) iff the maps agree modulo the
    replaced write's payloads.
    """
    mapping: dict[tuple, list[bytes]] = {}

    def absorb(region: tuple, obj) -> None:
        for block in collect_blocks(obj):
            key = (region, block.source.op_uid, block.source.index)
            mapping.setdefault(key, []).append(block.payload)
    for base_object in sim.base_objects:
        absorb(("bo", base_object.bo_id), base_object.state)
    for rmw in sim.applied.values():
        absorb(("resp", rmw.rmw_id), rmw.held)
    for rmw in sim.pending.values():
        absorb(("args", rmw.rmw_id), rmw.args)
    return {key: sorted(payloads) for key, payloads in mapping.items()}


@dataclass
class ReplacementReport:
    """Outcome of one Definition 5 / Lemma 1 experiment."""

    replaced_op_uid: int
    original_value: bytes
    replacement_value: bytes | None    # None: no collision existed (>= D bits)
    stored_indices: tuple[int, ...]
    states_correspond: bool            # Definition 5 item 2, at the cut
    reader_results_equal: bool
    reader_result: bytes | None
    reader_saw_replaced_write: bool    # would be a regularity violation

    @property
    def lemma1_consistent(self) -> bool:
        """The run exhibits exactly what Lemma 1 predicts."""
        if self.replacement_value is None:
            return True  # write pinned >= D bits; premise broken, no claim
        return (
            self.states_correspond
            and self.reader_results_equal
            and not self.reader_saw_replaced_write
        )


def _solo_read(sim: Simulation, max_steps: int = 50_000) -> bytes:
    """Run a fresh reader alone to completion and return its result."""
    reader = sim.add_client("solo-reader")
    reader.enqueue_read()
    result = sim.run(SoloClientScheduler("solo-reader"), max_steps=max_steps)
    read_ops = [
        op for op in sim.trace.ops.values()
        if op.kind is OpKind.READ and op.client == "solo-reader"
    ]
    if not read_ops or not read_ops[-1].complete:
        raise SchedulerExhausted(
            f"solo reader did not return within {result.steps} steps"
        )
    return read_ops[-1].result


def run_replacement_experiment(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    concurrency: int,
    scheduler: Scheduler,
    until,
    replaced_writer: int = 0,
    seed: int = 0,
    max_steps: int = 200_000,
) -> ReplacementReport:
    """Execute the full Definition 5 + Lemma 1 experiment.

    ``until`` defines the cut (e.g. "writer 0 has two pieces stored").
    The replaced write is ``replaced_writer``'s single write.
    """
    values = [
        make_value(setup, f"bb{index}", seed) for index in range(concurrency)
    ]
    original = record_run(
        protocol_cls, setup, values, scheduler, until, max_steps
    )
    target_uid = next(
        (
            op.op_uid
            for op in original.sim.trace.ops.values()
            if op.kind is OpKind.WRITE
            and op.client == writer_name(replaced_writer)
        ),
        None,
    )
    if target_uid is None:
        raise ParameterError("replaced writer never invoked its write")

    indices = stored_indices_of(original.sim, target_uid)
    scheme = original.sim.scheme
    delta = scheme.collision_delta(indices)
    if delta is None:
        return ReplacementReport(
            replaced_op_uid=target_uid,
            original_value=values[replaced_writer],
            replacement_value=None,
            stored_indices=tuple(sorted(indices)),
            states_correspond=True,
            reader_results_equal=True,
            reader_result=None,
            reader_saw_replaced_write=False,
        )
    replacement = xor_bytes(values[replaced_writer], delta)
    replaced_values = list(values)
    replaced_values[replaced_writer] = replacement

    mirror_sim = replay_run(protocol_cls, setup, replaced_values,
                            original.actions)

    # Definition 5, item 2: identical states except w's payloads, which
    # must equal E(replacement, i) — and on the stored (colliding) indices
    # they are bitwise identical to the original.
    original_map = _block_map(original.sim)
    mirror_map = _block_map(mirror_sim)
    correspond = set(original_map) == set(mirror_map)
    if correspond:
        for key, payloads in original_map.items():
            _region, op_uid, index = key
            mirror_payloads = mirror_map[key]
            if op_uid == target_uid:
                expected = scheme.encode_block(replacement, index)
                if any(p != expected for p in mirror_payloads):
                    correspond = False
                    break
                if index in indices and mirror_payloads != payloads:
                    correspond = False  # collision failed?!
                    break
            elif mirror_payloads != payloads:
                correspond = False
                break

    result_original = _solo_read(original.sim)
    result_mirror = _solo_read(mirror_sim)
    return ReplacementReport(
        replaced_op_uid=target_uid,
        original_value=values[replaced_writer],
        replacement_value=replacement,
        stored_indices=tuple(sorted(indices)),
        states_correspond=correspond,
        reader_results_equal=result_original == result_mirror,
        reader_result=result_original,
        reader_saw_replaced_write=result_original
        in (values[replaced_writer], replacement),
    )
