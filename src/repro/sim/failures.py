"""Crash-failure injection plans.

A :class:`FailurePlan` decorates any scheduler with timed or predicate-based
crashes so experiments can kill up to ``f`` base objects (and any number of
clients) mid-run without hand-writing a scheduler. Crashes fire *before* the
wrapped scheduler picks its next action, so a crash can pre-empt a response
that was about to be delivered — the nastiest asynchronous case.

For sweeps and fuzzing, :func:`seeded_crash_schedule` derives a complete
deterministic :class:`CrashSchedule` (victims and firing times) from a seed
by expanding SHA-256 over ``(seed, slot)`` pairs — the same derivation the
workload generators use for values — so two runs of the same scenario seed
crash the same objects and clients at the same simulated times, and the
sweep engine's byte-identical-JSON guarantee extends to crash runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ParameterError
from repro.sim.actions import Action
from repro.sim.schedulers import Scheduler

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.kernel import Simulation

CrashPredicate = Callable[["Simulation"], bool]


@dataclass
class BaseObjectCrash:
    """Crash base object ``bo_id`` when ``when`` first returns True."""

    bo_id: int
    when: CrashPredicate
    fired: bool = False


@dataclass
class ClientCrash:
    """Crash client ``name`` when ``when`` first returns True."""

    name: str
    when: CrashPredicate
    fired: bool = False


def at_time(time: int) -> CrashPredicate:
    """Crash once the simulation clock reaches ``time``."""
    return lambda sim: sim.time >= time


def after_ops_complete(count: int) -> CrashPredicate:
    """Crash once ``count`` operations have returned."""
    return lambda sim: len(sim.trace.completed_ops()) >= count


@dataclass
class FailurePlan(Scheduler):
    """Scheduler decorator that injects crashes.

    Wraps ``inner``; before each scheduling decision, fires any due crash
    (at most one per step, so traces stay readable).
    """

    inner: Scheduler
    bo_crashes: list[BaseObjectCrash] = field(default_factory=list)
    client_crashes: list[ClientCrash] = field(default_factory=list)

    def crash_base_object(self, bo_id: int, when: CrashPredicate) -> "FailurePlan":
        self.bo_crashes.append(BaseObjectCrash(bo_id, when))
        return self

    def crash_client(self, name: str, when: CrashPredicate) -> "FailurePlan":
        self.client_crashes.append(ClientCrash(name, when))
        return self

    def next_action(self, sim: "Simulation") -> Action | None:
        for crash in self.bo_crashes:
            if not crash.fired and crash.when(sim):
                crash.fired = True
                sim.crash_base_object(crash.bo_id)
                break
        else:
            for crash in self.client_crashes:
                if not crash.fired and crash.when(sim):
                    crash.fired = True
                    sim.crash_client(crash.name)
                    break
        return self.inner.next_action(sim)

    @property
    def fired_bo_crashes(self) -> int:
        """Base-object crashes that actually fired during the run."""
        return sum(1 for crash in self.bo_crashes if crash.fired)

    @property
    def fired_client_crashes(self) -> int:
        """Client crashes that actually fired during the run."""
        return sum(1 for crash in self.client_crashes if crash.fired)


# -------------------------------------------- seed-derived deterministic plans


def derive_draw(seed: int, tag: str, modulus: int, *,
                domain: str = "crash") -> int:
    """Deterministic pseudo-random draw in ``[0, modulus)`` from (seed, tag).

    SHA-256 based (like :func:`~repro.workloads.generators.make_value`), so
    the draw is stable across Python versions and processes — a property
    ``random.Random`` only promises for some of its methods. ``domain``
    namespaces independent consumers: crash schedules (``"crash"``, the
    historical stream — unchanged bytes for any existing seed), fault
    plans (``"fault"``, :mod:`repro.faults`), and client retry jitter
    (``"backoff"``, :mod:`repro.service.retry`) draw from disjoint
    streams even at equal ``(seed, tag)``.
    """
    if modulus < 1:
        raise ParameterError("derive_draw needs a positive modulus")
    digest = hashlib.sha256(f"{domain}:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % modulus


def _derive(seed: int, tag: str, modulus: int) -> int:
    return derive_draw(seed, tag, modulus, domain="crash")


@dataclass(frozen=True)
class CrashSchedule:
    """A fully determined crash plan: who dies, and at what simulated time.

    ``bo_victims`` and ``client_victims`` are ``(victim, time)`` pairs. The
    schedule is plain data — hashable, comparable, printable — so sweep
    records and tests can reason about it; :meth:`install` turns it into a
    live :class:`FailurePlan` around any scheduler. Firing order is
    deterministic: the plan fires at most one due crash per scheduling step,
    base objects before clients, each list in order.
    """

    bo_victims: tuple[tuple[int, int], ...] = ()
    client_victims: tuple[tuple[str, int], ...] = ()

    def install(self, inner: Scheduler) -> FailurePlan:
        """Wrap ``inner`` in a :class:`FailurePlan` realising this schedule."""
        plan = FailurePlan(inner)
        for bo_id, time in self.bo_victims:
            plan.crash_base_object(bo_id, at_time(time))
        for name, time in self.client_victims:
            plan.crash_client(name, at_time(time))
        return plan

    def __len__(self) -> int:
        return len(self.bo_victims) + len(self.client_victims)


def seeded_crash_schedule(
    seed: int,
    *,
    bo_count: int,
    bo_crashes: int,
    client_names: Sequence[str] = (),
    client_crashes: int = 0,
    start: int = 15,
    spacing: int = 13,
) -> CrashSchedule:
    """Derive a deterministic :class:`CrashSchedule` from ``seed``.

    Victim base objects are ``bo_crashes`` *distinct* ids drawn from
    ``range(bo_count)``; victim clients are ``client_crashes`` distinct
    names drawn from ``client_names``. Crash times start at ``start`` and
    advance by ``spacing`` plus a seed-derived jitter per slot, so no two
    crashes share a firing time and the firing *order* is itself part of
    the schedule. The caller is responsible for keeping ``bo_crashes``
    within the model's ``f`` budget.
    """
    if bo_crashes < 0 or client_crashes < 0:
        raise ParameterError("crash counts must be >= 0")
    if start < 0 or spacing < 1:
        # spacing is a jitter modulus and the guarantee that no two
        # crashes share a firing time; <= 0 would divide by zero or
        # produce colliding/decreasing times.
        raise ParameterError("need start >= 0 and spacing >= 1")
    if bo_crashes > bo_count:
        raise ParameterError(
            f"cannot crash {bo_crashes} of {bo_count} base objects"
        )
    if client_crashes > len(client_names):
        raise ParameterError(
            f"cannot crash {client_crashes} of {len(client_names)} clients"
        )
    times = [
        start + spacing * slot + _derive(seed, f"time{slot}", spacing)
        for slot in range(bo_crashes + client_crashes)
    ]
    remaining_bos = list(range(bo_count))
    bo_victims = []
    for slot in range(bo_crashes):
        index = _derive(seed, f"bo{slot}", len(remaining_bos))
        bo_victims.append((remaining_bos.pop(index), times[slot]))
    remaining_clients = list(client_names)
    client_victims = []
    for slot in range(client_crashes):
        index = _derive(seed, f"client{slot}", len(remaining_clients))
        client_victims.append(
            (remaining_clients.pop(index), times[bo_crashes + slot])
        )
    return CrashSchedule(tuple(bo_victims), tuple(client_victims))
