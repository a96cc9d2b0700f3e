"""Schedulers: the paper's "environment".

A scheduler picks the next enabled action. Three non-adversarial policies
live here; the paper's freezing adversary Ad (Definition 7) lives in
:mod:`repro.lowerbound.adversary` and plugs into the same interface.

* :class:`FairScheduler` produces *fair runs* (Appendix A): every pending
  RMW on a live object is eventually applied and delivered, and every
  runnable client is eventually stepped. It rotates between the three action
  categories and serves each category FIFO.
* :class:`RandomScheduler` picks uniformly among enabled actions from a
  seeded RNG. Random runs are fair with probability 1 and are the fuzzing
  workhorse for the consistency checkers.
* :class:`SequentialScheduler` runs one client's outstanding operation to
  completion before touching another client — it generates sequential
  histories for sanity baselines.
"""

from __future__ import annotations

import random
import weakref
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING

from repro.sim.actions import Action, ActionKind

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.kernel import Simulation


class Scheduler(ABC):
    """Strategy interface: choose the next enabled action, or ``None``."""

    @abstractmethod
    def next_action(self, sim: "Simulation") -> Action | None:
        """Return the next action to execute, or ``None`` when quiescent."""


class FairScheduler(Scheduler):
    """Round-robin over action categories, FIFO within each.

    Rotating categories guarantees that neither client steps nor memory
    actions can starve the other; FIFO within a category guarantees no
    individual RMW or client starves within it.
    """

    _CATEGORIES = (ActionKind.APPLY, ActionKind.DELIVER, ActionKind.STEP_CLIENT)

    def __init__(self) -> None:
        self._rotation = 0
        # Never-stepped clients first (in arrival order), then stepped
        # clients least-recently-stepped first; a pick scans past blocked
        # clients without reordering them. Per-simulation state, reset for
        # a new simulation (a weak sentinel: reuse must not pin old runs).
        self._sim_ref: "weakref.ref[Simulation] | None" = None
        self._fresh: deque[str] = deque()
        self._stepped: deque[str] = deque()
        self._known: set[str] = set()

    def next_action(self, sim: "Simulation") -> Action | None:
        if self._sim_ref is None or self._sim_ref() is not sim:
            self._sim_ref = weakref.ref(sim)
            self._fresh.clear()
            self._stepped.clear()
            self._known.clear()
        for offset in range(len(self._CATEGORIES)):
            category = self._CATEGORIES[
                (self._rotation + offset) % len(self._CATEGORIES)
            ]
            action = self._pick(sim, category)
            if action is not None:
                self._rotation = (
                    self._rotation + offset + 1
                ) % len(self._CATEGORIES)
                return action
        return None

    def _pick(self, sim: "Simulation", category: ActionKind) -> Action | None:
        if category is ActionKind.APPLY:
            rmw = sim.first_appliable()
            if rmw is not None:
                return Action(ActionKind.APPLY, rmw.rmw_id)
            return None
        if category is ActionKind.DELIVER:
            rmw = sim.first_deliverable()
            if rmw is not None:
                return Action(ActionKind.DELIVER, rmw.rmw_id)
            return None
        if len(self._known) != len(sim.clients):
            for name in sim.clients:
                if name not in self._known:
                    self._known.add(name)
                    self._fresh.append(name)
        for queue in (self._fresh, self._stepped):
            crashed: list[str] = []
            chosen: str | None = None
            for name in queue:
                client = sim.clients[name]
                if client.crashed:
                    crashed.append(name)
                    continue
                if client.runnable():
                    chosen = name
                    break
            # Crashes are final, so crashed clients leave the rotation for
            # good (they stay in _known, which only guards re-admission).
            for name in crashed:
                queue.remove(name)
            if chosen is not None:
                queue.remove(chosen)
                self._stepped.append(chosen)
                return Action(ActionKind.STEP_CLIENT, chosen)
        return None


class RandomScheduler(Scheduler):
    """Uniformly random enabled action from a seeded RNG.

    One ``randrange`` over the category counts — runnable clients,
    appliable RMWs, deliverable responses — indexes into the kernel's
    sampling arrays (built on the first draw), so a draw costs O(clients):
    every enabled action is equally likely, reproducibly per seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def next_action(self, sim: "Simulation") -> Action | None:
        runnable = sim.runnable_clients()
        steps = len(runnable)
        applies = sim.appliable_count()
        delivers = sim.deliverable_count()
        total = steps + applies + delivers
        if total == 0:
            return None
        draw = self.rng.randrange(total)
        if draw < steps:
            return Action(ActionKind.STEP_CLIENT, runnable[draw].name)
        draw -= steps
        if draw < applies:
            return Action(ActionKind.APPLY, sim.appliable_nth(draw).rmw_id)
        return Action(
            ActionKind.DELIVER, sim.deliverable_nth(draw - applies).rmw_id
        )


class ScriptedScheduler(Scheduler):
    """Replay a recorded action sequence verbatim.

    Used by the black-box replacement experiment (Definition 5): two runs
    that execute the same script are identical except for the payload bytes
    of the replaced write — provided the algorithm really is black-box.
    Replaying is sound because action targets (client names, RMW ids) are
    assigned deterministically by trigger order, which the script fixes.
    """

    def __init__(self, actions: list[Action]) -> None:
        self.actions = list(actions)
        self.position = 0

    def next_action(self, sim: "Simulation") -> Action | None:
        if self.position >= len(self.actions):
            return None
        action = self.actions[self.position]
        self.position += 1
        return action

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.actions)


class SoloClientScheduler(Scheduler):
    """Schedule only one client's actions; everyone else is frozen.

    This is the paper's "solo read" device (Lemma 1): after the cut, the
    adversary lets a single reader run while all other clients' pending
    RMWs never take effect.
    """

    def __init__(self, client_name: str) -> None:
        self.client_name = client_name

    def next_action(self, sim: "Simulation") -> Action | None:
        return _serve(sim, self.client_name)


class SequentialScheduler(Scheduler):
    """Run each client's operation to completion before the next client.

    Produces sequential (no-concurrency) histories. Clients are served in
    name order; memory actions of the active client are served before its
    next local step so each round completes synchronously.
    """

    def __init__(self) -> None:
        self._sim_ref: "weakref.ref[Simulation] | None" = None
        self._sorted_names: list[str] = []

    def next_action(self, sim: "Simulation") -> Action | None:
        # Clients are only ever added (never renamed or removed), so the
        # sorted-name cache refreshes on growth — or on a new simulation
        # (weak sentinel: reuse must not pin the previous run in memory).
        if (
            self._sim_ref is None
            or self._sim_ref() is not sim
            or len(self._sorted_names) != len(sim.clients)
        ):
            self._sim_ref = weakref.ref(sim)
            self._sorted_names = sorted(sim.clients)
        active = next(
            (
                client
                for client in map(sim.clients.__getitem__, self._sorted_names)
                if client.current is not None and not client.crashed
            ),
            None,
        )
        if active is None:
            # Start the next queued op, if any client has one.
            for name in self._sorted_names:
                if sim.clients[name].runnable():
                    return Action(ActionKind.STEP_CLIENT, name)
            return None
        return _serve(sim, active.name)


def _serve(sim: "Simulation", name: str) -> Action | None:
    """Client ``name``'s next action, memory first: its oldest pending RMW,
    then its oldest undelivered response, then a local step. Each lookup
    scans the kernel's queues, frozen work of other clients included."""
    rmw = sim.first_appliable_for(name)
    if rmw is not None:
        return Action(ActionKind.APPLY, rmw.rmw_id)
    rmw = sim.first_deliverable_for(name)
    if rmw is not None:
        return Action(ActionKind.DELIVER, rmw.rmw_id)
    client = sim.clients.get(name)
    if client is not None and client.runnable():
        return Action(ActionKind.STEP_CLIENT, name)
    return None  # blocked with nothing in flight (a deadlock if sequential)
