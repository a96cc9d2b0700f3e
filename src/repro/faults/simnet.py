"""Fault injection for the simulated message network.

:class:`FaultyNetwork` is a drop-in :class:`~repro.msgnet.network.Network`
that routes every client<->server message through a
:class:`~repro.faults.plan.FaultInjector` before it enters the in-flight
multiset:

* **drop** — the message never enters the network;
* **delay** — the message is parked and re-injected ``ticks`` deliveries
  later;
* **duplicate** — two copies enter the network (the protocol machines
  deduplicate by sender, so this stresses exactly the at-least-once
  tolerance the TCP client's resends rely on);
* **reorder** — the message is held until the *next* message on the same
  link passes it (or ``ticks`` elapse, whichever is first);
* **partition / crash windows** — while a replica is inside an active
  window every message to or from it is dropped (counted separately from
  the scheduled drops — window drops are traffic-dependent);
* **slowdown** — every message *into* a slow replica is parked for the
  configured ticks (a permanently laggy follower, not a fault event).

The clock is scheduler time: :meth:`~repro.msgnet.abd.MsgABDSystem.run`
reports each delivery via :meth:`advance`. Every reply a node's handler
returns is sent through :meth:`FaultyNetwork.send`, so the fault layer
sees all traffic. A message in the network is in flight and charged, or
consumed by its handler; a message the fault layer parks (delay, reorder
hold, slowdown) enters the network, and is charged, only when released.

When the network quiesces with messages still parked (or windows still
pending), :func:`run_chaos` fast-forwards the clock to the next wakeup
and keeps going — and re-emits blocked operations' unanswered requests
(:meth:`~repro.msgnet.abd.MsgABDSystem.resend_pending`), mirroring the
TCP client's retry loop, until every operation returns or the round
budget is exhausted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FaultPlanError, SchedulerExhausted
from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    client_link,
    server_link,
)
from repro.msgnet.abd import MsgABDSystem
from repro.msgnet.network import FairMsgScheduler, MsgScheduler, Network


class FaultyNetwork(Network):
    """A :class:`Network` with a seeded fault layer on every send."""

    def __init__(self, injector: FaultInjector) -> None:
        super().__init__()
        self.injector = injector
        self.time = 0
        self._parked: list[tuple[int, int, str, str, Any]] = []
        self._park_counter = 0
        #: One held message per link, waiting to be overtaken.
        self._reorder_hold: dict[str, tuple[str, str, Any]] = {}

    # ------------------------------------------------------------ routing

    def _classify(self, sender: str, recipient: str) -> tuple[str, str] | None:
        """``(link, server)`` for client<->server traffic, else ``None``."""
        replicas = self.injector.plan.replicas
        if recipient in replicas:
            return client_link(recipient), recipient
        if sender in replicas:
            return server_link(sender), sender
        return None

    def send(self, sender: str, recipient: str, payload: Any) -> None:
        classified = self._classify(sender, recipient)
        if classified is None:
            super().send(sender, recipient, payload)
            return
        link, server = classified
        if self.injector.unavailable(server):
            self.injector.count_window_drop(server)
            return
        decision = self.injector.on_send(link)
        # A message passing a link releases any reorder hold behind it.
        held = self._reorder_hold.pop(link, None)
        kind = decision.kind if decision is not None else None
        if kind == "drop":
            pass
        elif kind == "duplicate":
            self._inject(sender, recipient, payload)
            self._inject(sender, recipient, payload)
        elif kind == "delay":
            self._park(self.time + decision.ticks, sender, recipient, payload)
        elif kind == "reorder":
            # Hold this message; the next send on the link (or the tick
            # fallback) releases it behind its successor.
            self._reorder_hold[link] = (sender, recipient, payload)
            self._park(
                self.time + decision.ticks, sender, recipient, payload,
                hold=link,
            )
        else:
            self._inject(sender, recipient, payload)
        if held is not None:
            self._inject(*held)

    def _inject(self, sender: str, recipient: str, payload: Any) -> None:
        """Slowdown-aware entry into the real network."""
        classified = self._classify(sender, recipient)
        if classified is not None:
            _link, server = classified
            if recipient == server:
                slow = self.injector.slowdown_ticks(server)
                if slow > 0:
                    self._park(self.time + slow, sender, recipient, payload,
                               direct=True)
                    return
        super().send(sender, recipient, payload)

    # ------------------------------------------------------------ parking

    def _park(self, release: int, sender: str, recipient: str, payload: Any,
              *, hold: str | None = None, direct: bool = False) -> None:
        self._park_counter += 1
        heapq.heappush(
            self._parked,
            (release, self._park_counter, sender, recipient,
             (payload, hold, direct)),
        )

    def advance(self, tick: int) -> None:
        """Scheduler-clock hook: fire due windows, release due messages."""
        if tick <= self.time and not self._due():
            self.time = max(self.time, tick)
            return
        self.time = max(self.time, tick)
        self.injector.advance_to(self.time)
        while self._due():
            _release, _count, sender, recipient, extra = heapq.heappop(
                self._parked
            )
            payload, hold, direct = extra
            if hold is not None:
                # Tick fallback for a reorder hold: only release if the
                # message is still being held (not overtaken already).
                if self._reorder_hold.get(hold) != (sender, recipient,
                                                    payload):
                    continue
                del self._reorder_hold[hold]
            classified = self._classify(sender, recipient)
            if classified is not None and self.injector.unavailable(
                classified[1]
            ):
                self.injector.count_window_drop(classified[1])
                continue
            if direct:
                super().send(sender, recipient, payload)
            else:
                self._inject(sender, recipient, payload)

    def _due(self) -> bool:
        return bool(self._parked) and self._parked[0][0] <= self.time

    # ------------------------------------------------------- fast-forward

    def next_wakeup(self) -> int | None:
        """The next tick at which something scheduled happens."""
        candidates = []
        if self._parked:
            candidates.append(self._parked[0][0])
        event = self.injector.next_event_tick()
        if event is not None:
            candidates.append(event)
        return min(candidates) if candidates else None

    def idle_advance(self) -> bool:
        """Jump the clock to the next wakeup when the network is idle.

        Returns True when time moved (parked messages released or a
        window opened/healed), False when nothing is scheduled.
        """
        wakeup = self.next_wakeup()
        if wakeup is None:
            return False
        self.advance(max(wakeup, self.time + 1))
        return True


# --------------------------------------------------------------- harness


@dataclass
class ChaosRunStats:
    """What one chaotic simulated run did."""

    steps: int = 0
    resend_rounds: int = 0
    resent_messages: int = 0
    firing_counts: dict = field(default_factory=dict)
    window_drops: int = 0


def faulty_system(
    plan: FaultPlan,
    data_size_bytes: int,
    initial_value: bytes | None = None,
) -> tuple[MsgABDSystem, FaultInjector]:
    """An :class:`MsgABDSystem` on a :class:`FaultyNetwork` for ``plan``.

    The plan's replica names must match the deployment's (``s0..s2f``);
    the system is built with the plan's ``f``.
    """
    expected = tuple(f"s{index}" for index in range(2 * plan.f + 1))
    if tuple(plan.replicas) != expected:
        raise FaultPlanError(
            f"plan replicas {plan.replicas} do not match the deployment "
            f"layout {expected}"
        )
    injector = FaultInjector(plan)
    network = FaultyNetwork(injector)
    system = MsgABDSystem(plan.f, data_size_bytes, initial_value,
                          network=network)
    return system, injector


def run_chaos(
    system: MsgABDSystem,
    scheduler: MsgScheduler | None = None,
    *,
    max_steps: int = 400_000,
    max_rounds: int = 400,
) -> ChaosRunStats:
    """Drive a faulty deployment until every operation returns.

    Alternates three moves until done: run the scheduler to quiescence,
    fast-forward the fault clock to the next scheduled wakeup (releasing
    delayed messages, healing windows), and — only when time cannot move
    — resend every blocked operation's unanswered requests (the sim twin
    of the TCP client's retry timer). Raises
    :class:`~repro.errors.SchedulerExhausted` if the round budget runs
    out, which a well-formed plan (``<= f`` unavailable, windows heal)
    cannot trigger.
    """
    network = system.network
    if not isinstance(network, FaultyNetwork):
        raise FaultPlanError("run_chaos needs a FaultyNetwork-backed system")
    scheduler = scheduler or FairMsgScheduler()
    stats = ChaosRunStats()
    while True:
        stats.steps += system.run(scheduler, max_steps=max_steps)
        if system.pending_ops == 0:
            break
        if network.idle_advance():
            continue
        emitted = system.resend_pending()
        if emitted == 0:
            raise SchedulerExhausted(
                f"chaos run stuck: {system.pending_ops} operations "
                "pending, nothing parked, nothing to resend"
            )
        stats.resend_rounds += 1
        stats.resent_messages += emitted
        if stats.resend_rounds > max_rounds:
            raise SchedulerExhausted(
                f"chaos run exceeded {max_rounds} resend rounds"
            )
    # Drain the remaining schedule: windows that open only after the last
    # operation returned must still fire, or the sim-vs-TCP parity of
    # event counts would depend on workload length.
    while network.idle_advance():
        stats.steps += system.run(scheduler, max_steps=max_steps)
    stats.firing_counts = network.injector.firing_counts()
    stats.window_drops = network.injector.total_window_drops()
    return stats


__all__ = [
    "ChaosRunStats",
    "FaultyNetwork",
    "faulty_system",
    "run_chaos",
]
