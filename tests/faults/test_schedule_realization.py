"""Regression lock for the seed-7 parity break, at the injector seam.

The chaos suite's full-workload parity runs are end-to-end; this module
pins the property the bugfix restored at unit level: the **compiled
per-link fault schedule of the seed-7 chaos plan is realized
identically** by both injector paths — :class:`FaultyNetwork.send` (the
simulated transport) and the :class:`FaultProxyCluster` frame pump (the
TCP transport) — with no cluster, client, or chaos workload involved.

Both paths are driven with a saturating per-link message stream of a
window-free twin of the seed-7 plan (windows and slowdowns do not enter
:meth:`FaultPlan.compile`, asserted below), and the exact ``(link, seq)
-> kind`` realization is compared against the compiled schedule — the
delay rows are the ones the seed-7 bug dropped over TCP.
"""

import asyncio
import dataclasses

from repro.faults.plan import (
    FaultInjector,
    client_link,
    seeded_fault_plan,
    server_link,
)
from repro.faults.simnet import FaultyNetwork
from repro.faults.tcp import FaultProxyCluster
from repro.service.framing import read_frame, write_frame

REPLICAS = ("s0", "s1", "s2")
TICK_S = 0.01


def seed7_plan():
    """The exact plan of ``test_parity_holds_across_seeds[7]``."""
    return seeded_fault_plan(
        7, replicas=REPLICAS, f=1, profile="chaos",
        rate=0.4, start=4, window=10,
    )


def windowless_twin(plan):
    """The same link schedule with no windows or slowdowns to dodge."""
    return dataclasses.replace(
        plan, partitions=(), crashes=(), slowdowns={},
    )


def compiled_kinds(plan, kind=None):
    """``{link: {seq: kind}}`` from the plan, optionally one kind only."""
    return {
        link: {
            seq: decision.kind
            for seq, decision in schedule.items()
            if kind is None or decision.kind == kind
        }
        for link, schedule in plan.compile().items()
    }


class RecordingInjector(FaultInjector):
    """A FaultInjector that records exactly which (link, seq) fired."""

    def __init__(self, plan):
        super().__init__(plan)
        self.realized = {link: {} for link in self.schedules}

    def on_send(self, link):
        decision = super().on_send(link)
        if decision is not None:
            self.realized[link][self.link_seq(link)] = decision.kind
        return decision

    def realized_kind(self, kind):
        return {
            link: {
                seq: fired for seq, fired in fires.items() if fired == kind
            }
            for link, fires in self.realized.items()
        }


def test_windowless_twin_compiles_identically():
    plan = seed7_plan()
    assert windowless_twin(plan).compile() == plan.compile()


def test_seed7_plan_schedules_the_famous_delay():
    """The bug's shape: the last s1->c delay sits at the horizon edge."""
    plan = seed7_plan()
    delays = compiled_kinds(plan, "delay")
    assert delays[server_link("s1")], "seed 7 schedules s1->c delays"
    assert max(delays[server_link("s1")]) == plan.horizon


def realize_on_sim(plan):
    """Push ``horizon`` messages per link through FaultyNetwork.send."""
    injector = RecordingInjector(plan)
    network = FaultyNetwork(injector)
    network.add_node("c", lambda sender, payload: [])
    for name in plan.replicas:
        network.add_node(name, lambda sender, payload: [])
    for round_number in range(plan.horizon):
        for name in plan.replicas:
            network.send("c", name, ("ping", round_number))
            network.send(name, "c", ("pong", round_number))
    return injector


async def realize_on_tcp(plan):
    """Push frames through real proxy sockets until every link saturates.

    Each replica's upstream is a one-line echo server, so every request
    frame the proxy forwards produces exactly one reply frame through the
    ``sN->c`` pump — the reply-link traffic the seed-7 workload ran out
    of.
    """
    injector = RecordingInjector(plan)
    echoes = {}

    async def echo(reader, writer):
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            await write_frame(writer, frame)

    endpoints = {}
    for name in plan.replicas:
        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        echoes[name] = server
        endpoints[name] = ("127.0.0.1", server.sockets[0].getsockname()[1])
    try:
        async with FaultProxyCluster(
            endpoints, injector, tick_s=TICK_S
        ) as proxies:
            writers = {}
            for name, (host, port) in proxies.endpoints.items():
                _reader, writer = await asyncio.open_connection(host, port)
                writers[name] = writer
            try:
                loop = asyncio.get_running_loop()
                for name in plan.replicas:
                    request_link = client_link(name)
                    reply_link = server_link(name)
                    deadline = loop.time() + 5.0
                    sent = 0
                    # Requests consume their link's seq as the pump reads
                    # each frame; replies trail (delays and reorders park
                    # them), so pace the writes and poll both links.
                    while (
                        injector.link_seq(request_link) < plan.horizon
                        or injector.link_seq(reply_link) < plan.horizon
                    ):
                        assert loop.time() < deadline, (
                            f"{name} links never saturated: "
                            f"{request_link}@{injector.link_seq(request_link)} "
                            f"{reply_link}@{injector.link_seq(reply_link)}"
                        )
                        if sent < 6 * plan.horizon:
                            await write_frame(writers[name], b"ping")
                            sent += 1
                        await asyncio.sleep(TICK_S)
            finally:
                for writer in writers.values():
                    writer.close()
    finally:
        for server in echoes.values():
            server.close()
            await server.wait_closed()
    return injector


def test_seed7_delay_schedule_realized_identically(run):
    plan = windowless_twin(seed7_plan())
    sim = realize_on_sim(plan)
    tcp = run(realize_on_tcp(plan))
    # The satellite claim: the per-link *delay* schedule — the rows the
    # seed-7 bug dropped — is realized identically on both paths.
    assert sim.realized_kind("delay") == compiled_kinds(plan, "delay")
    assert tcp.realized_kind("delay") == compiled_kinds(plan, "delay")
    # And in fact the whole realization matches the compiled plan.
    assert sim.realized == compiled_kinds(plan)
    assert tcp.realized == compiled_kinds(plan)
    assert sim.firing_counts() == tcp.firing_counts()
