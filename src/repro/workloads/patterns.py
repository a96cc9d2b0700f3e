"""Higher-level workload patterns beyond the flat burst.

:func:`~repro.workloads.runner.uniform_wave` builds the paper's canonical
setting — a burst of ``c`` concurrent writers. Real evaluations also need
shaped load; these builders return a richer
:class:`~repro.workloads.runner.Workload`:

* :func:`staggered_writers` — writers with pipelined back-to-back writes,
  producing a sliding concurrency window rather than a c-burst;
* :func:`read_heavy` — a small writer pool against many repeating readers
  (the FW-termination stress shape);
* :func:`churn` — clients that arrive in waves, each wave writing then
  reading back, modelling client turnover.

Run one with :func:`~repro.workloads.runner.run_workload`, which meters it
exactly as it meters the uniform wave. Builders know every write value up
front, so :func:`~repro.workloads.runner.new_simulation` gives them the
same one-pass :class:`~repro.coding.oracles.BatchEncodePlan` and
:class:`~repro.coding.oracles.DecodeShareCache` the uniform wave uses;
pattern sweeps pay the vectorized coding path, not one matrix pass per
operation.
"""

from __future__ import annotations

from functools import partial
from typing import Type

from repro.errors import ParameterError
from repro.registers.base import RegisterProtocol, RegisterSetup
from repro.sim.kernel import Simulation
from repro.workloads.generators import WorkloadSpec, make_value
from repro.workloads.runner import Workload, new_simulation


def staggered_writers(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    writers: int,
    writes_each: int = 2,
    seed: int = 0,
) -> Workload:
    """Writers with pipelined back-to-back writes.

    Unlike the burst, each client queues several writes, so concurrency
    stays near ``writers`` for a long window while timestamps keep
    advancing — the steady-state shape for GC (Lemma 8) under sustained
    load.
    """
    values = [
        [make_value(setup, f"stag-{index}-{round_number}", seed)
         for round_number in range(writes_each)]
        for index in range(writers)
    ]
    sim = new_simulation(
        protocol_cls, setup, [v for per_writer in values for v in per_writer]
    )
    for index, per_writer in enumerate(values):
        client = sim.add_client(f"sw{index}")
        for value in per_writer:
            client.enqueue_write(value)
    return Workload(sim, WorkloadSpec(
        writers=writers, writes_per_writer=writes_each, readers=0, seed=seed,
    ))


def read_heavy(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    readers: int,
    reads_each: int = 3,
    writers: int = 1,
    seed: int = 0,
) -> Workload:
    """Few writers, many repeat readers — FW-termination stress."""
    values = [
        make_value(setup, f"rh-{index}", seed) for index in range(writers)
    ]
    sim = new_simulation(protocol_cls, setup, values)
    for index, value in enumerate(values):
        sim.add_client(f"rw{index}").enqueue_write(value)
    for index in range(readers):
        client = sim.add_client(f"rr{index}")
        for _ in range(reads_each):
            client.enqueue_read()
    return Workload(sim, WorkloadSpec(
        writers=writers, writes_per_writer=1, readers=readers,
        reads_per_reader=reads_each, seed=seed,
    ))


def churn(
    protocol_cls: Type[RegisterProtocol],
    setup: RegisterSetup,
    waves: int,
    clients_per_wave: int = 2,
    seed: int = 0,
) -> Workload:
    """Client turnover: waves of write-then-read clients.

    Wave 0 is enqueued at build time; waves 1 and up are
    :class:`~repro.workloads.runner.Workload` *phases*, each enqueued only
    after the wave before it drains, so each wave observes its
    predecessors' completed writes — exercising timestamp propagation
    through ``storedTS`` across generations of clients. One
    :func:`~repro.workloads.runner.run_workload` meters every wave (and a
    crash plan it installs spans wave boundaries). One
    :class:`~repro.coding.oracles.BatchEncodePlan` covers every wave's
    values, so the whole run costs one stacked encode pass.
    """
    if waves < 1:
        raise ParameterError("churn needs waves >= 1")
    wave_values = [
        [
            make_value(setup, f"churn-{wave}-{index}", seed)
            for index in range(clients_per_wave)
        ]
        for wave in range(waves)
    ]
    sim = new_simulation(
        protocol_cls, setup, [v for per_wave in wave_values for v in per_wave]
    )

    def enqueue_wave(sim: Simulation, wave: int) -> None:
        for index, value in enumerate(wave_values[wave]):
            client = sim.add_client(f"c{wave}-{index}")
            client.enqueue_write(value)
            client.enqueue_read()

    enqueue_wave(sim, 0)
    total_clients = waves * clients_per_wave
    return Workload(
        sim,
        WorkloadSpec(
            writers=total_clients, writes_per_writer=1, readers=total_clients,
            reads_per_reader=1, seed=seed,
        ),
        phases=[partial(enqueue_wave, wave=wave) for wave in range(1, waves)],
    )
