"""E14 — the model reduction: shared memory <-> message passing.

Paper context: Section 2's fault-prone shared memory abstracts storage
nodes reached over an asynchronous network (the ABD emulation), and
Section 3.2 insists in-flight data counts as storage. This bench runs ABD
in both incarnations and compares:

* server/base-object storage at rest: identical, ``(2f+1) D`` bits;
* consistency: both histories pass the same strong-regularity checker;
* the transient channel charge: the message-passing write demonstrably
  parks ``n`` replicas in flight mid-round.
"""


from repro.analysis import format_table
from repro.msgnet import (
    FairMsgScheduler,
    MsgABDSystem,
    RandomMsgScheduler,
    run_network,
)
from repro.registers import ABDRegister, replication_setup
from repro.spec import check_strong_regularity
from repro.workloads import WorkloadSpec, run_register_workload

F = 2
DATA = 16  # D = 128 bits


def run_both():
    # Message-passing world.
    system = MsgABDSystem(f=F, data_size_bytes=DATA)
    for index in range(3):
        system.add_writer(f"w{index}", bytes([index + 1]) * DATA)
    for index in range(2):
        system.add_reader(f"r{index}")
    system.run(RandomMsgScheduler(7))
    # Shared-memory world.
    setup = replication_setup(f=F, data_size_bytes=DATA)
    spec = WorkloadSpec(writers=3, writes_per_writer=1, readers=2,
                        reads_per_reader=1, seed=7)
    shared = run_register_workload(ABDRegister, setup, spec)
    return system, shared


def test_equivalence(benchmark, record_table):
    system, shared = benchmark.pedantic(run_both, rounds=1, iterations=1)
    expected = (2 * F + 1) * DATA * 8
    msg_history_ok = check_strong_regularity(system.history()).ok
    shm_history_ok = check_strong_regularity(shared.history).ok
    rows = [
        ["message-passing", system.server_storage_bits(),
         "strongly regular" if msg_history_ok else "VIOLATION"],
        ["shared-memory", shared.final_bo_state_bits,
         "strongly regular" if shm_history_ok else "VIOLATION"],
    ]
    table = format_table(
        ["world", "storage at rest (bits)", "consistency"], rows
    )
    record_table("E14_msgnet_equivalence", table)
    assert system.server_storage_bits() == expected
    assert shared.final_bo_state_bits == expected
    assert msg_history_ok and shm_history_ok
    assert all(op.return_time is not None for op in system.ops)


def test_replicas_ride_the_network(benchmark, record_table):
    def run():
        system = MsgABDSystem(f=F, data_size_bytes=DATA)
        system.add_writer("w0", b"\xaa" * DATA)
        peak_in_flight = system.network.storage_bits_in_flight()

        def observe(network, msg_id):
            nonlocal peak_in_flight
            peak_in_flight = max(
                peak_in_flight, network.storage_bits_in_flight()
            )

        run_network(system.network, FairMsgScheduler(), max_steps=10_000,
                    on_action=observe)
        return system, peak_in_flight

    system, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    n = 2 * F + 1
    record_table(
        "E14_msgnet_channel_peak",
        format_table(
            ["in-flight peak(bits)", "n replicas (n*D)"],
            [[peak, n * DATA * 8]],
        ),
    )
    # The write round parks one full replica per server in the channels.
    assert peak == n * DATA * 8
