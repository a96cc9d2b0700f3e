"""Message-passing ABD tests + equivalence with the shared-memory model."""

import pytest

from repro.msgnet import FairMsgScheduler, MsgABDSystem, RandomMsgScheduler
from repro.registers import ABDRegister, replication_setup
from repro.spec import check_strong_regularity, check_weak_regularity
from repro.workloads import WorkloadSpec, run_register_workload


def value_of(tag: str, size: int = 16) -> bytes:
    return (tag.encode() * size)[:size]


class TestBasics:
    def test_write_then_read(self):
        system = MsgABDSystem(f=2, data_size_bytes=16)
        system.add_writer("w0", value_of("a"))
        system.run()
        system.add_reader("r0")
        system.run()
        [read] = [op for op in system.ops if op.kind.value == "read"]
        assert read.result == value_of("a")

    def test_initial_read_returns_v0(self):
        system = MsgABDSystem(f=1, data_size_bytes=8)
        system.add_reader("r0")
        system.run()
        [read] = system.ops
        assert read.result == bytes(8)

    def test_all_ops_complete(self):
        system = MsgABDSystem(f=2, data_size_bytes=16)
        for index in range(3):
            system.add_writer(f"w{index}", value_of(str(index)))
        for index in range(2):
            system.add_reader(f"r{index}")
        system.run()
        assert all(op.return_time is not None for op in system.ops)

    def test_concurrent_ops_under_random_delivery(self):
        for seed in range(5):
            system = MsgABDSystem(f=2, data_size_bytes=16)
            for index in range(3):
                system.add_writer(f"w{index}", value_of(str(index)))
            system.add_reader("r0")
            system.run(RandomMsgScheduler(seed))
            assert all(op.return_time is not None for op in system.ops)


class TestFaultTolerance:
    def test_survives_f_server_crashes(self):
        system = MsgABDSystem(f=2, data_size_bytes=16)
        system.crash_server("s0")
        system.crash_server("s3")
        system.add_writer("w0", value_of("x"))
        system.run()
        system.add_reader("r0")
        system.run()
        [read] = [op for op in system.ops if op.kind.value == "read"]
        assert read.result == value_of("x")

    def test_blocks_beyond_f_crashes(self):
        system = MsgABDSystem(f=1, data_size_bytes=8)
        system.crash_server("s0")
        system.crash_server("s1")  # 2 > f: no majority remains
        system.add_writer("w0", value_of("x", 8))
        system.run(max_steps=10_000)
        [write] = system.ops
        assert write.return_time is None  # blocked forever, as it must be


class TestConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_strongly_regular_histories(self, seed):
        system = MsgABDSystem(f=2, data_size_bytes=16)
        for index in range(3):
            system.add_writer(f"w{index}", value_of(str(index)))
        for index in range(2):
            system.add_reader(f"r{index}")
        system.run(RandomMsgScheduler(seed))
        history = system.history()
        assert check_weak_regularity(history).ok
        assert check_strong_regularity(history).ok


class TestStorageEquivalence:
    """The reduction the paper's model rests on, measured both ways."""

    def test_server_storage_matches_shared_memory_abd(self):
        f, data = 2, 16
        system = MsgABDSystem(f=f, data_size_bytes=data)
        system.add_writer("w0", value_of("q"))
        system.run()
        expected = (2 * f + 1) * data * 8
        assert system.server_storage_bits() == expected

        setup = replication_setup(f=f, data_size_bytes=data)
        spec = WorkloadSpec(writers=1, writes_per_writer=1, readers=0)
        shared = run_register_workload(ABDRegister, setup, spec)
        assert shared.final_bo_state_bits == expected

    def test_replicas_ride_the_network_mid_write(self):
        system = MsgABDSystem(f=1, data_size_bytes=16)
        system.add_writer("w0", value_of("z"))
        # Drain phase 1 only: deliver read-ts requests and replies until
        # the writer sends its write messages, then stop.
        scheduler = FairMsgScheduler()
        for _ in range(1000):
            if system.network.storage_bits_in_flight() > 0:
                break
            msg_id = scheduler.next_action(system.network)
            assert msg_id is not None
            system.network.deliver(msg_id)
        in_flight = system.network.storage_bits_in_flight()
        assert in_flight == system.n * 16 * 8  # one replica per server
        assert system.total_storage_bits() == (
            system.server_storage_bits() + in_flight
        )

    def test_crashed_server_bits_not_counted(self):
        system = MsgABDSystem(f=2, data_size_bytes=16)
        before = system.server_storage_bits()
        system.crash_server("s1")
        assert system.server_storage_bits() == before - 16 * 8
