"""Schedule pins: exact action sequences, Definition 2 peaks and events.

Each case runs a seeded workload and hashes the ``(kind, target)``
sequence the scheduler returned, so any change to a draw stream, a
tie-break or an index's iteration order shows up here as a different
digest rather than as a silently different run. The Definition 2 peak is
pinned beside it. The event case hashes the full event list of one
random run with crashes, including the drop of a trigger on a crashed
object. The digests were recorded before the kernel's queues were
rebuilt; they must never be edited to make a change pass.
"""

import hashlib

import pytest

from repro.lowerbound import record_run
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CASRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.sim import (
    FailurePlan,
    FairScheduler,
    RandomScheduler,
    Scheduler,
    SequentialScheduler,
    at_time,
)
from repro.sim.schedulers import SoloClientScheduler
from repro.storage import PeakTracker, StorageMeter
from repro.workloads import WorkloadSpec, make_value, run_register_workload

CODED_SETUP = RegisterSetup(f=2, k=2, data_size_bytes=16)

REGISTERS = {
    "abd": (ABDRegister, replication_setup(f=2, data_size_bytes=16)),
    "coded-only": (CodedOnlyRegister, CODED_SETUP),
    "cas": (CASRegister, CODED_SETUP),
    "adaptive": (AdaptiveRegister, CODED_SETUP),
    "safe-coded": (SafeCodedRegister, CODED_SETUP),
}


class Recorder(Scheduler):
    """Pass-through scheduler that keeps every action it returns."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.actions = []

    def next_action(self, sim):
        action = self.inner.next_action(sim)
        if action is not None:
            self.actions.append(action)
        return action


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def action_digest(actions) -> str:
    return digest(f"{action.kind.value} {action.target}" for action in actions)


def event_digest(events) -> str:
    return digest(
        f"{event.time} {event.kind.value} {event.details!r}" for event in events
    )


def run_pinned(register, scheduler, seed, crashes=True, keep_events=False):
    """One pinned workload: 2 writers x 2 writes, 2 readers x 1 read."""
    register_cls, setup = REGISTERS[register]
    recorders = []

    def configure(sim, inner):
        if crashes:
            plan = FailurePlan(inner)
            plan.crash_base_object(0, at_time(7 + seed))
            plan.crash_client("w0", at_time(11 + seed))
            inner = plan
        recorders.append(Recorder(inner))
        return recorders[0]

    result = run_register_workload(
        register_cls, setup,
        WorkloadSpec(writers=2, writes_per_writer=2, readers=2,
                     reads_per_reader=1, seed=seed),
        scheduler=scheduler, configure=configure, require_quiescence=False,
        keep_events=keep_events,
    )
    return result, recorders[0].actions


def solo_after_prefix(register, seed):
    """A random prefix cut at time 40, then a fresh reader run alone."""
    register_cls, setup = REGISTERS[register]
    values = [make_value(setup, f"pin{index}", seed) for index in range(3)]
    recorded = record_run(
        register_cls, setup, values, RandomScheduler(seed=seed),
        until=lambda sim: sim.time >= 40,
    )
    sim = recorded.sim
    sim.add_client("solo-reader").enqueue_read()
    tracker = PeakTracker(StorageMeter(sim))
    actions = []

    def on_action(sim, action):
        actions.append(action)
        tracker(sim, action)

    sim.run(SoloClientScheduler("solo-reader"), on_action=on_action)
    return actions, tracker.peak_bits


RANDOM_PINS = {
    ("abd", 0): (
        "9567793c752dc72930283a01655d7784165ad9205054afd0bd2bbbce175ae23c",
        1536,
    ),
    ("abd", 1): (
        "4f94e1bebec6ad3aaacdf24659f8fb9f2969fa4af252481ef94d48709e1031de",
        1280,
    ),
    ("abd", 2): (
        "2225dd44d07bfe0faa6f1d56df02655464128941dfa6071dbcb7e33d07108ed7",
        1536,
    ),
    ("adaptive", 0): (
        "d144db3224f5943e265c447461251a00f9c1152e9b99d41a3ccda7204cc0fa59",
        1728,
    ),
    ("adaptive", 1): (
        "d9b42ac649ed558d1a29742a50126e4399461f3f09fe5575d7f2a60dd52a94c7",
        1600,
    ),
    ("adaptive", 2): (
        "40767ffab4becbde67cec5d9660d2aabf6cd45ea9b2b5630cc0ebc03164bea8e",
        1600,
    ),
    ("cas", 0): (
        "a208d8cd4e1e3f4d7334c3bb8308ff9f98e57adbc7eff3baf3673b3c7cfa75b8",
        1088,
    ),
    ("cas", 1): (
        "26e70ced561126b88c88727bd21c269ad627c04963b90b8c89a66c6181e7a9a3",
        960,
    ),
    ("cas", 2): (
        "a44d8acdb7fd111df3a23637ec67a4fbdc3f04f4e34594d6f2d06621047029bb",
        1024,
    ),
    ("coded-only", 0): (
        "d144db3224f5943e265c447461251a00f9c1152e9b99d41a3ccda7204cc0fa59",
        1088,
    ),
    ("coded-only", 1): (
        "d9b42ac649ed558d1a29742a50126e4399461f3f09fe5575d7f2a60dd52a94c7",
        960,
    ),
    ("coded-only", 2): (
        "40767ffab4becbde67cec5d9660d2aabf6cd45ea9b2b5630cc0ebc03164bea8e",
        1088,
    ),
    ("safe-coded", 0): (
        "0fe69eff205ca7b9781cc2d7344e04689ed31797b9f41bcae4250556914ecab0",
        1088,
    ),
    ("safe-coded", 1): (
        "2701dd4ee6430a07fbc1cc7a17ed566636e0f142ad1f060a0714901dcc8a8cfd",
        960,
    ),
    ("safe-coded", 2): (
        "2edce509d1a9d3323042ec8967777ef8a20189de77fe89b744a64cd07adc848e",
        1024,
    ),
}

FAIR_PINS = {
    "abd": (
        "3fbe8929e5fd292c326ca452dbe3edfb7ba7d0353742e3138f2920cdc62a6a72",
        1408,
    ),
    "adaptive": (
        "81eacbeb684d78f762a5a77f26e9174de818ef043a3ec8ffe79e0fd9c102377a",
        1536,
    ),
    "cas": (
        "18cd78303fab176e44732c882e48d4d029f001ddf988ab774a07b7813a72fcb0",
        896,
    ),
    "coded-only": (
        "81eacbeb684d78f762a5a77f26e9174de818ef043a3ec8ffe79e0fd9c102377a",
        896,
    ),
    "safe-coded": (
        "489a0a384b2b77c6f046cc2f41c9bb4d3354d3fe2aa5d39ceb03e6c3f275539a",
        896,
    ),
}

SEQUENTIAL_PINS = {
    "abd": (
        "4a95a1987c3b656dc774e05cf6d600d814888f16695fc3b373c723b1dce6df27",
        1280,
    ),
    "adaptive": (
        "f7a0c30b15ded5cb62e420764fff26694b02ca57b7c4a41d0a584477c337ae8f",
        1536,
    ),
    "cas": (
        "378e9a646584d579888a0dd7689db77b9850c00e84cc46aa16e904e50e17ebbb",
        768,
    ),
    "coded-only": (
        "f7a0c30b15ded5cb62e420764fff26694b02ca57b7c4a41d0a584477c337ae8f",
        768,
    ),
    "safe-coded": (
        "d0ad8b77b4f8f51add8ae2a06f7e3d225b0c76e8df1bd532d76c66b6fa0441c7",
        768,
    ),
}

SOLO_PINS = {
    ("abd", 0): (
        "6c4c0ba6aa15250ce7426cf521a0696015ccf5bb5f1d7b2ef6aceb983feb4310",
        1536,
    ),
    ("abd", 1): (
        "8c0505f9e60a27f130169b660b36a6811bf5bc9a19dad2fbc05c416579fcc56c",
        2176,
    ),
    ("adaptive", 0): (
        "7f563f4f12747537dd89dd178161a8a6e28f89a072317a41c1ee8a66996722cc",
        1728,
    ),
    ("adaptive", 1): (
        "b43591fed2964f0268bedf6f04fa105c6300dc53c79405dbcc4cd27ab7e7de1e",
        3136,
    ),
    ("cas", 0): (
        "3c6a0248bd0bbaa3355f904b3053e762d14e3568e2d31695d9b9641cf1ade1bb",
        1472,
    ),
    ("cas", 1): (
        "30b691fdc2b3d5d69a20ef68184bfec2ce3071d737f0f0e9e9735253bb338480",
        2112,
    ),
    ("coded-only", 0): (
        "7f563f4f12747537dd89dd178161a8a6e28f89a072317a41c1ee8a66996722cc",
        1472,
    ),
    ("coded-only", 1): (
        "b43591fed2964f0268bedf6f04fa105c6300dc53c79405dbcc4cd27ab7e7de1e",
        2112,
    ),
    ("safe-coded", 0): (
        "7f563f4f12747537dd89dd178161a8a6e28f89a072317a41c1ee8a66996722cc",
        960,
    ),
    ("safe-coded", 1): (
        "b43591fed2964f0268bedf6f04fa105c6300dc53c79405dbcc4cd27ab7e7de1e",
        1344,
    ),
}

EVENT_PIN = (
    "32d81bbbe3a8701c9c7daa868c75702eb0bb67345fa0636058458d76e5ae531a",
    151,
)


@pytest.mark.parametrize("register", sorted(REGISTERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_schedule_with_crashes_is_pinned(register, seed):
    result, actions = run_pinned(register, RandomScheduler(seed=seed), seed)
    assert (action_digest(actions), result.peak_storage_bits) == \
        RANDOM_PINS[register, seed]


@pytest.mark.parametrize("register", sorted(REGISTERS))
def test_fair_schedule_with_crashes_is_pinned(register):
    result, actions = run_pinned(register, FairScheduler(), 0)
    assert (action_digest(actions), result.peak_storage_bits) == \
        FAIR_PINS[register]


@pytest.mark.parametrize("register", sorted(REGISTERS))
def test_sequential_schedule_is_pinned(register):
    result, actions = run_pinned(
        register, SequentialScheduler(), 0, crashes=False
    )
    assert result.run.quiescent
    assert (action_digest(actions), result.peak_storage_bits) == \
        SEQUENTIAL_PINS[register]


@pytest.mark.parametrize("register,seed", sorted(SOLO_PINS))
def test_solo_read_after_frozen_prefix_is_pinned(register, seed):
    actions, peak = solo_after_prefix(register, seed)
    assert (action_digest(actions), peak) == SOLO_PINS[register, seed]


def test_event_list_of_random_run_with_crashes_is_pinned():
    result, _ = run_pinned(
        "adaptive", RandomScheduler(seed=0), 0, keep_events=True
    )
    events = result.sim.trace.events
    assert any(
        event.details.get("reason") == "crashed" for event in events
    ), "the pinned run must trigger on a crashed object"
    assert (event_digest(events), len(events)) == EVENT_PIN
