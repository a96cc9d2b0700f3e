"""Reproduction of *Space Bounds for Reliable Storage: Fundamental Limits of
Coding* (Spiegelman, Cassuto, Chockler, Keidar — PODC 2016).

The package builds the full system the paper reasons about:

* :mod:`repro.coding` — symmetric black-box coding schemes and oracles
  (Section 3.1): Reed-Solomon, XOR parity, replication, rateless.
* :mod:`repro.sim` — the asynchronous fault-prone shared-memory model
  (Section 2): base objects with atomic RMW, coroutine clients, pluggable
  (possibly adversarial) schedulers, crash injection.
* :mod:`repro.storage` — block-instance bookkeeping and the storage-cost
  meter (Definitions 2 and 6).
* :mod:`repro.registers` — four register emulations: the paper's adaptive
  algorithm (Section 5), the safe register (Appendix E), ABD-style
  replication, and a coded-only baseline exhibiting the O(cD) blow-up.
* :mod:`repro.lowerbound` — the Section 4 machinery: constructive Claim 1
  collisions and the freezing adversary Ad (Definition 7) realising the
  Omega(min(f, c) * D) bound of Theorem 1.
* :mod:`repro.spec` — consistency checkers (weak/strong regularity,
  atomicity, strong safety).
* :mod:`repro.workloads` — workload generation and the experiment runner.
* :mod:`repro.analysis` — table/series helpers, the regime-sweep engine
  (grids over register/f/k/c/D with literature overlay bounds), and the
  markdown report generator.

Quickstart::

    from repro import AdaptiveRegister, RegisterSetup, WorkloadSpec
    from repro import run_register_workload

    setup = RegisterSetup(f=2, k=2, data_size_bytes=64)
    spec = WorkloadSpec(writers=3, readers=2, reads_per_reader=2)
    result = run_register_workload(AdaptiveRegister, setup, spec)
    print(result.peak_storage_bits, result.completed_reads)
"""

from repro.coding import (
    CodingScheme,
    DecodeOracle,
    EncodeOracle,
    RatelessXorCode,
    ReedSolomonCode,
    ReplicationCode,
    XorParityCode,
)
from repro.lowerbound import (
    AdAdversary,
    LowerBoundOutcome,
    find_colliding_pair,
    run_lower_bound_experiment,
    run_replacement_experiment,
    verify_claim1,
)
from repro.msgnet import MsgABDSystem
from repro.registers import (
    ABDRegister,
    AdaptiveNoGCRegister,
    AdaptiveRegister,
    AtomicABDRegister,
    CASRegister,
    ChannelCodedRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    check_invariant1,
    replication_setup,
)
from repro.sim import (
    FailurePlan,
    FairScheduler,
    RandomScheduler,
    SequentialScheduler,
    Simulation,
)
from repro.spec import (
    History,
    analyze_liveness,
    check_linearizability,
    check_strong_regularity,
    check_strong_safety,
    check_weak_regularity,
)
from repro.storage import PeakTracker, StorageMeter
from repro.workloads import (
    WorkloadSpec,
    churn,
    fuzz_register,
    make_value,
    read_heavy,
    run_register_workload,
    run_workload,
    staggered_writers,
)

__version__ = "1.0.0"

__all__ = [
    "ABDRegister",
    "AdAdversary",
    "AdaptiveNoGCRegister",
    "AdaptiveRegister",
    "AtomicABDRegister",
    "CASRegister",
    "ChannelCodedRegister",
    "CodedOnlyRegister",
    "CodingScheme",
    "DecodeOracle",
    "EncodeOracle",
    "FailurePlan",
    "FairScheduler",
    "History",
    "LowerBoundOutcome",
    "MsgABDSystem",
    "PeakTracker",
    "RandomScheduler",
    "RatelessXorCode",
    "ReedSolomonCode",
    "RegisterSetup",
    "ReplicationCode",
    "SafeCodedRegister",
    "SequentialScheduler",
    "Simulation",
    "StorageMeter",
    "WorkloadSpec",
    "XorParityCode",
    "analyze_liveness",
    "check_linearizability",
    "check_strong_regularity",
    "check_invariant1",
    "check_strong_safety",
    "check_weak_regularity",
    "churn",
    "find_colliding_pair",
    "fuzz_register",
    "make_value",
    "read_heavy",
    "replication_setup",
    "run_lower_bound_experiment",
    "run_register_workload",
    "run_replacement_experiment",
    "run_workload",
    "staggered_writers",
    "verify_claim1",
]
