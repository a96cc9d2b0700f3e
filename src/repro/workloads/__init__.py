"""Workload generation and the experiment runner."""

from repro.workloads.generators import (
    KEY_SKEWS,
    WorkloadSpec,
    cumulative_weights,
    hotspot_weights,
    make_value,
    reader_name,
    sample_keys,
    skew_weights,
    uniform_weights,
    unit_interval,
    writer_name,
    zipf_weights,
)
from repro.workloads.fuzz import FuzzFailure, FuzzResult, fuzz_register
from repro.workloads.patterns import churn, read_heavy, staggered_writers
from repro.workloads.runner import (
    Workload,
    WorkloadResult,
    run_register_workload,
    run_workload,
    uniform_wave,
)

__all__ = [
    "FuzzFailure",
    "FuzzResult",
    "KEY_SKEWS",
    "Workload",
    "WorkloadResult",
    "WorkloadSpec",
    "churn",
    "cumulative_weights",
    "fuzz_register",
    "hotspot_weights",
    "make_value",
    "read_heavy",
    "reader_name",
    "run_register_workload",
    "run_workload",
    "sample_keys",
    "skew_weights",
    "staggered_writers",
    "uniform_weights",
    "uniform_wave",
    "unit_interval",
    "writer_name",
    "zipf_weights",
]
