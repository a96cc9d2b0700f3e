"""Benchmark-output helpers: tables, units, bounds, sweeps, shape checks.

The closed-form bounds (:mod:`repro.analysis.bounds`) and table helpers
(:mod:`repro.analysis.tables`) are imported eagerly — they are a few
formulas. The sweep engine (:mod:`repro.analysis.executor` on top of
:mod:`repro.analysis.sweeps`) pulls in every register, the workload
runner and ``multiprocessing``, so its names resolve on first use: the
TCP service and the keyspace runner import ``repro.analysis.bounds`` for
one formula without loading (or cycling through) the engine.

``run_sweep``/``run_keyspace_sweep`` are the one engine
(:mod:`repro.analysis.executor`); ``workers=1`` is the in-process
reference that pooled runs are byte-compared against.
"""

from importlib import import_module

from repro.analysis.bounds import (
    adaptive_upper_bound_bits,
    disintegrated_bound_bits,
    lemma3_bound_bits,
    lrc_max_dimension,
    lrc_storage_floor_bits,
    theorem1_bound_bits,
)
from repro.analysis.tables import (
    SeriesPoint,
    flat_within,
    format_bits,
    format_ratio,
    format_table,
    linear_slope,
    monotone_nondecreasing,
)


def __getattr__(name: str):
    """Resolve a sweep-engine export on first use (see the module docstring)."""
    if name in __all__:
        for home in ("sweeps", "executor"):
            module = import_module(f"{__name__}.{home}")
            if hasattr(module, name):
                globals()[name] = getattr(module, name)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "KeyspaceRecord",
    "KeyspaceSweepResult",
    "RECORD_METADATA_FIELDS",
    "REGISTER_REGISTRY",
    "SCENARIO_PATTERNS",
    "Scenario",
    "SeriesPoint",
    "SweepGrid",
    "SweepJournal",
    "SweepPoint",
    "SweepRecord",
    "SweepResult",
    "UNIFORM_SCENARIO",
    "adaptive_upper_bound_bits",
    "crossover_shape_violations",
    "default_chunk_size",
    "disintegrated_bound_bits",
    "execute_cell",
    "execute_keyspace_cell",
    "flat_within",
    "format_bits",
    "format_ratio",
    "format_table",
    "keyspace_advantage_ratios",
    "keyspace_grid",
    "keyspace_shape_violations",
    "lemma3_bound_bits",
    "linear_slope",
    "lrc_max_dimension",
    "lrc_storage_floor_bits",
    "monotone_nondecreasing",
    "register_uses_k",
    "render_crossover_blocks",
    "run_keyspace_sweep",
    "run_sweep",
    "sweep_cells",
    "sweep_signature",
    "theorem1_bound_bits",
]
