"""Sharded multi-register keyspaces: million-key skewed workloads.

See :mod:`repro.keyspace.runner` for the model (shard = register,
per-shard concurrency = wave routing) and :mod:`repro.keyspace.hashing`
for the consistent-hash ring. The sweep axis over (skew, register, keys,
shards) lives in :mod:`repro.analysis.sweeps` (``keyspace_grid`` builds
the :class:`KeyspaceSpec` cells, ``KeyspaceSweepResult`` holds the
records) and runs through :func:`repro.analysis.executor.run_keyspace_sweep`.
"""

from repro.keyspace.hashing import HashRing, hash_point
from repro.keyspace.runner import (
    KEYSPACE_REGISTERS,
    KeyspaceResult,
    KeyspaceSpec,
    ShardStats,
    run_keyspace,
)

__all__ = [
    "HashRing",
    "KEYSPACE_REGISTERS",
    "KeyspaceResult",
    "KeyspaceSpec",
    "ShardStats",
    "hash_point",
    "run_keyspace",
]
