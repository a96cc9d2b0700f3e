"""Definition-2 storage accounting over live server replicas.

The simulated kernel meters storage incrementally with
:class:`~repro.storage.cost.StorageLedger`; the live service cannot hook
a kernel, but the at-rest half of Definition 2 — replica bits at live
servers — is directly observable through the ``status`` RPC every
replica answers. :class:`LiveStorageView` aggregates those replies into
the same quantities the simulator reports (``server_storage_bits`` is
the bo-state analogue, exactly like
:meth:`~repro.msgnet.abd.MsgABDSystem.server_storage_bits`) and compares
them against the Theorem 1 floor, so ``repro status`` states the paper's
bound about the running system.

In-flight bits (the channel charge) are a simulator-only measurement:
TCP buffers are outside the model's observation points, which is fine —
Definition 2's peak is dominated by at-rest replicas for ABD, and the
loopback bench cross-checks the at-rest number against the simulated
deployment at equal ``(f, D)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bounds import theorem1_bound_bits
from repro.registers.timestamps import Timestamp


@dataclass
class ReplicaStatus:
    """One server's ``status`` reply (or its absence)."""

    name: str
    alive: bool
    ts: Timestamp | None = None
    replica_bits: int = 0
    applied_count: int = 0
    pid: int | None = None
    port: int | None = None
    #: Status probes sent before this reply arrived (1 = first try;
    #: 0 = never probed because the process was already dead).
    probe_attempts: int = 0
    #: Wall-clock time of the last successful probe reply.
    last_seen: float | None = None


class LiveStorageView:
    """Aggregate replica statuses into Definition-2 accounting."""

    def __init__(
        self, f: int, data_size_bytes: int, statuses: list[ReplicaStatus]
    ) -> None:
        self.f = f
        self.data_bits = data_size_bytes * 8
        self.statuses = list(statuses)

    # ------------------------------------------------------------ quorums

    @property
    def alive_count(self) -> int:
        return sum(1 for status in self.statuses if status.alive)

    @property
    def majority(self) -> int:
        return self.f + 1

    @property
    def quorum_available(self) -> bool:
        return self.alive_count >= self.majority

    # ------------------------------------------------------------ storage

    @property
    def server_storage_bits(self) -> int:
        """Replica bits at live servers — Definition 2's at-rest charge."""
        return sum(
            status.replica_bits for status in self.statuses if status.alive
        )

    def thm1_floor_bits(self, concurrency: int = 1) -> int:
        """Theorem 1's lower bound at the given write concurrency."""
        return theorem1_bound_bits(self.f, concurrency, self.data_bits)

    @property
    def meets_thm1_floor(self) -> bool:
        """Does live at-rest storage sit at or above the Theorem 1 floor?

        Replication stores ``(2f+1) D`` bits, far above the floor; a
        ``False`` here means servers are missing or the accounting broke,
        both worth failing ``doctor`` over.
        """
        return self.server_storage_bits >= self.thm1_floor_bits()

    @property
    def max_ts(self) -> Timestamp | None:
        stamps = [
            status.ts for status in self.statuses
            if status.alive and status.ts is not None
        ]
        return max(stamps) if stamps else None

    def timestamp_consistent(self) -> bool:
        """No live replica is *ahead* of the quorum-visible maximum.

        Trivially true of the maximum itself; the useful content is that
        every live replica's timestamp is a real protocol timestamp
        (journal recovery produced nothing from the future).
        """
        top = self.max_ts
        return top is None or all(
            status.ts <= top
            for status in self.statuses
            if status.alive and status.ts is not None
        )
