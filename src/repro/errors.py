"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
distinguishing the failure domains (coding, simulation, protocol, checking).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CodingError(ReproError):
    """Base class for erasure-coding failures."""


class EncodingError(CodingError):
    """A value could not be encoded (bad length, bad parameters)."""


class DecodingError(CodingError):
    """A value could not be reconstructed from the supplied blocks."""


class ParameterError(ReproError, ValueError):
    """A constructor or function was given inconsistent parameters."""


class SimulationError(ReproError):
    """Base class for simulator kernel failures."""


class ProtocolError(SimulationError):
    """A protocol coroutine violated the kernel contract."""


class SchedulerExhausted(SimulationError):
    """The scheduler ran out of actions (or budget) before quiescence."""


class ObjectCrashed(SimulationError):
    """An RMW was applied to a crashed base object (kernel bug guard)."""


class MeasurementError(SimulationError):
    """The incremental storage ledger diverged from the full-walk meter."""


class CheckpointError(ReproError):
    """A sweep checkpoint journal is unusable (wrong grid, corrupt body)."""


class FaultPlanError(ReproError, ValueError):
    """A fault-injection plan is inconsistent (bad rates, budget over f)."""


class ServiceError(ReproError):
    """Base class for networked storage-service failures."""


class WireError(ServiceError):
    """A frame or payload could not be encoded/decoded (bad wire data)."""


class JournalError(ServiceError, CheckpointError):
    """A replica journal is unusable (wrong replica config, corrupt body).

    Mirrors :class:`CheckpointError` semantics — a torn last record (the
    kill-mid-write artifact) is tolerated by loaders, anything else
    raises — and subclasses it so journal-aware callers can catch either
    domain with one clause.
    """


class QuorumTimeout(ServiceError):
    """A client operation exhausted its retries or deadline without quorum.

    Carries structured diagnostics alongside the message so callers (and
    ``repro chaos``) can report *which* replicas were unreachable:
    ``op_kind``/``op_uid``/``client`` identify the operation, ``needed``
    is the quorum size, ``answered``/``silent`` partition the contacted
    replicas, and ``attempts``/``elapsed_s``/``deadline_s`` describe the
    retry budget that ran out.
    """

    def __init__(
        self,
        message: str,
        *,
        op_kind: str | None = None,
        op_uid: int | None = None,
        client: str | None = None,
        needed: int | None = None,
        answered: tuple[str, ...] = (),
        silent: tuple[str, ...] = (),
        attempts: int = 0,
        elapsed_s: float = 0.0,
        deadline_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.op_kind = op_kind
        self.op_uid = op_uid
        self.client = client
        self.needed = needed
        self.answered = tuple(answered)
        self.silent = tuple(silent)
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class DaemonError(ServiceError):
    """The daemon lifecycle failed (stale state dir, unresponsive server)."""


class AlreadyRunningError(DaemonError):
    """``repro serve`` found a live cluster in the state dir (double start)."""


class NotRunningError(DaemonError):
    """``repro stop``/``status`` found no live cluster in the state dir."""


class SpecError(ReproError):
    """Base class for consistency-checker failures."""


class MalformedHistory(SpecError):
    """A history violates well-formedness (overlapping ops on one client)."""
