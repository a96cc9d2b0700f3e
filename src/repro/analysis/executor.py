"""The sweep engine: one pooled cell runner, deterministic merge, resume.

Sweep cells are fully independent and seed-deterministic — each record is
a pure function of its cell plus the engine knobs — which makes a sweep an
ideal process-pool workload. This module is the one engine that runs them:

* :func:`run_sweep` / :func:`run_keyspace_sweep` — build the cell list and
  hand it to the one pooled cell runner. ``workers=1`` (the default) is
  the **in-process reference**: a plain ``for cell: execute_cell(...)``
  loop, no pool, no pickling. ``workers > 1`` partitions the same cell
  list across a ``multiprocessing`` **spawn** pool (spawn, not fork:
  workers re-import the package and rebuild schemes, oracles and GF tables
  in their own process, so no simulator state is ever shared or inherited
  mid-run). Cells are dispatched in contiguous chunks to amortise pickling
  and startup, results stream back in completion order, and the merge
  reorders them into cell order — so the result is **byte-identical to
  the ``workers=1`` run for any worker count** once the per-record
  execution metadata (``wall_clock_s``, ``worker``) is stripped:
  ``to_json(include_timing=False)`` compares equal across ``workers`` ∈
  {1, 2, 4, ...}, crash firing records and overlay curves included.

* checkpoint/resume — with ``checkpoint=path`` every completed cell is
  appended to a binary journal as it finishes (single writer: the parent
  process). An interrupted sweep — Ctrl-C, a CI timeout, a crash —
  resumes with ``resume=True`` without recomputing finished cells. The
  journal header pins a SHA-256 hash of the full cell list and engine
  knobs; resuming against a different grid, scenario set, or knob value
  raises :class:`~repro.errors.CheckpointError` instead of silently
  merging incompatible measurements. The file is a
  :class:`repro.journal.SignedJournal`: a torn last record (the classic
  kill-mid-write artifact) is ignored and that cell recomputed; a whole
  record that fails its checksum or does not parse raises.

The per-cell work itself lives in :mod:`repro.analysis.sweeps`
(:func:`~repro.analysis.sweeps.execute_cell`); this module only decides
*where* each cell runs and in what order results are stitched together.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.sweeps import (
    KeyspaceSweepResult,
    Scenario,
    SweepGrid,
    SweepPoint,
    SweepRecord,
    SweepResult,
    execute_cell,
    execute_keyspace_cell,
    normalize_scenarios,
    sweep_cells,
)
from repro.errors import CheckpointError, ParameterError
from repro.journal import SignedJournal


# ------------------------------------------------------------ cell hashing


def sweep_signature(
    cells: Sequence[tuple[Scenario, SweepPoint]],
    *,
    max_steps: int,
    lrc_locality: int,
    audit_storage_every: int,
) -> str:
    """SHA-256 over the full cell list and every knob that shapes records.

    Two sweep invocations share a signature iff they would produce the
    same measurement payloads cell-for-cell — the validity criterion for
    merging a journal's cells into a later run. Execution-only knobs
    (worker count, chunking, progress hooks) are deliberately excluded.
    """
    payload = {
        "cells": [
            [asdict(scenario), asdict(point)] for scenario, point in cells
        ],
        "max_steps": max_steps,
        "lrc_locality": lrc_locality,
        "audit_storage_every": audit_storage_every,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------- journal


class SweepJournal(SignedJournal):
    """Append-only checkpoint of completed sweep cells.

    Record 1 is a header pinning the sweep signature and cell count; every
    further record is one completed cell, its body the JSON ``{"cell":
    index, "record": {...}}`` with ``index`` the cell's position in the
    :func:`~repro.analysis.sweeps.sweep_cells` order. The parent process
    is the only writer, so the file needs no locking; a torn last record
    left by an interruption is ignored (that cell is simply recomputed),
    and anything else that does not check or parse, or that belongs to a
    different sweep, raises :class:`~repro.errors.CheckpointError`.
    """

    MAGIC = "repro-sweep-journal"
    OWNER = "sweep"

    def __init__(self, path: str | Path, signature: str, total_cells: int):
        super().__init__(path, signature, total_cells=total_cells)
        self.total_cells = total_cells

    def load(self) -> dict[int, SweepRecord]:
        """Completed cells from an existing journal, by cell index.

        Returns ``{}`` when the journal does not exist yet. Raises
        :class:`~repro.errors.CheckpointError` when the header is missing
        or pins a different sweep (grid, scenarios, engine knobs, or cell
        count), when a cell index falls outside the grid, or when any
        whole record is damaged or malformed.
        """
        return dict(self.records())

    def _decode(self, body: bytes) -> tuple[int, SweepRecord]:
        entry = json.loads(body)
        index = entry["cell"]
        if not 0 <= index < self.total_cells:
            raise ValueError(
                f"cell index {index} outside the sweep's "
                f"{self.total_cells} cells"
            )
        return index, SweepRecord(**entry["record"])

    def append(self, index: int, record: SweepRecord) -> None:
        """Persist one completed cell (flushed immediately)."""
        body = {"cell": index, "record": asdict(record)}
        self._write_record(json.dumps(body, sort_keys=True).encode())


# ------------------------------------------------------------ worker side


def _worker_number() -> int:
    """This pool worker's 1-based number (0 outside a pool).

    Pool workers are named ``SpawnPoolWorker-<n>``; the trailing integer
    is stable for the life of the pool and lands in
    :attr:`SweepRecord.worker` as execution metadata.
    """
    name = multiprocessing.current_process().name
    digits = name.rsplit("-", 1)[-1]
    return int(digits) if digits.isdigit() else 0


def _run_chunk(payload: tuple[Callable, list[int], list[tuple], dict]) -> list:
    """Pool entrypoint: run one contiguous chunk of cells.

    Executed in a spawned worker process, so ``repro`` (schemes, oracles,
    GF tables) is freshly imported and rebuilt per process — nothing is
    inherited from the parent. Must stay a module-level function, as must
    ``execute``: spawn pickles both by qualified name.
    """
    execute, indices, chunk_cells, kwargs = payload
    worker = _worker_number()
    return [
        (index, execute(*cell, worker=worker, **kwargs))
        for index, cell in zip(indices, chunk_cells)
    ]


# ----------------------------------------------------------------- engine


def default_chunk_size(pending: int, workers: int) -> int:
    """Contiguous cells per pool task: ~4 tasks per worker, capped at 32.

    Large enough to amortise pickling/dispatch overhead per task, small
    enough that a pool keeps all workers busy when cell costs are skewed
    (large-``c`` cells can dominate small ones by orders of magnitude).
    """
    if pending <= 0 or workers <= 1:
        return max(1, pending)
    return max(1, min(32, -(-pending // (workers * 4))))


def _run_cells(
    cells: Sequence[tuple],
    execute: Callable,
    kwargs: dict,
    *,
    workers: int,
    chunk_size: int | None,
    journal: SweepJournal | None = None,
    progress: Callable[[int, int, tuple], None] | None = None,
) -> list:
    """Run ``execute(*cell, **kwargs)`` for every cell; records in cell order.

    The one cell runner behind :func:`run_sweep` and
    :func:`run_keyspace_sweep`. ``workers=1`` (or at most one pending
    cell) loops in-process — the reference the pooled path is
    byte-compared against; otherwise contiguous chunks of the pending
    cells go to a spawn pool (``execute`` must be a module-level callable)
    and results are merged back into cell order as they arrive.

    With a ``journal``, cells it already holds are not recomputed and
    every newly finished cell is appended as it completes.
    ``progress(done, total, cell)`` fires after each computed cell, in
    completion order.
    """
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    done: dict[int, object] = {}
    if journal is not None:
        done = journal.load()
        journal.open_for_append()
    pending = [index for index in range(len(cells)) if index not in done]
    completed = len(done)

    def finish(index: int, record: object) -> None:
        nonlocal completed
        done[index] = record
        completed += 1
        if journal is not None:
            journal.append(index, record)
        if progress is not None:
            progress(completed, len(cells), cells[index])

    try:
        if workers == 1 or len(pending) <= 1:
            for index in pending:
                finish(index, execute(*cells[index], **kwargs))
        else:
            size = chunk_size or default_chunk_size(len(pending), workers)
            chunks = [
                pending[start:start + size]
                for start in range(0, len(pending), size)
            ]
            payloads = [
                (execute, chunk, [cells[index] for index in chunk], kwargs)
                for chunk in chunks
            ]
            context = multiprocessing.get_context("spawn")
            pool_size = min(workers, len(payloads))
            with context.Pool(processes=pool_size) as pool:
                for batch in pool.imap_unordered(_run_chunk, payloads):
                    for index, record in batch:
                        finish(index, record)
    finally:
        if journal is not None:
            journal.close()
    return [done[index] for index in range(len(cells))]


def run_sweep(
    grid: SweepGrid,
    *,
    scenarios: Sequence[Scenario] | None = None,
    max_steps: int = 400_000,
    lrc_locality: int = 2,
    audit_storage_every: int = 0,
    progress: Callable[[int, int, SweepPoint], None] | None = None,
    workers: int = 1,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chunk_size: int | None = None,
) -> SweepResult:
    """Execute every ``scenario x grid-point`` cell; return the results.

    ``scenarios`` defaults to the single crash-free uniform wave; passing
    a sequence runs the whole grid once per scenario, scenario-major, so a
    result groups into per-scenario overlay curves. Each cell runs under
    the deterministic fair scheduler with its scenario's seed-derived crash
    plan, so the whole sweep is reproducible from the grid alone (same grid
    and scenarios, same result — byte-identical
    ``to_json(include_timing=False)`` documents, crash victims and firing
    order included; each record additionally carries its measured
    ``wall_clock_s``, which is not deterministic). Every cell's write wave
    is pre-encoded in one stacked
    :class:`~repro.coding.oracles.BatchEncodePlan` pass — by the runner for
    uniform waves, by the pattern builders otherwise — so a 500-writer cell
    costs one ``encode_batch`` call, not 500 encodes.

    * ``audit_storage_every = N`` cross-checks the incremental storage
      ledger against the full-walk reference meter every ``N`` actions in
      every cell (CI smoke runs use ``N = 1``: the ledger-vs-reference
      parity audit at literally every action of every scenario x register
      cell).
    * ``workers`` — pool size. ``1`` (the default) runs every cell
      in-process — the reference. ``N > 1`` fans the cell list out across
      an ``N``-process spawn pool; the merged result is byte-identical to
      the ``workers=1`` run under ``to_json(include_timing=False)`` for
      any ``N``.
    * ``checkpoint`` — journal path. Completed cells stream to it;
      pass ``resume=True`` to load previously completed cells instead of
      recomputing them. A journal written for a different sweep
      (different cells, scenarios, or engine knobs) raises
      :class:`~repro.errors.CheckpointError`. Without ``resume``, an
      existing non-empty checkpoint also raises — an append-only journal
      is never silently overwritten.
    * ``chunk_size`` — cells per pool task (default:
      :func:`default_chunk_size`).

    ``progress`` is called as ``progress(done, total, point)`` after each
    cell completes — in completion order, which under a pool is not the
    cell order (the merged result always is).
    """
    cells = sweep_cells(grid, normalize_scenarios(scenarios))
    knobs = dict(
        max_steps=max_steps,
        lrc_locality=lrc_locality,
        audit_storage_every=audit_storage_every,
    )
    journal = None
    if checkpoint is not None:
        journal = SweepJournal(
            checkpoint, sweep_signature(cells, **knobs), len(cells)
        )
        if (not resume and journal.path.exists()
                and journal.path.stat().st_size > 0):
            raise CheckpointError(
                f"{journal.path}: checkpoint exists; pass resume=True to "
                "continue it or delete the file to start over"
            )
    return SweepResult(_run_cells(
        cells, execute_cell, knobs, workers=workers, chunk_size=chunk_size,
        journal=journal,
        progress=progress and (
            lambda done, total, cell: progress(done, total, cell[1])
        ),
    ))


def run_keyspace_sweep(
    cells: Sequence,
    *,
    max_steps: int = 400_000,
    audit_storage_every: int = 0,
    progress: Callable[[int, int], None] | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
) -> KeyspaceSweepResult:
    """Execute keyspace cells, in-process or across a spawn pool.

    Keyspace cells are pure functions of their spec (sampling is
    SHA-256-derived, the ring is deterministic), so the pooled merge is
    byte-identical to the ``workers=1`` run under
    ``to_json(include_timing=False)`` for any worker count — the same
    contract, and the same cell runner, as :func:`run_sweep`. Keyspace
    grids are small (a handful of heavy cells), so there is no checkpoint
    journal; an interrupted sweep just reruns.

    ``workers`` and ``chunk_size`` work exactly as on :func:`run_sweep`;
    ``progress`` is called as ``progress(done, total)``.
    """
    return KeyspaceSweepResult(_run_cells(
        [(spec,) for spec in cells], execute_keyspace_cell,
        dict(max_steps=max_steps, audit_storage_every=audit_storage_every),
        workers=workers, chunk_size=chunk_size,
        progress=progress and (
            lambda done, total, cell: progress(done, total)
        ),
    ))
