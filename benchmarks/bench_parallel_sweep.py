"""E14 — parallel sweep execution: process-pool fan-out vs the serial loop.

Sweep cells are independent and seed-deterministic, so the crossover
grids should scale with cores, not with one Python process. This
benchmark drives :func:`repro.analysis.executor.run_sweep` pooled against
its own in-process ``workers=1`` reference (the serial loop) on
a reference scenario grid (two scenarios — the uniform wave and
churn-with-crashes — over an (f, k, c) regime block) and checks the two
contracts the executor makes:

* **Determinism** — the pooled result must be byte-identical to the
  serial one (``to_json(include_timing=False)``) at every worker count,
  crash firing records and overlay curves included. Always asserted, in
  ``--quick`` mode too.
* **Speedup** — at 4 workers the pooled sweep must finish in less than
  half the serial wall-clock (>= 2x, asserted with generous slack and
  only where it can physically hold: full mode on a machine with >= 4
  cores; on smaller hosts and in ``--quick`` mode — whose grid is too
  small to amortise pool startup — the measured ratio is reported but
  not enforced).

Results land in ``benchmarks/results/e14_parallel_sweep{,_quick}.json``
(plus a rendered ``.txt``), and the canonical gate summary in
``benchmarks/results/BENCH_parallel_sweep.json`` — compared against the
committed baseline by ``scripts/check_bench_regression.py`` in CI.

Two entry points:

* ``pytest benchmarks/bench_parallel_sweep.py`` — serial-vs-pooled
  equivalence on a trimmed grid plus journal round-trip (checkpoint
  written, resume recomputes nothing);
* ``python benchmarks/bench_parallel_sweep.py [--quick] [--workers N]``
  — the timed comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from repro.analysis import (
    Scenario,
    SweepGrid,
    run_sweep,
    sweep_cells,
)
from repro.analysis.benchgate import metric, write_bench_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 14
DATA = 48

#: Both scenario shapes of the reference grid: the paper's uniform burst
#: and the churn-with-crashes plan (1 base object + 1 client killed per
#: cell on a seed-derived schedule) — so the determinism assertion covers
#: crash firing records, not just clean cells.
SCENARIOS = (
    Scenario("uniform"),
    Scenario("churn+crash", pattern="churn", ops_per_client=2,
             bo_crashes=1, client_crashes=1),
)

#: The reference grid: 40 points x 2 scenarios = 80 cells, heavy enough
#: that pool startup (one spawn + numpy import per worker) amortises.
FULL = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2, 3),
    ks=(2, 4),
    cs=(1, 2, 4, 8),
)

#: CI smoke grid: 9 points x 2 scenarios = 18 cells. Too small to show
#: real speedup (pool startup dominates); quick mode asserts determinism
#: and journaling only.
QUICK = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2,),
    ks=(2,),
    cs=(1, 2, 4),
)


def build_grid(spec: dict) -> SweepGrid:
    return SweepGrid.cartesian(
        registers=spec["registers"], fs=spec["fs"], ks=spec["ks"],
        cs=spec["cs"], data_sizes=(DATA,), seed=SEED,
    )


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run(
    quick: bool,
    worker_counts: tuple[int, ...] = (2, 4),
    echo=lambda line: None,
) -> dict:
    """Measure serial vs pooled wall-clock; assert determinism throughout."""
    spec = QUICK if quick else FULL
    grid = build_grid(spec)
    cells = len(sweep_cells(grid, SCENARIOS))
    echo(f"parallel sweep: {cells} cells "
         f"({len(grid)} points x {len(SCENARIOS)} scenarios), "
         f"host cpus={os.cpu_count()}")

    serial, serial_s = _timed(
        lambda: run_sweep(grid, scenarios=SCENARIOS, workers=1)
    )
    reference = serial.to_json(include_timing=False)
    echo(f"  serial          {serial_s:7.2f} s  "
         f"{cells / serial_s:6.1f} cells/s")

    modes = []
    for workers in worker_counts:
        pooled, pooled_s = _timed(
            lambda: run_sweep(grid, scenarios=SCENARIOS, workers=workers)
        )
        assert pooled.to_json(include_timing=False) == reference, (
            f"pooled sweep at workers={workers} diverged from serial"
        )
        modes.append({
            "workers": workers,
            "seconds": round(pooled_s, 4),
            "cells_per_s": round(cells / pooled_s, 2),
            "speedup_vs_serial": round(serial_s / pooled_s, 3),
        })
        echo(f"  workers={workers:<2}      {pooled_s:7.2f} s  "
             f"{cells / pooled_s:6.1f} cells/s  "
             f"({serial_s / pooled_s:4.2f}x serial, byte-identical)")

    return {
        "experiment": "e14_parallel_sweep",
        "quick": quick,
        "cells": cells,
        "host_cpus": os.cpu_count(),
        "serial": {
            "seconds": round(serial_s, 4),
            "cells_per_s": round(cells / serial_s, 2),
        },
        "pooled": modes,
        "byte_identical": True,  # asserted above for every worker count
    }


def render(payload: dict) -> str:
    lines = [
        f"E14: parallel sweep fan-out — {payload['cells']} cells, "
        f"{payload['host_cpus']} host cpus",
        "",
        f"{'mode':>12}  {'seconds':>9}  {'cells/s':>9}  {'speedup':>8}",
        f"{'serial':>12}  {payload['serial']['seconds']:>9.2f}  "
        f"{payload['serial']['cells_per_s']:>9.1f}  {'1.00x':>8}",
    ]
    for mode in payload["pooled"]:
        lines.append(
            f"{'workers=' + str(mode['workers']):>12}  "
            f"{mode['seconds']:>9.2f}  {mode['cells_per_s']:>9.1f}  "
            f"{mode['speedup_vs_serial']:>7.2f}x"
        )
    lines.append("")
    lines.append("pooled JSON byte-identical to serial at every worker "
                 "count (asserted)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid, determinism-only (CI smoke run)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="largest pool size to measure (default 4)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="required speedup at the largest pool (default: 2.0 in full "
             "mode on a >= 4-core host, otherwise report-only)",
    )
    args = parser.parse_args(argv)
    worker_counts = tuple(dict.fromkeys(
        w for w in (2, args.workers) if 2 <= w <= args.workers
    )) or (args.workers,)
    payload = run(args.quick, worker_counts=worker_counts, echo=print)

    min_speedup = args.min_speedup
    if min_speedup is None:
        # The >= 2x bar only binds where it can physically hold: the full
        # grid (quick cells are dwarfed by pool startup) on a host with
        # at least as many cores as workers. Generous slack either way —
        # dev containers show ~3x at 4 workers on 4+ cores.
        enough_cores = (os.cpu_count() or 1) >= max(worker_counts)
        min_speedup = 2.0 if (not args.quick and enough_cores) else 0.0

    table = render(payload)
    print()
    print(table)
    suffix = "_quick" if args.quick else ""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"e14_parallel_sweep{suffix}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (RESULTS_DIR / f"E14_parallel_sweep{suffix}.txt").write_text(
        table + "\n"
    )
    top = payload["pooled"][-1]
    write_bench_summary(
        "parallel_sweep",
        {
            "serial_cells_per_s": metric(
                payload["serial"]["cells_per_s"], "cells/s"
            ),
            "pooled_cells_per_s": metric(top["cells_per_s"], "cells/s"),
        },
        RESULTS_DIR,
        quick=args.quick,
    )
    if top["speedup_vs_serial"] < min_speedup:
        print(
            f"FAIL: speedup {top['speedup_vs_serial']:.2f}x at "
            f"workers={top['workers']} below bar {min_speedup:.2f}x"
        )
        return 1
    if min_speedup:
        print(f"\nok: {top['speedup_vs_serial']:.2f}x at "
              f"workers={top['workers']} (bar {min_speedup:.2f}x)")
    return 0


# ---------------------------------------------------------------- pytest


TEST_GRID = dict(registers=("abd", "coded-only", "adaptive"),
                 fs=(2,), ks=(2,), cs=(1, 2))


class TestParallelSweepSmoke:
    def test_pooled_matches_serial_with_journal(self, tmp_path):
        """Serial vs 2-worker equivalence plus a checkpoint round-trip:
        the pooled run journals every cell, and resuming from the
        complete journal recomputes nothing (the heavier workers-{1,2,4}
        matrix lives in tests/analysis/test_executor.py)."""
        grid = build_grid(TEST_GRID)
        checkpoint = tmp_path / "sweep.journal.jsonl"
        serial = run_sweep(grid, scenarios=SCENARIOS, workers=1)
        pooled = run_sweep(grid, scenarios=SCENARIOS, workers=2,
                           checkpoint=checkpoint)
        assert pooled.to_json(include_timing=False) == \
            serial.to_json(include_timing=False)
        cells = len(sweep_cells(grid, SCENARIOS))
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == cells + 1  # header + one line per cell
        resumed = run_sweep(grid, scenarios=SCENARIOS, workers=2,
                            checkpoint=checkpoint, resume=True)
        assert resumed.to_json(include_timing=False) == \
            serial.to_json(include_timing=False)

    def test_reference_grid_spans_both_scenario_kinds(self):
        assert {s.name for s in SCENARIOS} == {"uniform", "churn+crash"}
        assert any(s.has_crashes for s in SCENARIOS)
        assert len(build_grid(FULL)) * len(SCENARIOS) >= 80


if __name__ == "__main__":
    raise SystemExit(main())
