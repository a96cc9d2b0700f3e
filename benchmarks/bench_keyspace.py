"""E17 — the sharded keyspace: a million keys over 128 registers.

The north star's missing scale axis: every other experiment drives one
register; this one shards a million-key keyspace across 128 register
instances by consistent hashing and pushes skewed write/read waves
through them (:mod:`repro.keyspace`). The headline question — does the
adaptive scheme's storage advantage survive when concurrency is spread
thin, and how much does it widen when hot keys concentrate it? — is
asserted as a shape, not just reported:

* **Per-shard Theorem 1 floors** — every shard's measured peak
  Definition 2 storage must meet ``min((f+1)D/2, c(D/2+1))`` at that
  shard's own realized concurrency ``c``. Always asserted, every cell.
* **Crossover** — the coded-only/adaptive aggregate peak-storage ratio
  under hot-key skew must strictly exceed the same ratio under uniform
  skew (spread thin, per-shard ``c`` stays near ``wave_size/shards`` and
  the curves track; concentrated, coded-only pays ~``c`` codewords where
  adaptive caps at ``min(f, c) + 1``).

Throughput is the gated metric: aggregate simulation actions/s across
every shard run (the keyspace is ~1800 shard simulations per full
sweep, so scheduler + ledger overhead dominates — a regression here is
a kernel regression).

Results land in ``benchmarks/results/e17_keyspace{,_quick}.json`` (plus
a rendered ``.txt``), and the gate summary in
``benchmarks/results/BENCH_keyspace.json`` — compared against the
committed baseline by ``scripts/check_bench_regression.py`` in CI.

Two entry points:

* ``pytest benchmarks/bench_keyspace.py`` — floors + crossover on the
  quick grid (serial);
* ``python benchmarks/bench_keyspace.py [--quick] [--workers N]`` — the
  timed sweep (pooled, byte-identity inherited from the executor).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.analysis import (
    keyspace_advantage_ratios,
    keyspace_grid,
    keyspace_shape_violations,
    run_keyspace_sweep,
)
from repro.analysis.benchgate import metric, write_bench_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 17

#: The full grid: a million keys over 128 shards (each an f=1, k=2,
#: n=4 register), 8 waves x 384 writes + 64 reads, both registers under
#: both skews. Hot-key skew (8 hot keys, 90% of traffic) drives hot
#: shards to c ~ 60 while uniform stays near c ~ wave_size/shards.
FULL = dict(
    keys=(1_000_000,),
    shards=(128,),
    waves=8,
    wave_size=384,
    reads_per_wave=64,
    hot_keys=8,
    hot_weight=0.9,
)

#: CI smoke grid: same shape (both skews, both registers, floors +
#: crossover asserted), two orders of magnitude smaller.
QUICK = dict(
    keys=(5_000,),
    shards=(16,),
    waves=3,
    wave_size=48,
    reads_per_wave=8,
    hot_keys=2,
    hot_weight=0.95,
)


def build_cells(spec: dict) -> tuple:
    return keyspace_grid(
        skews=("uniform", "hotspot"),
        registers=("coded-only", "adaptive"),
        seed=SEED,
        **spec,
    )


def run(
    quick: bool, workers: int = 1, echo=lambda line: None,
) -> dict:
    """Run the keyspace sweep; assert floors and the crossover shape."""
    spec = QUICK if quick else FULL
    cells = build_cells(spec)
    echo(f"keyspace: {len(cells)} cells — {spec['keys'][0]:,} keys over "
         f"{spec['shards'][0]} shards, {spec['waves']} waves x "
         f"{spec['wave_size']} writes + {spec['reads_per_wave']} reads")

    started = time.perf_counter()
    result = run_keyspace_sweep(cells, workers=workers)
    wall_s = time.perf_counter() - started

    violations = keyspace_shape_violations(result)
    assert not violations, "; ".join(violations)

    total_actions = sum(record.steps for record in result.records)
    ratios = keyspace_advantage_ratios(result)
    for record in result.records:
        echo(f"  {record.skew:>8}/{record.register:<10}  "
             f"max_c={record.max_shard_c:<4} "
             f"peak_bo={record.aggregate_peak_bo_state_bits:>9} bits  "
             f"floor_violations={record.floor_violations}")
    for skew, ratio in ratios.items():
        echo(f"  advantage ({skew}): coded-only/adaptive = {ratio:.2f}x")
    echo(f"  {total_actions:,} actions in {wall_s:.2f} s "
         f"({total_actions / wall_s:,.0f} actions/s, workers={workers})")

    return {
        "experiment": "e17_keyspace",
        "quick": quick,
        "workers": workers,
        "cells": len(cells),
        "keys": spec["keys"][0],
        "shards": spec["shards"][0],
        "seconds": round(wall_s, 4),
        "total_actions": total_actions,
        "actions_per_s": round(total_actions / wall_s, 2),
        "advantage_ratios": {k: round(v, 4) for k, v in ratios.items()},
        "records": [
            {
                "skew": record.skew,
                "register": record.register,
                "active_shards": record.active_shards,
                "max_shard_c": record.max_shard_c,
                "distinct_keys": record.distinct_keys,
                "aggregate_peak_bo_state_bits":
                    record.aggregate_peak_bo_state_bits,
                "aggregate_peak_storage_bits":
                    record.aggregate_peak_storage_bits,
                "aggregate_thm1_floor_bits":
                    record.aggregate_thm1_floor_bits,
                "floor_violations": record.floor_violations,
            }
            for record in result.records
        ],
        "floors_hold": True,       # asserted above, every shard
        "crossover_holds": True,   # asserted above (hotspot > uniform)
    }


def render(payload: dict) -> str:
    lines = [
        f"E17: sharded keyspace — {payload['keys']:,} keys over "
        f"{payload['shards']} shards, {payload['cells']} cells",
        "",
        f"{'skew':>8}  {'register':<10}  {'shards hit':>10}  "
        f"{'max c':>5}  {'peak bo bits':>12}  {'thm1 floor':>10}",
    ]
    for record in payload["records"]:
        lines.append(
            f"{record['skew']:>8}  {record['register']:<10}  "
            f"{record['active_shards']:>10}  {record['max_shard_c']:>5}  "
            f"{record['aggregate_peak_bo_state_bits']:>12}  "
            f"{record['aggregate_thm1_floor_bits']:>10}"
        )
    lines.append("")
    for skew, ratio in payload["advantage_ratios"].items():
        lines.append(f"advantage ({skew}): coded-only/adaptive = "
                     f"{ratio:.2f}x")
    lines.append("")
    lines.append(
        f"{payload['total_actions']:,} actions in "
        f"{payload['seconds']:.2f} s = {payload['actions_per_s']:,.0f} "
        f"actions/s (workers={payload['workers']})"
    )
    lines.append("per-shard Theorem 1 floors + hotspot>uniform crossover "
                 "asserted")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="5k keys over 16 shards (CI smoke run)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (results byte-identical to serial)",
    )
    args = parser.parse_args(argv)
    payload = run(args.quick, workers=args.workers, echo=print)

    table = render(payload)
    print()
    print(table)
    suffix = "_quick" if args.quick else ""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"e17_keyspace{suffix}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (RESULTS_DIR / f"E17_keyspace{suffix}.txt").write_text(table + "\n")
    write_bench_summary(
        "keyspace",
        {
            "keyspace_actions_per_s": metric(
                payload["actions_per_s"], "actions/s"
            ),
        },
        RESULTS_DIR,
        quick=args.quick,
    )
    return 0


# ---------------------------------------------------------------- pytest


class TestKeyspaceBenchSmoke:
    def test_quick_grid_floors_and_crossover(self, record_table):
        """The quick grid upholds both asserted shapes: every shard meets
        its Theorem 1 floor, and hot-key skew widens the coded-only vs
        adaptive gap (the heavier sweep-axis matrix lives in
        tests/keyspace/test_sweep.py)."""
        result = run_keyspace_sweep(build_cells(QUICK), workers=1)
        assert keyspace_shape_violations(result) == []
        ratios = keyspace_advantage_ratios(result)
        assert ratios["hotspot"] > ratios["uniform"] > 1.0
        record_table(
            "E17_keyspace_pytest",
            result.table()
            + "\n"
            + "\n".join(f"advantage ({skew}): {ratio:.2f}x"
                        for skew, ratio in ratios.items()),
        )

    def test_full_grid_reaches_acceptance_scale(self):
        """The full grid is the acceptance floor: >= 100k keys over
        >= 64 shards, both skews x both registers."""
        cells = build_cells(FULL)
        assert len(cells) == 4
        assert all(c.keys >= 100_000 and c.shards >= 64 for c in cells)


if __name__ == "__main__":
    raise SystemExit(main())
