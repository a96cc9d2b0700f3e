"""E13 — scenario-diverse sweeps: crash plans, shaped workloads, the D axis.

The paper's bounds are *adversarial*: Theorem 1 and the Section 5 adaptive
bound hold under concurrency, crashes, and arbitrary value sizes D. The
crossover benchmark (E9) measures crash-free uniform writer waves; this
experiment sweeps the same register space along the two axes E9 holds
fixed:

* **Scenario axis** — every grid point runs under four workload shapes:
  the uniform wave, churn-with-crashes (waves of write-then-read clients
  with 1 base object + 1 client killed per cell on a seed-derived
  deterministic schedule), a read-heavy storm, and (full mode) staggered
  writers losing two base objects. Crash cells measure the
  crossover-under-crashes curves the ROADMAP flagged as unmeasured.
* **D axis** — value sizes from 6 to 192 bytes through a
  :class:`~repro.coding.padding.PaddedScheme` (sizes indivisible by k
  included). The bounds are linear in D, so the per-D overhead ratio
  exposes the additive terms the asymptotics hide: the 4-byte length
  prefix, zero padding to the next k multiple, and per-block constants.

Every cell renders next to the Theorem 1 / BKS'18 / Cadambe–Mazumdar
overlays, and the failure-adapted shape checks
(:func:`~repro.analysis.sweeps.crossover_shape_violations`) plus the
Theorem 1 floor are asserted, not just plotted.

Two entry points:

* ``pytest benchmarks/bench_scenario_sweep.py`` — the quick matrix with
  the per-action ledger-vs-reference audit on every scenario x register
  cell, plus byte-identical determinism of a repeated crash sweep;
* ``python benchmarks/bench_scenario_sweep.py [--quick]`` — the full
  matrix (``--quick`` trims regimes and D values for CI smoke runs; the
  smoke run also audits the storage ledger at every action), printing
  per-scenario crossover blocks and the D-axis overhead table, and
  writing JSON + rendered curves to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import pathlib

import pytest

from repro.analysis import (
    Scenario,
    SweepGrid,
    SweepPoint,
    SweepResult,
    crossover_shape_violations,
    format_table,
    register_uses_k,
    render_crossover_blocks,
    run_sweep,
)
from repro.analysis.benchgate import write_sweep_bench_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 13
CROSSOVER_DATA = 48  # D = 384 bits for the c-axis blocks

#: The scenario catalog. ``staggered+crash`` only runs in full mode.
SCENARIOS = (
    Scenario("uniform"),
    Scenario("churn+crash", pattern="churn", ops_per_client=2,
             bo_crashes=1, client_crashes=1),
    Scenario("read-heavy", pattern="read-heavy", readers=6,
             reads_per_reader=2),
    Scenario("staggered+crash", pattern="staggered", ops_per_client=2,
             bo_crashes=2),
)

FULL = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2, 3),
    ks=(2, 4),
    cs=(1, 2, 4, 8),
    d_sizes=(6, 12, 24, 48, 96, 192),
    d_point=dict(f=2, k=4, c=4),
    scenarios=SCENARIOS,
)

QUICK = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2,),
    ks=(2,),
    cs=(1, 2, 4),
    d_sizes=(6, 12, 48, 96),
    d_point=dict(f=2, k=4, c=4),
    scenarios=SCENARIOS[:3],
)


def build_grid(spec: dict) -> SweepGrid:
    """Crossover points (fixed D) + padded D-axis points (fixed regime)."""
    crossover = SweepGrid.cartesian(
        registers=spec["registers"],
        fs=spec["fs"],
        ks=spec["ks"],
        cs=spec["cs"],
        data_sizes=(CROSSOVER_DATA,),
        seed=SEED,
    )
    d_axis = [
        SweepPoint(
            register=register, c=spec["d_point"]["c"], f=spec["d_point"]["f"],
            k=spec["d_point"]["k"], data_size_bytes=data, seed=SEED,
            padded=True,
        )
        # ABD never pads (replication shards nothing), so its D cells
        # would render nowhere; sweep the D axis for coded registers only.
        for register in spec["registers"] if register_uses_k(register)
        for data in spec["d_sizes"]
    ]
    return SweepGrid.explicit(list(crossover) + d_axis)


def render_scenario_crossovers(result: SweepResult, spec: dict) -> str:
    """One measured-vs-overlay block per scenario x coded (f, k) regime
    (the crossover-D slice through the shared renderer)."""
    return render_crossover_blocks(
        SweepResult(
            result.select(data_bits=CROSSOVER_DATA * 8, padded=False)
        ),
        spec["cs"],
    )


def render_d_axis(result: SweepResult, spec: dict) -> str:
    """Per-scenario D-axis blocks: peak bits (and bits-per-D) across D."""
    point = spec["d_point"]
    data_bits = [d * 8 for d in spec["d_sizes"]]
    blocks = []
    for scenario in result.scenarios():
        sub = result.select(scenario=scenario, padded=True)
        rows = []
        registers = list(dict.fromkeys(r.register for r in sub))
        for register in registers:
            by_d = {
                r.data_bits: r for r in sub
                if r.register == register
            }
            rows.append(
                [register]
                + [by_d[d].peak_bo_state_bits if d in by_d else "-"
                   for d in data_bits]
            )
            rows.append(
                [f"  {register} bits/D"]
                + [f"{by_d[d].peak_bo_state_bits / d:.2f}" if d in by_d
                   else "-" for d in data_bits]
            )
        coded = {r.data_bits: r for r in sub if r.register == "coded-only"}
        rows.append(
            ["~thm1 (lower bd)"]
            + [coded[d].thm1_bits if d in coded else "-" for d in data_bits]
        )
        header = (
            f"{scenario} D-axis f={point['f']} k={point['k']} "
            f"c={point['c']} (padded)"
        )
        blocks.append(format_table(
            [header] + [f"D={d}" for d in data_bits], rows
        ))
    return "\n\n".join(blocks)


def check_bounds(result: SweepResult) -> list[str]:
    """Assertable bound facts beyond the shape checks; return failures.

    * Theorem 1: every regular coded register's measured peak sits on or
      above ``min((f+1)D/2, c(D/2+1))`` — crash cells included (the bound
      is adversarial; losing <= f objects must not defeat it).
    * Section 5: adaptive stays within a small constant of its
      ``(min(f,c)+1)(n/k)D`` upper bound in every scenario. The bound
      describes settled storage; the mid-run *peak* measured here also
      counts pieces a writer scattered before GC reclaims them, which on
      this matrix reaches 2.67x the bound (f=2, k=4, c=8, uniform) — 3x
      is the asserted ceiling.
    """
    failures = []
    for record in result.records:
        where = (
            f"{record.scenario} {record.register} f={record.f} "
            f"k={record.k} c={record.c} D={record.data_bits}"
        )
        if record.register in ("coded-only", "adaptive"):
            if record.peak_bo_state_bits < record.thm1_bits:
                failures.append(
                    f"below Thm 1 at {where}: {record.peak_bo_state_bits} "
                    f"< {record.thm1_bits}"
                )
        if record.register == "adaptive" and not record.padded:
            if record.peak_bo_state_bits > 3 * record.adaptive_bound_bits:
                failures.append(
                    f"adaptive above 3x Section 5 bound at {where}: "
                    f"{record.peak_bo_state_bits} > "
                    f"3 * {record.adaptive_bound_bits}"
                )
    return failures


def run(
    quick: bool,
    echo=lambda line: None,
    workers: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
) -> tuple[SweepResult, str]:
    """Run the matrix, write results, return (result, rendered text).

    ``workers > 1`` fans the cells out across a process pool (measured
    fields byte-identical to serial); ``checkpoint``/``resume`` journal
    completed cells so an interrupted matrix picks up where it stopped.
    """
    spec = QUICK if quick else FULL
    grid = build_grid(spec)
    scenarios = spec["scenarios"]
    echo(
        f"scenario sweep: {len(grid)} grid points x {len(scenarios)} "
        f"scenarios = {len(grid) * len(scenarios)} cells "
        f"({'per-action ledger audit on' if quick else 'audit off'}, "
        f"workers={workers})"
    )
    result = run_sweep(
        grid,
        scenarios=scenarios,
        # The CI smoke re-checks ledger == full-walk reference at every
        # action of every scenario x register cell.
        audit_storage_every=1 if quick else 0,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        progress=lambda done, total, point: echo(
            f"  [{done}/{total}] {point.register} f={point.f} k={point.k} "
            f"c={point.c} D={point.data_size_bytes * 8}"
        )
        if done % 50 == 0
        else None,
    )
    text = (
        render_scenario_crossovers(result, spec)
        + "\n\n"
        + render_d_axis(result, spec)
    )
    suffix = "_quick" if quick else ""
    json_path = RESULTS_DIR / f"e13_scenario_sweep{suffix}.json"
    result.save(json_path)
    (RESULTS_DIR / f"E13_scenario_sweep{suffix}.txt").write_text(text + "\n")
    write_sweep_bench_summary("scenario_sweep", result, RESULTS_DIR,
                              quick=quick)
    echo(f"JSON result: {json_path}")
    return result, text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed matrix with the per-action ledger audit (CI smoke)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (1 = serial; results byte-identical)",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None,
        help="journal path for checkpoint/resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from an existing --checkpoint journal",
    )
    args = parser.parse_args(argv)
    result, text = run(quick=args.quick, echo=print, workers=args.workers,
                       checkpoint=args.checkpoint, resume=args.resume)
    print()
    print(text)
    # Explicit (not assert) so the smoke run fails even under python -O.
    problems = crossover_shape_violations(result) + check_bounds(result)
    if problems:
        for problem in problems:
            print(f"VIOLATION: {problem}")
        return 1
    crash_cells = [
        r for r in result.records if r.bo_crashes or r.client_crashes
    ]
    print(
        f"\nok: {len(result)} cells over {len(result.scenarios())} "
        f"scenarios, {len(crash_cells)} crash cells, shapes + Thm 1 floor "
        f"hold"
    )
    return 0


# ---------------------------------------------------------------- pytest


@pytest.fixture(scope="module")
def quick_result():
    result, text = run(quick=True)
    return result, text


def test_quick_matrix_shapes_and_bounds(quick_result, record_table):
    """The CI smoke: every scenario x register cell ran with the
    per-action ledger audit (run(quick=True) sets audit_storage_every=1;
    a ledger divergence raises MeasurementError before we get here), the
    failure-adapted shapes hold, and measured peaks respect Theorem 1 and
    the Section 5 bound — crash cells included."""
    result, text = quick_result
    record_table("E13_scenario_sweep_quick", text)
    assert crossover_shape_violations(result) == []
    assert check_bounds(result) == []


def test_quick_matrix_covers_the_acceptance_axes(quick_result):
    """>= 3 scenarios (uniform, churn-with-crashes, read-heavy) x a
    D-axis series of >= 4 value sizes, with crash cells that really
    crashed."""
    result, _ = quick_result
    assert len(result.scenarios()) >= 3
    assert {"uniform", "churn+crash", "read-heavy"} <= \
        set(result.scenarios())
    d_bits = {r.data_bits for r in result.records if r.padded}
    assert len(d_bits) >= 4
    crash_cells = result.select(scenario="churn+crash")
    assert crash_cells
    assert all(
        r.bo_crashes >= 1 and r.client_crashes >= 1 for r in crash_cells
    )


def test_d_axis_overhead_shrinks_with_d(quick_result):
    """Additive padding/prefix constants dominate small D and wash out at
    large D — the bits-per-data-bit ratio must fall monotonically."""
    result, _ = quick_result
    for scenario in result.scenarios():
        for register in ("coded-only", "adaptive"):
            sub = [
                r for r in result.select(scenario=scenario,
                                         register=register)
                if r.padded
            ]
            ratios = [
                r.peak_bo_state_bits / r.data_bits
                for r in sorted(sub, key=lambda r: r.data_bits)
            ]
            assert ratios == sorted(ratios, reverse=True), (
                f"{scenario}/{register}: {ratios}"
            )


def test_same_seed_quick_sweep_is_byte_identical():
    """Determinism across the whole quick matrix, crash scheduling
    included."""
    spec = dict(QUICK, cs=(1, 2), d_sizes=(6, 48))
    grid = build_grid(spec)
    first = run_sweep(grid, scenarios=spec["scenarios"])
    second = run_sweep(grid, scenarios=spec["scenarios"])
    assert first.to_json(include_timing=False) == \
        second.to_json(include_timing=False)


if __name__ == "__main__":
    raise SystemExit(main())
