"""E9 — the crossover: adaptive storage = min(replication-like, coded-like).

Paper claim (Theta(min(f, c) D), Section 5): the adaptive register behaves
like a coded register while c < k and like a bounded replica store beyond,
so its curve is the lower envelope's *shape* — flat-after-crossover like
replication, linear-before like coding. The crossover sits at c ~ k.

Since PR 2 this experiment is driven by the regime-sweep engine
(:mod:`repro.analysis.sweeps`); since the scenario axis landed, the engine
is scenario-aware and this benchmark sweeps its grid under the crash-free
uniform writer wave by default — pass ``--with-crashes`` to add the
churn-with-crashes scenario (1 base object + 1 client killed per cell on a
seed-derived schedule) and render a second block of curves per regime.
The full scenario x D-axis matrix lives in ``bench_scenario_sweep.py``.
One :class:`SweepGrid` covers 20+ (n, k) points per run (f in 1..5, k in
{2, 3, 4, 6}, c up to 12), every concurrent-writer wave shares one stacked
encode pass, and the result is serialised to
``benchmarks/results/e9_crossover_sweep.json``. Each curve is rendered
next to the literature overlays:

* ``thm1`` — this paper's Theorem 1 bound ``min((f+1)D/2, c(D/2+1))``;
* ``bks18`` — the Berger–Keidar–Spiegelman integrated bound for
  disintegrated storage, ``min(f+1, c) * D`` (arXiv:1805.06265);
* ``lrc`` — the Cadambe–Mazumdar locality-2 storage floor
  ``n * D / k_max`` (arXiv:1308.3200).

Two entry points:

* ``pytest benchmarks/bench_crossover.py`` — shape assertions on the
  classic (f=3, k=3) curve plus a quick multi-regime sweep;
* ``python benchmarks/bench_crossover.py [--quick] [--with-crashes]`` —
  the full 20-point sweep (``--quick`` trims to 6 points for CI smoke
  runs), printing the overlay curves and writing the JSON result.
"""

from __future__ import annotations

import argparse
import pathlib

from repro.analysis import (
    Scenario,
    SweepGrid,
    SweepResult,
    crossover_shape_violations,
    linear_slope,
    register_uses_k,
    render_crossover_blocks,
    run_sweep,
)
from repro.analysis.benchgate import write_sweep_bench_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DATA = 48  # D = 384 bits: divisible by every k in the grid
SEED = 9

#: The crash companion of the default uniform wave (``--with-crashes``).
CRASH_SCENARIO = Scenario(
    "churn+crash", pattern="churn", ops_per_client=2,
    bo_crashes=1, client_crashes=1,
)

#: The full regime grid: 20 (n, k) points (5 f-values x 4 k-values).
FULL_GRID = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(1, 2, 3, 4, 5),
    ks=(2, 3, 4, 6),
    cs=(1, 2, 4, 8, 12),
)

#: CI smoke grid: 6 (n, k) points, small concurrency span.
QUICK_GRID = dict(
    registers=("abd", "coded-only", "adaptive"),
    fs=(1, 3),
    ks=(2, 3, 4),
    cs=(1, 2, 6),
)

#: The paper's classic single-regime curve (plus the CAS baseline [6]).
CLASSIC_GRID = dict(
    registers=("abd", "coded-only", "cas", "adaptive"),
    fs=(3,),
    ks=(3,),
    cs=(1, 2, 3, 4, 6, 8, 10, 12),
)


def build_grid(spec: dict) -> SweepGrid:
    return SweepGrid.cartesian(
        registers=spec["registers"],
        fs=spec["fs"],
        ks=spec["ks"],
        cs=spec["cs"],
        data_sizes=(DATA,),
        seed=SEED,
    )


def coded_regimes(result: SweepResult) -> list[tuple[int, int]]:
    """The (f, k) regimes of the k-using registers (ABD runs per-f only)."""
    return sorted(
        {(r.f, r.k) for r in result.records if register_uses_k(r.register)}
    )


def render_crossover(result: SweepResult, cs: tuple[int, ...]) -> str:
    """One measured-vs-overlay block per scenario x coded regime (the
    shared :func:`~repro.analysis.sweeps.render_crossover_blocks`)."""
    return render_crossover_blocks(result, cs)


def run(
    quick: bool,
    with_crashes: bool = False,
    echo=lambda line: None,
    workers: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
) -> tuple[SweepResult, str]:
    """Run the sweep, write results, return (result, rendered text).

    ``workers > 1`` fans the cells out across a process pool (same JSON,
    measured fields byte-identical); ``checkpoint``/``resume`` journal
    completed cells so an interrupted run picks up where it stopped.
    """
    spec = QUICK_GRID if quick else FULL_GRID
    grid = build_grid(spec)
    scenarios = [Scenario("uniform")]
    if with_crashes:
        scenarios.append(CRASH_SCENARIO)
    coded = {(p.n, p.k) for p in grid if register_uses_k(p.register)}
    echo(
        f"regime sweep: {len(grid) * len(scenarios)} runs over {len(coded)} "
        f"coded (n, k) points (+{len(grid.nk_points()) - len(coded)} "
        f"replication) x {len(scenarios)} scenario(s), D={DATA * 8} bits, "
        f"workers={workers}"
    )
    result = run_sweep(
        grid,
        scenarios=scenarios,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        progress=lambda done, total, point: echo(
            f"  [{done}/{total}] {point.register} f={point.f} "
            f"k={point.k} c={point.c}"
        )
        if done % 25 == 0
        else None,
    )
    text = render_crossover(result, spec["cs"])
    suffix = "_quick" if quick else ""
    json_path = RESULTS_DIR / f"e9_crossover_sweep{suffix}.json"
    result.save(json_path)  # creates RESULTS_DIR for the .txt below too
    (RESULTS_DIR / f"E9_crossover_sweep{suffix}.txt").write_text(text + "\n")
    write_sweep_bench_summary("crossover", result, RESULTS_DIR, quick=quick)
    echo(f"JSON result: {json_path}")
    return result, text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="6 (n, k) points instead of 20 (CI smoke run)",
    )
    parser.add_argument(
        "--with-crashes", action="store_true",
        help="also sweep the churn-with-crashes scenario per regime",
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
    result, text = run(
        quick=args.quick, with_crashes=args.with_crashes, echo=print,
        workers=args.workers, checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print()
    print(text)
    # Cross-regime sanity: ABD flat in c everywhere, coded-only growing
    # (failure-adapted slack applies in crash scenarios). Explicit (not
    # assert) so the smoke run fails even under python -O.
    violations = crossover_shape_violations(result)
    if violations:
        for violation in violations:
            print(f"SHAPE VIOLATION: {violation}")
        return 1
    print(f"\nok: {len(coded_regimes(result))} coded (n, k) points, "
          f"{len(result)} runs, shapes hold")
    return 0


# ---------------------------------------------------------------- pytest


def test_grid_covers_twenty_nk_points():
    """The full CLI grid must span >= 20 distinct (n, k) regimes."""
    grid = build_grid(FULL_GRID)
    coded_nk = {
        (point.n, point.k) for point in grid if point.register != "abd"
    }
    assert len(coded_nk) >= 20


def test_quick_sweep_shapes(record_table):
    """Multi-regime smoke: ABD flat, coded-only linear, overlays ordered."""
    result, text = run(quick=True)
    record_table("E9_crossover_multi_regime", text)
    assert crossover_shape_violations(result) == []
    for record in result.records:
        # BKS'18 strengthens Theorem 1; both undercut measured peaks for
        # the regular registers measured here.
        assert record.thm1_bits <= record.disintegrated_bits
        if record.register in ("coded-only", "adaptive"):
            assert record.peak_bo_state_bits >= record.thm1_bits


def test_crossover_shape(benchmark, record_table):
    """The paper's classic f=3, k=3 curve, now via the sweep engine."""
    result = benchmark.pedantic(
        lambda: run_sweep(build_grid(CLASSIC_GRID)), rounds=1, iterations=1
    )
    cs = CLASSIC_GRID["cs"]
    series = {
        register: [
            y
            for _, y in result.series(
                register=register,
                f=3,
                **(dict(k=3) if register_uses_k(register) else {}),
            )
        ]
        for register in CLASSIC_GRID["registers"]
    }
    record_table("E9_crossover", render_crossover(result, cs))
    k = 3
    # CAS, the paper's named baseline [6], also grows linearly with c.
    assert series["cas"] == sorted(series["cas"])
    assert series["cas"][-1] > 3 * series["cas"][0]

    # ABD: flat in c.
    assert len(set(series["abd"])) == 1
    # Coded-only: strictly growing, ~linear.
    assert series["coded-only"] == sorted(series["coded-only"])
    assert series["coded-only"][-1] > 3 * series["coded-only"][0]
    # Adaptive: grows up to the crossover (c ~ k), then saturates.
    before = [p for c, p in zip(cs, series["adaptive"]) if c < k]
    after = [p for c, p in zip(cs, series["adaptive"]) if c >= k + 1]
    assert before == sorted(before)
    assert max(after) == min(after), "adaptive must saturate past c = k"
    # Beyond the crossover, adaptive strictly beats coded-only.
    for i, c in enumerate(cs):
        if c >= 2 * k:
            assert series["adaptive"][i] < series["coded-only"][i]
    # Everything stays O(min(f,c) D): constants differ, shape must hold —
    # adaptive's saturation level is within a constant of ABD's.
    assert max(after) <= 4 * series["abd"][0]
    # Coded-only's slope is about one piece per object per writer.
    assert linear_slope(cs, series["coded-only"]) > 0


if __name__ == "__main__":
    raise SystemExit(main())
