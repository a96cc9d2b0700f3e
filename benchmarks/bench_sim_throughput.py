"""E12 — simulation-loop throughput: the O(1)-per-action hot path.

PRs 1-2 made encoding ~25x faster, which left the *simulation loop* as the
sweep bottleneck: per-action storage metering used to re-walk every
base-object state, applied response, and pending RMW (O(actions x state)
overall). This benchmark pins the replacement — the incremental
:class:`~repro.storage.cost.StorageLedger` plus the kernel's indexed
queues — against the full-walk reference meter on the acceptance workload
(8 writers, 8 readers, RS(k=16, n=32)) and records actions/sec for three
configurations:

* ``full-walk``  — :class:`ReferenceStorageMeter` sampled at every action:
  the pre-PR metering cost (run on the new kernel, so the measured speedup
  is a *lower bound* on the true pre-PR speedup — the old kernel also
  rebuilt sorted action queues each step);
* ``ledger``     — the production path (`run_register_workload`);
* ``kernel-only``— no metering at all: the ceiling the ledger approaches.

Both metered runs must report bit-identical peaks (measurement
invisibility), and the ledger must beat the full walk by ``--min-speedup``
(default 3.0; the acceptance bar). Results go to
``benchmarks/results/e12_sim_throughput.json`` and ``.txt``.

Two entry points:

* ``python benchmarks/bench_sim_throughput.py [--quick]`` — the script;
  ``--quick`` trims the workload for CI smoke runs and runs the ledger
  with ``audit_storage_every=1`` (ledger == full walk asserted at every
  action), on the fair schedule and on one random schedule with an object
  and a client crash;
* ``pytest benchmarks/bench_sim_throughput.py`` — a fast parity smoke.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.analysis import SweepGrid, SweepPoint, run_sweep
from repro.analysis.benchgate import metric, write_bench_summary
from repro.registers import AdaptiveRegister, RegisterSetup
from repro.sim import FailurePlan, FairScheduler, RandomScheduler, at_time
from repro.storage import PeakTracker, ReferenceStorageMeter, StorageMeter
from repro.workloads import WorkloadSpec, run_register_workload, uniform_wave

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The acceptance workload: RS(k=16, n=32) via n = 2f + k with f = 8.
SETUP = RegisterSetup(f=8, k=16, data_size_bytes=4096)
SPEC = WorkloadSpec(writers=8, writes_per_writer=3, readers=8,
                    reads_per_reader=3, seed=0)
#: CI smoke workload: same register and code, quarter the clients — the
#: full-walk mode and the every-action audit both cost O(actions x state),
#: so the smoke stays a few seconds instead of ~40 s on shared runners.
QUICK_SPEC = WorkloadSpec(writers=4, writes_per_writer=1, readers=4,
                          reads_per_reader=1, seed=0)


def _manual_run(spec: WorkloadSpec, meter_cls=None):
    """Run the acceptance workload with an explicit meter choice.

    Builds the same :func:`uniform_wave` :func:`run_register_workload`
    runs (same priming, same decode cache, same fair scheduler, hence the
    byte-identical action sequence) but lets the benchmark attach the
    *reference* meter — or none at all — where the runner always uses the
    ledger-backed one.
    """
    sim = uniform_wave(AdaptiveRegister, SETUP, spec, keep_events=False).sim
    tracker = None
    if meter_cls is not None:
        tracker = PeakTracker(meter_cls(sim))
    run = sim.run(FairScheduler(), on_action=tracker)
    assert run.quiescent, "benchmark workload failed to quiesce"
    return run, tracker


def _time_mode(label: str, spec: WorkloadSpec, repeats: int, runner):
    """Best-of-``repeats`` wall-clock; returns (actions/sec, peaks)."""
    best_elapsed = None
    steps = None
    peaks = None
    for _ in range(repeats):
        started = time.perf_counter()
        run, tracker = runner(spec)
        elapsed = time.perf_counter() - started
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
        steps = run.steps
        if tracker is not None:
            peaks = (tracker.peak_bits, tracker.peak_bo_only_bits)
    return {
        "label": label,
        "steps": steps,
        "seconds": round(best_elapsed, 6),
        "actions_per_sec": round(steps / best_elapsed, 1),
        "peaks": peaks,
    }


def _run_ledger(spec: WorkloadSpec, audit_every: int = 0):
    result = run_register_workload(
        AdaptiveRegister, SETUP, spec, keep_events=False,
        audit_storage_every=audit_every,
    )
    class _TrackerView:
        peak_bits = result.peak_storage_bits
        peak_bo_only_bits = result.peak_bo_state_bits
    return result.run, _TrackerView


def _run_random_with_crashes(spec: WorkloadSpec, audit_every: int) -> int:
    """A seeded random schedule that crashes one base object and one
    writer mid-run, the ledger audited every ``audit_every`` actions.
    Random draws read the kernel's sampling arrays, which a fair run never
    builds, so this is the pass that audits them. Returns the step count."""
    plans = []

    def configure(sim, scheduler):
        plans.append(FailurePlan(scheduler))
        plans[0].crash_base_object(0, at_time(40))
        plans[0].crash_client("w0", at_time(60))
        return plans[0]

    result = run_register_workload(
        AdaptiveRegister, SETUP, spec, scheduler=RandomScheduler(seed=0),
        configure=configure, require_quiescence=False,
        audit_storage_every=audit_every,
    )
    assert plans[0].fired_bo_crashes == plans[0].fired_client_crashes == 1, (
        "the random pass must crash an object and a client"
    )
    return result.run.steps


def sweep_point_seconds(quick: bool) -> float:
    """Mean wall-clock per sweep point (the new per-record timing field)."""
    cs = (2,) if quick else (4, 8)
    grid = SweepGrid.explicit([
        SweepPoint(register="adaptive", f=4, k=8, c=c, data_size_bytes=1024)
        for c in cs
    ])
    result = run_sweep(grid)
    clocks = [record.wall_clock_s for record in result.records]
    assert all(clock > 0 for clock in clocks), "sweep records lost wall-clock"
    return round(sum(clocks) / len(clocks), 6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small workload, audited ledger run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode (best-of)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="required ledger-vs-full-walk ratio "
                             "(default: 3.0, or 1.0 with --quick)")
    args = parser.parse_args()
    spec = QUICK_SPEC if args.quick else SPEC
    repeats = args.repeats or (1 if args.quick else 3)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 1.0 if args.quick else 3.0

    # The audited pass is the correctness half of the quick smoke: every
    # action asserts ledger == full walk (MeasurementError on divergence).
    audited_every = 1 if args.quick else 64
    _run_ledger(spec, audit_every=audited_every)
    random_steps = _run_random_with_crashes(spec, audited_every)
    audit_note = f"ledger audited vs full walk every {audited_every} action(s)"

    # One repeat suffices for the full walk: it runs for minutes, so timing
    # noise is negligible — and it is the mode this PR made obsolete.
    full_walk = _time_mode(
        "full-walk", spec, 1,
        lambda s: _manual_run(s, ReferenceStorageMeter),
    )
    ledger = _time_mode("ledger", spec, repeats, _run_ledger)
    kernel_only = _time_mode(
        "kernel-only", spec, repeats, lambda s: _manual_run(s, None)
    )
    # Sanity: the ledger-backed meter on the manual path matches too.
    _, manual_ledger_tracker = _manual_run(spec, StorageMeter)

    assert full_walk["steps"] == ledger["steps"] == kernel_only["steps"], (
        "metering must not change the schedule"
    )
    parity = (
        full_walk["peaks"] == ledger["peaks"]
        == (manual_ledger_tracker.peak_bits,
            manual_ledger_tracker.peak_bo_only_bits)
    )
    assert parity, (
        f"measurement divergence: full-walk={full_walk['peaks']} "
        f"ledger={ledger['peaks']}"
    )
    speedup = ledger["actions_per_sec"] / full_walk["actions_per_sec"]
    point_seconds = sweep_point_seconds(args.quick)

    lines = [
        "E12: simulation-loop throughput "
        f"(AdaptiveRegister, RS(k={SETUP.k}, n={SETUP.n}), "
        f"{spec.writers}w/{spec.readers}r, {SETUP.data_size_bytes} B values)",
        "",
        f"{'mode':>12}  {'steps':>7}  {'seconds':>9}  {'actions/sec':>12}",
    ]
    for mode in (full_walk, ledger, kernel_only):
        lines.append(
            f"{mode['label']:>12}  {mode['steps']:>7}  "
            f"{mode['seconds']:>9.4f}  {mode['actions_per_sec']:>12.1f}"
        )
    lines += [
        "",
        f"ledger vs full-walk speedup: {speedup:.2f}x "
        f"(required >= {min_speedup:.2f}x)",
        f"peaks bit-identical across meters: {parity}",
        f"{audit_note}: ok",
        f"random schedule with an object and a client crash "
        f"({random_steps} steps), same audit: ok",
        f"mean wall-clock per sweep point: {point_seconds:.4f} s "
        "(recorded per-record as SweepRecord.wall_clock_s)",
    ]
    table = "\n".join(lines)
    print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "E12_sim_throughput.txt").write_text(table + "\n")
    payload = {
        "experiment": "e12_sim_throughput",
        "quick": args.quick,
        "workload": {
            "register": "adaptive",
            "f": SETUP.f, "k": SETUP.k, "n": SETUP.n,
            "data_size_bytes": SETUP.data_size_bytes,
            "writers": spec.writers, "writes_per_writer": spec.writes_per_writer,
            "readers": spec.readers, "reads_per_reader": spec.reads_per_reader,
        },
        "modes": [full_walk, ledger, kernel_only],
        "speedup_ledger_vs_full_walk": round(speedup, 3),
        "min_speedup_required": min_speedup,
        "peaks_bit_identical": parity,
        "audited_every_actions": audited_every,
        "mean_sweep_point_seconds": point_seconds,
    }
    (RESULTS_DIR / "e12_sim_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    write_bench_summary(
        "sim_throughput",
        {
            "ledger_actions_per_s": metric(
                ledger["actions_per_sec"], "actions/s"
            ),
            "mean_sweep_point_seconds": metric(
                point_seconds, "s", direction="lower"
            ),
        },
        RESULTS_DIR,
        quick=args.quick,
    )
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below bar {min_speedup:.2f}x")
        return 1
    return 0


# ------------------------------------------------------------------ pytest


class TestSimThroughputSmoke:
    def test_meters_agree_and_schedule_is_invariant(self):
        """Parity-only smoke (no timing asserts — CI machines are noisy)."""
        spec = WorkloadSpec(writers=2, writes_per_writer=1, readers=2,
                            reads_per_reader=1, seed=0)
        run_ref, tracker_ref = _manual_run(spec, ReferenceStorageMeter)
        run_led, tracker_led = _manual_run(spec, StorageMeter)
        assert run_ref.steps == run_led.steps
        assert (tracker_ref.peak_bits, tracker_ref.peak_bo_only_bits) == \
            (tracker_led.peak_bits, tracker_led.peak_bo_only_bits)

    def test_sweep_records_carry_wall_clock(self):
        assert sweep_point_seconds(quick=True) > 0


if __name__ == "__main__":
    raise SystemExit(main())
