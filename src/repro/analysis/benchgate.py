"""Canonical bench summaries and the CI throughput-regression gate.

Every ``--quick`` benchmark step in CI writes a machine-readable summary
— ``benchmarks/results/BENCH_<name>.json`` — of the throughput numbers it
measured (actions/s, MB/s, wall-clock per sweep cell). A committed
baseline copy of each summary lives in ``benchmarks/baselines/``, and
``scripts/check_bench_regression.py`` compares the two after the bench
steps run: a metric that regressed by more than the threshold (default
40%) fails CI. The wide threshold absorbs runner-to-runner noise; a real
regression — an accidentally quadratic loop, a lost vectorized path —
moves throughput by integer factors and trips it loudly.

The summary schema is deliberately tiny::

    {
      "bench": "sim_throughput",
      "schema": 1,
      "quick": true,
      "metrics": {
        "ledger_actions_per_s": {"value": 16000.0, "unit": "actions/s",
                                  "direction": "higher"}
      }
    }

``direction`` declares which way is better: ``"higher"`` for throughput,
``"lower"`` for wall-clock. Regression is always judged as an implied
*throughput* ratio, so a ``lower`` metric regresses when
``baseline / current`` falls below ``1 - threshold`` — the same criterion
a ``higher`` metric applies to ``current / baseline``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ParameterError

#: Summary document schema version.
BENCH_SCHEMA_VERSION = 1

#: Allowed metric directions: which way is *better*.
DIRECTIONS = ("higher", "lower")


def metric(
    value: float, unit: str, direction: str = "higher"
) -> dict[str, object]:
    """One gated measurement: value, display unit, better-direction."""
    if direction not in DIRECTIONS:
        raise ParameterError(
            f"metric direction must be one of {DIRECTIONS}, got "
            f"{direction!r}"
        )
    return {"value": float(value), "unit": unit, "direction": direction}


def bench_summary_path(results_dir: str | Path, name: str) -> Path:
    """The canonical location of bench ``name``'s summary file."""
    return Path(results_dir) / f"BENCH_{name}.json"


def write_bench_summary(
    name: str,
    metrics: dict[str, dict[str, object]],
    results_dir: str | Path,
    *,
    quick: bool,
) -> Path:
    """Write ``BENCH_<name>.json`` (canonical: sorted keys, 2-space indent).

    ``metrics`` maps metric names to :func:`metric` dicts. ``quick``
    records which mode produced the numbers — the gate refuses to compare
    a quick run against a full-mode baseline (their workloads differ, so
    the ratio would be meaningless).
    """
    for metric_name, entry in metrics.items():
        if entry.get("direction") not in DIRECTIONS:
            raise ParameterError(
                f"metric {metric_name!r} missing a valid direction"
            )
    path = bench_summary_path(results_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": name,
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_sweep_bench_summary(
    name: str, result, results_dir: str | Path, *, quick: bool
) -> Path:
    """Canonical summary of a sweep benchmark: cells/s + mean cell time.

    The shared writer behind ``bench_crossover.py`` and
    ``bench_scenario_sweep.py`` (same metric names, rounding, and
    directions — the committed baselines depend on them agreeing).
    Throughput derives from the per-record ``wall_clock_s`` (summed cell
    compute time), **not** the caller's elapsed wall-clock: resumed runs
    recompute only pending cells and pooled runs overlap cells, so an
    external timer would inflate the metric — journalled cells carry
    their original compute time instead.
    """
    records = getattr(result, "records", result)
    if not records:
        raise ParameterError("cannot summarise an empty sweep result")
    total_s = sum(record.wall_clock_s for record in records)
    if total_s <= 0:
        raise ParameterError("sweep records carry no wall-clock timing")
    return write_bench_summary(
        name,
        {
            "cells_per_s": metric(
                round(len(records) / total_s, 3), "cells/s"
            ),
            "mean_cell_wall_clock_s": metric(
                round(total_s / len(records), 6), "s", direction="lower"
            ),
        },
        results_dir,
        quick=quick,
    )


def load_bench_summary(path: str | Path) -> dict:
    """Load and validate one summary document."""
    document = json.loads(Path(path).read_text())
    if document.get("schema") != BENCH_SCHEMA_VERSION:
        raise ParameterError(
            f"{path}: unsupported bench summary schema "
            f"{document.get('schema')!r}"
        )
    if not isinstance(document.get("metrics"), dict):
        raise ParameterError(f"{path}: summary has no metrics table")
    return document


def throughput_ratio(
    baseline: dict[str, object], current: dict[str, object]
) -> float | None:
    """Current-over-baseline as an implied throughput ratio (1.0 = parity).

    ``None`` when the baseline value is zero (no meaningful ratio — the
    gate treats it as not comparable rather than dividing by zero).
    """
    base = float(baseline["value"])
    new = float(current["value"])
    if baseline["direction"] == "lower":
        return base / new if new else None
    return new / base if base else None


def compare_summaries(
    baseline: dict, current: dict, threshold: float = 0.40
) -> list[str]:
    """Gate one bench: return regression/problem messages (empty = pass).

    Fails when a baseline metric is missing from the current run, when
    the two summaries came from different modes, or when any metric's
    implied throughput ratio drops below ``1 - threshold``. Metrics
    present only in the current run are ignored — adding a measurement
    must not require regenerating every baseline.
    """
    if not 0 < threshold < 1:
        raise ParameterError("threshold must be in (0, 1)")
    problems: list[str] = []
    name = baseline.get("bench", "?")
    if current.get("bench") != name:
        return [
            f"{name}: current summary is for bench "
            f"{current.get('bench')!r}, not {name!r}"
        ]
    if current.get("quick") != baseline.get("quick"):
        return [
            f"{name}: mode mismatch (baseline quick="
            f"{baseline.get('quick')}, current quick="
            f"{current.get('quick')}) — workloads are not comparable"
        ]
    floor = 1.0 - threshold
    for metric_name, base_entry in baseline["metrics"].items():
        current_entry = current["metrics"].get(metric_name)
        if current_entry is None:
            problems.append(
                f"{name}.{metric_name}: metric missing from current run"
            )
            continue
        if current_entry.get("direction") != base_entry.get("direction"):
            problems.append(
                f"{name}.{metric_name}: direction changed "
                f"({base_entry.get('direction')} -> "
                f"{current_entry.get('direction')})"
            )
            continue
        ratio = throughput_ratio(base_entry, current_entry)
        if ratio is None:
            continue
        if ratio < floor:
            problems.append(
                f"{name}.{metric_name}: regressed to {ratio:.2f}x of "
                f"baseline ({base_entry['value']} -> "
                f"{current_entry['value']} {base_entry.get('unit', '')}; "
                f"gate: >= {floor:.2f}x)"
            )
    return problems
