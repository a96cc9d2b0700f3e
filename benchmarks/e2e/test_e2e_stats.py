"""The arithmetic behind the benchmark's numbers (no sockets, no repro)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from e2e_stats import (
    END_TO_END,
    Metric,
    compare_metric,
    compare_results,
    latency_summary,
    percentile,
    shares,
    span_totals,
    spread,
)

LOWER = Metric("p50_ms", "ms", "lower", 0.10)
HIGHER = Metric("ops_per_s", "ops/s", "higher", 0.10)
EXACT = Metric("failed_frac", "fraction", "lower", 0.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_summary_reports_sample_counts():
    # 1000 ops of 1..1000 us, shuffled: p50 = 500 us, p99 = 990 us, and
    # exactly ten samples lie beyond the p99.
    latencies = [us * 1000 for us in range(1, 1001)]
    summary = latency_summary(latencies[::-1])
    assert summary["samples"] == 1000
    assert summary["p50_ms"] == pytest.approx(0.5)
    assert summary["p99_ms"] == pytest.approx(0.99)
    assert summary["beyond_p99"] == 10
    assert summary["ops_per_s"] == pytest.approx(1000 / 0.5005)
    assert latency_summary([1000] * 600)["beyond_p99"] == 6


def span(sid, code, start, end, parent=-1, op=0, units=0):
    return (sid, code, start, end, parent, op, units)


def test_self_time_subtracts_direct_children_only():
    # handle [0, 100) > append [10, 40) > kernel [20, 30); handle also
    # has a second child [50, 60). Rows arrive in exit order.
    spans = np.array([
        span(2, 2, 20, 30, parent=1),
        span(1, 1, 10, 40, parent=0, units=7),
        span(3, 1, 50, 60, parent=0, units=5),
        span(0, 0, 0, 100),
    ], dtype=np.int64)
    totals = span_totals(spans, ["handle", "append", "kernel"])
    assert totals["handle"] == {
        "calls": 1, "inclusive_ns": 100, "self_ns": 60, "units": 0,
    }
    assert totals["append"] == {
        "calls": 2, "inclusive_ns": 40, "self_ns": 30, "units": 12,
    }
    assert totals["kernel"]["self_ns"] == 10
    assert sum(t["self_ns"] for t in totals.values()) == 100


def test_span_totals_of_nothing():
    empty = np.zeros((0, 7), dtype=np.int64)
    assert span_totals(empty, ["a"])["a"]["calls"] == 0


def test_shares_sum_to_one_with_named_remainder():
    result = shares({"wire": 300, "journal": 100}, 1000, "transport")
    assert result == {
        "share.wire": 0.3, "share.journal": 0.1,
        "share.transport": pytest.approx(0.6),
    }
    assert sum(result.values()) == pytest.approx(1.0)
    other = shares({"kernel": 250}, 1000, "other")
    assert other["share.other"] == pytest.approx(0.75)


def test_spread_is_iqr_over_median():
    assert spread([5.0]) == 0.0
    assert spread([10.0] * 6) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert spread(values) == pytest.approx((107.5 - 92.5) / 100.0)


def test_compare_within_bound_is_ok():
    row = compare_metric(LOWER, [1.00, 1.01, 0.99], [1.05, 1.06, 1.04])
    assert row["verdict"] == "ok"
    assert row["worse_by"] == pytest.approx(0.05)
    assert row["allowed"] == pytest.approx(0.10)


def test_compare_beyond_bound_is_regression():
    assert compare_metric(
        LOWER, [1.00, 1.01, 0.99], [1.20, 1.21, 1.19]
    )["verdict"] == "regression"
    # Direction: fewer ops/s is the worse side of a "higher" metric.
    assert compare_metric(
        HIGHER, [1000, 1010, 990], [850, 860, 840]
    )["verdict"] == "regression"
    assert compare_metric(
        HIGHER, [1000, 1010, 990], [1200, 1210, 1190]
    )["verdict"] == "improved"


def test_compare_noisy_baseline_is_unresolved_not_unchanged():
    noisy = [0.8, 0.9, 1.0, 1.1, 1.2]  # spread 0.35 > bound 0.10
    assert compare_metric(LOWER, noisy, [1.0, 1.05, 0.95])["verdict"] \
        == "unresolved"
    # ... unless every run of the change beats every baseline run.
    assert compare_metric(LOWER, noisy, [0.5, 0.6, 0.7])["verdict"] \
        == "improved"


def test_exact_metrics_allow_no_worsening():
    assert compare_metric(EXACT, [0.0, 0.0], [0.0, 0.0])["verdict"] == "ok"
    assert compare_metric(EXACT, [0.0, 0.0], [0.001, 0.001])["verdict"] \
        == "regression"
    storage = next(m for m in END_TO_END if m.name == "storage_ratio")
    assert compare_metric(storage, [3.0] * 3, [3.0] * 3)["verdict"] == "ok"
    assert compare_metric(storage, [42.25] * 3, [42.5] * 3)["verdict"] \
        == "regression"


def test_setup_floor_absorbs_interpreter_jitter():
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    # 0.09 s on a 0.3 s set-up is 30 % but under the 0.1 s floor.
    assert compare_metric(setup, [0.30] * 3, [0.39] * 3)["verdict"] == "ok"
    assert compare_metric(setup, [0.30] * 3, [0.45] * 3)["verdict"] \
        == "regression"


def result_file(**p50_by_workload):
    def run(p50):
        values = {m.name: 1.0 for m in END_TO_END}
        values.update(p50_ms=p50, failed_frac=0.0)
        return {"end_to_end": values}

    return {"workloads": {
        name: {"runs": [run(p50) for p50 in p50s]}
        for name, p50s in p50_by_workload.items()
    }}


def test_compare_results_covers_every_metric_and_shared_workload():
    base = result_file(a=[1.0, 1.0, 1.0], b=[2.0, 2.0, 2.0])
    change = result_file(a=[1.5, 1.5, 1.5])
    rows = compare_results(base, change)
    assert {row["workload"] for row in rows} == {"a"}
    assert len(rows) == len(END_TO_END)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["p50_ms"] == "regression"
    assert verdicts["ops_per_s"] == "ok"


def test_contract_file_agrees_with_the_metric_table():
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    table = {m.name: m for m in END_TO_END}
    for entry in spec["end_to_end"]:
        metric = table[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    assert spec["paths"] == ["benchmarks/e2e"]
    assert len(spec["workloads"]) == 5
