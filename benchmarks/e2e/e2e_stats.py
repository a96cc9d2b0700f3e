"""Numbers the benchmark reports: percentiles, span self time, comparison.

Everything here is plain arithmetic over lists the benchmark already
holds, so it is unit-tested without sockets (``test_e2e_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric: its unit, direction and regression bound.

    ``bound`` is the share of the baseline's median by which the metric
    may worsen; ``floor`` is an absolute allowance in the metric's unit
    (only ``setup_s`` has one: 0.1 s of interpreter start-up jitter is not
    a regression whatever share of a short set-up it is).
    """

    name: str
    unit: str
    better: str
    bound: float
    floor: float = 0.0


#: The seven end-to-end metrics, defined on every workload and gated by
#: ``--compare``. ``BENCHMARK.json`` carries the four the driver can gate:
#: its metrics must never be zero (``journal_ratio`` and ``failed_frac``
#: mostly are) and must repeat within their bound across ten seeds, which
#: ``p99_ms`` does not on a shared 2-core VM (11-31 % measured). The time
#: bounds are sized from the same measurement: ten-seed spreads of
#: ``ops_per_s`` and ``p50_ms`` are 1-9 % while the machine holds one speed
#: and 14-16 % when it changes speed mid-series, which it does.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, floor=0.1),
    Metric("ops_per_s", "ops/s", "higher", 0.20),
    Metric("p50_ms", "ms", "lower", 0.20),
    Metric("p99_ms", "ms", "lower", 0.25),
    # Counts, not times: they only move when the program changes. The
    # 0.1 % allowance is below one block of one cell; journal_ratio gets
    # 1 % because timestamps gain digits as a time-boxed run gets longer.
    Metric("storage_ratio", "bits/bit", "lower", 0.001),
    Metric("journal_ratio", "bytes/byte", "lower", 0.01),
    Metric("failed_frac", "fraction", "lower", 0.0),
)


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list (``p`` in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(latencies_ns: list[int]) -> dict:
    """Throughput, median and p99 of the timed ops, with sample counts.

    ``ops_per_s`` divides by the summed latencies, not by wall time, so
    the output checks that run between ops stay out of it. ``beyond_p99``
    says how much the p99 can be trusted: below ten samples it is one
    outlier's position, not a percentile.
    """
    ordered = sorted(latencies_ns)
    count = len(ordered)
    total_ns = sum(ordered)
    return {
        "samples": count,
        "ops_per_s": count / (total_ns / 1e9),
        "p50_ms": percentile(ordered, 50) / 1e6,
        "p99_ms": percentile(ordered, 99) / 1e6,
        "beyond_p99": count - math.ceil(0.99 * count),
    }


# ------------------------------------------------------------------ spans

#: Columns of one recorded span (see ``e2e_trace.Tracer``).
SPAN_FIELDS = ("sid", "code", "start", "end", "parent", "op", "units")


def span_totals(spans: np.ndarray, names: list[str]) -> dict[str, dict]:
    """Per span name: calls, inclusive ns, self ns and summed units.

    ``spans`` is an ``(n, 7)`` int64 array in :data:`SPAN_FIELDS` order.
    A span's self time is its duration minus its direct children's
    durations — children nest strictly inside their parent because every
    traced callable is synchronous.
    """
    totals = {
        name: {"calls": 0, "inclusive_ns": 0, "self_ns": 0, "units": 0}
        for name in names
    }
    if len(spans) == 0:
        return totals
    sid, code, start, end, parent = (spans[:, i] for i in range(5))
    units = spans[:, 6]
    duration = end - start
    children = np.zeros(int(sid.max()) + 1, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    self_time = duration - children[sid]
    for index, name in enumerate(names):
        mask = code == index
        totals[name] = {
            "calls": int(mask.sum()),
            "inclusive_ns": int(duration[mask].sum()),
            "self_ns": int(self_time[mask].sum()),
            "units": int(units[mask].sum()),
        }
    return totals


def layer_of(span_name: str) -> str:
    """``wire.encode`` -> ``wire``: the layer a span's self time goes to."""
    return span_name.split(".", 1)[0]


def shares(self_ns_by_layer: dict[str, int], wall_ns: int,
           remainder: str) -> dict[str, float]:
    """Each layer's share of ``wall_ns``; ``remainder`` takes what is left.

    The result always sums to 1: time no span covers is named, not
    dropped. A remainder that comes out negative means spans overlapped
    the timed window's edge (replica work finishing after the last op);
    it is reported as measured.
    """
    result = {
        f"share.{layer}": ns / wall_ns
        for layer, ns in self_ns_by_layer.items()
    }
    result[f"share.{remainder}"] = 1.0 - sum(result.values())
    return result


# -------------------------------------------------------------- comparison


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare_metric(metric: Metric, base: list[float],
                   change: list[float]) -> dict:
    """Verdict for one metric on one workload: baseline runs vs change runs.

    ``regression`` — the change's median is worse than the baseline's by
    more than the bound. ``unresolved`` — it is not, but the baseline's
    own run-to-run spread is wider than the bound, so "no worse" cannot
    be told from noise (unless every change run beats every baseline
    run). ``improved`` / ``ok`` otherwise. A zero bound is an exact
    match: any worsening at all is a regression.
    """
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (change_median - base_median)
    allowed = max(metric.bound * abs(base_median), metric.floor)
    base_spread = spread(base)
    if sign > 0:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if worse_by > allowed:
        verdict = "regression"
    elif all_better:
        verdict = "improved"
    elif base_spread > metric.bound and metric.bound > 0:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "metric": metric.name,
        "unit": metric.unit,
        "base_median": base_median,
        "change_median": change_median,
        "worse_by": worse_by,
        "allowed": allowed,
        "base_spread": base_spread,
        "verdict": verdict,
    }


def compare_results(base: dict, change: dict) -> list[dict]:
    """Every workload x end-to-end metric present in both result files."""
    rows = []
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for metric in END_TO_END:
            ours = [run["end_to_end"][metric.name] for run in entry["runs"]]
            theirs = [run["end_to_end"][metric.name] for run in other["runs"]]
            row = compare_metric(metric, ours, theirs)
            row["workload"] = workload
            rows.append(row)
    return rows
