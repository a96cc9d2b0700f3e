"""One layered end-to-end benchmark: the service, the simulator, the codec.

    python3 benchmarks/e2e/run.py --workload svc-write-large   # one, untraced
    python3 benchmarks/e2e/run.py --workload sim-cell --trace 1
    python3 benchmarks/e2e/run.py --workload all --runs 3 --out a.json
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --report a.json

One workload with ``--trace 0`` measures the end-to-end metrics on
unmodified code; ``--trace 1`` records spans around each layer in every
other one-second window of the run (the windows between are the reference
for the tracing overhead) and reports the per-layer metrics. The last stdout line is one JSON object with the
metrics ``BENCHMARK.json`` names. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
RESULTS = HERE / "results"

#: Fresh interpreters started per run to measure ``setup_s`` (median).
SETUP_SAMPLES = 5

#: Above this the per-layer numbers of a workload are flagged, not trusted.
MAX_TRACE_OVERHEAD = 0.25

LOAD = ("one process, one thread, one closed-loop client; in-loop replicas; "
        "0 injected message delay")

def import_program():
    """Put ``src/`` on the path; without the program there is no result."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"e2e: {src}/repro not found: nothing to measure")
    sys.path.insert(0, str(src))
    import e2e_workloads

    return e2e_workloads


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ one workload


def sample_setup(name: str, seed: int) -> list[float]:
    """``setup_s``: fresh interpreter start -> ready for the first timed op.

    Imports, cluster start and connect or scheme construction, the input
    pool and the warm-up ops, each time in a new process.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"e2e: set-up of {name} failed in a fresh interpreter")
        samples.append(elapsed)
    return samples


def setup_only(workloads, name: str, seed: int, work: Path) -> int:
    workload = workloads.WORKLOADS[name]()

    async def ready_then_close():
        try:
            await workload.setup(seed, work, None)
            print("ready", flush=True)
        finally:
            await workload.close()

    asyncio.run(ready_then_close())
    return 0


def measure(workloads, args, work: Path) -> dict:
    """Run the pass one invocation asks for; return the detailed result."""
    from e2e_stats import latency_summary

    name, seed = args.workload, args.seed
    workload = workloads.WORKLOADS[name]()
    detail = {
        "workload": name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "load": LOAD,
        "data_size": workload.data_size, "warmup": workload.warmup,
        "user_bytes_per_op": workload.user_bytes_per_op,
        "end_to_end": None, "per_layer": None,
    }
    tracer = None
    if args.trace:
        from e2e_trace import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    else:
        setup_samples = sample_setup(name, seed)
    try:
        raw = asyncio.run(workloads.run_pass(
            workload, seed, args.seconds, work, tracer
        ))
    finally:
        if tracer is not None:
            tracer.restore()
    if not raw["latencies_ns"] or (args.trace and not raw["reference_ns"]):
        sys.exit(f"e2e: too few ops of {name} succeeded: {raw['reason']}")
    summary = latency_summary(raw["latencies_ns"])
    facts = raw["facts"]
    detail.update(
        attempted=raw["attempted"], failed=raw["failed"],
        reason=raw["reason"], samples=summary["samples"],
        flush_policy=facts.get("flush_policy"),
    )
    if not args.trace:
        detail.update(
            beyond_p99=summary["beyond_p99"], setup_samples=setup_samples,
            end_to_end={
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": summary["ops_per_s"],
                "p50_ms": summary["p50_ms"],
                "p99_ms": summary["p99_ms"],
                "storage_ratio": facts["storage_ratio"],
                "journal_ratio": facts["journal_ratio"],
                "failed_frac": raw["failed"] / raw["attempted"],
            },
        )
        return detail
    reference = latency_summary(raw["reference_ns"])
    metrics = layer_metrics(
        tracer, ops=summary["samples"], timed_ns=sum(raw["latencies_ns"]),
        remainder=workload.remainder, facts=facts,
        fact_ops=summary["samples"] + reference["samples"],
    )
    metrics["journal_ratio"] = facts["journal_ratio"]
    overhead = reference["ops_per_s"] / summary["ops_per_s"] - 1
    metrics["trace.overhead_frac"] = overhead
    detail.update(
        spans=tracer.next_id, reference_samples=reference["samples"],
        missing=tracer.missing, reliable=overhead <= MAX_TRACE_OVERHEAD,
        per_layer=metrics,
    )
    return detail


def print_detail(detail: dict, spec: dict) -> None:
    """Every metric by name with its unit, and what the numbers rest on."""
    from e2e_stats import END_TO_END

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update((metric.name, metric.unit) for metric in END_TO_END)
    size, per_op = detail["data_size"], detail["user_bytes_per_op"]
    print(f"e2e {detail['workload']}: seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']}")
    print(f"  load: {detail['load']}")
    print(f"  input: D = {size} B, {detail['warmup']} warm-up ops, "
          f"{detail['samples']} timed ops"
          + (f" with spans, {detail['reference_samples']} without"
             if detail["trace"] else ""))
    if detail["flush_policy"]:
        print(f"  journal: {detail['flush_policy']}")
    if detail["end_to_end"] is not None:
        metrics = detail["end_to_end"]
        beyond = detail["beyond_p99"]
        notes = {
            "setup_s": f"median of {len(detail['setup_samples'])} fresh "
                       "interpreters",
            "ops_per_s": f"{metrics['ops_per_s'] * per_op / 1e6:.3f} MB/s "
                         f"of user data at {per_op} B per op",
            "p50_ms": f"{detail['samples']} samples",
            "p99_ms": f"{beyond} samples beyond it"
                      + ("" if beyond >= 10 else " - too few to trust"),
        }
    else:
        metrics = detail["per_layer"]
        notes = {}
        if not detail["reliable"]:
            print("  UNRELIABLE: tracing slowed this workload by more than "
                  f"{MAX_TRACE_OVERHEAD:.0%}; per-layer numbers are flagged")
        for layer, names in detail["missing"].items():
            print(f"  layer {layer}: n/a, missing {', '.join(names)}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {shown:>12s} {units.get(name, ''):10s}{note}")
    if detail["failed"]:
        print(f"  FAILED: {detail['failed']} of {detail['attempted']} ops; "
              f"first: {detail['reason']}")
    else:
        print(f"  checks: ok ({detail['attempted']} ops attempted, 0 failed)")


def last_line(detail: dict, spec: dict) -> str:
    """The one JSON object the driver reads: the contract's metrics only."""
    if detail["trace"]:
        wanted, values = spec["per_layer"], detail["per_layer"]
    else:
        wanted, values = spec["end_to_end"], detail["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        # A layer whose callable is gone is null in the result file; the
        # driver's line must stay numeric, so it reads 0 there.
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": metric["unit"],
        }
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def run_one(args, spec: dict) -> int:
    workloads = import_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            return setup_only(workloads, args.workload, args.seed, work)
        try:
            detail = measure(workloads, args, work)
        except workloads.CheckFailed as error:
            print(f"e2e: CHECK FAILED on {args.workload}: {error}",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_detail(detail, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print(last_line(detail, spec))
    return 1 if detail["failed"] else 0


# ---------------------------------------------------------- many workloads


def run_many(args, names: list[str]) -> int:
    """Each workload in its own interpreter, untraced then traced."""
    WORK.mkdir(exist_ok=True)
    result = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "context": {
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "load": LOAD, "order": names,
        },
        "workloads": {name: {"runs": []} for name in names},
    }
    def child(name: str, trace: int) -> dict | None:
        handle, path = tempfile.mkstemp(suffix=".json", dir=WORK)
        os.close(handle)
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", path],
            ).returncode
            text = Path(path).read_text()
        finally:
            os.unlink(path)
        return json.loads(text) if code == 0 and text else None

    broken = 0
    for _ in range(args.runs):
        for name in names:
            untraced, traced = child(name, 0), child(name, 1)
            if untraced is None or traced is None:
                broken += 1
                continue
            result["workloads"][name]["runs"].append({
                "end_to_end": untraced["end_to_end"],
                "samples": untraced["samples"],
                "flush_policy": untraced["flush_policy"],
                "per_layer": traced["per_layer"],
                "missing": traced["missing"],
                "reliable": traced["reliable"],
            })
    out = Path(args.out) if args.out else RESULTS / f"e2e-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult file: {out}")
    report(result)
    if broken:
        print(f"e2e: {broken} run(s) failed; see above", file=sys.stderr)
    return 1 if broken else 0


# ------------------------------------------------------- report + compare


def _median_layer(result: dict, workload: str, name: str):
    values = [
        run["per_layer"].get(name)
        for run in result["workloads"].get(workload, {}).get("runs", [])
    ]
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def _cell(value, fmt: str = ".3f") -> str:
    return "n/a" if value is None else format(value, fmt)


def report(result: dict) -> None:
    """The two tables a reader wants first, as markdown."""
    names = [n for n, e in result["workloads"].items() if e["runs"]]
    if not names:
        return
    share_names = sorted({
        key for n in names for run in result["workloads"][n]["runs"]
        for key in run["per_layer"] if key.startswith("share.")
    })
    print("\nshare of timed wall time per layer (median over runs; "
          "each column sums to 1):\n")
    print("| share | " + " | ".join(names) + " |")
    print("|---|" + "---:|" * len(names))
    for share in share_names + ["trace.overhead_frac"]:
        cells = [_cell(_median_layer(result, n, share)) for n in names]
        print(f"| `{share}` | " + " | ".join(cells) + " |")
    flagged = [
        n for n in names
        if not all(run["reliable"] for run in result["workloads"][n]["runs"])
    ]
    if flagged:
        print(f"\nUNRELIABLE (trace overhead > {MAX_TRACE_OVERHEAD:.0%}): "
              + ", ".join(flagged))
    large = "svc-write-large"
    if large not in names:
        return
    rows = [
        ("service.wire encode", "wire.encode_us_per_op"),
        ("service.wire decode", "wire.decode_us_per_op"),
        ("service.framing", "framing.us_per_op"),
        ("msgnet.protocol client", "protocol.client_us_per_op"),
        ("msgnet.protocol server", "protocol.server_us_per_op"),
        ("service.journal", "journal.append_us_per_op"),
        ("coding", "coding.encode_us_per_op"),
        ("service.transport (remainder)", "transport.us_per_op"),
    ]
    total = sum(_median_layer(result, large, key) or 0.0 for _, key in rows)
    print("\nwhere a 64 KiB write spends its time "
          f"({large}, traced pass, all {3} replicas' work):\n")
    print("| layer | us per write | share |")
    print("|---|---:|---:|")
    for label, key in rows:
        value = _median_layer(result, large, key)
        share = None if value is None or not total else value / total
        print(f"| {label} | {_cell(value, '.0f')} | {_cell(share, '.1%')} |")
    print(f"| total | {total:.0f} | 100.0% |")


def compare(base_path: str, change_path: str) -> int:
    from e2e_stats import compare_results

    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    rows = compare_results(base, change)
    print(f"{'workload':18s} {'metric':14s} {'base':>12s} {'change':>12s} "
          f"{'worse by':>10s} {'allowed':>10s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:14s} "
              f"{row['base_median']:12.5g} {row['change_median']:12.5g} "
              f"{row['worse_by']:10.3g} {row['allowed']:10.3g} "
              f"{row['base_spread']:7.1%}  {row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print(f"\n{verdicts.count('regression')} regression(s), "
          f"{verdicts.count('unresolved')} unresolved, "
          f"{len(rows)} metric x workload pairs")
    return 1 if "regression" in verdicts else 0


def main(argv=None) -> int:
    spec = contract()
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, a comma-separated list in run "
                             "order, or all" % ", ".join(known))
    parser.add_argument("--seed", type=int, default=11,
                        help="seeds every generated value and erasure")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one pass measures "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with several workloads: repeats of each")
    parser.add_argument("--out", help="write the detailed result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--report", metavar="RESULT")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.report:
        report(json.loads(Path(args.report).read_text()))
        return 0
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = known if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if len(names) == 1:
        args.workload = names[0]
        return run_one(args, spec)
    return run_many(args, names)


if __name__ == "__main__":
    sys.exit(main())
