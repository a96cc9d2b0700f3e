"""Command-line interface: run the paper's experiments from a shell.

The subcommands mirror the repository's headline experiments::

    python -m repro compare    --f 3 --k 3 --data-size 48 --max-c 10
    python -m repro lowerbound --f 3 --k 3 --data-size 48 --c 4
    python -m repro audit      --register adaptive --writers 3 --readers 2
    python -m repro claim1     --k 3 --n 7 --indices 0,4
    python -m repro sweep      --fs 1,2 --ks 2,4 --cs 1,2,4 --workers 4 \\
                               --checkpoint sweep.journal.jsonl --resume

Each prints an aligned table and exits non-zero if the corresponding
paper property failed to hold (useful in CI). ``sweep`` (and ``report``)
accept ``--workers`` to fan grid cells across a process pool — results
are byte-identical to a serial run — and ``sweep --checkpoint/--resume``
journal completed cells so an interrupted sweep continues where it
stopped.

The daemon family runs the ABD register as a *real* TCP service
(``n = 2f + 1`` replica server processes, see ``docs/SERVICE.md``)::

    python -m repro serve  --f 1 --data-size 16 --state-dir ./cluster
    python -m repro status --state-dir ./cluster
    python -m repro doctor --state-dir ./cluster
    python -m repro stop   --state-dir ./cluster

``serve`` exits 3 when the cluster is already running; ``stop`` and
``status`` exit 4 when it is not; ``status`` and ``doctor`` exit 5 when
the cluster is degraded-but-alive (quorum answers, redundancy reduced) —
distinct codes so scripts can tell "already in the state I wanted" and
"wounded" from real failures.

``keyspace`` drives the sharded multi-register keyspace (consistent-hash
ring, skewed per-key waves — see ``docs/KEYSPACE.md``) across skews and
registers, printing aggregate storage against the per-shard Theorem 1
floors and the per-skew coded-only/adaptive advantage ratios::

    python -m repro keyspace --keys 100000 --shards 64 \\
        --skews uniform,hotspot --registers coded-only,adaptive

``chaos`` runs a seeded fault plan (drops, delays, duplicates, reorders,
slowdowns, partitions, crash windows — see ``docs/FAULTS.md``) against
the simulated network and/or a real loopback cluster behind the TCP
fault proxy, checks the resulting histories with the usual consistency
checkers, and (with ``--transport both``) asserts that both transports
fired the identical fault schedule::

    python -m repro chaos --seed 7 --profile drop+delay --rate 0.3
    python -m repro chaos --seeds 0:5 --profile chaos --journal runs.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import format_table
from repro.lowerbound import run_lower_bound_experiment, verify_claim1
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    AtomicABDRegister,
    CASRegister,
    ChannelCodedRegister,
    CodedOnlyRegister,
    RegisterSetup,
    SafeCodedRegister,
    replication_setup,
)
from repro.coding import ReedSolomonCode
from repro.sim import RandomScheduler
from repro.spec import (
    analyze_liveness,
    check_linearizability,
    check_strong_regularity,
    check_strong_safety,
)
from repro.workloads import WorkloadSpec, run_register_workload

REGISTERS = {
    "adaptive": AdaptiveRegister,
    "cas": CASRegister,
    "channel-coded": ChannelCodedRegister,
    "coded-only": CodedOnlyRegister,
    "safe": SafeCodedRegister,
    "abd": ABDRegister,
    "abd-atomic": AtomicABDRegister,
}


def _coded_setup(args: argparse.Namespace) -> RegisterSetup:
    return RegisterSetup(f=args.f, k=args.k, data_size_bytes=args.data_size)


def cmd_compare(args: argparse.Namespace) -> int:
    """Storage of ABD vs coded-only vs adaptive across concurrency."""
    coded = _coded_setup(args)
    abd = replication_setup(f=args.f, data_size_bytes=args.data_size)
    rows = []
    for c in range(1, args.max_c + 1):
        spec = WorkloadSpec(writers=c, writes_per_writer=1, readers=0,
                            seed=args.seed)
        row = [c]
        for register_cls, setup in (
            (ABDRegister, abd),
            (CodedOnlyRegister, coded),
            (AdaptiveRegister, coded),
        ):
            result = run_register_workload(register_cls, setup, spec)
            row.append(result.peak_bo_state_bits)
        rows.append(row)
    print(f"f={args.f} k={args.k} D={coded.data_size_bits} bits "
          f"(peak base-object storage)")
    print(format_table(["c", "abd", "coded-only", "adaptive"], rows))
    return 0


def cmd_lowerbound(args: argparse.Namespace) -> int:
    """Run the Theorem 1 adversary experiment."""
    setup = _coded_setup(args)
    register_cls = REGISTERS[args.register]
    outcome = run_lower_bound_experiment(
        register_cls, setup, concurrency=args.c,
        ell_bits=args.ell, seed=args.seed,
    )
    print(format_table(
        ["fired", "|F|", "|C+|", "storage(bits)", "lemma3 bound",
         "min(f,c)·D/2", "writes completed"],
        [[outcome.fired, outcome.frozen_count, outcome.c_plus_count,
          outcome.storage_bits, outcome.lemma3_bound_bits,
          outcome.asymptotic_bound_bits, outcome.writes_completed]],
    ))
    ok = (
        outcome.fired != "none"
        and outcome.bound_satisfied
        and outcome.writes_completed == 0
    )
    print("theorem 1:", "HOLDS" if ok else "VIOLATED")
    return 0 if ok else 1


def cmd_audit(args: argparse.Namespace) -> int:
    """Run a workload and check the register's claimed semantics."""
    register_cls = REGISTERS[args.register]
    if args.register in ("abd", "abd-atomic"):
        setup = replication_setup(f=args.f, data_size_bytes=args.data_size)
    else:
        setup = _coded_setup(args)
    spec = WorkloadSpec(writers=args.writers, writes_per_writer=2,
                        readers=args.readers, reads_per_reader=2,
                        seed=args.seed)
    result = run_register_workload(
        register_cls, setup, spec, scheduler=RandomScheduler(args.seed)
    )
    history = result.history
    if args.register == "safe":
        check_name, report = "strong safety", check_strong_safety(history)
    elif args.register in ("abd-atomic", "cas"):
        check_name, report = "linearizability", check_linearizability(history)
    else:
        check_name, report = (
            "strong regularity", check_strong_regularity(history)
        )
    liveness = analyze_liveness(result.sim, result.run.quiescent)
    print(format_table(
        ["register", "writes", "reads", "peak storage(bits)", check_name,
         "liveness"],
        [[args.register, result.completed_writes, result.completed_reads,
          result.peak_bo_state_bits, "pass" if report.ok else "FAIL",
          liveness.verdict]],
    ))
    if not report.ok:
        for violation in getattr(report, "violations", []):
            print(f"  violation: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_claim1(args: argparse.Namespace) -> int:
    """Demonstrate Claim 1 on a concrete index set."""
    scheme = ReedSolomonCode(k=args.k, n=args.n,
                             data_size_bytes=args.data_size)
    indices = [int(x) for x in args.indices.split(",")] if args.indices else []
    report = verify_claim1(scheme, indices)
    print(format_table(
        ["indices", "stored bits", "D", "premise (<D)", "collision found",
         "collision valid"],
        [[",".join(map(str, report.indices)) or "-", report.stored_bits,
          report.data_bits, report.premise_holds, report.collision_found,
          report.collision_valid]],
    ))
    print("claim 1:", "HOLDS" if report.consistent_with_claim else "VIOLATED")
    return 0 if report.consistent_with_claim else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Fuzz a register against its consistency checker."""
    from repro.workloads import fuzz_register

    register_cls = REGISTERS[args.register]
    if args.register in ("abd", "abd-atomic"):
        setup = replication_setup(f=args.f, data_size_bytes=args.data_size)
    else:
        setup = _coded_setup(args)
    if args.register == "safe":
        checker = check_strong_safety
    elif args.register in ("abd-atomic", "cas"):
        checker = check_linearizability
    else:
        checker = check_strong_regularity
    result = fuzz_register(
        register_cls, setup, checker,
        runs=args.runs, crash_objects=args.crash_objects,
        base_seed=args.seed,
    )
    print(result.summary())
    return 0 if result.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a regime-sweep grid (parallel and resumable)."""
    from repro.analysis import (
        Scenario,
        SweepGrid,
        crossover_shape_violations,
        run_sweep,
    )

    def ints(text: str) -> tuple[int, ...]:
        return tuple(int(part) for part in text.split(","))

    grid = SweepGrid.cartesian(
        registers=tuple(args.registers.split(",")),
        fs=ints(args.fs),
        ks=ints(args.ks),
        cs=ints(args.cs),
        data_sizes=ints(args.data_sizes),
        seed=args.seed,
        pad=args.pad,
    )
    scenarios = None
    if args.with_crashes:
        scenarios = (
            Scenario("uniform"),
            Scenario("churn+crash", pattern="churn", ops_per_client=2,
                     bo_crashes=1, client_crashes=1),
        )
    result = run_sweep(
        grid,
        scenarios=scenarios,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(result.table())
    if args.output:
        path = result.save(args.output)
        print(f"JSON result: {path}")
    violations = crossover_shape_violations(result)
    for violation in violations:
        print(f"SHAPE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def cmd_keyspace(args: argparse.Namespace) -> int:
    """Run a sharded-keyspace sweep across skews (and check its shapes)."""
    from repro.analysis import (
        keyspace_advantage_ratios,
        keyspace_grid,
        keyspace_shape_violations,
        run_keyspace_sweep,
    )

    def ints(text: str) -> tuple[int, ...]:
        return tuple(int(part) for part in text.split(","))

    cells = keyspace_grid(
        skews=tuple(args.skews.split(",")),
        registers=tuple(args.registers.split(",")),
        keys=ints(args.keys),
        shards=ints(args.shards),
        f=args.f,
        k=args.k,
        data_size_bytes=args.data_size,
        waves=args.waves,
        wave_size=args.wave_size,
        reads_per_wave=args.reads_per_wave,
        zipf_s=args.zipf_s,
        hot_keys=args.hot_keys,
        hot_weight=args.hot_weight,
        vnodes=args.vnodes,
        seed=args.seed,
    )
    result = run_keyspace_sweep(cells, workers=args.workers)
    print(result.table())
    for skew, ratio in keyspace_advantage_ratios(result).items():
        print(f"advantage ({skew}): coded-only/adaptive = {ratio:.2f}x")
    if args.output:
        path = result.save(args.output)
        print(f"JSON result: {path}")
    violations = keyspace_shape_violations(result)
    for violation in violations:
        print(f"SHAPE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run the headline experiments and emit a markdown report."""
    from repro.analysis.report import generate_report, report_ok

    report = generate_report(workers=args.workers)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0 if report_ok(report) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Start (or revive) a replica cluster in the state dir."""
    from repro.errors import AlreadyRunningError, DaemonError
    from repro.service import daemon

    try:
        if args.revive:
            revived = daemon.restart_dead(args.state_dir)
            if revived:
                print(f"revived {len(revived)} server(s): "
                      f"{', '.join(revived)}")
            else:
                print("all servers already running; nothing to revive")
            return daemon.EXIT_OK
        meta = daemon.start_cluster(
            args.state_dir, f=args.f, data_size_bytes=args.data_size,
            host=args.host, port_base=args.port_base,
        )
    except AlreadyRunningError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_ALREADY_RUNNING
    except DaemonError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_FAIL
    n = 2 * meta["f"] + 1
    print(f"started {n} servers (f={meta['f']}, "
          f"D={meta['data_size_bytes'] * 8} bits) in {args.state_dir}")
    return daemon.EXIT_OK


def cmd_status(args: argparse.Namespace) -> int:
    """Probe every replica and report the Definition-2 storage view."""
    from repro.errors import DaemonError, NotRunningError
    from repro.service import daemon

    try:
        meta, view = daemon.cluster_status(args.state_dir)
    except NotRunningError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_NOT_RUNNING
    except DaemonError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_FAIL
    import time as time_module

    now = time_module.time()
    rows = []
    for status in view.statuses:
        rows.append([
            status.name,
            status.pid if status.pid is not None else "-",
            status.port if status.port is not None else "-",
            "up" if status.alive else "DOWN",
            repr(status.ts) if status.ts is not None else "-",
            status.replica_bits,
            status.applied_count,
            f"{status.probe_attempts}x" if status.probe_attempts else "-",
            (f"{max(0, int(now - status.last_seen))}s ago"
             if status.last_seen is not None else "never"),
        ])
    print(format_table(
        ["server", "pid", "port", "state", "ts", "replica(bits)", "applied",
         "probes", "seen"],
        rows,
    ))
    floor = view.thm1_floor_bits()
    print(f"quorum: {view.alive_count}/{len(view.statuses)} up "
          f"(majority {view.majority})")
    print(f"storage (Definition 2, at rest): {view.server_storage_bits} bits"
          f" | thm1 floor (c=1): {floor} bits | "
          + ("OK" if view.meets_thm1_floor else "BELOW FLOOR"))
    faults = daemon.fault_plan_summary(args.state_dir)
    if faults is not None:
        print(f"fault plan: {faults}")
    if not (view.quorum_available and view.meets_thm1_floor):
        return daemon.EXIT_FAIL
    if view.alive_count < len(view.statuses):
        print("state: DEGRADED (quorum intact, redundancy reduced)")
        return daemon.EXIT_DEGRADED
    return daemon.EXIT_OK


def cmd_stop(args: argparse.Namespace) -> int:
    """Gracefully stop a running cluster (SIGTERM drain)."""
    from repro.errors import DaemonError, NotRunningError
    from repro.service import daemon

    try:
        report = daemon.stop_cluster(args.state_dir, timeout=args.timeout)
    except NotRunningError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_NOT_RUNNING
    except DaemonError as error:
        print(f"error: {error}", file=sys.stderr)
        return daemon.EXIT_FAIL
    for name, pid, outcome in report:
        print(f"{name} (pid {pid}): {outcome}")
    forced = [name for name, _pid, outcome in report if outcome == "killed"]
    return daemon.EXIT_FAIL if forced else daemon.EXIT_OK


def cmd_doctor(args: argparse.Namespace) -> int:
    """Run the cluster health checks (processes, ports, journals, bound)."""
    from repro.service import daemon

    checks = daemon.run_doctor(args.state_dir)
    width = max(len(name) for name, _ok, _detail in checks)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name:<{width}}  {detail}")
    code = daemon.doctor_exit_code(checks)
    verdict = {
        daemon.EXIT_OK: "healthy",
        daemon.EXIT_DEGRADED: "DEGRADED (quorum intact)",
    }.get(code, "UNHEALTHY")
    print("doctor:", verdict)
    return code


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault plan against the service and/or the simulator."""
    import json
    import tempfile
    from pathlib import Path

    from repro.errors import FaultPlanError
    from repro.faults import run_chaos_experiment, seeded_fault_plan
    from repro.service import daemon
    from repro.service.statedir import StateDir

    if args.seeds:
        low, _sep, high = args.seeds.partition(":")
        try:
            seeds = list(range(int(low), int(high)))
        except ValueError:
            print(f"error: --seeds wants LOW:HIGH, got {args.seeds!r}",
                  file=sys.stderr)
            return daemon.EXIT_FAIL
        if not seeds:
            print(f"error: --seeds {args.seeds!r} is an empty range",
                  file=sys.stderr)
            return daemon.EXIT_FAIL
    else:
        seeds = [args.seed]
    replicas = tuple(f"s{index}" for index in range(2 * args.f + 1))
    rows = []
    journal_entries = []
    all_ok = True
    for seed in seeds:
        try:
            plan = seeded_fault_plan(
                seed, replicas=replicas, f=args.f, profile=args.profile,
                rate=args.rate, horizon=args.horizon,
            )
        except FaultPlanError as error:
            print(f"error: {error}", file=sys.stderr)
            return daemon.EXIT_FAIL
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            state_dir = args.state_dir or workdir
            if args.state_dir:
                state = StateDir(state_dir)
                state.root.mkdir(parents=True, exist_ok=True)
                plan.save(state.faults_path)
            report = run_chaos_experiment(
                plan, args.data_size, state_dir,
                transport=args.transport, writers=args.writers,
                readers=args.readers, ops=args.ops, tick_s=args.tick_s,
            )
        all_ok &= report.ok
        journal_entries.append(report.to_json())
        for transport_report in (report.sim, report.tcp):
            if transport_report is None:
                continue
            fired = transport_report.firing_counts
            link_fired = sum(
                count for kind, count in fired.items()
                if not kind.startswith("event:")
            )
            event_fired = sum(
                count for kind, count in fired.items()
                if kind.startswith("event:")
            )
            rows.append([
                seed,
                transport_report.transport,
                transport_report.ops,
                transport_report.failures,
                link_fired,
                event_fired,
                transport_report.window_drops,
                transport_report.resent_messages,
                "pass" if transport_report.linearizable else "FAIL",
                "pass" if transport_report.strongly_regular else "FAIL",
                "pass" if report.parity_ok else "FAIL",
            ])
    print(f"profile={args.profile} rate={args.rate} f={args.f} "
          f"D={args.data_size * 8} bits "
          f"({args.writers}w+{args.readers}r x {args.ops} ops)")
    print(format_table(
        ["seed", "transport", "ops", "failed", "link-faults", "events",
         "window-drops", "resent", "linearizable", "regular", "parity"],
        rows,
    ))
    if args.journal:
        path = Path(args.journal)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for entry in journal_entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"journal: {path}")
    print("chaos:", "OK" if all_ok else "FAILED")
    return daemon.EXIT_OK if all_ok else daemon.EXIT_FAIL


def cmd_server(args: argparse.Namespace) -> int:
    """(internal) Run one replica server process in the foreground."""
    from repro.service.server import main as server_main

    return server_main([
        "--name", args.name, "--index", str(args.index),
        "--f", str(args.f), "--data-size", str(args.data_size),
        "--state-dir", args.state_dir, "--host", args.host,
        "--port", str(args.port),
        "--handle-delay-ms", str(args.handle_delay_ms),
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiments from 'Space Bounds for Reliable Storage' "
                    "(PODC 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--f", type=int, default=2, help="crash tolerance")
        p.add_argument("--k", type=int, default=2, help="code dimension")
        p.add_argument("--data-size", type=int, default=16,
                       help="value size in bytes (D/8)")
        p.add_argument("--seed", type=int, default=0)

    p_compare = sub.add_parser("compare", help=cmd_compare.__doc__)
    common(p_compare)
    p_compare.add_argument("--max-c", type=int, default=6)
    p_compare.set_defaults(handler=cmd_compare)

    p_lb = sub.add_parser("lowerbound", help=cmd_lowerbound.__doc__)
    common(p_lb)
    p_lb.add_argument("--c", type=int, default=4, help="concurrent writes")
    p_lb.add_argument("--ell", type=int, default=None,
                      help="ell in bits (default D/2)")
    p_lb.add_argument("--register", choices=sorted(REGISTERS),
                      default="coded-only")
    p_lb.set_defaults(handler=cmd_lowerbound)

    p_audit = sub.add_parser("audit", help=cmd_audit.__doc__)
    common(p_audit)
    p_audit.add_argument("--register", choices=sorted(REGISTERS),
                         default="adaptive")
    p_audit.add_argument("--writers", type=int, default=3)
    p_audit.add_argument("--readers", type=int, default=2)
    p_audit.set_defaults(handler=cmd_audit)

    p_claim = sub.add_parser("claim1", help=cmd_claim1.__doc__)
    p_claim.add_argument("--k", type=int, default=3)
    p_claim.add_argument("--n", type=int, default=7)
    p_claim.add_argument("--data-size", type=int, default=24)
    p_claim.add_argument("--indices", type=str, default="0,4",
                         help="comma-separated block numbers ('' for none)")
    p_claim.set_defaults(handler=cmd_claim1)

    p_sweep = sub.add_parser("sweep", help=cmd_sweep.__doc__)
    p_sweep.add_argument("--registers", type=str,
                         default="abd,coded-only,adaptive",
                         help="comma-separated REGISTER_REGISTRY names")
    p_sweep.add_argument("--fs", type=str, default="1,2",
                         help="comma-separated crash budgets")
    p_sweep.add_argument("--ks", type=str, default="2",
                         help="comma-separated code dimensions")
    p_sweep.add_argument("--cs", type=str, default="1,2,4",
                         help="comma-separated concurrency levels")
    p_sweep.add_argument("--data-sizes", type=str, default="48",
                         help="comma-separated value sizes in bytes")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--pad", action="store_true",
                         help="route coded points through PaddedScheme "
                              "(any-size D axis)")
    p_sweep.add_argument("--with-crashes", action="store_true",
                         help="also sweep the churn-with-crashes scenario")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process-pool size (1 = serial; results "
                              "byte-identical)")
    p_sweep.add_argument("--checkpoint", type=str, default=None,
                         help="journal path for checkpoint/resume")
    p_sweep.add_argument("--resume", action="store_true",
                         help="resume from an existing --checkpoint journal")
    p_sweep.add_argument("--output", type=str, default=None,
                         help="write the sweep-result JSON to this path")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_keyspace = sub.add_parser("keyspace", help=cmd_keyspace.__doc__)
    p_keyspace.add_argument("--keys", type=str, default="100000",
                            help="comma-separated keyspace sizes")
    p_keyspace.add_argument("--shards", type=str, default="64",
                            help="comma-separated shard (register) counts")
    p_keyspace.add_argument("--skews", type=str, default="uniform,hotspot",
                            help="comma-separated key skews: uniform, "
                                 "zipfian, hotspot")
    p_keyspace.add_argument("--registers", type=str,
                            default="coded-only,adaptive",
                            help="comma-separated register names")
    p_keyspace.add_argument("--f", type=int, default=1,
                            help="crash tolerance per shard")
    p_keyspace.add_argument("--k", type=int, default=2,
                            help="code dimension per shard")
    p_keyspace.add_argument("--data-size", type=int, default=16,
                            help="value size in bytes (D/8)")
    p_keyspace.add_argument("--waves", type=int, default=4,
                            help="synchronous operation waves")
    p_keyspace.add_argument("--wave-size", type=int, default=128,
                            help="concurrent write clients per wave")
    p_keyspace.add_argument("--reads-per-wave", type=int, default=16,
                            help="concurrent reader clients per wave")
    p_keyspace.add_argument("--zipf-s", type=float, default=1.1,
                            help="zipfian exponent (skew=zipfian)")
    p_keyspace.add_argument("--hot-keys", type=int, default=8,
                            help="hot-set size (skew=hotspot)")
    p_keyspace.add_argument("--hot-weight", type=float, default=0.9,
                            help="traffic share of the hot set")
    p_keyspace.add_argument("--vnodes", type=int, default=64,
                            help="virtual nodes per shard on the hash ring")
    p_keyspace.add_argument("--seed", type=int, default=0)
    p_keyspace.add_argument("--workers", type=int, default=1,
                            help="process-pool size (results byte-identical)")
    p_keyspace.add_argument("--output", type=str, default=None,
                            help="write the keyspace-sweep JSON here")
    p_keyspace.set_defaults(handler=cmd_keyspace)

    p_report = sub.add_parser("report", help=cmd_report.__doc__)
    p_report.add_argument("--output", type=str, default=None,
                          help="write the markdown report to this path")
    p_report.add_argument("--workers", type=int, default=1,
                          help="process-pool size for the sweep sections")
    p_report.set_defaults(handler=cmd_report)

    p_fuzz = sub.add_parser("fuzz", help=cmd_fuzz.__doc__)
    common(p_fuzz)
    p_fuzz.add_argument("--register", choices=sorted(REGISTERS),
                        default="adaptive")
    p_fuzz.add_argument("--runs", type=int, default=25)
    p_fuzz.add_argument("--crash-objects", type=int, default=0)
    p_fuzz.set_defaults(handler=cmd_fuzz)

    p_serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    p_serve.add_argument("--f", type=int, default=1, help="crash tolerance")
    p_serve.add_argument("--data-size", type=int, default=16,
                         help="value size in bytes (D/8)")
    p_serve.add_argument("--state-dir", type=str, required=True,
                         help="directory for pidfiles, ports, journals, logs")
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port-base", type=int, default=0,
                         help="first port (server i gets base+i); "
                              "0 = ephemeral")
    p_serve.add_argument("--revive", action="store_true",
                         help="re-spawn dead servers of an existing cluster "
                              "(journal recovery) instead of starting fresh")
    p_serve.set_defaults(handler=cmd_serve)

    p_status = sub.add_parser("status", help=cmd_status.__doc__)
    p_status.add_argument("--state-dir", type=str, required=True)
    p_status.set_defaults(handler=cmd_status)

    p_stop = sub.add_parser("stop", help=cmd_stop.__doc__)
    p_stop.add_argument("--state-dir", type=str, required=True)
    p_stop.add_argument("--timeout", type=float, default=10.0,
                        help="seconds to wait for the SIGTERM drain before "
                             "SIGKILL")
    p_stop.set_defaults(handler=cmd_stop)

    p_doctor = sub.add_parser("doctor", help=cmd_doctor.__doc__)
    p_doctor.add_argument("--state-dir", type=str, required=True)
    p_doctor.set_defaults(handler=cmd_doctor)

    p_chaos = sub.add_parser("chaos", help=cmd_chaos.__doc__)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--seeds", type=str, default=None,
                         help="LOW:HIGH seed range (overrides --seed)")
    p_chaos.add_argument("--profile", type=str, default="chaos",
                         help="fault profile(s), '+'-joined: drop, delay, "
                              "duplicate, reorder, slow, partition, crash, "
                              "or chaos (everything)")
    p_chaos.add_argument("--rate", type=float, default=0.25,
                         help="total message-fault rate split across the "
                              "profile's message kinds")
    p_chaos.add_argument("--horizon", type=int, default=8,
                         help="scheduled faults hit only the first N "
                              "messages per link")
    p_chaos.add_argument("--f", type=int, default=1, help="crash tolerance")
    p_chaos.add_argument("--data-size", type=int, default=8,
                         help="value size in bytes (D/8)")
    p_chaos.add_argument("--transport", choices=("sim", "tcp", "both"),
                         default="both",
                         help="simulated network, real sockets, or both "
                              "(both also asserts fault-firing parity)")
    p_chaos.add_argument("--writers", type=int, default=2)
    p_chaos.add_argument("--readers", type=int, default=2)
    p_chaos.add_argument("--ops", type=int, default=3,
                         help="operations per writer/reader")
    p_chaos.add_argument("--tick-s", type=float, default=0.02,
                         help="wall-clock seconds per fault-plan tick "
                              "(TCP transport)")
    p_chaos.add_argument("--state-dir", type=str, default=None,
                         help="persist journals + faults.json here "
                              "(default: throwaway temp dir)")
    p_chaos.add_argument("--journal", type=str, default=None,
                         help="write one JSON line per seed to this path")
    p_chaos.set_defaults(handler=cmd_chaos)

    p_server = sub.add_parser("server", help=cmd_server.__doc__)
    p_server.add_argument("--name", type=str, required=True)
    p_server.add_argument("--index", type=int, required=True)
    p_server.add_argument("--f", type=int, required=True)
    p_server.add_argument("--data-size", type=int, required=True)
    p_server.add_argument("--state-dir", type=str, required=True)
    p_server.add_argument("--host", type=str, default="127.0.0.1")
    p_server.add_argument("--port", type=int, default=0)
    p_server.add_argument("--handle-delay-ms", type=float, default=0.0)
    p_server.set_defaults(handler=cmd_server)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
