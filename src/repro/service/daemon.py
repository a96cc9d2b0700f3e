"""Daemon lifecycle: spawn, stop, revive, inspect a replica cluster.

``repro serve`` turns one state directory into a running cluster of
``n = 2f + 1`` replica server *processes* (detached sessions, logs in the
state dir); ``repro stop`` drains them with SIGTERM; ``repro status``
asks every replica for its timestamp and replica bits and renders the
Definition-2 / Theorem-1 view; ``repro doctor`` runs the health checks.
This module is the library behind those subcommands — the CLI layer in
:mod:`repro.cli` only parses arguments and formats tables.

Lifecycle invariants:

* **Readiness is file-based.** A server writes its pid/port files only
  once its listener is up; :func:`start_cluster` polls for them and fails
  loudly (with the server's log tail) if a child dies first.
* **Double start fails cleanly.** A state dir with any live pid raises
  :class:`~repro.errors.AlreadyRunningError` (exit
  :data:`EXIT_ALREADY_RUNNING`); a fully dead state dir restarts over its
  journals — that *is* the crash-recovery path.
* **Stop is graceful, then firm.** SIGTERM, wait up to the drain budget,
  then SIGKILL stragglers (reported). Stopping a never-started or
  already-stopped dir raises :class:`~repro.errors.NotRunningError`
  (exit :data:`EXIT_NOT_RUNNING`).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.coding.replication import ReplicationCode
from repro.errors import (
    AlreadyRunningError,
    DaemonError,
    JournalError,
    NotRunningError,
)
from repro.msgnet import protocol
from repro.service.client import probe
from repro.service.journal import ReplicaJournal, replica_signature
from repro.service.ledger import LiveStorageView, ReplicaStatus
from repro.service.statedir import StateDir, pid_alive

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ALREADY_RUNNING = 3
EXIT_NOT_RUNNING = 4
#: Quorum still answers, but some replicas are down or unreachable —
#: alive-but-wounded, distinct from both healthy (0) and broken (1) so
#: scripts can page on real outages only.
EXIT_DEGRADED = 5

#: Status probes per replica before declaring it unreachable (the first
#: try plus this many retries).
PROBE_RETRIES = 1

#: How long `repro serve` waits for every child to publish its port file.
READY_TIMEOUT_S = 15.0

#: How long `repro stop` waits for a SIGTERMed server to drain and exit.
STOP_TIMEOUT_S = 10.0

#: Admin request id — any equality-comparable value works; this one is
#: recognizable in logs and can never collide with a client op's
#: ``(op_uid, phase)`` integers.
_ADMIN_RID = ("admin", 0)


def _spawn_env() -> dict[str, str]:
    """Child env with the repro package importable (PYTHONPATH pinned)."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


def _spawn_server(
    state: StateDir, *, name: str, index: int, f: int,
    data_size_bytes: int, host: str, port: int,
) -> int:
    """Start one replica process; returns its pid."""
    state.root.mkdir(parents=True, exist_ok=True)
    state.clear_runtime_files(name)
    command = [
        sys.executable, "-m", "repro", "server",
        "--name", name, "--index", str(index), "--f", str(f),
        "--data-size", str(data_size_bytes),
        "--state-dir", str(state.root),
        "--host", host, "--port", str(port),
    ]
    with open(state.log_path(name), "a") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=log,
            start_new_session=True, env=_spawn_env(),
        )
    return process.pid

def _wait_ready(state: StateDir, names: list[str],
                timeout: float = READY_TIMEOUT_S) -> None:
    """Block until every named server published pid+port, or die loudly."""
    deadline = time.monotonic() + timeout
    pending = set(names)
    while pending:
        for name in sorted(pending):
            if state.read_port(name) is not None and state.server_alive(name):
                pending.discard(name)
                break
            pid = state.read_pid(name)
            if pid is not None and not pid_alive(pid):
                raise DaemonError(
                    f"server {name} exited during startup; log tail:\n"
                    + _log_tail(state, name)
                )
        if pending:
            if time.monotonic() > deadline:
                raise DaemonError(
                    f"servers {sorted(pending)} not ready after "
                    f"{timeout:.0f}s; log tail:\n"
                    + _log_tail(state, sorted(pending)[0])
                )
            time.sleep(0.05)


def _log_tail(state: StateDir, name: str, lines: int = 10) -> str:
    path = state.log_path(name)
    if not path.exists():
        return "(no log)"
    return "\n".join(path.read_text().splitlines()[-lines:]) or "(empty log)"


# ----------------------------------------------------------------- start


def start_cluster(
    state_dir: str | Path,
    *,
    f: int,
    data_size_bytes: int,
    host: str = "127.0.0.1",
    port_base: int = 0,
    ready_timeout: float = READY_TIMEOUT_S,
) -> dict:
    """Spawn ``2f + 1`` replica processes; returns the written meta.

    Raises :class:`AlreadyRunningError` when the state dir already hosts
    a live server. A state dir whose servers are all dead is restarted
    over its journals (crash recovery).
    """
    state = StateDir(state_dir)
    if state.exists() and state.live_servers():
        raise AlreadyRunningError(
            f"{state.root}: cluster already running "
            f"(live: {', '.join(state.live_servers())}); "
            "use `repro stop` first"
        )
    n = 2 * f + 1
    names = [f"s{index}" for index in range(n)]
    servers = []
    for index, name in enumerate(names):
        port = 0 if port_base == 0 else port_base + index
        pid = _spawn_server(
            state, name=name, index=index, f=f,
            data_size_bytes=data_size_bytes, host=host, port=port,
        )
        servers.append({"name": name, "index": index, "spawn_pid": pid})
    meta = {
        "f": f,
        "data_size_bytes": data_size_bytes,
        "host": host,
        "port_base": port_base,
        "servers": servers,
    }
    state.write_meta(meta)
    _wait_ready(state, names, timeout=ready_timeout)
    return meta


def restart_dead(
    state_dir: str | Path, ready_timeout: float = READY_TIMEOUT_S
) -> list[str]:
    """Re-spawn every dead server of an existing cluster (journal recovery).

    Live servers are untouched. Returns the revived names (possibly
    empty). The cluster configuration comes from ``meta.json``.
    """
    state = StateDir(state_dir)
    meta = state.read_meta()
    revived = []
    for server in meta["servers"]:
        name = server["name"]
        if state.server_alive(name):
            continue
        port = (0 if meta["port_base"] == 0
                else meta["port_base"] + server["index"])
        _spawn_server(
            state, name=name, index=server["index"], f=meta["f"],
            data_size_bytes=meta["data_size_bytes"],
            host=meta["host"], port=port,
        )
        revived.append(name)
    if revived:
        _wait_ready(state, revived, timeout=ready_timeout)
    return revived


# ------------------------------------------------------------------ stop


def stop_cluster(
    state_dir: str | Path, timeout: float = STOP_TIMEOUT_S
) -> list[tuple[str, int, str]]:
    """SIGTERM every live server and wait for the drain.

    Returns ``[(name, pid, outcome)]`` with outcome ``"stopped"`` or
    ``"killed"`` (SIGKILL after the timeout). Raises
    :class:`NotRunningError` when nothing is running.
    """
    state = StateDir(state_dir)
    if not state.exists():
        raise NotRunningError(
            f"{state.root}: no cluster was ever started here"
        )
    live = state.live_servers()
    if not live:
        raise NotRunningError(f"{state.root}: cluster is not running")
    report = []
    pids = {name: state.read_pid(name) for name in live}
    for name in live:
        os.kill(pids[name], signal.SIGTERM)
    deadline = time.monotonic() + timeout
    for name in live:
        pid = pids[name]
        while pid_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if pid_alive(pid):
            os.kill(pid, signal.SIGKILL)
            report.append((name, pid, "killed"))
        else:
            report.append((name, pid, "stopped"))
    return report


# ---------------------------------------------------------------- status


async def _collect_statuses(
    state: StateDir, meta: dict, timeout: float,
    probe_retries: int = PROBE_RETRIES,
) -> list[ReplicaStatus]:
    statuses = []
    for server in meta["servers"]:
        name = server["name"]
        pid = state.read_pid(name)
        port = state.read_port(name)
        alive = state.server_alive(name)
        status = ReplicaStatus(name=name, alive=False, pid=pid, port=port)
        if alive and port is not None:
            attempts = 0
            for attempt in range(1, probe_retries + 2):
                attempts = attempt
                reply = await probe(
                    meta["host"], port,
                    (protocol.STATUS, _ADMIN_RID), protocol.REPLY_STATUS,
                    timeout=timeout,
                )
                if reply is not None:
                    _tag, _rid, ts, replica_bits, applied = reply
                    status = ReplicaStatus(
                        name=name, alive=True, ts=ts,
                        replica_bits=replica_bits, applied_count=applied,
                        pid=pid, port=port, probe_attempts=attempt,
                        last_seen=time.time(),
                    )
                    break
            else:
                status.probe_attempts = attempts
        statuses.append(status)
    return statuses


def fault_plan_summary(state_dir: str | Path) -> str | None:
    """One-line description of the installed fault plan, if any.

    ``None`` when the state dir carries no ``faults.json`` (a clean
    cluster); a ``corrupt: ...`` string when the file exists but does not
    parse — status/doctor must report a half-written plan, not hide it.
    """
    state = StateDir(state_dir)
    path = state.faults_path
    if not path.exists():
        return None
    from repro.errors import FaultPlanError
    from repro.faults.plan import FaultPlan

    try:
        return FaultPlan.load(path).describe()
    except FaultPlanError as error:
        return f"corrupt: {error}"


def cluster_status(
    state_dir: str | Path, timeout: float = 2.0
) -> tuple[dict, LiveStorageView]:
    """Probe every replica; returns ``(meta, LiveStorageView)``.

    Raises :class:`NotRunningError` when the state dir has no meta or no
    live server at all.
    """
    state = StateDir(state_dir)
    meta = state.read_meta()
    if not state.live_servers():
        raise NotRunningError(f"{state.root}: cluster is not running")
    statuses = asyncio.run(_collect_statuses(state, meta, timeout))
    view = LiveStorageView(meta["f"], meta["data_size_bytes"], statuses)
    return meta, view


# ---------------------------------------------------------------- doctor


def run_doctor(
    state_dir: str | Path, timeout: float = 2.0
) -> list[tuple[str, bool, str]]:
    """Health checks: ``[(check name, ok, detail)]`` — all must pass.

    Never raises for an unhealthy cluster; the checks *are* the report.
    """
    state = StateDir(state_dir)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> bool:
        checks.append((name, ok, detail))
        return ok

    if not check("state dir", state.root.is_dir(), str(state.root)):
        return checks
    try:
        meta = state.read_meta()
    except DaemonError as error:
        check("meta.json", False, str(error))
        return checks
    n = 2 * meta["f"] + 1
    check("meta.json", True,
          f"f={meta['f']} n={n} D={meta['data_size_bytes'] * 8} bits")

    live = [s["name"] for s in meta["servers"]
            if state.server_alive(s["name"])]
    down = [s["name"] for s in meta["servers"] if s["name"] not in live]
    check("processes", not down,
          f"{len(live)}/{n} alive"
          + (f" (down: {', '.join(down)})" if down else ""))

    statuses = asyncio.run(_collect_statuses(state, meta, timeout))
    view = LiveStorageView(meta["f"], meta["data_size_bytes"], statuses)
    reachable = [s.name for s in statuses if s.alive]
    retried = [
        f"{s.name}:{s.probe_attempts}x" for s in statuses
        if s.probe_attempts > 1
    ]
    check("ports", len(reachable) == len(live),
          f"{len(reachable)}/{len(live)} live servers answer status RPCs"
          + (f" (retried: {', '.join(retried)})" if retried else ""))
    check("quorum", view.quorum_available,
          f"{view.alive_count} alive, majority needs {view.majority}")

    faults = fault_plan_summary(state_dir)
    check("fault plan", faults is None or not faults.startswith("corrupt:"),
          faults if faults is not None else "none installed")

    journal_problems = []
    for server in meta["servers"]:
        name = server["name"]
        signature = replica_signature(
            name, server["index"], meta["f"], meta["data_size_bytes"],
            ReplicationCode.name,
        )
        try:
            ReplicaJournal(state.journal_path(name), signature).entry_count()
        except JournalError as error:
            journal_problems.append(f"{name}: {error}")
    check("journals", not journal_problems,
          "; ".join(journal_problems) or
          f"{len(meta['servers'])} journals load cleanly")

    check("timestamps", view.timestamp_consistent(),
          f"max ts = {view.max_ts}")
    check(
        "storage (Def. 2)",
        view.meets_thm1_floor or view.alive_count == 0,
        f"{view.server_storage_bits} bits at rest >= thm1 floor "
        f"{view.thm1_floor_bits()} bits",
    )
    return checks


#: Doctor checks whose failure means "wounded, not dead" while a quorum
#: still answers — dead or unreachable minority replicas.
_DEGRADED_CHECKS = {"processes", "ports"}


def doctor_exit_code(checks: list[tuple[str, bool, str]]) -> int:
    """Three-way doctor verdict: healthy / degraded-but-alive / broken.

    :data:`EXIT_DEGRADED` when every failing check is a minority-replica
    liveness problem and the quorum check passed — the cluster serves,
    but with less than full redundancy.
    """
    failed = {name for name, ok, _detail in checks if not ok}
    if not failed:
        return EXIT_OK
    quorum_ok = any(
        name == "quorum" and ok for name, ok, _detail in checks
    )
    if quorum_ok and failed <= _DEGRADED_CHECKS:
        return EXIT_DEGRADED
    return EXIT_FAIL
