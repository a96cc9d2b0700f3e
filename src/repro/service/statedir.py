"""State-directory layout shared by servers, the daemon CLI, and tests.

One running cluster owns one state directory::

    <state_dir>/
      meta.json        cluster config + spawn-time pids (daemon-written)
      <name>.pid       server-written after the socket is listening
      <name>.port      server-written actual bound port (ephemeral-safe)
      <name>.journal.jsonl   append-only replica journal (binary records;
                             the suffix predates the format)
      <name>.log       server stdout/stderr (daemon-spawned processes)

Pid and port files are written by the *server process itself*, atomically
(tmp + rename), only once the listener is up — which is exactly the
readiness signal ``repro serve`` polls for. ``meta.json`` records the
cluster configuration; live ports are always re-read from the port files,
because a revived server on an ephemeral port lands somewhere new.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

from repro.errors import DaemonError

META_VERSION = 1


def pid_alive(pid: int) -> bool:
    """Is a process with this pid running (signal-0 probe)?

    A zombie counts as dead: a SIGKILLed detached server sits in state
    ``Z`` until pid 1 reaps it, and during that window signal-0 still
    succeeds — but the server is gone and must be revivable.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError as error:  # pragma: no cover - exotic platforms
        return error.errno != errno.ESRCH
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        # Field 3, after the parenthesised comm (which may contain spaces).
        if stat.rpartition(")")[2].split()[0] == "Z":
            return False
    except OSError:  # no procfs (macOS) — keep the signal-0 answer
        pass
    return True


def atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


class StateDir:
    """Path arithmetic + meta bookkeeping for one cluster state dir."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # --------------------------------------------------------------- paths

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def faults_path(self) -> Path:
        """The fault plan installed on this cluster (absent = clean).

        Written by ``repro chaos``; read back by ``status``/``doctor`` so
        an operator can always tell a chaos run from a real outage.
        """
        return self.root / "faults.json"

    def pid_path(self, name: str) -> Path:
        return self.root / f"{name}.pid"

    def port_path(self, name: str) -> Path:
        return self.root / f"{name}.port"

    def journal_path(self, name: str) -> Path:
        return self.root / f"{name}.journal.jsonl"

    def log_path(self, name: str) -> Path:
        return self.root / f"{name}.log"

    # ---------------------------------------------------------------- meta

    def write_meta(self, meta: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.meta_path,
            json.dumps({"version": META_VERSION, **meta},
                       indent=2, sort_keys=True) + "\n",
        )

    def read_meta(self) -> dict:
        """The cluster config; :class:`DaemonError` when absent/corrupt."""
        if not self.meta_path.exists():
            raise DaemonError(
                f"{self.root}: no meta.json — no cluster was started here"
            )
        try:
            meta = json.loads(self.meta_path.read_text())
        except json.JSONDecodeError as error:
            raise DaemonError(
                f"{self.meta_path}: corrupt meta.json: {error}"
            ) from error
        if meta.get("version") != META_VERSION:
            raise DaemonError(
                f"{self.meta_path}: unsupported meta version "
                f"{meta.get('version')!r}"
            )
        return meta

    def exists(self) -> bool:
        return self.meta_path.exists()

    # ------------------------------------------------------------ liveness

    def read_pid(self, name: str) -> int | None:
        path = self.pid_path(name)
        if not path.exists():
            return None
        try:
            return int(path.read_text().strip())
        except ValueError:
            return None

    def read_port(self, name: str) -> int | None:
        path = self.port_path(name)
        if not path.exists():
            return None
        try:
            return int(path.read_text().strip())
        except ValueError:
            return None

    def server_alive(self, name: str) -> bool:
        pid = self.read_pid(name)
        return pid is not None and pid_alive(pid)

    def live_servers(self) -> list[str]:
        """Names (from meta) whose pidfile points at a live process."""
        meta = self.read_meta()
        return [
            server["name"]
            for server in meta["servers"]
            if self.server_alive(server["name"])
        ]

    def clear_runtime_files(self, name: str) -> None:
        """Remove one server's pid/port files (journal is kept)."""
        for path in (self.pid_path(name), self.port_path(name)):
            path.unlink(missing_ok=True)
