"""Golden-output tests for the daemon CLI.

The serve/status/doctor/stop outputs are compared verbatim against
checked-in golden files after normalizing the run-specific parts: the
state-dir path, pids, ports, and table padding. Regenerate the goldens
with ``REPRO_UPDATE_GOLDENS=1 pytest tests/service/test_cli_golden.py``
after an intentional format change.
"""

import asyncio
import os
import re
from pathlib import Path

from repro.cli import main
from repro.service import ServiceClient, StateDir

GOLDEN = Path(__file__).parent / "golden"

D = 8  # bytes -> the goldens talk about a 64-bit register


def normalize(text: str, state_dir, tokens: dict[str, str]) -> str:
    """Replace run-specific values with stable placeholders."""
    for value, placeholder in sorted(
        tokens.items(), key=lambda item: -len(item[0])
    ):
        text = text.replace(value, placeholder)
    text = text.replace(str(state_dir), "STATEDIR")
    text = re.sub(r"[ \t]+", " ", text)  # table padding varies with pids
    text = re.sub(r"-{2,}", "--", text)  # ruler width varies with pids
    text = re.sub(r"\b\d+s ago\b", "AGE ago", text)  # last-seen ages
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def expect(name: str, actual: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(actual)
        return
    assert actual == path.read_text(), f"golden mismatch: {path}"


def runtime_tokens(state_dir) -> dict[str, str]:
    state = StateDir(state_dir)
    tokens: dict[str, str] = {}
    for server in state.read_meta()["servers"]:
        name = server["name"]
        pid = state.read_pid(name)
        port = state.read_port(name)
        if pid is not None:
            tokens[str(pid)] = f"PID-{name}"
        if port is not None:
            tokens[str(port)] = f"PORT-{name}"
    return tokens


class TestGoldenLifecycle:
    def test_full_lifecycle_output(self, tmp_path, capsys):
        state_dir = tmp_path / "cluster"

        code = main(["serve", "--f", "1", "--data-size", str(D),
                     "--state-dir", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        expect("serve.txt", normalize(out, state_dir, {}))

        # One deterministic write so ts/applied columns are non-trivial.
        state = StateDir(state_dir)
        meta = state.read_meta()
        endpoints = {
            server["name"]: (meta["host"], state.read_port(server["name"]))
            for server in meta["servers"]
        }

        async def one_write():
            client = ServiceClient("w0", endpoints, 1, D, timeout=5.0)
            await client.write(b"golden!!")
            await client.close()

        asyncio.run(one_write())
        tokens = runtime_tokens(state_dir)

        code = main(["status", "--state-dir", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        expect("status.txt", normalize(out, state_dir, tokens))

        code = main(["doctor", "--state-dir", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        expect("doctor.txt", normalize(out, state_dir, tokens))

        code = main(["serve", "--f", "1", "--data-size", str(D),
                     "--state-dir", str(state_dir)])
        err = capsys.readouterr().err
        assert code == 3
        expect("serve_already_running.txt",
               normalize(err, state_dir, tokens))

        code = main(["stop", "--state-dir", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        expect("stop.txt", normalize(out, state_dir, tokens))

        code = main(["status", "--state-dir", str(state_dir)])
        err = capsys.readouterr().err
        assert code == 4
        expect("status_not_running.txt", normalize(err, state_dir, tokens))

    def test_stop_never_started_output(self, tmp_path, capsys):
        state_dir = tmp_path / "missing"
        code = main(["stop", "--state-dir", str(state_dir)])
        err = capsys.readouterr().err
        assert code == 4
        expect("stop_never_started.txt", normalize(err, state_dir, {}))
