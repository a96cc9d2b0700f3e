"""Smoke test: every ``examples/*.py`` runs and ends on its success line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Each example's last stdout line, or the part of it that says it held.
SUCCESS_LINES = {
    "adversarial_blowup": "executable content of Theorem 1",
    "blackbox_replacement": "black-box replacement OK",
    "consistency_audit": "consistency audit OK",
    "fault_tolerance_demo": "fault-tolerance demo OK",
    "message_passing": "message-passing demo OK",
    "quickstart": "quickstart OK",
    "regime_sweep": "(flat: True)",
    "storage_cost_comparison": "the adaptive register follows the min",
}


def test_every_example_is_covered():
    assert sorted(p.stem for p in (ROOT / "examples").glob("*.py")) == \
        sorted(SUCCESS_LINES)


@pytest.mark.parametrize("name", sorted(SUCCESS_LINES))
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    last_line = completed.stdout.strip().splitlines()[-1]
    assert SUCCESS_LINES[name] in last_line, completed.stdout
