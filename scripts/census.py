"""List the functions under ``src/`` that the tier-1 suite never calls.

Runs the tier-1 suite in this process under a stdlib profile hook
(``sys.setprofile``, plus ``threading.setprofile`` for threads started
later) that records the code object of every Python-level call. Every
function or method defined under ``src/`` — found by walking each
module's syntax tree — whose code object never ran is listed, grouped by
module, with its line count. Calls made only in a subprocess (CLI entry
points, spawned pool workers) are invisible to the hook and so are
listed too. The profiled suite runs several times slower than usual.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/census.py [--out PATH] [-- PYTEST_ARGS]

The table is printed and written to ``--out`` (default
``benchmarks/results/census.md``). Report only: the exit status is 0
whatever the suite or the census finds.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def defined_functions(path: Path) -> list[tuple[str, int, int, int]]:
    """``(qualname, def line, first line, line count)`` of every function
    in one module; the first line is the first decorator's, if any."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, child.lineno, first,
                              child.end_lineno - first + 1))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def census(pytest_args: list[str]) -> str:
    """Run the suite profiled and return the Markdown report."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(ROOT))  # tests import tests.helpers, as in -m
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {(Path(code.co_filename).resolve(), code.co_firstlineno)
              for code in seen}

    by_module: dict[str, list[tuple[str, int, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for name, line, first, count in defined_functions(path):
            if (path, line) not in called and (path, first) not in called:
                by_module[module].append((name, line, count))

    total = sum(len(rows) for rows in by_module.values())
    lines = sum(count for rows in by_module.values() for *_, count in rows)
    report = [f"# Never called by tier-1: {total} functions, {lines} lines",
              "", f"pytest exit status: {int(status)} (0 = every test passed; "
              "otherwise the census undercounts calls)"]
    for module, rows in by_module.items():
        report += ["", f"## {module} ({len(rows)} functions, "
                   f"{sum(count for *_, count in rows)} lines)", "",
                   "| function | line | lines |", "|---|---|---|"]
        report += [f"| `{name}` | {line} | {count} |"
                   for name, line, count in rows]
    return "\n".join(report) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=ROOT / "benchmarks" / "results" / "census.md")
    parser.add_argument("pytest_args", nargs="*",
                        help="passed to pytest (put them after --)")
    args = parser.parse_args()
    report = census(args.pytest_args)
    print(report)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
