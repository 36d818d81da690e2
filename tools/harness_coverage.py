"""Harness-coverage ledger: which function bodies of ``src/repro`` the benchmark runs.

Runs every workload of the end-to-end benchmark in its quick traced form
(``python3 -m bench_e2e --workload W --quick --trace 1``), each in a
subprocess under ``sys.settrace`` and ``threading.settrace`` (the server's
event loop, the network clients and the journal writer run on threads of
their own), merges the executed lines, and prints, per module of
``src/repro``, "executed body lines N of M" and the functions no workload
runs.  A body line is the first line of a statement inside a function, its
docstring aside; a nested function's statements count for the nested
function.  It is a ledger, not a gate: the share is a tracked number.

    python3 tools/harness_coverage.py                 # all four workloads
    python3 tools/harness_coverage.py cold_filter     # a subset

Standard library only; the workloads build what they run, as the
benchmark does (the C kernel's build cache goes to ``.bench_build/``).
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def _trace_child(workload: str, output: str) -> None:
    """In the child: run one quick traced workload, dump the executed lines."""
    prefix = str(SOURCE) + os.sep
    executed: set = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.argv = ["bench_e2e", "--workload", workload, "--quick", "--trace", "1"]
    sys.path.insert(0, str(ROOT))
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        runpy.run_module("bench_e2e", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        status = stop.code
    else:
        status = 0
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict = defaultdict(list)
    for filename, line in executed:
        lines[filename].append(line)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"status": status, "lines": lines}, handle)


def _run_workload(workload: str) -> dict[str, set[int]]:
    """Executed lines by absolute file name, from one traced child."""
    environment = {
        **os.environ,
        # what bench_e2e pins (it would re-exec itself, untraced, otherwise)
        "PYTHONHASHSEED": "0",
        "XDG_CACHE_HOME": str(ROOT / ".bench_build" / "cache"),
    }
    with tempfile.TemporaryDirectory() as scratch:
        output = os.path.join(scratch, "lines.json")
        subprocess.run(
            [sys.executable, __file__, "--child", workload, output],
            cwd=ROOT, env=environment, stdout=subprocess.DEVNULL, check=True,
        )
        with open(output, encoding="utf-8") as handle:
            dumped = json.load(handle)
    if dumped["status"] not in (0, None):
        raise SystemExit(f"{workload}: the benchmark exited with {dumped['status']}")
    return {filename: set(lines) for filename, lines in dumped["lines"].items()}


def _is_docstring(statement: ast.stmt) -> bool:
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def _body_lines(function: ast.AST) -> set[int]:
    """First lines of the statements of ``function``'s own body."""
    lines: set[int] = set()
    pending = list(function.body)
    if pending and _is_docstring(pending[0]):
        pending.pop(0)
    while pending:
        statement = pending.pop()
        lines.add(statement.lineno)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # its body is its own (a nested function is listed apart)
        for name in ("body", "orelse", "finalbody"):
            pending.extend(getattr(statement, name, ()))
        for handler in getattr(statement, "handlers", ()):
            pending.extend(handler.body)
        for case in getattr(statement, "cases", ()):
            pending.extend(case.body)
    return lines


def functions_of(path: Path) -> list[tuple[str, set[int]]]:
    """``(qualified name, body lines)`` of every function defined in ``path``."""
    found: list[tuple[str, set[int]]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.append((name, _body_lines(child)))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return found


def ledger(executed: dict[str, set[int]]) -> tuple[list[str], int, int]:
    """The report's module lines, and the executed and total body lines."""
    report, total_run, total = [], 0, 0
    for path in sorted(SOURCE.rglob("*.py")):
        ran = executed.get(str(path), set())
        functions = [(name, lines) for name, lines in functions_of(path) if lines]
        size = sum(len(lines) for _, lines in functions)
        if not size:
            continue
        hit = sum(len(lines & ran) for _, lines in functions)
        never = [name for name, lines in functions if not lines & ran]
        total_run, total = total_run + hit, total + size
        module = path.relative_to(SOURCE.parent).as_posix()
        report.append(f"{module}: executed body lines {hit} of {size}")
        if never:
            report.append(f"    never run: {', '.join(never)}")
    return report, total_run, total


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        _trace_child(argv[1], argv[2])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = argv or [entry["name"] for entry in spec["workloads"]]
    executed: dict[str, set[int]] = defaultdict(set)
    shares = []
    for workload in workloads:
        lines = _run_workload(workload)
        _, hit, size = ledger(lines)
        shares.append(f"{workload}: executed body lines {hit} of {size} ({hit / size:.1%})")
        for filename, ran in lines.items():
            executed[filename] |= ran
    report, hit, size = ledger(executed)
    print("\n".join(report))
    print()
    print("\n".join(shares))
    print(f"all workloads: executed body lines {hit} of {size} ({hit / size:.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
