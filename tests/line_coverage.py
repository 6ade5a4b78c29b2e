"""Print the statements of src/ssmopt that the tier-1 suite never runs.

A stdlib line tracer (`sys.settrace`) watches the suite, run in this process
by `pytest.main`, and records every line of the package that executes. A
statement counts as run when any line of it executed; for a compound
statement (def, if, for, with, try, ...) only its header counts, from its
first decorator to the line before its body. Docstrings are left out, and
so are blank lines and comments, which are not statements. Run from the
repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/line_coverage.py [pytest args]

The tracer watches the main thread of this process only: code that a test
runs in another thread or a subprocess counts as never run unless the suite
also runs it in the main thread. The file's name keeps pytest from
collecting it. Its exit status is the suite's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ssmopt"


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement of the file, its header only for
    a compound statement, docstrings left out."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((first, max(first, last)))
    return spans


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit status, {file: lines run}) of the suite under the tracer."""
    ran: dict[str, set[int]] = {}
    watched: dict[str, str | None] = {}  # code file -> its real path, None outside the package
    root = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            real = os.path.realpath(name)
            watched[name] = real if real.startswith(root) else None
        real = watched[name]
        if real is None:
            return None
        lines = ran.setdefault(real, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    status, ran = run_suite(args)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        source = path.read_text().splitlines()
        for first, last in sorted(statements(path)):
            if not lines.intersection(range(first, last + 1)):
                missed += 1
                print(f"src/ssmopt/{path.name}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements of src/ssmopt never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
