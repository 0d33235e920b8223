#!/usr/bin/env python3
"""Lines of src/beliefmesh that never run under the Tier-1 tests, by file.

    python3 scripts/line_coverage.py [extra pytest arguments]

Runs pytest in this process with sys.settrace and threading.settrace limited
to frames whose code lives under src/beliefmesh; stdlib only, so it needs no
coverage package. It counts statements, by their first line, that some
function's or class body's code object carries bytecode for (its co_lines()),
so a `nonlocal` is never reported. Subprocesses are not traced. Expect about
2.5 times Tier-1's time.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "beliefmesh")


def runnable_lines(path: Path) -> set[int]:
    """The first lines of the statements with bytecode in some function or
    class body of path."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    lines, stack = set(), list(compile(source, str(path), "exec").co_consts)
    while stack:
        code = stack.pop()
        if hasattr(code, "co_lines"):
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack.extend(code.co_consts)
    return lines & starts


def main(argv: list[str]) -> int:
    # the CLI tests start subprocesses, which find the package through this
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.getenv("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    ran: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        """Record the line of every event in a package frame; trace no other frame."""
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-o", "addopts=", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(Path(PACKAGE).rglob("*.py")):
        missed = sorted(runnable_lines(path) - {line for name, line in ran if name == str(path)})
        if missed:
            total += len(missed)
            print(f"{path.relative_to(SRC)}: {', '.join(map(str, missed))}")
    print(f"{total} never-run lines in {PACKAGE}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
