"""Unreached statements: which statements of src/avhgnn does no test execute?

Runs pytest in this process under a line tracer limited to src/avhgnn, then
prints each statement that no test executed as `module.py:line  code`, and last
a count. Only statements are listed: no `def` or `class` line, import or
docstring. The tracer sees this process only, so code that runs only in a child
process that a test starts is listed too, such as `cli.main`'s BrokenPipe
branch and its `sys.exit(main())`. A mutation on a statement that no test runs,
in this process or a child, cannot be killed, so the listing is a cheap
pre-filter for `tools/mutate.py`'s samples. Tracing about doubles a run's wall
time. Run it from the repository root, with any pytest arguments:

    python tools/unreached.py
    python tools/unreached.py tests/test_metrics.py -k average_precision

The exit status is pytest's: a listing from a failing run is printed, but is
not a clean one.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avhgnn"
UNLISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict[int, range]:
    """Each listed statement's first line, with the lines that run it: the statement's
    own lines, up to its first nested statement (a compound statement's header)."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, UNLISTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.stmt)]
        found[node.lineno] = range(node.lineno, min(nested, default=node.end_lineno + 1))
    return found


def traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for `args`, and the lines it ran in each file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:  # a tracer left on would run in the interpreter's shutdown callbacks
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package, not another
    code, hits = traced(sys.argv[1:] if argv is None else argv)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, span in sorted(statements(source).items()):
            if ran.isdisjoint(span):
                print(f"{path.name}:{first}  {lines[first - 1].strip()}")
                count += 1
    print(f"{count} unreached statements in {PACKAGE.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
