"""List every statement of src/jcgraph that no tier-1 test executes.

Usage (from anywhere; extra arguments go to pytest):

    python3 tools/unreached.py

It runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, since the ``coverage`` package is not a dependency, set for the
threads the suite starts too (``threading.settrace``), and prints each
statement of ``src/jcgraph`` whose line no test reached, as
``src/jcgraph/<file>:<line>: <source line>``, in file and line order. A
statement is an ``ast`` statement node, less docstrings, ``def`` and
``class`` lines and imports: those run when the module is imported or hold
no code of their own. Code that only a child process runs, such as the
``__main__`` guard of ``cli.py``, counts as unreached.

Tracing slows the suite down: the full run took 2.5 to 3.2 min (pytest's
count) on a 2-vCPU Xeon with one BLAS thread, against about 55 s untraced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jcgraph"
# statements with no code of their own, or whose code runs on import
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def statements(source: str) -> list[int]:
    """The sorted lines on which a statement of source starts."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):  # a docstring
            continue
        lines.add(node.lineno)
    return sorted(lines)


def unreached(name: str, source: str, hit: set[int]) -> list[str]:
    """'name:line: source line' for each statement of source whose line is
    not in hit."""
    text = source.splitlines()
    return [f"{name}:{line}: {text[line - 1].strip()}"
            for line in statements(source) if line not in hit]


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status over args, and the lines each file of the
    package ran, by its code's file name: the absolute path, as pytest puts
    the root's src on sys.path."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)  # pyproject.toml's testpaths and pythonpath apply from the root
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, hits = trace_suite(args)
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        for entry in unreached(name, path.read_text(), hits[str(path)]):
            print(entry)
    return status


if __name__ == "__main__":
    sys.exit(main())
