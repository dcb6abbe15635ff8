"""Untested statements: the function-body statements of the library that no tier-1 test executes.

Usage (from the root of the checkout):
  python3 tests/untested.py [pytest arguments]

Installs a line tracer (sys.settrace and threading.settrace) before pytest or
quasicode is imported, then runs the tests through pytest.main (tier-1, the tests/
directory, unless arguments name others), and prints one line per module
under src/quasicode with the line numbers of the statements inside function
bodies that never ran, then their total.  A simple statement ran when one of
its lines ran; a compound one when a line of its header did (a try when its
body did).  Docstrings, annotations without a value, global and nonlocal
declarations are not statements that run.  Child processes are not traced,
so what a test reaches only through a subprocess is listed as untested.
Exits with pytest's status when the tests fail, else 1 when any statement is
listed and 0 when none is, so a run over tier-1 checks that every statement
is reached.  Standard library and pytest only; pytest does not collect it.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasicode"
PREFIX = str(PACKAGE) + os.sep


class LineTrace:
    """A global tracer that records the lines executed in quasicode frames, per source path."""

    def __init__(self):
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._pending: dict = {}  # code object -> its line numbers not yet executed

    def __call__(self, frame, event, arg):
        """A line tracer for a quasicode frame whose code still has unexecuted lines, else None."""
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            if not code.co_filename.startswith(PREFIX):
                return None
            pending = self._pending[code] = {line for *_, line in code.co_lines() if line is not None}
        if not pending:
            return None
        hits = self.hits[code.co_filename]

        def line(frame, event, arg):
            hits.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
            return line

        return line(frame, event, arg)


_SILENT = (ast.Global, ast.Nonlocal)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _is_declaration(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.AnnAssign) and stmt.value is None


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks = [getattr(stmt, name, None) for name in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(stmt, "handlers", ())]
    blocks += [c.body for c in getattr(stmt, "cases", ())]
    return [b for b in blocks if isinstance(b, list) and b and isinstance(b[0], ast.stmt)]


def _header(stmt: ast.stmt) -> range:
    """The lines of stmt that run before any statement nested in it."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    blocks = _blocks(stmt)
    end = min(b[0].lineno for b in blocks) - 1 if blocks else stmt.end_lineno
    return range(start, max(start, end) + 1)


def _statements(body: list[ast.stmt]):
    """Each statement of a function body, nested ones included, without docstrings."""
    for i, stmt in enumerate(body):
        if (i == 0 and _is_docstring(stmt)) or isinstance(stmt, _SILENT) or _is_declaration(stmt):
            continue
        yield stmt
        for block in _blocks(stmt):
            yield from _statements(block)


def _ran(stmt: ast.stmt, hits: set[int]) -> bool:
    if isinstance(stmt, ast.Try) or type(stmt).__name__ == "TryStar":
        return any(_ran(s, hits) for s in stmt.body)
    return any(line in hits for line in _header(stmt))


def untested(path: Path, hits: set[int]) -> list[int]:
    """The line numbers of the function-body statements of path that never ran."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(s.lineno for s in _statements(node.body) if not _ran(s, hits))
    return sorted(lines)


def main(args: list[str]) -> int:
    trace = LineTrace()
    sys.settrace(trace)
    threading.settrace(trace)
    import pytest  # under the tracer, and quasicode with it

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    print("\nfunction-body statements under src/quasicode that no test executed in this process "
          "(child processes are not traced):")
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = untested(path, trace.hits[str(path)])
        total += len(lines)
        if lines:
            print(f"{path.relative_to(ROOT / 'src')} ({len(lines)}): {', '.join(map(str, lines))}")
    print(f"{total} untested statements in total")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
