"""Mutation check of HammingCode's table kernel.

Usage (from the root of the checkout):
  python3 tests/mutate.py

Each mutant rewrites one of HammingCode._table_correction and
HammingCode._table_syndrome in a temporary copy of src/ and tests/, then runs
tests/test_hamming.py and tests/test_payload_vectors.py against the copy.  A
mutant that the tests still pass survives.  The script first checks that the
unmutated copy passes and that every mutant changes the code it names, prints
one line per mutant and the kill rate, and exits 1 when a mutant survives.
Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/quasicode/hamming.py")
TESTS = ["tests/test_hamming.py", "tests/test_payload_vectors.py"]


class _Rewrite(ast.NodeTransformer):
    """Replace each node that matches by what swap returns for it."""

    def __init__(self, swap):
        self.swap = swap

    def generic_visit(self, node):
        node = super().generic_visit(node)
        out = self.swap(node)
        return node if out is None else out


def _expr(text: str) -> ast.expr:
    return ast.parse(text, mode="eval").body


def _swap_divisions(node):
    if isinstance(node, ast.Attribute) and node.attr in ("left_div", "right_div"):
        node.attr = "right_div" if node.attr == "left_div" else "left_div"
        return node


def _transposed_row(node):  # row[e], row being mul[v]
    if ast.unparse(node) == "row[e]":
        return _expr("mul[e][v]")


def _transposed_left(node):
    if ast.unparse(node) == "mul[v][e]":
        return _expr("mul[e][v]")


def _zero_index_0(node):
    if ast.unparse(node) == "alg.zero_index":
        return _expr("0")


def _tail(shift: int):
    def swap(node):
        if ast.unparse(node) == "z[beta + 1:]":
            return _expr(f"z[beta + {1 + shift}:]")
    return swap


# (name, kernel method, rewrite)
MUTANTS = [
    ("swap left_div and right_div", "_table_correction", _swap_divisions),
    ("mul[e][v] for the left action", "_table_correction", _transposed_row),
    ("mul[e][v] for the left action", "_table_syndrome", _transposed_left),
    ("0 for zero_index", "_table_correction", _zero_index_0),
    ("0 for zero_index", "_table_syndrome", _zero_index_0),
    ("tail slice one short", "_table_correction", _tail(1)),
    ("tail slice one long", "_table_correction", _tail(-1)),
]


def _method(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"error: {TARGET} defines no {name}")


def mutate(source: str, name: str, swap) -> str:
    """source with the method name rewritten by swap; its other lines are kept as they are."""
    func = _method(ast.parse(source), name)
    before = ast.unparse(func)
    after = ast.unparse(ast.fix_missing_locations(_Rewrite(swap).visit(func)))
    if after == before:
        raise SystemExit(f"error: the mutant does not apply to {name}; update tests/mutate.py")
    lines = source.splitlines(keepends=True)
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" for line in after.splitlines())
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno:])


def passes(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    source = (ROOT / TARGET).read_text()
    mutants = [(f"{name} in {method}", mutate(source, method, swap)) for name, method, swap in MUTANTS]
    with tempfile.TemporaryDirectory(prefix="quasicode-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):  # without bytecode, which could outlive a rewrite
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not passes(copy):
            print("error: the tests fail on the unmutated code", file=sys.stderr)
            return 2
        survivors = []
        for label, text in mutants:
            (copy / TARGET).write_text(text)
            killed = not passes(copy)
            print(f"{'killed' if killed else 'SURVIVED'}: {label}")
            if not killed:
                survivors.append(label)
    print(f"kill rate: {len(mutants) - len(survivors)}/{len(mutants)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
