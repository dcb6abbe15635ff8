"""Mutation check: a registry of targets, each rewritten by mutants its tests must kill.

Usage (from the root of the checkout):
  python3 tests/mutate.py

A target is (label, file, mutants, test files) and a mutant (name, function,
rewrite), where the function is named alone or as Class.method.  Each mutant
rewrites one function of the target's file in a temporary copy of src/ and
tests/, then runs the target's test files against the copy; a mutant that
the tests still pass survives.  The targets are
HammingCode's table kernel (_table_correction, _table_syndrome), its
enumeration (_close_pair, _codeword_rows), the mode resolver
errors.choose_mode, the command-line parser (cli._build_parser, which
fills only the named subcommand's parser, and main, which names it), and the
index-table backend of the finite algebras (tables._arithmetic, which decides
FLAT_LIMIT, _compile, _division_tables and the units of a Cayley table).  The
script first checks that the unmutated copy passes every target's tests and
that every mutant changes the function it names, prints one line per mutant
and the kill rate of each target, and exits 1 when a mutant survives.
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


def _replace(before: str, after: str):
    """The rewrite that puts the expression after where the expression before is."""
    def swap(node):
        if ast.unparse(node) == before:
            return _expr(after)
    return swap


# the arguments of choose_mode are (requested, fallback, size, budget, what, label)
TARGETS = [
    ("HammingCode table kernel", Path("src/quasicode/hamming.py"), [
        ("swap left_div and right_div", "_table_correction", _swap_divisions),
        ("mul[e][v] for the left action", "_table_correction", _replace("row[e]", "mul[e][v]")),  # row is mul[v]
        ("mul[e][v] for the left action", "_table_syndrome", _replace("mul[v][e]", "mul[e][v]")),
        ("0 for zero_index", "_table_correction", _replace("alg.zero_index", "0")),
        ("0 for zero_index", "_table_syndrome", _replace("alg.zero_index", "0")),
        ("tail slice one short", "_table_correction", _replace("z[beta + 1:]", "z[beta + 2:]")),
        ("tail slice one long", "_table_correction", _replace("z[beta + 1:]", "z[beta + 0:]")),
    ], ["tests/test_hamming.py", "tests/test_payload_vectors.py"]),
    ("HammingCode enumeration", Path("src/quasicode/hamming.py"), [
        ("no row pair under a deletion shares a key", "_close_pair", _replace("len(set(keys)) == len(keys)", "True")),
        ("one coordinate deleted, not two", "_close_pair",
         _replace("map(operator.sub, map(operator.sub, whole, di), dj)", "map(operator.sub, whole, di)")),
        ("adjacent coordinate pairs only", "_close_pair",
         _replace("itertools.combinations(digits, 2)", "zip(digits, digits[1:])")),
        ("the last close pair, not the first", "_close_pair", _replace("(a, b) < best", "(a, b) > best")),
        ("a row pairs with itself", "_close_pair", _replace("a != b", "True")),
        ("last coordinate left out", "_close_pair", _replace("range(len(rows[0]))", "range(len(rows[0]) - 1)")),
        ("rows left unsorted", "_codeword_rows", _replace("rows.sort()", "None")),
        ("check entry not negated", "_codeword_rows", _replace("neg(v)", "v")),
        ("check columns read first", "_codeword_rows", _replace("free + checks", "checks + free")),
        ("choice multiplier on the right", "_codeword_rows",
         _replace("mul(choice(a).value, e)", "mul(e, choice(a).value)")),
        ("choice ignored", "_codeword_rows", _replace("choice is not None", "False")),
    ], ["tests/test_hamming.py", "tests/test_payload_vectors.py"]),
    ("mode resolver", Path("src/quasicode/errors.py"), [
        ("None behaves as auto", "choose_mode", _replace("requested == 'auto'", "requested in ('auto', None)")),
        ("an exhaustive request skips the budget check", "choose_mode",
         _replace("check_budget(size, budget, what)", "requested == 'exhaustive' or check_budget(size, budget, what)")),
        ("an infinite exhaustive request falls back", "choose_mode",
         _replace("size is None and requested != 'exhaustive'", "size is None")),
        ("auto ignores the budget", "choose_mode",
         _replace("requested == 'auto' and _at_most(size, budget) is None", "False")),
        ("None over an infinite algebra refuses", "choose_mode",
         _replace("requested != 'exhaustive'", "requested not in ('exhaustive', None)")),
    ], ["tests/test_modes.py"]),
    ("command-line parser", Path("src/quasicode/cli.py"), [
        ("no subcommand's parser filled", "_build_parser", _replace("name == command", "False")),
        ("the first subcommand's parser filled", "_build_parser",
         _replace("name == command", "name == next(iter(_COMMANDS))")),
        ("the command read from argv[1]", "main",
         _replace("argv[0] if argv else None", "argv[1] if argv[1:] else None")),
    ], ["tests/test_cli.py", "tests/test_frozen_help.py"]),
    ("index-table backend", Path("src/quasicode/algebra/tables.py"), [
        ("tabulated only below FLAT_LIMIT", "_arithmetic", _replace("self.n <= FLAT_LIMIT", "self.n < FLAT_LIMIT")),
        ("swap left_div and right_div", "_compile", _swap_divisions),
        ("row zero left a plain row", "_division_tables", _replace("a == zero", "False")),
        ("the right unit read off a row", "CayleyTableAlgebra.__init__",
         _replace("zip(*self.mul_table)", "self.mul_table")),
    ], ["tests/test_table_backend.py", "tests/test_index_tables.py"]),
]


def _method(tree: ast.Module, name: str, target: Path) -> ast.FunctionDef:
    owner, _, name = name.rpartition(".")
    scopes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == owner] if owner else [tree]
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
    raise SystemExit(f"error: {target} defines no {name}")


def mutate(source: str, name: str, swap, target: Path) -> str:
    """source with the function name rewritten by swap; its other lines are kept as they are."""
    func = _method(ast.parse(source), name, target)
    before = ast.unparse(func)
    after = ast.unparse(ast.fix_missing_locations(_Rewrite(swap).visit(func)))
    if after == before:
        raise SystemExit(f"error: the mutant does not apply to {name}; update tests/mutate.py")
    lines = source.splitlines(keepends=True)
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" for line in after.splitlines())
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno:])


def passes(copy: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    plans = []
    for label, target, mutants, tests in TARGETS:
        source = (ROOT / target).read_text()
        texts = [(f"{name} in {func}", mutate(source, func, swap, target)) for name, func, swap in mutants]
        plans.append((label, target, source, texts, tests))
    with tempfile.TemporaryDirectory(prefix="quasicode-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):  # without bytecode, which could outlive a rewrite
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):  # the CLI tests read the README's option table
            shutil.copy(ROOT / part, copy)
        if not passes(copy, sorted({t for *_, tests in TARGETS for t in tests})):
            print("error: the tests fail on the unmutated code", file=sys.stderr)
            return 2
        rates, survived = [], False
        for label, target, source, texts, tests in plans:
            killed = 0
            for name, text in texts:
                (copy / target).write_text(text)
                dead = not passes(copy, tests)
                killed += dead
                print(f"{'killed' if dead else 'SURVIVED'}: {name}")
            (copy / target).write_text(source)
            rates.append(f"{label}: {killed}/{len(texts)}")
            survived = survived or killed < len(texts)
    for rate in rates:
        print(f"kill rate, {rate}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
