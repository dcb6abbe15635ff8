"""Mutation check: a registry of targets, each rewritten by mutants its tests must kill.

Usage (from the root of the checkout):
  python3 tests/mutate.py

A target is (label, file, mutants, test files) and a mutant (name, definition,
rewrite), where the definition is a function named alone or as Class.method,
or a module-level assignment.  Each mutant rewrites one definition of the
target's file in a temporary copy of src/ and tests/, then runs the target's
test files against the copy; a mutant that the tests still pass survives.
The targets are HammingCode's table kernel (_table_correction,
_table_syndrome), the head test (each support column led by its position's
pivot: in _table_correction's syndrome pass and in _canonical_payloads, the
payload path's one loop), the codeword enumeration (codewords._close_pair and
_codeword_rows), the
payload reads of finvec.Column (equality, to_dense, pivot_index, sort_key), the mode
resolver errors.choose_mode, the command-line parser (cli._build_parser,
which fills only the named subcommand's parser, and main, which names it),
the index-table backend of the finite algebras (tables._arithmetic, which
decides FLAT_LIMIT, _compile and _division_tables), the units of a Cayley
table (fields), and the law family: the laws of audit.py as predicates (laws) and as
rows (row_laws), the proof pass (_generators, _closure, _proved, Light's
test and the guard that proves distributivity only over an associative
addition), the module axiom table of reconstruct.py (_AXIOMS) and its index
tables (_index_tables: the mirrored pair sums and Light's generators), the
solved dependence search (equivalence._witness_brute), the kernels of the
rationals, quaternions and octonions (the inlined randint draws, the flat
octonion product, the zero test, the sort key and the unit shortcuts), the
integer subfield structure (its terms, the self-check's centrality and
bilinearity samples, and the rational recombination's lcm), HammingCode's
payload kernel (_syndrome_payloads: the first-term start and the side of
each action; _factor, which _payload_correction reads: the head search and
the tail's division), the refusal of the weight-3 kernel
(codewords._weight3: no correction, or one on the word's own columns), the marks that
let weight3_generators decode each codeword once (the two later pairs, and
the refusal of a pair decoded before its second column), the payload image
of basis_change_isomorphism (the side of the syndrome it reads and the
annihilation test), the entry blocks that _witness_linearized builds once
per distinct payload, the pair keys of reconstruct.py (_pair_sum and
_pair_scaled), HammingCode's inlined randrange column draw, the bounded
construction of fields
(tables.is_prime, and Rabin's test in fields.GaloisField._irreducible,
_poly_inverse and the order bound), and the algebra digest (CPython's builtin sha256 tried before
hashlib, its 12 hex characters, and the canonical spec hashed without the
label).  The script first checks that the unmutated copy passes every target's tests and
that every mutant changes the definition it names, prints one line per
mutant and the kill rate of each target, and exits 1 when a mutant survives.
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


def _swap_draws(node):
    """The rewrite that draws the denominator first: the two rejection loops of a body swapped."""
    body = getattr(node, "body", None)
    loops = [i for i, stmt in enumerate(body) if isinstance(stmt, ast.While)] if isinstance(body, list) else []
    if len(loops) == 2:
        i, j = loops
        body[i], body[j] = body[j], body[i]
        return node


def _unit_for_result(node):
    """The rewrite that makes a shortcut "c if a == one else ..." give the unit a instead of c."""
    if isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare):
        node.body = node.test.left
        return node


def _axiom_field(name: str, index: int, value: str):
    """The rewrite that sets field index of the module axiom name in _AXIOMS to value."""
    def swap(node):
        if isinstance(node, ast.Tuple) and node.elts and getattr(node.elts[0], "value", None) == name:
            node.elts[index] = ast.Constant(value)
            return node
    return swap


def _rekey(table: str, key: str, expr: str):
    """The rewrite that reads, tests and writes the dict table at expr where it used the name key."""
    def swap(node):
        if isinstance(node, ast.Subscript) and ast.unparse(node) == f"{table}[{key}]":
            node.slice = _expr(expr)
            return node
        if isinstance(node, ast.Compare) and ast.unparse(node) == f"{key} not in {table}":
            node.left = _expr(expr)
            return node
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
    ("head test", Path("src/quasicode/hamming.py"), [
        # the table kernel's test, in its syndrome pass
        ("the zero column accepted", "_table_correction", _replace("e != pivots[beta]", "e != zero and e != pivots[beta]")),
        ("pivots[0] for pivots[beta]", "_table_correction", _replace("e != pivots[beta]", "e != pivots[0]")),
        ("the test skipped after the first term", "_table_correction",
         _replace("e != pivots[beta]", "e != pivots[beta] and a is next(iter(terms))[0]")),
        # the payload path's one loop, which the word check _check_vector and is_canonical_column read
        ("the zero column accepted", "HammingCode._canonical_payloads",
         _replace("e != pivots[beta]", "e != zero and e != pivots[beta]")),
        ("pivots[0] for pivots[beta]", "HammingCode._canonical_payloads", _replace("e != pivots[beta]", "e != pivots[0]")),
        ("the test skipped after the first term", "HammingCode._canonical_payloads",
         _replace("e != pivots[beta]", "e != pivots[beta] and a is next(iter(columns))")),
    ], ["tests/test_raw_payloads.py"]),
    ("codeword enumeration", Path("src/quasicode/codewords.py"), [
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
         _replace("mul(choice._rep(a.payloads), e)", "mul(e, choice._rep(a.payloads))")),
        ("choice ignored", "_codeword_rows", _replace("choice is not None", "False")),
    ], ["tests/test_hamming.py", "tests/test_payload_vectors.py"]),
    ("Column payloads", Path("src/quasicode/finvec.py"), [
        ("equality ignores the algebra", "Column.__eq__",
         _replace("self.payloads == other.payloads and self.algebra == other.algebra", "self.payloads == other.payloads")),
        ("to_dense returns a Column", "Column.to_dense",
         _replace("DenseVec._wrap(self.algebra, self.payloads)", "Column._wrap(self.algebra, self.payloads)")),
        ("the pivot counted from 1", "Column.pivot_index", _replace("enumerate(self.payloads)", "enumerate(self.payloads, 1)")),
        ("the sort key read reversed", "Column.sort_key", _replace("self.payloads", "self.payloads[::-1]")),
    ], ["tests/test_finvec.py"]),
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
    ], ["tests/test_table_backend.py", "tests/test_index_tables.py"]),
    ("Cayley table units", Path("src/quasicode/algebra/fields.py"), [
        ("the right unit read off a row", "CayleyTableAlgebra.__init__",
         _replace("zip(*self.mul_table)", "self.mul_table")),
    ], ["tests/test_table_backend.py", "tests/test_index_tables.py"]),
    ("law family", Path("src/quasicode/algebra/audit.py"), [
        ("left distributivity adds a*b twice", "laws",
         _replace("add(act(a, b), act(a, c))", "add(act(a, b), act(a, b))")),
        ("right distributivity sums the acting elements by add", "laws",
         _replace("act(sadd(a, b), c)", "act(add(a, b), c)")),
        ("associativity composes the acting elements by act", "laws",
         _replace("act(smul(a, b), c)", "act(act(a, b), c)")),
        ("commutativity always holds", "laws", _replace("act(a, b) == act(b, a)", "True")),
        ("left distributivity composes with act[b]", "row_laws",
         _replace("_compose(add[act[a][b]], act[a])", "_compose(add[act[a][b]], act[b])")),
        ("right distributivity sums the acting elements by add", "row_laws",
         _replace("act[sadd[a][b]]", "act[add[a][b]]")),
        ("associativity composes in the other order", "row_laws",
         _replace("_compose(act[a], act[b])", "_compose(act[b], act[a])")),
        ("commutativity compares a row with itself", "row_laws", _replace("col[a]", "act[a]")),
        ("the closure reaches every element", "_closure", _replace("set(gens)", "set(range(len(table)))")),
        ("no generator chosen", "_generators", _replace("e not in reached", "False")),
        ("one agreeing prefix proves a law", "_proved", _replace("all", "any")),
        ("only the generators' own prefixes compared", "_proved",
         _replace("itertools.product(els, gens)", "itertools.product(gens, gens)")),
        ("Light's test on the additive generators", "_scans",
         _replace("_generators(els, mul)", "_generators(els, add)")),
        ("distributivity proved over any addition", "_scans",
         _replace("_proved(row_laws(add, add, add, add, col)['associative'], els, plus)", "True")),
    ], ["tests/test_audit.py", "tests/test_table_backend.py", "tests/test_reconstruct.py", "tests/test_pair_keys.py"]),
    ("module axiom table", Path("src/quasicode/reconstruct.py"), [
        ("pair associativity taken on the scalars acting", "_AXIOMS", _axiom_field("add_associative", 3, "s")),
        ("scalar associativity taken on pair addition", "_AXIOMS", _axiom_field("scalar_action_associative", 3, "p")),
        ("scalar distributivity taken as the right law", "_AXIOMS",
         _axiom_field("scalar_distributes_over_pairs", 2, "right_distributive")),
        ("pair distributivity over scalars taken as associativity", "_AXIOMS",
         _axiom_field("pairs_distribute_over_scalars", 2, "associative")),
        ("pair commutativity drawn on scalars", "_AXIOMS", _axiom_field("add_commutative", 1, "ss")),
    ], ["tests/test_reconstruct.py", "tests/test_pair_keys.py", "tests/test_frozen_reports.py"]),
    ("module axiom index tables", Path("src/quasicode/reconstruct.py"), [
        ("a same-column cell mirrored", "_index_tables", _replace("j < i and cols[j] != cols[i]", "j < i")),
        ("Light's generators taken from the scalar table", "_index_tables",
         _replace("audit._generators(ids, psum)", "audit._generators(range(len(els)), smul)")),
    ], ["tests/test_solved_searches.py"]),
    ("dependence search", Path("src/quasicode/equivalence.py"), [
        ("the last value solved on the left", "_witness_brute", _replace("alg._solve_right", "alg._solve_left")),
        ("the pivot read at coordinate 0", "_witness_brute", _replace("cols[-1].pivot_index()", "0")),
    ], ["tests/test_solved_searches.py"]),
    ("hypercomplex kernels", Path("src/quasicode/algebra/hypercomplex.py"), [
        ("numerator accepted at the width", "_HypercomplexBase._random",
         _replace("(n := bits(kn)) >= wn", "(n := bits(kn)) > wn")),
        ("denominator accepted at the height", "_HypercomplexBase._random",
         _replace("(d := bits(kd)) >= wd", "(d := bits(kd)) > wd")),
        ("numerator accepted at the width", "RationalField._random",
         _replace("(n := bits(kn)) >= wn", "(n := bits(kn)) > wn")),
        ("denominator accepted at the height", "RationalField._random",
         _replace("(d := bits(kd)) >= wd", "(d := bits(kd)) > wd")),
        ("denominator drawn from 0", "_HypercomplexBase._random", _replace("d + 1", "d")),
        ("denominator drawn from 0", "RationalField._random", _replace("d + 1", "d")),
        ("denominator drawn before the numerator", "_HypercomplexBase._random", _swap_draws),
        ("denominator drawn before the numerator", "RationalField._random", _swap_draws),
        ("the rational draw left unreduced", "RationalField._random", _replace("gcd(n - wd, d + 1)", "1")),
        ("one sign of the octonion product flipped", "_oct_mul_int",
         _replace("a0 * b5 + a1 * b4 - a2 * b7", "a0 * b5 + a1 * b4 + a2 * b7")),
        ("the zero test compares with the unit", "_HypercomplexBase._is_zero",
         _replace("self._zero_payload", "self._one")),
        ("the sort key's denominator left unreduced", "_HypercomplexBase.sort_key", _replace("x[-1] // g", "x[-1]")),
        ("a product with the unit on the left gives the unit", "_HypercomplexBase._mul", _unit_for_result),
        ("a left quotient by the unit gives the unit", "_HypercomplexBase._solve_left", _unit_for_result),
        ("a right quotient by the unit gives the unit", "_HypercomplexBase._solve_right", _unit_for_result),
    ], ["tests/test_hypercomplex_payloads.py", "tests/test_frozen_reports.py"]),
    ("subfield structure", Path("src/quasicode/algebra/structure.py"), [
        ("terms read from i_q * i_r", "SubfieldStructure.__init__",
         _replace("products[r]", "[row[r] for row in products]")),
        ("the bilinearity samples skipped", "SubfieldStructure._verify",
         _replace("self.recombine_int(via, xd * yd) != alg._mul(x, y)", "False")),
        ("the centrality check skipped", "SubfieldStructure._verify",
         _replace("alg._mul(e, b) != alg._mul(b, e)", "False")),
        ("the rational recombination without its lcm", "SubfieldStructure._recombine",
         _replace("lcm(*(e for _, e in coeffs))", "1")),
    ], ["tests/test_subfield_structure.py"]),
    ("HammingCode column draw", Path("src/quasicode/hamming.py"), [
        ("the inlined randrange bound one short", "HammingCode._random_column_payloads",
         _replace("(beta := bits(k)) >= m", "(beta := bits(k)) >= m - 1")),
    ], ["tests/test_hypercomplex_payloads.py", "tests/test_pair_keys.py"]),
    ("payload correction", Path("src/quasicode/hamming.py"), [
        ("the first-term start always overwrites", "_syndrome_payloads",
         _replace("t if acc[i] == zero else add(acc[i], t)", "t")),
        ("mul(e, v) for the left action", "_syndrome_payloads", _replace("mul(v, e)", "mul(e, v)")),
        ("mul(v, e) for the right action", "_syndrome_payloads", _replace("mul(e, v)", "mul(v, e)")),
        ("the head search starts one late", "HammingCode._factor", _replace("enumerate(z)", "enumerate(z[1:], 1)")),
        ("the tail solved as a right quotient", "HammingCode._factor",
         _replace("(alg._solve_right, alg._solve_left)", "(alg._solve_right, alg._solve_right)")),
    ], ["tests/test_payload_correction.py", "tests/test_raw_payloads.py"]),
    ("weight-3 kernel", Path("src/quasicode/codewords.py"), [
        ("no correction accepted", "_weight3", _replace("fix is None or fix[0] in (a1, a2)", "fix[0] in (a1, a2)")),
        ("a correction on the word's own column accepted", "_weight3",
         _replace("fix is None or fix[0] in (a1, a2)", "fix is None")),
    ], ["tests/test_hamming.py"]),
    ("weight-3 marks", Path("src/quasicode/codewords.py"), [
        ("the first pair left unmarked", "weight3_generators",
         _replace("marks[e1 * size + e3]", "marks[e2 * size + e3]")),
        ("the second pair left unmarked", "weight3_generators",
         _replace("marks[e2 * size + e3]", "marks[e1 * size + e3]")),
        ("the decoded pair marked in place of (a1, a3)", "weight3_generators",
         _replace("marks[e1 * size + e3]", "marks[e1 * size + e2]")),
        ("a pair decoded before its second column accepted", "weight3_generators", _replace("e3 < j * q", "False")),
    ], ["tests/test_payload_certificates.py"]),
    ("payload basis image", Path("src/quasicode/equivalence.py"), [
        ("the image read with the right action", "basis_change_isomorphism",
         _replace("code._syndrome(list(zip(rows, a)), False)", "code._syndrome(list(zip(rows, a)), True)")),
        ("the annihilation test dropped", "basis_change_isomorphism",
         _replace("factors is None", "False")),
    ], ["tests/test_payload_certificates.py"]),
    ("support-witness blocks", Path("src/quasicode/equivalence.py"), [
        ("blocks keyed on the first numerator only", "_witness_linearized",
         _rekey("blocks", "v", "st.expand_int(v)[0][0]")),
    ], ["tests/test_payload_certificates.py"]),
    ("pair keys", Path("src/quasicode/reconstruct.py"), [
        ("a zero operand absorbs the other", "_pair_sum", _replace("v if u is None else u", "u if u is None else v")),
        ("same-column values multiplied", "_pair_sum", _replace("alg._add(x, y)", "alg._mul(x, y)")),
        ("a same-column sum that cancels kept", "_pair_sum",
         _replace("None if alg._is_zero(s) else (s, a)", "(s, a)")),
        ("same-column pairs decoded", "_pair_sum", _replace("a == b", "False")),
        ("the third entry not negated", "_pair_sum", _replace("alg._neg(s)", "s")),
        ("the scalar acts on the right", "_pair_scaled", _replace("alg._mul(a, u[0])", "alg._mul(u[0], a)")),
        ("a zero product kept", "_pair_scaled", _replace("None if alg._is_zero(s) else (s, u[1])", "(s, u[1])")),
    ], ["tests/test_pair_keys.py", "tests/test_reconstruct.py", "tests/test_payload_vectors.py"]),
    ("prime test", Path("src/quasicode/algebra/tables.py"), [
        ("base 41 left out", "is_prime", _replace("_BASES", "_BASES[:-1]")),
        ("b^d = 1 not accepted", "is_prime", _replace("pow(b, n - 1 >> s, n) == 1", "False")),
        ("b^(d 2^(s-1)) left unread", "is_prime", _replace("range(s)", "range(s - 1)")),
    ], ["tests/test_algebra.py"]),
    ("field construction", Path("src/quasicode/algebra/fields.py"), [
        ("t^(p^(k/r)) - t not tested", "GaloisField._irreducible", _replace("k % r == 0 and is_prime(r)", "False")),
        ("a non-unit inverted", "GaloisField._poly_inverse", _replace("not r1", "False")),
        ("the order bound read off p alone", "GaloisField.__init__",
         _replace("min(self.k, ORDER_LIMIT.bit_length())", "1")),
    ], ["tests/test_algebra.py"]),
    ("algebra digest", Path("src/quasicode/algebra/base.py"), [
        ("hashlib imported first", "Algebra.digest",
         _replace("('_sha2', '_sha256', 'hashlib')", "('hashlib', '_sha2', '_sha256')")),
        ("eleven hex characters", "Algebra.digest",
         _replace("sha256(self._canonical_spec().encode()).hexdigest()[:12]",
                  "sha256(self._canonical_spec().encode()).hexdigest()[:11]")),
        ("the label hashed in with the spec", "Algebra.digest",
         _replace("self._canonical_spec().encode()", "(self.label + self._canonical_spec()).encode()")),
    ], ["tests/test_algebra.py", "tests/test_frozen_reports.py"]),
]


def _defines(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return isinstance(node, ast.FunctionDef) and node.name == name


def _method(tree: ast.Module, name: str, target: Path) -> ast.FunctionDef | ast.Assign:
    owner, _, name = name.rpartition(".")
    scopes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == owner] if owner else [tree]
    for scope in scopes:
        for node in ast.walk(scope):
            if _defines(node, name):
                return node
    raise SystemExit(f"error: {target} defines no {name}")


def mutate(source: str, name: str, swap, target: Path) -> str:
    """source with the definition name rewritten by swap; its other lines are kept as they are."""
    func = _method(ast.parse(source), name, target)
    before = ast.unparse(func)
    after = ast.unparse(ast.fix_missing_locations(_Rewrite(swap).visit(func)))
    if after == before:
        raise SystemExit(f"error: the mutant does not apply to {name}; update tests/mutate.py")
    lines = source.splitlines(keepends=True)
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" for line in after.splitlines())
    start = min([func.lineno] + [d.lineno for d in getattr(func, "decorator_list", [])]) - 1
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
