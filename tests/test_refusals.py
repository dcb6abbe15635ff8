"""Refusals of bad arguments: each exits 2 with one `error:` line at the command line, and raises
its own error type and text in the library.

These are the refusals that the other test files do not reach: a missing input option, a
malformed --e2, --ops or quaternion --pivots entry, a spec file that is unreadable, not JSON, or
names a bad Cayley table (a one-element table too, within 5 s), isotope, Galois field or label
(a null label is the default), a bad literal of a Cayley table or a Galois
field, a column or vector file with a malformed column, and the argument checks of BasisChange,
ChoiceFunction, Column, FinVec addition, HammingCode, LinearIsometry, weight3_codeword, normalize,
make_isotope, PairElement, membership_by_reduction, the subfield structures, the enumeration of an
infinite algebra, sampled distinguishing and the choice and basis-change isomorphisms.  Last come
the operators given an operand of another type, which answer as Python does, and the reprs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quasicode import (
    BasisChange,
    CayleyTableAlgebra,
    ChoiceFunction,
    Column,
    DomainError,
    FinVec,
    HammingCode,
    InvalidParameterError,
    LinearIsometry,
    PairElement,
    SubfieldStructure,
    UnsupportedError,
    basis_change_isomorphism,
    choice_isomorphism,
    distinguish_invariant,
    enumerate_choice_codewords,
    expand_scalar,
    make_isotope,
    membership_by_reduction,
    resolve_preset,
    subfield_structure,
)
from quasicode.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
F3, F5, ISO = resolve_preset("f3"), resolve_preset("f5"), resolve_preset("gf9-isotope")
GF4, GF9 = resolve_preset("gf4"), resolve_preset("gf9")
QUATERNIONS, RATIONALS = resolve_preset("quaternions"), resolve_preset("rationals")


def _no_right_unit():
    # Z5 addition; the nonzero product is (h(x-1) + (y-1)) mod 4 + 1 with h swapping 0,1 and 2,3, so no
    # element is a right unit
    h = {0: 1, 1: 0, 2: 3, 3: 2}
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = (h[i - 1] + (j - 1)) % 4 + 1
    return CayleyTableAlgebra(add, mul, label="z5-skew")


def _col(alg, *entries) -> Column:
    return Column(alg.parse(str(e)) for e in entries)


class _OneColumnDraws(HammingCode):
    """A code whose random column is always its first identity column."""

    def random_column(self, rng) -> Column:
        return self.identity_columns()[0]


# -- the command line ---------------------------------------------------------------------


@pytest.mark.parametrize("argv,line", [
    (["decode", "--algebra", "f3", "--m", "2"], "this command needs --in with a vector file"),
    (["syndrome", "--algebra", "f3", "--m", "2"], "this command needs --in with a vector file"),
    (["membership-reduce", "--algebra", "f3", "--m", "2"], "this command needs --in with a vector file"),
    (["choice-iso", "--algebra", "f3", "--m", "2", "--e2", "garbage"],
     "choice entry 'garbage': expected '<column>=<scalar>'"),
    (["basis-iso", "--algebra", "f3", "--m", "2", "--ops", "swap"], "basis op 'swap': expected 'name:args'"),
    (["basis-iso", "--algebra", "f3", "--m", "2", "--ops", "rot:0,1"], "basis op 'rot:0,1': unknown basis op 'rot'"),
    (["support-witness", "--algebra", "f3", "--m", "2"],
     "this command needs --columns-file with one column per line"),
    (["distinguish", "--algebra", "f3", "--m", "2"], "this command needs --m2 for the larger code"),
    (["columns", "--algebra", "quaternions", "--m", "2", "--pivots", " ,1"], "quaternions: empty scalar literal"),
    (["columns", "--algebra", "quaternions", "--m", "2", "--pivots", "2q,1"],
     "quaternions: unknown unit 'q' in literal '2q'"),
], ids=["decode", "syndrome", "membership-reduce", "choice-iso", "basis-iso-swap", "basis-iso-rot",
        "support-witness", "distinguish", "empty-quaternion-literal", "unknown-quaternion-unit"])
def test_a_missing_or_malformed_option_exits_2_with_one_line(capsys, argv, line):
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {line}\n")


Z3_ADD = [[(i + j) % 3 for j in range(3)] for i in range(3)]
Z3_MUL = [[i * j % 3 for j in range(3)] for i in range(3)]
# passes every table check but has 0 == 1, which no quasifield has
ONE_ELEMENT = {"kind": "cayley-table", "add": [[0]], "mul": [[0]]}
# (name, the label, how the refusal shows it): a label is absent, null or a non-empty string of one line
BAD_LABELS = [
    ("int", 5, "int"), ("bool", False, "bool"), ("list", ["x"], "list"), ("object", {"a": [1, 2]}, "dict"),
    ("empty", "", "''"), ("two lines", "two\nlines", "'two\\nlines'"), ("trailing newline", "x\n", "'x\\n'"),
    ("carriage return", "a\rb", "'a\\rb'"), ("line separator", "a\u2028b", "'a\\u2028b'"),
]


# (spec file content, JSON unless a str, or None for no file; options after --m 2; the error line,
# where {path} stands for the spec file's path)
SPEC_REFUSALS = {
    "spec not an object": ("[]", [], "algebra spec must be an object with a 'kind' field"),
    "unknown isotope base": ({"kind": "isotope", "base": "gf7", "a": "t"}, [],
                             "unknown base preset 'gf7' in isotope spec"),
    "isotope over a prime field": ({"kind": "isotope", "base": "f3", "a": "1"}, [],
                                   "isotope base must be a galois field"),
    "no such spec file": (None, [], "cannot read algebra spec {path}: [Errno 2] No such file or directory: '{path}'"),
    "spec not JSON": ("{", [], "{path} is not valid JSON: Expecting property name enclosed in double quotes: "
                               "line 1 column 2 (char 1)"),
    "short multiplication table": ({"kind": "cayley-table", "add": Z3_ADD, "mul": Z3_MUL[:2]}, [],
                                   "cayley: mul table must be 3x3"),
    "multiplication column not a permutation": (
        {"kind": "cayley-table", "add": Z3_ADD, "mul": [[0, 0, 0], [0, 1, 2], [0, 1, 2]]}, [],
        "cayley: multiplication column 1 is not a permutation of the nonzero elements"),
    "unknown element literal": ({"kind": "cayley-table", "add": Z3_ADD, "mul": Z3_MUL}, ["--pivots", "x,1"],
                                "cayley: unknown element literal 'x'"),
    "element index out of range": ({"kind": "cayley-table", "add": Z3_ADD, "mul": Z3_MUL}, ["--pivots", "5,1"],
                                   "cayley: element index 5 out of range [0,3)"),
    "isotope V moves 1": ({"kind": "isotope", "base": "gf9", "a": "t", "V": [[1, 0], [1, 1]]}, [], "V must fix 1"),
    "galois characteristic not prime": ({"kind": "galois-field", "p": 4, "poly": [1, 1, 1]}, [],
                                        "galois field characteristic must be prime, got 4"),
    "empty galois literal": ({"kind": "galois-field", "p": 3, "poly": [1, 0, 1]}, ["--pivots", " ,1"],
                             "gf9: empty scalar literal"),
    **{f"cayley label {name}": ({"kind": "cayley-table", "add": Z3_ADD, "mul": Z3_MUL, "label": label}, [],
                                f"algebra spec field 'label': expected a non-empty string on one line, got {got}")
       for name, label, got in BAD_LABELS},
    **{f"isotope label {name}": ({"kind": "isotope", "base": "gf9", "a": "t", "label": label}, [],
                                 f"algebra spec field 'label': expected a non-empty string on one line, got {got}")
       for name, label, got in BAD_LABELS},
}


@pytest.mark.parametrize("spec,options,line", SPEC_REFUSALS.values(), ids=SPEC_REFUSALS)
def test_a_bad_spec_file_or_literal_exits_2_with_one_line(capsys, tmp_path, spec, options, line):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    status = main(["columns", "--algebra", str(path), "--m", "2", *options])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {line.format(path=path)}\n")


@pytest.mark.parametrize("kind,spec", [
    ("cayley-table", {"kind": "cayley-table", "add": Z3_ADD, "mul": Z3_MUL}),
    ("isotope", {"kind": "isotope", "base": "gf9", "a": "t"}),
])
def test_a_null_label_is_the_default(capsys, tmp_path, kind, spec):
    outputs = []
    for extra in ({}, {"label": None}):
        path = tmp_path / f"spec{len(outputs)}.json"
        path.write_text(json.dumps({**spec, **extra}))
        assert main(["columns", "--algebra", str(path), "--m", "2"]) == 0
        outputs.append(capsys.readouterr().out.replace(str(path), "SPEC"))
    assert outputs[0] == outputs[1]
    assert ("algebra: cayley (digest " if kind == "cayley-table" else "algebra: isotope(gf9,a=t) (digest ") in outputs[0]


@pytest.mark.parametrize("command", ["columns", "audit", "verify-perfect", "generators", "reconstruct-check"])
def test_a_one_element_cayley_table_is_refused_in_bounded_time(tmp_path, command):
    # the table once passed validation, and each of these commands then sized its run with a power of 1, which
    # never exceeds a bound: the child is killed after 5 s instead of hanging the test
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_ELEMENT))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [command, "--algebra", str(path)] + ([] if command == "audit" else ["--m", "2"])
    done = subprocess.run([sys.executable, "-m", "quasicode.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=5)
    line = "error: cayley: a Cayley table needs at least 2 elements, got 1\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", line)


# (the command line, where {path} stands for the input file; the file's text; the error line)
INPUT_REFUSALS = {
    "column without parentheses": (["support-witness", "--columns-file", "{path}"], "1,0\n",
                                   "expected a parenthesized tuple literal, got '1,0'"),
    "column without coordinates": (["support-witness", "--columns-file", "{path}"], "()\n", "empty tuple literal"),
    "vector column of another length": (["decode", "--in", "{path}"], "(1,0,0) := 1\n",
                                        "line 1: column has 3 coordinates, expected 2"),
}


@pytest.mark.parametrize("argv,text,line", INPUT_REFUSALS.values(), ids=INPUT_REFUSALS)
def test_a_bad_column_or_vector_file_exits_2_with_one_line(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    command, *options = (a.format(path=path) for a in argv)
    status = main([command, "--algebra", "f3", "--m", "2", *options])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {line}\n")


# -- the library --------------------------------------------------------------------------


def _refusals():
    one3, zero3, one5 = F3.parse("1"), F3.zero(), F5.parse("1")
    skew = _no_right_unit()
    code = HammingCode(F3, 2)
    a, b = code.identity_columns()
    return [
        # BasisChange
        ("rows not square", lambda: BasisChange(F3, [[one3, zero3]]),
         InvalidParameterError, "basis change matrix must be square"),
        ("entry of another algebra", lambda: BasisChange(F3, [[one3, zero3], [zero3, one5]]),
         DomainError, "matrix entries must belong to the stated algebra"),
        ("coordinate out of range", lambda: BasisChange.swap(F3, 2, 0, 2),
         InvalidParameterError, "coordinate 2 out of range for m=2"),
        ("negative coordinate", lambda: BasisChange.scale(F3, 2, -1, one3),
         InvalidParameterError, "coordinate -1 out of range for m=2"),
        ("swap on one coordinate", lambda: BasisChange.swap(F3, 2, 1, 1),
         InvalidParameterError, "swap needs two distinct coordinates"),
        ("shear on one coordinate", lambda: BasisChange.shear(F3, 2, 0, 0, one3),
         InvalidParameterError, "shear needs two distinct coordinates"),
        ("shear factor of another algebra", lambda: BasisChange.shear(F3, 2, 0, 1, one5),
         DomainError, "shear factor must belong to the stated algebra"),
        ("unknown op", lambda: BasisChange.from_ops(F3, 2, [("rot", 0, 1)]),
         InvalidParameterError, "unknown basis operation 'rot'"),
        ("compose across lengths", lambda: BasisChange.identity(F3, 2).compose(BasisChange.identity(F3, 3)),
         DomainError, "cannot compose basis changes over different ambients"),
        ("compose across algebras", lambda: BasisChange.identity(F3, 2).compose(BasisChange.identity(F5, 2)),
         DomainError, "cannot compose basis changes over different ambients"),
        ("identity without a unit", lambda: BasisChange.identity(skew, 2),
         UnsupportedError, "z5-skew has no unit to build matrices from"),
        ("basis change of another ambient", lambda: basis_change_isomorphism(code, BasisChange.identity(F3, 3)),
         DomainError, "basis change does not match the code's ambient"),
        ("basis change over nonassociative scalars",
         lambda: basis_change_isomorphism(HammingCode(ISO, 2), BasisChange.identity(ISO, 2)),
         UnsupportedError, "gf9-isotope: basis-change isomorphisms need associative scalars"),
        # ChoiceFunction
        ("zero default", lambda: ChoiceFunction(F3, default=zero3),
         InvalidParameterError, "default representative must be a nonzero scalar"),
        ("default of another algebra", lambda: ChoiceFunction(F3, default=one5),
         InvalidParameterError, "default representative must be a nonzero scalar"),
        ("column of another algebra", lambda: ChoiceFunction(F3, {_col(F5, 1, 0): one3}),
         DomainError, "column (1,0) does not belong to f3"),
        ("choice without a right unit", lambda: ChoiceFunction(skew),
         InvalidParameterError, "z5-skew has no right unit; pass an explicit default representative"),
        ("choice codewords over another algebra", lambda: enumerate_choice_codewords(code, ChoiceFunction(F5)),
         DomainError, "choice functions must live over the code's algebra"),
        ("choice isomorphism over another algebra",
         lambda: choice_isomorphism(code, ChoiceFunction(F3), ChoiceFunction(F5)),
         DomainError, "choice functions must live over the code's algebra"),
        # HammingCode
        ("code without a right unit", lambda: HammingCode(skew, 2),
         InvalidParameterError, "z5-skew has no right unit; pass explicit pivots"),
        ("weight3_codeword on one column twice", lambda: code.weight3_codeword(a, a, one3, one3),
         DomainError, "weight3_codeword needs two distinct columns"),
        ("weight3_codeword with a zero entry", lambda: code.weight3_codeword(a, b, one3, zero3),
         DomainError, "weight3_codeword needs nonzero entries"),
        ("normalize of a tuple", lambda: code.normalize((one3, zero3)),
         DomainError, "normalize expects a DenseVec or Column"),
        ("normalize of a FinVec", lambda: code.normalize(FinVec.single(a, one3)),
         DomainError, "normalize expects a DenseVec or Column"),
        # make_isotope, whose base the spec reader checks first
        ("isotope of a prime field", lambda: make_isotope(F3, one3),
         InvalidParameterError, "isotope base must be a galois field"),
        ("isotope element of another field", lambda: make_isotope(GF9, GF4.parse("t")),
         InvalidParameterError, "isotope element a must belong to the base field"),
        # LinearIsometry
        ("isometry column of another algebra", lambda: LinearIsometry(F3, 2, pi={_col(F5, 1, 0): _col(F5, 1, 0)}),
         DomainError, "isometry columns must belong to the stated algebra"),
        ("isometry column of another length", lambda: LinearIsometry(F3, 2, pi={_col(F3, 1, 0, 0): a}),
         DomainError, "isometry columns must match the stated ambient"),
        ("apply to a longer vector", lambda: LinearIsometry(F3, 2).apply(FinVec(F3, 3)),
         DomainError, "vector does not match the isometry's ambient"),
        ("apply to a vector of another algebra", lambda: LinearIsometry(F3, 2).apply(FinVec(F5, 2)),
         DomainError, "vector does not match the isometry's ambient"),
        # reconstruct
        ("pair value without a column", lambda: PairElement(one3),
         DomainError, "a nonzero pair element needs a column"),
        ("pair value and column apart", lambda: PairElement(one3, _col(F5, 1, 0)),
         DomainError, "pair value and column live in different algebras"),
        ("reduction of a vector of another algebra", lambda: membership_by_reduction(code, FinVec(F5, 2)),
         DomainError, "vector does not match the code's ambient"),
        ("reduction of a longer vector", lambda: membership_by_reduction(code, FinVec(F3, 3)),
         DomainError, "vector does not match the code's ambient"),
        # vectors
        ("column without coordinates", lambda: Column([]), DomainError, "a Column needs at least one coordinate"),
        ("vectors of different lengths added", lambda: FinVec(F3, 2) + FinVec(F3, 3),
         DomainError, "ambient mismatch: m=2 vs m=3"),
        # subfield structures
        ("structure over a Galois field", lambda: SubfieldStructure(GF4, GF4, [], None, None),
         UnsupportedError, "no exact solver adapter for gf4"),
        ("expansion of a scalar of another algebra", lambda: subfield_structure(F3).expand(one5),
         UnsupportedError, "expand: scalar does not belong to the structured algebra"),
        ("expansion without a structure", lambda: expand_scalar(ISO.parse("1")),
         UnsupportedError, "gf9-isotope: no subfield structure registered"),
        # an infinite algebra, and draws that never reach a new column
        ("elements of an infinite algebra", lambda: list(QUATERNIONS.elements()),
         UnsupportedError, "quaternions: cannot enumerate an infinite algebra"),
        ("column draws that repeat one column",
         lambda: distinguish_invariant(_OneColumnDraws(RATIONALS, 2), HammingCode(RATIONALS, 3), samples=1),
         UnsupportedError, "10000 column draws in a row repeated one of 1 columns; "
                           "the draws of rationals may not hold 3 distinct columns"),
    ]


REFUSALS = _refusals()


@pytest.mark.parametrize("call,error,text", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_a_bad_argument_raises_its_error_and_text(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == text


# -- operands of another type, and the reprs ----------------------------------------------


def _mixed():
    one = F3.parse("1")
    col = _col(F3, 1, 0)
    vec = FinVec.single(col, one)
    return {
        "algebra == int": (lambda: F3 == 3, False),
        "scalar + int": (lambda: one + 1, "TypeError: unsupported operand type(s) for +: 'Scalar' and 'int'"),
        "scalar - int": (lambda: one - 1, "TypeError: unsupported operand type(s) for -: 'Scalar' and 'int'"),
        "scalar * int": (lambda: one * 1, "TypeError: unsupported operand type(s) for *: 'Scalar' and 'int'"),
        "scalar == int": (lambda: one == 1, False),
        "scalar < int": (lambda: one < 1, "TypeError: '<' not supported between instances of 'Scalar' and 'int'"),
        "column + int": (lambda: col + 1, "TypeError: unsupported operand type(s) for +: 'Column' and 'int'"),
        "column == tuple": (lambda: col == (1, 0), False),
        "column < tuple": (lambda: col < (1, 0),
                           "TypeError: '<' not supported between instances of 'Column' and 'tuple'"),
        "vector + column": (lambda: vec + col, "TypeError: unsupported operand type(s) for +: 'FinVec' and 'Column'"),
        "vector - column": (lambda: vec - col, "TypeError: unsupported operand type(s) for -: 'FinVec' and 'Column'"),
        "pair == int": (lambda: PairElement(one, col) == 1, False),
        "repr of an algebra": (lambda: repr(F3), "<algebra f3>"),
        "repr of a scalar": (lambda: repr(one), "Scalar(f3, 1)"),
        "repr of a column": (lambda: repr(col), "Column(1,0)"),
        "repr of a dense vector": (lambda: repr(col.to_dense()), "DenseVec(1,0)"),
    }


MIXED = _mixed()


@pytest.mark.parametrize("call,answer", MIXED.values(), ids=MIXED)
def test_an_operand_of_another_type_gets_pythons_answer(call, answer):
    # each operator returns NotImplemented for another type, so Python answers False or raises TypeError
    try:
        got = call()
    except TypeError as exc:
        got = f"TypeError: {exc}"
    assert got == answer
