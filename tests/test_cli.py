"""Command-line interface: exit codes, report text, and determinism."""
import ast
import errno
import hashlib
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quasicode import (
    HammingCode,
    axiom_audit,
    conjugate_code_check,
    distinguish_invariant,
    module_axiom_check,
    nonassoc_witness,
    resolve_preset,
    right_linearity_witness,
)
from quasicode.cli import _COMMANDS, _OPTIONS, _SHARED, main
from quasicode.errors import DEFAULT_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def z5_spec_file(tmp_path):
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = ((i - 1) + (j - 1)) % 4 + 1
    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"kind": "cayley-table", "add": add, "mul": mul, "label": "z5-shift"}))
    return str(path)


# -- happy paths -------------------------------------------------------------------------


def test_columns_frozen_order(capsys):
    code, out = run(capsys, "columns", "--algebra", "f3", "--m", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-4:] == ["(1,0)", "(1,1)", "(1,2)", "(0,1)"]


def test_columns_respects_pivots(capsys):
    code, out = run(capsys, "columns", "--algebra", "f3", "--m", "2", "--pivots", "2,1")
    assert code == 0
    assert out.splitlines()[-4:] == ["(2,0)", "(2,1)", "(2,2)", "(0,1)"]


def test_audit_field(capsys):
    code, out = run(capsys, "audit", "--algebra", "f5")
    assert code == 0
    assert "law associative: holds" in out


def test_audit_isotope_flags(capsys):
    code, out = run(capsys, "audit", "--algebra", "gf9-isotope")
    assert code == 0
    assert "law left_unit: fails witness=(1,t)" in out
    assert "law right_unit: holds" in out


def test_syndrome_of_codeword(capsys, tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("(1,0,0) := 1\n(0,1,0) := 1\n(1,1,0) := 1\n")
    code, out = run(capsys, "syndrome", "--algebra", "f2", "--m", "3", "--in", str(f))
    assert code == 0
    assert "syndrome: (0,0,0)" in out
    assert "in code: true" in out


def test_decode_then_syndrome_round_trip(capsys, tmp_path):
    noisy = tmp_path / "noisy.txt"
    noisy.write_text("(1,0,0) := 1\n(0,1,0) := 1\n")
    decoded = tmp_path / "decoded.txt"
    code, _ = run(
        capsys, "decode", "--algebra", "f2", "--m", "3", "--in", str(noisy), "--out", str(decoded)
    )
    assert code == 0
    text = decoded.read_text()
    assert "# changed: true" in text
    code2, out2 = run(capsys, "syndrome", "--algebra", "f2", "--m", "3", "--in", str(decoded))
    assert code2 == 0
    assert "in code: true" in out2


def test_decode_zero_vector(capsys, tmp_path):
    f = tmp_path / "zero.txt"
    f.write_text("")
    code, out = run(capsys, "decode", "--algebra", "f3", "--m", "2", "--in", str(f))
    assert code == 0
    assert "# zero vector" in out
    assert "# changed: false" in out


def test_verify_perfect_field(capsys):
    code, out = run(capsys, "verify-perfect", "--algebra", "f3", "--m", "2")
    assert code == 0
    assert "verdict: perfect" in out
    assert "code size: 9" in out


def test_verify_perfect_sampled(capsys):
    code, out = run(
        capsys, "verify-perfect", "--algebra", "quaternions", "--m", "2",
        "--trials", "100", "--seed", "3",
    )
    assert code == 0
    assert "verdict: perfect" in out


def test_generators_lists_weight3_codewords(capsys):
    code, out = run(capsys, "generators", "--algebra", "f2", "--m", "3")
    assert code == 0
    payload = [ln for ln in out.splitlines() if ln.startswith("FinVec")]
    assert len(payload) == 7


def test_reconstruct_check_field(capsys):
    code, out = run(capsys, "reconstruct-check", "--algebra", "f3", "--m", "2")
    assert code == 0
    assert "verdict: module axioms hold" in out


def test_reconstruct_check_octonions_violation(capsys):
    code, out = run(
        capsys, "reconstruct-check", "--algebra", "octonions", "--m", "2",
        "--trials", "150", "--seed", "0",
    )
    assert code == 1
    assert "scalar_distributes_over_pairs: VIOLATED" in out


def test_membership_reduce(capsys, tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("(1,0) := 1\n(0,1) := 1\n(1,1) := 2\n")
    code, out = run(capsys, "membership-reduce", "--algebra", "f3", "--m", "2", "--in", str(f))
    assert code == 0
    assert "membership by reduction: true" in out
    assert "agreement: true" in out


def test_choice_iso_frozen(capsys):
    code, out = run(capsys, "choice-iso", "--algebra", "f3", "--m", "2", "--e2", "(0,1)=2")
    assert code == 0
    assert "pi: identity" in out
    assert "alpha (0,1): 2" in out
    assert "verdict: generators map into the target code" in out


def test_basis_iso_ops(capsys):
    code, out = run(capsys, "basis-iso", "--algebra", "f3", "--m", "2", "--ops", "shear:0,1,1")
    assert code == 0
    assert "matrix: [1, 1; 0, 1]" in out
    assert "pi (1,0) -> (1,1)" in out


def test_support_witness_found(capsys, tmp_path):
    f = tmp_path / "cols.txt"
    f.write_text("(1,0)\n(1,1)\n(1,2)\n")
    code, out = run(capsys, "support-witness", "--algebra", "f3", "--m", "2", "--columns-file", str(f))
    assert code == 0
    assert "witness: FinVec[(1,0):1, (1,1):1, (1,2):1]" in out


def test_support_witness_independent(capsys, tmp_path):
    f = tmp_path / "cols.txt"
    f.write_text("# the identity columns\n(1,0)\n\n(0,1)\n")
    code, out = run(capsys, "support-witness", "--algebra", "f3", "--m", "2", "--columns-file", str(f))
    assert code == 0
    assert "columns: 2" in out.splitlines()  # the comment and the blank line name none
    assert "witness: none (columns are independent)" in out


def test_distinguish(capsys):
    code, out = run(capsys, "distinguish", "--algebra", "f2", "--m", "2", "--m2", "3")
    assert code == 0
    assert "verdict: codes distinguished" in out


def test_nonassoc_witness_isotope(capsys):
    code, out = run(capsys, "nonassoc-witness", "--algebra", "gf9-isotope", "--m", "2")
    assert code == 0
    assert "triple: a=1 b=1 c=t" in out
    assert "verdict: left scaling escapes the code" in out


def test_nonassoc_witness_field(capsys):
    code, out = run(capsys, "nonassoc-witness", "--algebra", "f5", "--m", "2")
    assert code == 0
    assert "associative: no witness" in out


def test_right_linearity_quaternions(capsys):
    code, out = run(capsys, "right-linearity", "--algebra", "quaternions", "--m", "2")
    assert code == 0
    assert "verdict: right scaling escapes the code" in out


def test_conjugate_check(capsys):
    code, out = run(capsys, "conjugate-check", "--algebra", "quaternions", "--m", "2", "--samples", "50")
    assert code == 0
    assert "conjugate images in the right code: 50/50" in out


# -- violation exit ----------------------------------------------------------------------


def test_nondistributive_table_fails_verification(capsys, tmp_path):
    spec = z5_spec_file(tmp_path)
    code, out = run(
        capsys, "verify-perfect", "--algebra", spec, "--m", "2",
        "--mode", "exhaustive", "--pivots", "1,1",
    )
    assert code == 1
    assert "min distance >= 3: VIOLATED" in out
    assert "verdict: NOT VERIFIED" in out


# -- usage errors ------------------------------------------------------------------------


def test_unknown_algebra(capsys):
    code, out = run(capsys, "columns", "--algebra", "nope", "--m", "2")
    assert code == 2
    assert "unknown algebra" in out


def test_missing_m(capsys):
    code, out = run(capsys, "columns", "--algebra", "f3")
    assert code == 2
    assert "--m" in out


def test_missing_input_file(capsys):
    code, out = run(capsys, "decode", "--algebra", "f2", "--m", "3", "--in", "/no/such/file")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument command: invalid choice: 'bogus' (choose from 'audit', ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,line", [
    (["columns", "--algebra", "f3", "--m", "x"], "argument --m: invalid int value: 'x'"),
    (["columns", "--algebra", "f3", "--m"], "argument --m: expected one argument"),
    (["columns", "--m", "2"], "the following arguments are required: --algebra"),
    ([], "the following arguments are required: command"),
])
def test_argparse_usage_errors_print_one_line(capsys, argv, line):
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {line}\n")


# every (subcommand, option it does not take) pair
FOREIGN = [(c, flag) for c, (_, options) in _COMMANDS.items() for flag in _OPTIONS if flag not in _SHARED + options]


@pytest.mark.parametrize("command,flag", FOREIGN, ids=[f"{c}{flag}" for c, flag in FOREIGN])
def test_an_option_the_subcommand_does_not_take_is_refused(capsys, command, flag):
    code_args = ["--m", "2"] if "--m" in _COMMANDS[command][1] else []
    status = main([command, "--algebra", "f3", *code_args, flag, "1"])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {command} does not take {flag}\n")


@pytest.mark.parametrize("extra,refused", [
    (["--mode=bogus"], "--mode"),
    (["stray"], "stray"),
    (["--pivot", "1,1"], "--pivot"),  # no abbreviations, not even of an option the subcommand takes
])
def test_any_other_argument_is_refused(capsys, extra, refused):
    status = main(["columns", "--algebra", "f3", "--m", "2", *extra])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: columns does not take {refused}\n")


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_handler_reads_the_options_it_takes(command):
    # no option is a no-op, and none is missing: a handler reads each option _COMMANDS gives it,
    # --m and --pivots through the code main builds, and of the rest only what main reads too
    handler, options = _COMMANDS[command]
    dest = {flag: keywords.get("dest", flag[2:].replace("-", "_")) for flag, keywords in _OPTIONS.items()}
    tree = ast.parse(inspect.getsource(handler))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "args"}
    own = {dest[flag] for flag in options if flag not in ("--m", "--pivots")}
    assert own <= read <= own | {dest[flag] for flag in _SHARED}


def test_the_readme_lists_the_options_of_each_subcommand():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| command | options besides")[1].split("\n\n")[0].splitlines()[2:]
    listed = {}
    for row in rows:
        commands, options = row.strip("|").split("|")
        for command in re.findall(r"`([a-z-]+)`", commands):
            listed[command] = tuple(options.replace("`", "").split())
    assert listed == {command: options for command, (_, options) in _COMMANDS.items()}


def test_exhaustive_audit_of_infinite_algebra(capsys):
    code, out = run(capsys, "audit", "--algebra", "rationals", "--mode", "exhaustive")
    assert code == 2
    assert "error:" in out


def test_bad_pivot_literal(capsys):
    code, out = run(capsys, "columns", "--algebra", "f3", "--m", "2", "--pivots", "1,zz")
    assert code == 2


@pytest.mark.parametrize("algebra,literal", [
    ("quaternions", "1/0i"),
    ("quaternions", "1/0"),
    ("octonions", "2-3/00e4"),
])
def test_zero_denominator_literal_is_a_usage_error(capsys, tmp_path, algebra, literal):
    f = tmp_path / "w.txt"
    f.write_text(f"(1,0) := {literal}\n")
    code, out = run(capsys, "decode", "--algebra", algebra, "--m", "2", "--in", str(f))
    assert code == 2
    assert out.splitlines() == [f"error: {algebra}: bad literal {literal!r}"]


def run_refused(capsys, *argv) -> str:
    """The one line a run prints when it exits 2 with an empty stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("literal,line", [
    ("1" * 5000, "gf9: bad polynomial literal"),
    ("t^" + "1" * 5000, "gf9: bad polynomial literal"),
    ("1" * 5000, "quaternions: bad literal"),
    ("1" * 5000 + "j", "quaternions: bad literal"),
], ids=["gf9-constant", "gf9-exponent", "quaternions-real", "quaternions-j"])
def test_a_literal_over_the_int_digit_limit_is_a_usage_error(capsys, tmp_path, literal, line):
    f = tmp_path / "w.txt"
    f.write_text(f"(1,0) := {literal}\n")
    algebra = line.partition(":")[0]
    assert run_refused(capsys, "decode", "--algebra", algebra, "--m", "2", "--in", str(f)) == f"error: {line} {literal!r}\n"


def test_a_huge_exponent_decodes_as_its_residue(capsys, tmp_path):
    reports = []
    for literal in ("t^99999999", "t^3"):  # t^4 = 1 in gf9
        f = tmp_path / "w.txt"
        f.write_text(f"(1,0) := {literal}\n")
        reports.append(run(capsys, "decode", "--algebra", "gf9", "--m", "2", "--in", str(f)))
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("literal", ["1e4300", "-1E-4300", "1e4_300", "1e" + "9" * 5000],
                         ids=["1e4300", "-1E-4300", "1e4_300", "exponent-of-5000-digits"])
def test_a_rational_exponent_of_4300_or_more_is_a_usage_error(capsys, tmp_path, literal):
    f = tmp_path / "w.txt"
    f.write_text(f"(1,0) := {literal}\n")
    line = run_refused(capsys, "decode", "--algebra", "rationals", "--m", "2", "--in", str(f))
    assert line == f"error: rationals: bad literal {literal!r}\n"


def test_a_rational_exponent_below_4300_is_read(capsys, tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("(1,0) := 1e4299\n(0,1) := 2.5e-4299\n")
    assert run(capsys, "syndrome", "--algebra", "rationals", "--m", "2", "--in", str(f))[0] == 0


def test_a_rational_too_long_to_print_is_a_usage_error(capsys, tmp_path):
    # 8,000 digits parse, but str() converts at most 4,300
    f = tmp_path / "w.txt"
    f.write_text("(1,0) := " + "9" * 4000 + "e4000\n")
    line = run_refused(capsys, "syndrome", "--algebra", "rationals", "--m", "2", "--in", str(f))
    assert line == "error: rationals: a value too long to print\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_child(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a run in a fresh interpreter; a run that hangs fails the
    test after 10 s instead of hanging it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "quasicode.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=10)
    return done.returncode, done.stdout, done.stderr


# t^40 + t^5 + t^4 + t^3 + 1 is irreducible over f2, and t^40 + t^6 + 1 = (t^20 + t^3 + 1)^2 is not
IRREDUCIBLE_40 = [1, 0, 0, 1, 1, 1] + [0] * 34 + [1]
SQUARE_40 = [1] + [0] * 5 + [1] + [0] * 33 + [1]
M61 = 2**61 - 1


@pytest.mark.parametrize("spec,word,line", [
    ({"kind": "prime-field", "p": M61}, "5", f"algebra: f{M61} (digest 632d2f82db8d)"),
    (f"f{M61}", "5", f"algebra: f{M61} (digest 632d2f82db8d)"),
    ({"kind": "galois-field", "p": 2, "poly": IRREDUCIBLE_40}, "t^39+1", "algebra: gf1099511627776 (digest "),
    ({"kind": "galois-field", "p": 2, "poly": SQUARE_40}, "1",
     f"error: modulus {SQUARE_40} is reducible over f2; an irreducible polynomial is required"),
    ({"kind": "galois-field", "p": 2, "poly": [1, 1] + [0] * 80 + [1]}, "1",
     "error: field order 2^82 exceeds the limit 3317044064679887385961980"),
    ({"kind": "prime-field", "p": 3317044064679887385961981}, "1",
     "error: field order 3317044064679887385961981 exceeds the limit 3317044064679887385961980"),
    ("f" + "1" * 5000, "1", f"error: unknown algebra 'f{'1' * 5000}': not a preset and not a spec file path"),
    ("rationals", "1e999999999", "error: rationals: bad literal '1e999999999'"),
], ids=["m61-spec", "m61-preset", "gf2^40", "gf2^40-reducible", "gf2^82", "prime-over-limit", "preset-of-5000-digits",
        "rational-1e999999999"])
def test_every_algebra_and_literal_is_built_in_bounded_time(tmp_path, spec, word, line):
    algebra = spec
    if isinstance(spec, dict):
        algebra = tmp_path / "spec.json"
        algebra.write_text(json.dumps(spec))
    vector = tmp_path / "w.txt"
    vector.write_text(f"(1,0) := {word}\n")
    code, out, err = run_child("decode", "--algebra", str(algebra), "--m", "2", "--in", str(vector))
    if line.startswith("error: "):
        assert (code, out, err) == (2, "", line + "\n")
    else:
        assert code == 0 and line in out.splitlines()[3] and err == ""


def test_a_sampled_audit_of_a_huge_prime_field_reads_only_its_probes():
    # the audit probes the first 8 nonzero elements; listing all 2^61 - 2 would not finish, and the
    # child's address space is capped so that a run that tries fails fast
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "quasicode.cli", "audit", "--algebra", f"f{M61}", "--mode", "sampled",
                           "--trials", "50"], env=env, capture_output=True, text=True, timeout=5, preexec_fn=cap)
    assert (done.returncode, done.stderr) == (0, "")
    assert "law alternative: holds  [no counterexample in 50 trials]" in done.stdout.splitlines()


def test_distinguish_refuses_more_distinct_columns_than_the_draws_hold():
    # a height-10 rational draw at m=2 reaches only 128 canonical columns
    code, out, err = run_child("distinguish", "--algebra", "rationals", "--m", "2", "--m2", "129", "--samples", "1")
    assert (code, out) == (2, "")
    assert err == ("error: 10000 column draws in a row repeated one of 128 columns; "
                   "the draws of rationals may not hold 129 distinct columns\n")


# sha256 of each report, fixed: the bound on repeated draws changes no run that completes
@pytest.mark.parametrize("seed,digest", enumerate(
    ["e6b219448b337a2c", "d3e559e49d82800a", "ffa4a94bb2acb061", "75e617ce0debdccf", "dc80e2f385c7dac5"]))
def test_distinguish_draws_every_column_the_draws_hold(capsys, seed, digest):
    argv = ["distinguish", "--algebra", "rationals", "--m", "2", "--m2", "128", "--samples", "1", "--seed", str(seed)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


# a field of a spec file holds a JSON integer, or lists of them; no other value is read as one
ISOTOPE = '"kind": "isotope", "base": "gf9", "a": "t"'
CAYLEY = '"kind": "cayley-table", "add": [[0, 1], [1, 0]]'


@pytest.mark.parametrize("spec,field", [
    ('{"kind": "prime-field", "p": "x"}', "p"),
    ('{"kind": "prime-field", "p": 1e400}', "p"),
    ('{"kind": "prime-field", "p": 5.7}', "p"),
    ('{"kind": "prime-field", "p": 5.0}', "p"),
    ('{"kind": "prime-field", "p": true}', "p"),
    ('{"kind": "galois-field", "p": 3, "poly": "ab"}', "poly"),
    ('{"kind": "galois-field", "p": 3, "poly": [1, 0, 1.0]}', "poly"),
    ('{"kind": "galois-field", "p": 3.0, "poly": [1, 0, 1]}', "p"),
    ('{"kind": "cayley-table", "add": [[0, 1], [1, 0]], "mul": 5}', "mul"),
    ('{%s, "mul": [5]}' % CAYLEY, "mul"),
    ('{%s, "mul": [[0, 0], [0, 1.5]]}' % CAYLEY, "mul"),
    ('{%s, "mul": [[0, 0], [0, true]]}' % CAYLEY, "mul"),
    ('{"kind": "cayley-table", "add": [[0, 1], [1, "0"]], "mul": [[0, 0], [0, 1]]}', "add"),
    ('{%s, "V": [[1, 0], [0, 1.0]]}' % ISOTOPE, "V"),
    ('{%s, "V": [[1, 0], [0, "1"]]}' % ISOTOPE, "V"),
    ('{%s, "V": 1}' % ISOTOPE, "V"),
])
def test_a_spec_value_that_is_no_integer_is_a_usage_error(capsys, tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert run_refused(capsys, "audit", "--algebra", str(path)).startswith(f"error: algebra spec field {field!r}: ")


def _nested_isotope(depth: int) -> str:
    spec = '{"kind": "galois-field", "p": 3, "poly": [2, 2, 1]}'
    for _ in range(depth):
        spec = '{"kind": "isotope", "a": "t", "base": %s}' % spec
    return spec


@pytest.mark.parametrize("spec", ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000,
                                  _nested_isotope(975), _nested_isotope(5000)],
                         ids=["arrays", "objects", "isotope-975", "isotope-5000"])
def test_a_deeply_nested_spec_file_is_a_usage_error(capsys, tmp_path, spec):
    path = tmp_path / "deep.json"
    path.write_text(spec)
    line = run_refused(capsys, "columns", "--algebra", str(path), "--m", "2")
    assert line == f"error: {path} nests too deeply to read as an algebra spec\n"


@pytest.mark.parametrize("argv,what", [
    (["audit", "--algebra"], "algebra spec"),
    (["decode", "--algebra", "f3", "--m", "2", "--in"], "vector file"),
    (["support-witness", "--algebra", "f3", "--m", "2", "--columns-file"], "columns file"),
])
def test_an_input_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv, what):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff(1,0) := 1\n")
    line = run_refused(capsys, *argv, str(path))
    assert line == f"error: {what} {path} is not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize("command", ["columns", "generators"])
def test_column_count_checked_against_budget(capsys, command):
    code, out = run(capsys, command, "--algebra", "gf25", "--m", "9", "--budget", "10")
    assert code == 2
    assert out.splitlines() == ["error: code has 158945719401 columns, over the budget of 10"]


@pytest.mark.parametrize("argv,shown", [
    (["columns", "--algebra", "f2", "--m", "15000"], "2^15000 - 1"),  # 4516 digits
    (["generators", "--algebra", "f2", "--m", "15000"], "2^15000 - 1"),
    (["columns", "--algebra", "gf25", "--m", "20"], "(25^20 - 1)/24"),  # 27 digits
])
def test_oversized_column_count_prints_its_closed_form(capsys, argv, shown):
    start = time.perf_counter()
    code, out = run(capsys, *argv, "--budget", "10")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.splitlines() == [f"error: code has {shown} columns, over the budget of 10"]


def test_generator_decodes_checked_against_budget(capsys):
    # 651 columns pass the column check, but the pairs need about 1.2e8 decodes
    start = time.perf_counter()
    code, out = run(capsys, "generators", "--algebra", "gf25", "--m", "3")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.splitlines() == [
        "error: generator enumeration needs 121867200 decodes, over the budget of 1048576"
    ]


def test_generators_f3_within_decode_budget(capsys):
    # 6 column pairs times 2*2 scalar pairs: 24 decodes, 8 generators
    code, out = run(capsys, "generators", "--algebra", "f3", "--m", "2", "--budget", "24")
    assert code == 0
    assert "generators: 8" in out
    assert len([ln for ln in out.splitlines() if ln.startswith("FinVec")]) == 8
    code, out = run(capsys, "generators", "--algebra", "f3", "--m", "2", "--budget", "23")
    assert code == 2
    assert out.splitlines() == ["error: generator enumeration needs 24 decodes, over the budget of 23"]


@pytest.mark.parametrize("argv,checked", [
    (["basis-iso", "--ops", "swap:0,1"], "generator images checked: 8"),
    (["right-linearity"], "generators checked against right membership: 8"),
])
def test_generator_commands_check_decodes_against_budget(capsys, argv, checked):
    # both enumerate weight-3 generators over a finite algebra: about 1.2e8 decodes at gf25 m=3
    start = time.perf_counter()
    code, out = run(capsys, *argv, "--algebra", "gf25", "--m", "3")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.splitlines() == [
        "error: generator enumeration needs 121867200 decodes, over the budget of 1048576"
    ]
    code, out = run(capsys, *argv, "--algebra", "f3", "--m", "2")
    assert code == 0
    assert checked in out.splitlines()


@pytest.mark.parametrize("argv,message", [
    (["reconstruct-check", "--algebra", "gf25", "--m", "2", "--mode", "exhaustive", "--budget", "1000"],
     "exhaustive axiom check needs 244140625 cases, over the budget of 1000"),
    (["distinguish", "--algebra", "gf25", "--m", "3", "--m2", "4", "--budget", "10000"],
     "distinguishing checks C(651, 4) = 7414857450 column sets, over the budget of 10000"),
    (["choice-iso", "--algebra", "gf25", "--m", "3", "--e2", "(0,0,1)=2"],
     "generator enumeration needs 121867200 decodes, over the budget of 1048576"),
    (["audit", "--algebra", "{gf4096}", "--budget", "1000"],
     "exhaustive audit needs 68719476736 cases, over the budget of 1000"),
    (["verify-perfect", "--algebra", "gf25", "--m", "5", "--budget", "1000"],
     "structural check needs 9765624 nonzero vectors, over the budget of 1000"),
    (["support-witness", "--algebra", "gf9-isotope", "--m", "5", "--budget", "10", "--columns-file", "{columns}"],
     "brute-force dependence search needs 9^4600 tuples, over the budget of 10"),
    (["nonassoc-witness", "--algebra", "{f61}", "--m", "2", "--budget", "1000"],
     "exhaustive associative check needs 226981 cases, over the budget of 1000"),
])
def test_enumerations_check_their_size_against_budget_first(capsys, tmp_path, argv, message):
    # each ran until killed, except support-witness, which failed formatting 9^4600 with str(),
    # and nonassoc-witness, which scanned all 61^3 triples of an unflagged table and exited 0
    spec, columns, f61 = tmp_path / "gf4096.json", tmp_path / "columns.txt", tmp_path / "f61.json"
    # x^12 + x^6 + x^4 + x + 1, irreducible over f2
    spec.write_text(json.dumps({"kind": "galois-field", "p": 2, "poly": [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]}))
    columns.write_text("\n".join(map(str, HammingCode(resolve_preset("gf9-isotope"), 5).enumerate_columns()[:4600])))
    # f61 as Cayley tables, which carry no structural flags
    r = range(61)
    f61.write_text(json.dumps({"kind": "cayley-table", "add": [[(i + j) % 61 for j in r] for i in r],
                               "mul": [[i * j % 61 for j in r] for i in r]}))
    argv = [{"{gf4096}": str(spec), "{columns}": str(columns), "{f61}": str(f61)}.get(arg, arg) for arg in argv]
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.splitlines() == [f"error: {message}"]


def test_basis_iso_checks_the_generator_count_before_normalizing(capsys, monkeypatch):
    # 121 columns give 29040 weight-3 decodes; every column was normalized before the refusal
    calls = []
    normalize = HammingCode.normalize
    monkeypatch.setattr(HammingCode, "normalize", lambda self, z: calls.append(z) or normalize(self, z))
    code, out = run(capsys, "basis-iso", "--algebra", "f3", "--m", "5", "--ops", "shear:0,1,1", "--budget", "10000")
    assert code == 2
    assert out.splitlines() == ["error: generator enumeration needs 29040 decodes, over the budget of 10000"]
    assert calls == []


def test_distinguish_decides_the_budget_before_the_binomial(capsys):
    # C(2^15000 - 1, 15001) ran until killed; n > budget already decides it
    start = time.perf_counter()
    code, out = run(capsys, "distinguish", "--algebra", "f2", "--m", "15000", "--m2", "15001", "--budget", "10")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.splitlines() == [
        "error: distinguishing checks C(2^15000 - 1, 15001) column sets, over the budget of 10"
    ]


@pytest.mark.parametrize("algebra,m,size", [("f2", 4, 2048), ("f5", 2, 625)])
def test_default_verify_perfect_is_exhaustive_over_the_code(capsys, algebra, m, size):
    # ambients of 2^15 and 5^6 vectors fit the default budget; the code has q^(n-m) words
    start = time.perf_counter()
    code, out = run(capsys, "verify-perfect", "--algebra", algebra, "--m", str(m))
    assert time.perf_counter() - start < 5
    assert code == 0
    lines = out.splitlines()
    assert "mode: exhaustive" in lines
    assert f"code size: {size}" in lines
    assert lines[-1] == "verdict: perfect"


@pytest.mark.parametrize("algebra,m,size,budget", [
    # at most 20 digits: printed in full
    pytest.param("f2", 3, "128", 100, id="f2-3-128"),
    # 154 digits; the structural check runs over 2^9 - 1 = 511 nonzero vectors
    pytest.param("f2", 9, "2^511", 511, id="f2-9-2^511"),
])
def test_fallback_notice_names_the_ambient_size(capsys, algebra, m, size, budget):
    code, out = run(capsys, "verify-perfect", "--algebra", algebra, "--m", str(m),
                    "--mode", "exhaustive", "--budget", str(budget))
    assert code == 0
    assert (f"notice: exhaustive enumeration infeasible ({size} vectors > budget {budget}); "
            "fell back to structural mode") in out.splitlines()


@pytest.mark.parametrize("ops,message", [
    ("swap:0,1,7", "basis op 'swap:0,1,7': swap takes 2 arguments, got 3"),
    ("scale:1,2,junk", "basis op 'scale:1,2,junk': scale takes 2 arguments, got 3"),
    ("shear:0,1,1,2", "basis op 'shear:0,1,1,2': shear takes 3 arguments, got 4"),
    ("swap:0", "basis op 'swap:0': swap takes 2 arguments, got 1"),
    ("shear:0,1", "basis op 'shear:0,1': shear takes 3 arguments, got 2"),
])
def test_basis_op_argument_count_is_a_usage_error(capsys, ops, message):
    # extra arguments were dropped, and a missing one read "list index out of range"
    code, out = run(capsys, "basis-iso", "--algebra", "f3", "--m", "2", "--ops", ops)
    assert code == 2
    assert out.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("column", ["(0,2)", "(1,0,0)"])
def test_choice_iso_rejects_a_column_the_code_lacks(capsys, column):
    # both printed "alpha <column>: 2" and exited 0
    code, out = run(capsys, "choice-iso", "--algebra", "f3", "--m", "2", "--e2", f"{column}=2")
    assert code == 2
    assert out.splitlines() == [f"error: column {column} is not canonical for this code"]


@pytest.mark.parametrize("e2,column", [("(0,1)=2;(0,1)=1", "(0,1)"), ("(1,2)=1; (1, 2)=2", "(1,2)")])
def test_choice_iso_refuses_a_column_named_twice(capsys, e2, column):
    # the last value was kept without a word: "alpha (0,1): 1"
    code, out = run(capsys, "choice-iso", "--algebra", "f3", "--m", "2", "--e2", e2)
    assert code == 2
    entry = e2.split(";")[1].strip()
    assert out.splitlines() == [f"error: choice entry {entry!r}: column {column} is named twice"]


def test_support_witness_refuses_a_duplicate_column(capsys, tmp_path):
    # printed "columns: 3", listed (1,0) twice and checked the 2 distinct columns
    f = tmp_path / "cols.txt"
    f.write_text("(1,0)\n(0,1)\n(1,0)\n")
    code, out = run(capsys, "support-witness", "--algebra", "f3", "--m", "2", "--columns-file", str(f))
    assert code == 2
    assert out.splitlines() == ["error: duplicate column (1,0) in --columns-file"]


@pytest.mark.parametrize("ops", [None, "", ";;", " ; "])
def test_basis_iso_needs_an_op(capsys, ops):
    # an op list with no op built the identity and exited 0
    code, out = run(capsys, "basis-iso", "--algebra", "f3", "--m", "2", *([] if ops is None else ["--ops", ops]))
    assert code == 2
    assert out.splitlines() == ["error: this command needs --ops, e.g. 'swap:0,1;shear:0,1,1'"]


@pytest.mark.parametrize("argv,drawn", [
    ([], (20, 0)),
    (["--trials", "3", "--seed", "11"], (3, 11)),
])
def test_choice_iso_checks_the_requested_trials_and_seed(capsys, monkeypatch, argv, drawn):
    # over quaternions the isometry is checked on trials codewords drawn from seed
    calls = []
    batch = HammingCode.weight3_batch
    monkeypatch.setattr(HammingCode, "weight3_batch", lambda self, *a: calls.append(a) or batch(self, *a))
    code, out = run(capsys, "choice-iso", "--algebra", "quaternions", "--m", "2", "--e2", "(0,1)=j", *argv)
    assert code == 0 and out.splitlines()[-1] == "verdict: generators map into the target code"
    assert calls == [(*drawn, 2**20)]


@pytest.mark.parametrize("argv", [
    ["audit", "--algebra", "rationals", "--mode", "sampled", "--trials"],
    ["conjugate-check", "--algebra", "quaternions", "--m", "2", "--samples"],
    ["choice-iso", "--algebra", "quaternions", "--m", "2", "--trials"],
    # over a finite algebra too, where the weight-3 generators are enumerated and no trials are drawn
    ["choice-iso", "--algebra", "f3", "--m", "2", "--e2", "(0,1)=2", "--trials"],
    ["basis-iso", "--algebra", "f3", "--m", "2", "--ops", "swap:0,1", "--trials"],
])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_non_positive_count_is_a_usage_error(capsys, argv, count):
    code, out = run(capsys, *argv, count)
    assert code == 2
    assert out.splitlines() == [f"error: {argv[-1]} must be a positive count, got {count}"]


@pytest.mark.parametrize("where,err", [(".", errno.EISDIR), ("missing/report.txt", errno.ENOENT)])
@pytest.mark.parametrize("argv", [
    ["columns", "--algebra", "f2", "--m", "2"],
    ["reconstruct-check", "--algebra", "octonions", "--m", "2", "--trials", "5"],  # a violation, exit 1 otherwise
])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, argv, where, err):
    out = tmp_path / where
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: [Errno {err}] {os.strerror(err)}: '{out}'"]
    assert not (tmp_path / "missing").exists()


# -- the library's text -------------------------------------------------------------


def _code(name, m):
    return HammingCode(resolve_preset(name), m)


# (argv, the same certificate through the library) for each of the seven library reports
LIBRARY_CERTIFICATES = [
    (["audit", "--algebra", "gf9-isotope"],
     lambda: axiom_audit(resolve_preset("gf9-isotope"), mode="exhaustive")),
    (["audit", "--algebra", "quaternions", "--trials", "30", "--seed", "3"],
     lambda: axiom_audit(resolve_preset("quaternions"), mode="sampled", trials=30, seed=3)),
    (["verify-perfect", "--algebra", "f3", "--m", "2"], lambda: _code("f3", 2).verify_perfect()),
    (["verify-perfect", "--algebra", "quaternions", "--m", "2", "--trials", "40", "--seed", "5"],
     lambda: _code("quaternions", 2).verify_perfect(trials=40, seed=5)),
    (["reconstruct-check", "--algebra", "f2", "--m", "2"], lambda: module_axiom_check(_code("f2", 2))),
    (["reconstruct-check", "--algebra", "octonions", "--m", "2", "--trials", "20", "--seed", "2"],
     lambda: module_axiom_check(_code("octonions", 2), trials=20, seed=2)),
    (["distinguish", "--algebra", "f3", "--m", "2", "--m2", "3"],
     lambda: distinguish_invariant(_code("f3", 2), _code("f3", 3))),
    (["distinguish", "--algebra", "quaternions", "--m", "2", "--m2", "3", "--samples", "6", "--seed", "4"],
     lambda: distinguish_invariant(_code("quaternions", 2), _code("quaternions", 3), samples=6, seed=4)),
    (["nonassoc-witness", "--algebra", "gf9-isotope", "--m", "2"], lambda: nonassoc_witness(_code("gf9-isotope", 2))),
    (["nonassoc-witness", "--algebra", "f3", "--m", "2"], lambda: nonassoc_witness(_code("f3", 2))),
    (["right-linearity", "--algebra", "quaternions", "--m", "2", "--trials", "10", "--seed", "1"],
     lambda: right_linearity_witness(_code("quaternions", 2), trials=10, seed=1)),
    (["right-linearity", "--algebra", "f3", "--m", "2"], lambda: right_linearity_witness(_code("f3", 2))),
    (["conjugate-check", "--algebra", "quaternions", "--m", "2", "--samples", "8", "--seed", "6"],
     lambda: conjugate_code_check(_code("quaternions", 2), samples=8, seed=6)),
]


@pytest.mark.parametrize("argv,certify", LIBRARY_CERTIFICATES, ids=[" ".join(a[:3]) for a, _ in LIBRARY_CERTIFICATES])
def test_cli_prints_the_library_report(capsys, argv, certify):
    # the command line adds the run's preamble to the library's text and exits by its verdict
    status = main(argv)
    captured = capsys.readouterr()
    report = certify()
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else 0
    preamble = [f"command: {argv[0]}", f"seed: {seed}", f"budget: {DEFAULT_BUDGET}"]
    assert captured.out.split("\n") == [*preamble, *report.lines(), ""]
    assert captured.err == ""
    assert status == (0 if report.verdict else 1)


# -- determinism -------------------------------------------------------------------------


def test_sampled_reports_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["verify-perfect", "--algebra", "quaternions", "--m", "2",
            "--trials", "200", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_distinguish_rerun_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["distinguish", "--algebra", "quaternions", "--m", "2", "--m2", "3",
            "--samples", "25", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_report_embeds_run_parameters(capsys):
    code, out = run(capsys, "verify-perfect", "--algebra", "f3", "--m", "2", "--seed", "4")
    assert code == 0
    assert "command: verify-perfect" in out
    assert "seed: 4" in out
    assert "algebra: f3 (digest " in out
