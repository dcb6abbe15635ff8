"""Command-line front end.

One table declares the command line: _OPTIONS holds each option's argparse
keywords, and _COMMANDS maps each subcommand to its handler and the options
it reads.  Every subcommand also takes --algebra, --seed, --budget and --out,
which main reads, and no other option: main refuses one in a single `error:`
line, as it does every usage error argparse finds.  main builds the algebra,
and the code for a subcommand that takes --m, and hands it to the handler,
which runs one query or certificate and returns a Report: the library's
certificate report, or a QueryReport of the fields the command computed.
main alone renders it with Report.lines(), after the run's command, seed and
budget, writes it to stdout or --out, and exits by its verdict.  Reports are
deterministic for a fixed command line: seeds default to 0, iteration orders
are fixed, and no timestamps or paths appear, so reruns are byte-identical
and diffs are meaningful.

Exit codes: 0 when the verdict matches the claim, 1 when a counterexample or
violation was found, 2 on usage errors.

What loads when: each invocation is a fresh process that compiles what it
executes, so this module imports by name only what every subcommand runs:
the algebra package's base and specfile, finvec and hamming.  equivalence,
reconstruct and the algebra package's audit are bound as unexecuted lazy
modules and read as `equivalence.X` when a subcommand runs, so only the
subcommands that use them compile them; `from .equivalence import X` here
would execute equivalence for all fifteen; hamming's codeword half
(codewords) and the Galois and Cayley algebras (fields) load the same way.
main fills only the named subcommand's parser: the other fourteen are
listed, with no options.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import equivalence, reconstruct
from .algebra import audit, resolve_algebra, solve_right
from .algebra.base import SHOWN, Report, outcome
from .errors import (
    DEFAULT_BUDGET,
    InconsistencyError,
    InvalidParameterError,
    QuasicodeError,
    SpecFormatError,
    check_count,
    read_text,
)
from .finvec import Column, FinVec
from .hamming import HammingCode

# every package error but InconsistencyError, which main catches first
USAGE_ERRORS = (QuasicodeError, OSError)


def _build_code(algebra, args) -> HammingCode:
    """The code over algebra with --m check coordinates and --pivots."""
    if args.m is None:
        raise InvalidParameterError("this command needs --m")
    pivots = [algebra.parse(p.strip()) for p in args.pivots.split(",")] if args.pivots else None
    return HammingCode(algebra, args.m, pivots)


def _count(value, name: str) -> dict:
    """A given --trials or --samples as a keyword argument, checked positive; omitted, the library default."""
    return {} if value is None else {name: check_count(value, f"--{name}")}


def _read_vector(infile, code) -> FinVec:
    if not infile:
        raise InvalidParameterError("this command needs --in with a vector file")
    return FinVec.parse(read_text(infile, "vector file"), code.algebra, code.m)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_choice(text: str | None, algebra) -> equivalence.ChoiceFunction:
    mapping = {}
    for part in (text or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SpecFormatError(f"choice entry {part!r}: expected '<column>=<scalar>'")
        col_text, val_text = part.split("=", 1)
        col = Column.parse(col_text.strip(), algebra)
        if col in mapping:
            raise SpecFormatError(f"choice entry {part!r}: column {col} is named twice")
        mapping[col] = algebra.parse(val_text.strip())
    return equivalence.ChoiceFunction(algebra, mapping)


# the arguments of each basis op: "i" an index, "s" a scalar
_OP_ARGS = {"swap": "ii", "scale": "is", "shear": "iis"}


def _parse_ops(text: str | None, algebra) -> list[tuple]:
    ops = []
    for part in (text or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise SpecFormatError(f"basis op {part!r}: expected 'name:args'")
        name, argstr = part.split(":", 1)
        name = name.strip()
        raw = [a.strip() for a in argstr.split(",")]
        try:
            if name not in _OP_ARGS:
                raise SpecFormatError(f"unknown basis op {name!r}")
            kinds = _OP_ARGS[name]
            if len(raw) != len(kinds):
                raise SpecFormatError(f"{name} takes {len(kinds)} arguments, got {len(raw)}")
            ops.append((name, *(int(r) if k == "i" else algebra.parse(r) for k, r in zip(kinds, raw))))
        except ValueError as exc:
            raise SpecFormatError(f"basis op {part!r}: {exc}") from exc
    if not ops:
        raise InvalidParameterError("this command needs --ops, e.g. 'swap:0,1;shear:0,1,1'")
    return ops


# -- subcommands -----------------------------------------------------------------


@dataclass
class QueryReport(Report):
    """A subcommand's own report: the fields it computed, in order, and its verdict."""

    rows: list
    verdict: bool = True
    prefix: str = ""

    def fields(self) -> list[tuple]:
        return self.rows


def _query(code, *rows, verdict: bool = True) -> QueryReport:
    """The report of a query on code: its m, then rows."""
    return QueryReport.of(code.algebra, rows=[("m", code.m), *rows], verdict=verdict)


def cmd_audit(algebra, args):
    return audit.axiom_audit(algebra, args.mode, seed=args.seed, budget=args.budget, **_count(args.trials, "trials"))


def cmd_columns(code, args):
    cols = code.enumerate_columns(args.budget)
    return _query(code, ("columns", len(cols)), (None, cols))


def cmd_syndrome(code, args):
    x = _read_vector(args.infile, code)
    s = code.syndrome(x)
    return _query(code, ("weight", x.norm()), ("syndrome", s), ("in code", _bool(s.is_zero())))


def cmd_decode(code, args):
    y = _read_vector(args.infile, code)
    c = code.decode(y)
    # each header line starts a vector-file comment, and the codeword's lines, a bare list, print as
    # they are, so the output reads back through --in
    body = "zero vector" if c.is_zero() else c.format().splitlines()
    rows = [("changed", _bool(c != y)), ("codeword weight", c.norm()), (None, body)]
    return QueryReport.of(code.algebra, rows=rows, prefix="# ")


def cmd_verify_perfect(code, args):
    mode = "auto" if args.mode is None else args.mode  # an empty --mode is refused as unknown
    return code.verify_perfect(mode, args.budget, seed=args.seed, **_count(args.trials, "trials"))


def cmd_generators(code, args):
    gens = code.weight3_generators(budget=args.budget)
    return _query(code, ("generators", len(gens)), (None, list(map(repr, gens))))


def cmd_reconstruct_check(code, args):
    mode = "auto" if args.mode is None else args.mode
    return reconstruct.module_axiom_check(
        code, mode, seed=args.seed, budget=args.budget, **_count(args.trials, "trials")
    )


def cmd_membership_reduce(code, args):
    x = _read_vector(args.infile, code)
    reduced = reconstruct.membership_by_reduction(code, x)
    direct = code.contains(x)
    return _query(
        code,
        ("weight", x.norm()),
        ("membership by reduction", _bool(reduced)),
        ("membership by syndrome", _bool(direct)),
        ("agreement", _bool(reduced == direct)),
        verdict=reduced == direct,
    )


def cmd_choice_iso(code, args):
    e1 = _parse_choice(args.e1, code.algebra)
    e2 = _parse_choice(args.e2, code.algebra)
    iso = equivalence.choice_isomorphism(code, e1, e2, args.budget, seed=args.seed, **_count(args.trials, "trials"))
    return _query(
        code,
        ("pi", "identity"),
        ("default multiplier", solve_right(e2.default, e1.default)),
        *((f"alpha {col}", iso.alpha[col]) for col in sorted(iso.alpha, key=Column.sort_key)),
        ("verdict", "generators map into the target code"),
    )


def cmd_basis_iso(code, args):
    algebra = code.algebra
    ops = _parse_ops(args.ops, algebra)
    change = equivalence.BasisChange.from_ops(algebra, code.m, ops)
    gens = []
    if audit.is_associative(algebra, args.budget):
        # drawn first, so an over-budget enumeration is refused before the isomorphism normalizes every
        # column; weight3_batch has no default count, so the 50 is this command's own
        gens = code.weight3_batch(_count(args.trials, "trials").get("trials", 50), args.seed, args.budget)
    iso = equivalence.basis_change_isomorphism(code, change, args.budget)
    cols = code.enumerate_columns(args.budget) if algebra.is_finite else []
    images = [f"pi {col} -> {iso.pi[col]}  alpha: {iso.alpha[col]}" for col in cols]
    # the images lie on the canonical columns the basis change factors onto, so their rows are read unchecked
    failures = [f"image of {g!r} leaves the code" for g in gens if not code._in_code(iso._image_rows(g))]
    return _query(
        code,
        ("matrix", change),
        ("built from", ", ".join(change.provenance)),
        (None, images),
        (f"{'generator' if algebra.is_finite else 'sampled codeword'} images checked", len(gens)),
        ("failure", failures[:SHOWN]),
        ("verdict", outcome(not failures, "code mapped onto itself", "IMAGE ESCAPES THE CODE")),
        verdict=not failures,
    )


def cmd_support_witness(code, args):
    if not args.columns_file:
        raise InvalidParameterError("this command needs --columns-file with one column per line")
    cols = {}
    for raw in read_text(args.columns_file, "columns file").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        col = Column.parse(line, code.algebra)
        if col in cols:
            raise SpecFormatError(f"duplicate column {col} in --columns-file")
        cols[col] = None
    cols = list(cols)
    witness = equivalence.support_witness(code, cols, budget=args.budget)
    if witness is None:
        found = [("witness", "none (columns are independent)")]
    else:
        found = [("witness", repr(witness)), ("witness weight", witness.norm())]
    return _query(code, ("columns", len(cols)), (None, sorted(cols)), *found)


def cmd_distinguish(code, args):
    if args.m2 is None:
        raise InvalidParameterError("this command needs --m2 for the larger code")
    larger = HammingCode(code.algebra, args.m2)
    return equivalence.distinguish_invariant(
        code, larger, seed=args.seed, budget=args.budget, **_count(args.samples, "samples")
    )


def cmd_nonassoc_witness(code, args):
    return equivalence.nonassoc_witness(code, args.budget)


def cmd_right_linearity(code, args):
    trials = _count(args.trials, "trials")
    return equivalence.right_linearity_witness(code, seed=args.seed, budget=args.budget, **trials)


def cmd_conjugate_check(code, args):
    return equivalence.conjugate_code_check(code, seed=args.seed, **_count(args.samples, "samples"))


# -- the command line --------------------------------------------------------------

# every option: its flag and its add_argument keywords
_OPTIONS = {
    "--algebra": dict(required=True, help="preset name or spec file path"),
    "--m": dict(type=int, help="number of check coordinates"),
    "--m2": dict(type=int, help="check coordinates of the larger code"),
    "--pivots": dict(help="comma-separated pivot scalars, one per coordinate"),
    "--mode": dict(help="exhaustive / structural / sampled / auto"),
    "--seed": dict(type=int, default=0),
    "--budget": dict(type=int, default=DEFAULT_BUDGET, help="most cases an enumeration may run"),
    "--trials": dict(type=int),
    "--samples": dict(type=int),
    "--in": dict(dest="infile", help="input vector file"),
    "--out": dict(help="write the report here instead of stdout"),
    "--e1": dict(help="choice function, e.g. '(0,1)=2;(1,1)=2'"),
    "--e2": dict(help="choice function, e.g. '(0,1)=2'"),
    "--ops": dict(help="basis operations, e.g. 'swap:0,1;scale:1,2;shear:0,1,1'"),
    "--columns-file": dict(help="file with one column per line"),
}
# the options main reads, which every subcommand takes
_SHARED = ("--algebra", "--seed", "--budget", "--out")
# a handler whose options include --m gets the code main builds, else the algebra
_CODE = ("--m", "--pivots")

# each subcommand: its handler and the options it reads besides _SHARED
_COMMANDS = {
    "audit": (cmd_audit, ("--mode", "--trials")),
    "columns": (cmd_columns, _CODE),
    "syndrome": (cmd_syndrome, (*_CODE, "--in")),
    "decode": (cmd_decode, (*_CODE, "--in")),
    "verify-perfect": (cmd_verify_perfect, (*_CODE, "--mode", "--trials")),
    "generators": (cmd_generators, _CODE),
    "reconstruct-check": (cmd_reconstruct_check, (*_CODE, "--mode", "--trials")),
    "membership-reduce": (cmd_membership_reduce, (*_CODE, "--in")),
    "choice-iso": (cmd_choice_iso, (*_CODE, "--e1", "--e2", "--trials")),
    "basis-iso": (cmd_basis_iso, (*_CODE, "--ops", "--trials")),
    "support-witness": (cmd_support_witness, (*_CODE, "--columns-file")),
    "distinguish": (cmd_distinguish, (*_CODE, "--m2", "--samples")),
    "nonassoc-witness": (cmd_nonassoc_witness, _CODE),
    "right-linearity": (cmd_right_linearity, (*_CODE, "--trials")),
    "conjugate-check": (cmd_conjugate_check, (*_CODE, "--samples")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser, and its subcommands' parsers, whose usage errors main prints in one line."""

    def error(self, message):
        raise InvalidParameterError(message)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, where only command's parser declares its options."""
    about = "Perfect single-error-correcting codes over exact algebras"
    # the usage argparse 3.11 wraps, given whole so that every version prints the same bytes
    indent = "\n" + " " * len("usage: quasicode ")
    usage = indent.join(("%(prog)s [-h]", "{" + ",".join(_COMMANDS) + "}", "..."))
    parser = _Parser(prog="quasicode", usage=usage, description=about)
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (_, options) in _COMMANDS.items():
        # no abbreviations: a prefix would read a flag the subcommand does not take as one it does
        # (audit's --m as --mode)
        p = sub.add_parser(name, allow_abbrev=False)
        if name == command:
            for flag, keywords in _OPTIONS.items():
                if flag in _SHARED or flag in options:
                    p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the subcommand is the first argument, since the top-level parser takes no option but --help
        args, foreign = _build_parser(argv[0] if argv else None).parse_known_args(argv)
        handler, options = _COMMANDS[args.command]
        if foreign:  # refused here, by the subcommand's name: argparse's refusal lists them all
            raise InvalidParameterError(f"{args.command} does not take {foreign[0].split('=')[0]}")
        args.budget = check_count(args.budget, "--budget")
        subject = resolve_algebra(args.algebra)
        if "--m" in options:
            subject = _build_code(subject, args)
        report = handler(subject, args)
        report.preamble = (("command", args.command), ("seed", args.seed), ("budget", args.budget))
        text = "\n".join(report.lines()) + "\n"
        if args.out:
            Path(args.out).write_text(text)  # an unwritable path is a usage error
        else:
            sys.stdout.write(text)
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
