"""Command-line front end.

Every subcommand builds an algebra (preset name or spec file), usually a code
on top of it, runs one query or certificate, and returns a Report: the
library's certificate report, or a QueryReport of the fields the command
computed.  main alone renders it with Report.lines(), after the run's
command, seed and budget, writes it to stdout or --out, and exits by its
verdict.  Reports are deterministic for a fixed command line: seeds default
to 0, iteration orders are fixed, and no timestamps or paths appear, so
reruns are byte-identical and diffs are meaningful.

Exit codes: 0 when the verdict matches the claim, 1 when a counterexample or
violation was found, 2 on usage errors.

Each invocation is a fresh process that compiles what it executes, so this
module imports by name only what every subcommand runs: the algebra
package, finvec and hamming.  equivalence and reconstruct are bound as the
package's unexecuted lazy modules and read as `equivalence.X` when a
subcommand runs, so only the nine subcommands that use them compile them;
`from .equivalence import X` here would execute equivalence for all fifteen.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import equivalence, reconstruct
from .algebra import axiom_audit, is_associative, resolve_algebra, solve_right
from .algebra.audit import SHOWN, Report, outcome
from .errors import (
    DEFAULT_BUDGET,
    InconsistencyError,
    InvalidParameterError,
    QuasicodeError,
    SpecFormatError,
    check_count,
)
from .finvec import Column, FinVec
from .hamming import HammingCode

# every package error but InconsistencyError, which main catches first
USAGE_ERRORS = (QuasicodeError, OSError)


def _build_code(args) -> tuple:
    """The --algebra, and the code over it with --m check coordinates and --pivots."""
    algebra = resolve_algebra(args.algebra)
    if args.m is None:
        raise InvalidParameterError("this command needs --m")
    pivots = None
    if getattr(args, "pivots", None):
        pivots = [algebra.parse(p.strip()) for p in args.pivots.split(",")]
    return algebra, HammingCode(algebra, args.m, pivots)


def _count(args, name: str, default: int) -> int:
    """The --trials, --samples or --budget count: the default when omitted, else a positive number."""
    value = getattr(args, name)
    return default if value is None else check_count(value, f"--{name}")


def _read_vector(args, code) -> FinVec:
    if not args.infile:
        raise InvalidParameterError("this command needs --in with a vector file")
    return FinVec.parse(Path(args.infile).read_text(), code.algebra, code.m)


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


def cmd_audit(args):
    return axiom_audit(resolve_algebra(args.algebra), args.mode, _count(args, "trials", 2000), args.seed, args.budget)


def cmd_columns(args):
    _, code = _build_code(args)
    cols = code.enumerate_columns(args.budget)
    return _query(code, ("columns", len(cols)), (None, cols))


def cmd_syndrome(args):
    _, code = _build_code(args)
    x = _read_vector(args, code)
    s = code.syndrome(x)
    return _query(code, ("weight", x.norm()), ("syndrome", s), ("in code", _bool(s.is_zero())))


def cmd_decode(args):
    algebra, code = _build_code(args)
    y = _read_vector(args, code)
    c = code.decode(y)
    # each header line starts a vector-file comment, and the codeword's lines, a bare list, print as
    # they are, so the output reads back through --in
    body = "zero vector" if c.is_zero() else c.format().splitlines()
    rows = [("changed", _bool(c != y)), ("codeword weight", c.norm()), (None, body)]
    return QueryReport.of(algebra, rows=rows, prefix="# ")


def cmd_verify_perfect(args):
    _, code = _build_code(args)
    return code.verify_perfect(args.mode or "auto", args.budget, _count(args, "trials", 10000), args.seed)


def cmd_generators(args):
    _, code = _build_code(args)
    gens = code.weight3_generators(budget=args.budget)
    return _query(code, ("generators", len(gens)), (None, list(map(repr, gens))))


def cmd_reconstruct_check(args):
    _, code = _build_code(args)
    trials = _count(args, "trials", 1000)
    return reconstruct.module_axiom_check(code, args.mode or "auto", trials, args.seed, args.budget)


def cmd_membership_reduce(args):
    _, code = _build_code(args)
    x = _read_vector(args, code)
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


def cmd_choice_iso(args):
    algebra, code = _build_code(args)
    e1 = _parse_choice(args.e1, algebra)
    e2 = _parse_choice(args.e2, algebra)
    iso = equivalence.choice_isomorphism(code, e1, e2, args.budget, _count(args, "trials", 20), args.seed)
    return _query(
        code,
        ("pi", "identity"),
        ("default multiplier", solve_right(e2.default, e1.default)),
        *((f"alpha {col}", iso.alpha[col]) for col in sorted(iso.alpha, key=Column.sort_key)),
        ("verdict", "generators map into the target code"),
    )


def cmd_basis_iso(args):
    algebra, code = _build_code(args)
    ops = _parse_ops(args.ops, algebra)
    change = equivalence.BasisChange.from_ops(algebra, code.m, ops)
    gens = []
    if is_associative(algebra, args.budget):
        # drawn first, so an over-budget enumeration is refused before the isomorphism normalizes every column
        gens = code.weight3_batch(_count(args, "trials", 50), args.seed, args.budget)
    iso = equivalence.basis_change_isomorphism(code, change, args.budget)
    cols = code.enumerate_columns(args.budget) if algebra.is_finite else []
    images = [f"pi {col} -> {iso.pi[col]}  alpha: {iso.alpha[col]}" for col in cols]
    failures = [f"image of {g!r} leaves the code" for g in gens if not code.contains(iso.apply(g))]
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


def cmd_support_witness(args):
    algebra, code = _build_code(args)
    if not args.columns_file:
        raise InvalidParameterError("this command needs --columns-file with one column per line")
    cols = {}
    for raw in Path(args.columns_file).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        col = Column.parse(line, algebra)
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


def cmd_distinguish(args):
    algebra, code_a = _build_code(args)
    if args.m2 is None:
        raise InvalidParameterError("this command needs --m2 for the larger code")
    code_b = HammingCode(algebra, args.m2, None)
    return equivalence.distinguish_invariant(code_a, code_b, _count(args, "samples", 100), args.seed, args.budget)


def cmd_nonassoc_witness(args):
    _, code = _build_code(args)
    return equivalence.nonassoc_witness(code, args.budget)


def cmd_right_linearity(args):
    _, code = _build_code(args)
    return equivalence.right_linearity_witness(code, _count(args, "trials", 200), args.seed, args.budget)


def cmd_conjugate_check(args):
    _, code = _build_code(args)
    return equivalence.conjugate_code_check(code, _count(args, "samples", 1000), args.seed)


_COMMANDS = {
    "audit": cmd_audit,
    "columns": cmd_columns,
    "syndrome": cmd_syndrome,
    "decode": cmd_decode,
    "verify-perfect": cmd_verify_perfect,
    "generators": cmd_generators,
    "reconstruct-check": cmd_reconstruct_check,
    "membership-reduce": cmd_membership_reduce,
    "choice-iso": cmd_choice_iso,
    "basis-iso": cmd_basis_iso,
    "support-witness": cmd_support_witness,
    "distinguish": cmd_distinguish,
    "nonassoc-witness": cmd_nonassoc_witness,
    "right-linearity": cmd_right_linearity,
    "conjugate-check": cmd_conjugate_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicode",
        description="Perfect single-error-correcting codes over exact algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--algebra", required=True, help="preset name or spec file path")
        p.add_argument("--m", type=int, default=None, help="number of check coordinates")
        p.add_argument("--m2", type=int, default=None, help="check coordinates of the larger code")
        p.add_argument("--pivots", default=None, help="comma-separated pivot scalars, one per coordinate")
        p.add_argument("--mode", default=None, help="exhaustive / structural / sampled / auto")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None, help="most cases an enumeration may run")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--in", dest="infile", default=None, help="input vector file")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--e1", default=None, help="choice function, e.g. '(0,1)=2;(1,1)=2'")
        p.add_argument("--e2", default=None, help="choice function, e.g. '(0,1)=2'")
        p.add_argument("--ops", default=None, help="basis operations, e.g. 'swap:0,1;scale:1,2;shear:0,1,1'")
        p.add_argument("--columns-file", dest="columns_file", default=None, help="file with one column per line")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        args.budget = _count(args, "budget", DEFAULT_BUDGET)
        report = handler(args)
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
