"""Command-line front end.

Every subcommand builds an algebra (preset name or spec file), usually a code
on top of it, runs one query or certificate, and prints a line-oriented
report.  Reports are deterministic for a fixed command line: seeds default to
0, iteration orders are fixed, and no timestamps or paths appear, so reruns
are byte-identical and diffs are meaningful.

Exit codes: 0 when the verdict matches the claim, 1 when a counterexample or
violation was found, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import axiom_audit, is_associative, resolve_algebra, solve_right
from .algebra.audit import Report
from .equivalence import (
    BasisChange,
    ChoiceFunction,
    basis_change_isomorphism,
    choice_isomorphism,
    conjugate_code_check,
    distinguish_invariant,
    nonassoc_witness,
    right_linearity_witness,
    support_witness,
)
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
from .reconstruct import membership_by_reduction, module_axiom_check

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
    text = Path(args.infile).read_text()
    return FinVec.parse(text, code.algebra, code.m)


def _preamble(args) -> list[str]:
    return [f"command: {args.command}", f"seed: {args.seed}", f"budget: {args.budget}"]


def _algebra_line(algebra) -> str:
    return Report.of(algebra).algebra_line()


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_choice(text: str | None, algebra) -> ChoiceFunction:
    mapping = {}
    if text:
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SpecFormatError(
                    f"choice entry {part!r}: expected '<column>=<scalar>'"
                )
            col_text, val_text = part.split("=", 1)
            col = Column.parse(col_text.strip(), algebra)
            mapping[col] = algebra.parse(val_text.strip())
    return ChoiceFunction(algebra, mapping)


# the arguments of each basis op: "i" an index, "s" a scalar
_OP_ARGS = {"swap": "ii", "scale": "is", "shear": "iis"}


def _parse_ops(text: str | None, algebra) -> list[tuple]:
    if not text:
        raise InvalidParameterError("this command needs --ops, e.g. 'swap:0,1;shear:0,1,1'")
    ops = []
    for part in text.split(";"):
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
    return ops


# -- subcommands -----------------------------------------------------------------


def cmd_audit(args):
    algebra = resolve_algebra(args.algebra)
    mode = args.mode or ("exhaustive" if algebra.is_finite else "sampled")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"audit mode must be exhaustive or sampled, got {mode!r}")
    report = axiom_audit(
        algebra, mode=mode, trials=_count(args, "trials", 2000), seed=args.seed, budget=args.budget
    )
    return _preamble(args) + report.lines(), 0


def cmd_columns(args):
    algebra, code = _build_code(args)
    cols = code.enumerate_columns(args.budget)
    lines = _preamble(args) + [_algebra_line(algebra), f"m: {code.m}", f"columns: {len(cols)}"]
    lines += [str(c) for c in cols]
    return lines, 0


def cmd_syndrome(args):
    algebra, code = _build_code(args)
    x = _read_vector(args, code)
    s = code.syndrome(x)
    lines = _preamble(args) + [
        _algebra_line(algebra),
        f"m: {code.m}",
        f"weight: {x.norm()}",
        f"syndrome: {s}",
        f"in code: {_bool(s.is_zero())}",
    ]
    return lines, 0


def cmd_decode(args):
    algebra, code = _build_code(args)
    y = _read_vector(args, code)
    c = code.decode(y)
    lines = ["# " + t for t in _preamble(args)]
    lines.append("# " + _algebra_line(algebra))
    lines.append(f"# changed: {_bool(c != y)}")
    lines.append(f"# codeword weight: {c.norm()}")
    if c.is_zero():
        lines.append("# zero vector")
    else:
        lines += c.format().splitlines()
    return lines, 0


def cmd_verify_perfect(args):
    algebra, code = _build_code(args)
    report = code.verify_perfect(
        mode=args.mode or "auto",
        budget=args.budget,
        trials=_count(args, "trials", 10000),
        seed=args.seed,
    )
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


def cmd_generators(args):
    algebra, code = _build_code(args)
    gens = code.weight3_generators(budget=args.budget)
    lines = _preamble(args) + [_algebra_line(algebra), f"m: {code.m}", f"generators: {len(gens)}"]
    lines += [repr(g) for g in gens]
    return lines, 0


def cmd_reconstruct_check(args):
    algebra, code = _build_code(args)
    report = module_axiom_check(
        code,
        mode=args.mode or "auto",
        trials=_count(args, "trials", 1000),
        seed=args.seed,
        budget=args.budget,
    )
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


def cmd_membership_reduce(args):
    algebra, code = _build_code(args)
    x = _read_vector(args, code)
    reduced = membership_by_reduction(code, x)
    direct = code.contains(x)
    lines = _preamble(args) + [
        _algebra_line(algebra),
        f"m: {code.m}",
        f"weight: {x.norm()}",
        f"membership by reduction: {_bool(reduced)}",
        f"membership by syndrome: {_bool(direct)}",
        f"agreement: {_bool(reduced == direct)}",
    ]
    return lines, 0 if reduced == direct else 1


def cmd_choice_iso(args):
    algebra, code = _build_code(args)
    e1 = _parse_choice(args.e1, algebra)
    e2 = _parse_choice(args.e2, algebra)
    trials = None if algebra.is_finite else _count(args, "trials", 20)
    iso = choice_isomorphism(code, e1, e2, args.budget, trials, args.seed)
    lines = _preamble(args) + [_algebra_line(algebra), f"m: {code.m}", "pi: identity"]
    lines.append(f"default multiplier: {solve_right(e2.default, e1.default)}")
    for col in sorted(iso.alpha, key=Column.sort_key):
        lines.append(f"alpha {col}: {iso.alpha[col]}")
    lines.append("verdict: generators map into the target code")
    return lines, 0


def cmd_basis_iso(args):
    algebra, code = _build_code(args)
    ops = _parse_ops(args.ops, algebra)
    change = BasisChange.from_ops(algebra, code.m, ops)
    gens = []
    if is_associative(algebra, args.budget):
        # drawn first, so an over-budget enumeration is refused before the isomorphism normalizes every column
        trials = None if algebra.is_finite else _count(args, "trials", 50)
        gens = code.weight3_batch(trials, args.seed, args.budget)
    iso = basis_change_isomorphism(code, change, args.budget)
    lines = _preamble(args) + [
        _algebra_line(algebra),
        f"m: {code.m}",
        f"matrix: {change}",
        f"built from: {', '.join(change.provenance)}",
    ]
    if algebra.is_finite:
        for col in code.enumerate_columns(args.budget):
            lines.append(f"pi {col} -> {iso.pi[col]}  alpha: {iso.alpha[col]}")
    failures = [f"image of {g!r} leaves the code" for g in gens if not code.contains(iso.apply(g))]
    lines.append(f"{'generator' if algebra.is_finite else 'sampled codeword'} images checked: {len(gens)}")
    lines += Report.listed("failure", failures)
    lines.append(
        "verdict: " + ("code mapped onto itself" if not failures else "IMAGE ESCAPES THE CODE")
    )
    return lines, 0 if not failures else 1


def cmd_support_witness(args):
    algebra, code = _build_code(args)
    if not args.columns_file:
        raise InvalidParameterError("this command needs --columns-file with one column per line")
    cols = []
    for raw in Path(args.columns_file).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols.append(Column.parse(line, algebra))
    witness = support_witness(code, cols, budget=args.budget)
    lines = _preamble(args) + [_algebra_line(algebra), f"m: {code.m}", f"columns: {len(cols)}"]
    lines += [str(c) for c in sorted(cols)]
    if witness is None:
        lines.append("witness: none (columns are independent)")
    else:
        lines.append(f"witness: {witness!r}")
        lines.append(f"witness weight: {witness.norm()}")
    return lines, 0


def cmd_distinguish(args):
    algebra, code_a = _build_code(args)
    if args.m2 is None:
        raise InvalidParameterError("this command needs --m2 for the larger code")
    code_b = HammingCode(algebra, args.m2, None)
    report = distinguish_invariant(
        code_a, code_b, samples=_count(args, "samples", 100), seed=args.seed, budget=args.budget
    )
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


def cmd_nonassoc_witness(args):
    algebra, code = _build_code(args)
    report = nonassoc_witness(code, args.budget)
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


def cmd_right_linearity(args):
    algebra, code = _build_code(args)
    report = right_linearity_witness(
        code, trials=_count(args, "trials", 200), seed=args.seed, budget=args.budget
    )
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


def cmd_conjugate_check(args):
    algebra, code = _build_code(args)
    report = conjugate_code_check(code, samples=_count(args, "samples", 1000), seed=args.seed)
    return _preamble(args) + report.lines(), 0 if report.verdict else 1


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
        lines, status = handler(args)
        text = "\n".join(lines) + "\n"
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
    return status


if __name__ == "__main__":
    sys.exit(main())
