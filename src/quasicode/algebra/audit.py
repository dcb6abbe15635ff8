"""Law auditing for coefficient algebras.

Each law is stated once for an action a*x on an addition, in two forms: laws
gives it as a predicate over a case tuple and row_laws a table row at a time.
The audit takes both with an algebra acting on itself, the module axioms of
a code's pair arithmetic (reconstruct) with pair addition acting on itself or
the scalars acting on pairs, and a Cayley table's addition (tables) the row laws.

A case source is either the exhaustive product of a finite pool, in
lexicographic order, or fixed probe cases followed by seeded random draws;
first_failure (in base) returns a predicate's cases checked and first witness
over one.  Exhaustive mode runs the row laws instead: row_laws gives two whole
rows per case without its last element, equal where the law holds, and
row_scan reads the smallest witness and its rank off their first difference.

The three ternary laws are first proved on the prefixes (a, s), s in a set S
(_generators) whose closure under x -> x*s for associativity, x -> x+s for
distributivity, is every element.  For associativity this is Light's test,
sound in any magma: the middles b with (ab)c = a(bc) for all a, c are closed
under x -> x*s.  The b that distribute over every a, c are closed under
x -> x+s once addition is associative, which Light's test on the addition
rows proves first; without it there is no proof pass.  A proved law holds on
all q^3 cases; otherwise row_scan runs from the first prefix, so witnesses
and ranks are those of the full scan.  LawCheck.cases counts the cases
covered, not the rows compared.

Sampled mode first probes a small deterministic family (basis elements for the
hypercomplex algebras), then draws seeded random trials; positive flags then
mean "no counterexample" and LawCheck.cases counts probe cases and trials.  Each
distinct product and sum of the probe cases is computed once per call.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field

from ..errors import (
    DEFAULT_BUDGET,
    InconsistencyError,
    Power,
    UnsupportedError,
    check_budget,
    choose_mode,
)
from .base import Algebra, LawCheck, Report, Scalar, first_failure, outcome, seeded_cases, sorted_elements

LAW_NAMES = (
    "left_distributive",
    "right_distributive",
    "left_solvable",
    "right_solvable",
    "associative",
    "commutative",
    "left_unit",
    "right_unit",
    "two_sided_unit",
    "alternative",
)


# -- the laws ------------------------------------------------------------------------


def laws(act, add, sadd, smul) -> dict:
    """Law name -> predicate over a case, for an action act(a, x) = a*x on an addition add, acting
    elements added by sadd and multiplied by smul.  An algebra acting on itself is
    laws(mul, add, add, mul); row_laws states the same laws a row at a time."""
    return {
        "left_distributive": lambda a, b, c: act(a, add(b, c)) == add(act(a, b), act(a, c)),
        "right_distributive": lambda a, b, c: act(sadd(a, b), c) == add(act(a, c), act(b, c)),
        "associative": lambda a, b, c: act(smul(a, b), c) == act(a, act(b, c)),
        "commutative": lambda a, b: act(a, b) == act(b, a),
    }


def algebra_laws(alg: Algebra, mul=None, add=None) -> dict:
    """Law name -> (arity, predicate over payloads on mul and add, by default the algebra's own), for
    the laws checked the same way in every mode.

    The order is the order sampled mode draws them in.
    """
    mul, add = mul or alg._mul, add or alg._add
    predicates = laws(mul, add, add, mul)
    predicates["alternative"] = lambda a, b: (
        mul(a, mul(a, b)) == mul(mul(a, a), b) and mul(mul(a, b), b) == mul(a, mul(b, b))
    )
    return {name: (law.__code__.co_argcount, law) for name, law in predicates.items()}


def table_rows(alg: Algebra) -> tuple:
    """A finite algebra's elements, rows of multiplication and addition, and columns of multiplication."""
    # payloads index every row, and on the index tables the payloads 0..n-1 are in scalar order
    els = tuple(sorted_elements(alg))
    mul = tuple(map(alg._mul_row, els))
    return els, mul, tuple(map(alg._add_row, els)), tuple(zip(*mul))


def _compose(r, s):  # the row c -> r[s[c]]
    return tuple(map(r.__getitem__, s))


def _pointwise(table, r, s):  # the row c -> table[r[c]][s[c]]
    return tuple(map(operator.getitem, map(table.__getitem__, r), s))


def row_laws(act, add, sadd, smul, col) -> dict:
    """Law name -> the two rows over a case's last element that agree exactly where the law holds,
    for an action act[a] = (x -> a*x) on an addition add, acting elements added by sadd and
    multiplied by smul, and columns col[a] = (x -> x*a), all tuple tables.  An algebra acting on
    itself is row_laws(mul, add, add, mul, col)."""
    return {
        "left_distributive": lambda a, b: (_compose(act[a], add[b]), _compose(add[act[a][b]], act[a])),
        "right_distributive": lambda a, b: (act[sadd[a][b]], _pointwise(add, act[a], act[b])),
        "associative": lambda a, b: (act[smul[a][b]], _compose(act[a], act[b])),
        "commutative": lambda a: (act[a], col[a]),
    }


def row_scan(row_law, prefixes, n: int) -> tuple[int, tuple | None]:
    """Cases checked and first failing case of a row law over prefixes, in order, and the n
    positions of each row: every case when the law holds, else the witness's 1-based rank."""
    count, prefix = first_failure(lambda *p: operator.eq(*row_law(*p)), prefixes)
    if prefix is None:
        return count * n, None
    c = next(itertools.compress(itertools.count(), map(operator.ne, *row_law(*prefix))))
    return (count - 1) * n + c + 1, prefix + (c,)


def _closure(table, gens) -> set:
    """Every element reached from gens by the maps x -> table[x][s], s in gens."""
    seen, todo = set(gens), list(gens)
    for x in todo:
        for y in map(table[x].__getitem__, gens):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _generators(els, table) -> list:
    """A small S whose closure under x -> table[x][s], s in S, is every element: greedily, an
    element not yet reached with the largest orbit {s, ss, (ss)s, ...} first."""
    def orbit(e):
        seen, x = {e}, table[e][e]
        while x not in seen:
            seen.add(x)
            x = table[x][e]
        return len(seen)

    gens, reached = [], set()
    for e in sorted(els, key=orbit, reverse=True):
        if e not in reached:
            gens.append(e)
            reached = _closure(table, gens)
    return gens


def _proved(row_law, els, gens) -> bool:
    """Whether the row law's two rows agree on every prefix (a, s) with s in gens."""
    return all(operator.eq(*row_law(a, s)) for a, s in itertools.product(els, gens))


def _scans(rows, names) -> dict:
    """Law name -> cases checked and first failing case over every element of a finite algebra."""
    els, mul, add, col = rows
    laws = row_laws(mul, add, add, mul, col)
    squares = _pointwise(mul, els, els)
    laws["alternative"] = lambda a: (  # a(ab) = (aa)b and (ab)b = a(bb), as rows of pairs
        tuple(zip(_compose(mul[a], mul[a]), _pointwise(mul, mul[a], els))),
        tuple(zip(mul[mul[a][a]], _compose(mul[a], squares))),
    )
    proofs = {"associative": _generators(els, mul)} if "associative" in names else {}
    distributive = {"left_distributive", "right_distributive"}.intersection(names)
    if distributive:  # proved on additive generators only once addition is associative
        plus = _generators(els, add)
        if _proved(row_laws(add, add, add, add, col)["associative"], els, plus):
            proofs.update(dict.fromkeys(distributive, plus))
    # a row law takes a case without its last element
    return {name: (len(els) ** 3, None) if name in proofs and _proved(laws[name], els, proofs[name])
            else row_scan(laws[name], itertools.product(els, repeat=laws[name].__code__.co_argcount), len(els))
            for name in names}


def law_witness(alg: Algebra, name: str, pool=None) -> tuple[Scalar, ...] | None:
    """The first case where the named law fails, as Scalars: over the product of pool, or over
    every element of a finite algebra a row at a time when pool is None."""
    if pool is None:
        return _scalarize(alg, _scans(table_rows(alg), [name])[name][1])
    arity, law = algebra_laws(alg)[name]
    return _scalarize(alg, first_failure(law, itertools.product(pool, repeat=arity))[1])


def _scalarize(alg: Algebra, payload_tuple):
    return None if payload_tuple is None else tuple(Scalar(alg, v) for v in payload_tuple)


# -- the report ---------------------------------------------------------------------------


@dataclass
class AxiomReport(Report):
    mode: str
    trials: int | None
    seed: int | None
    laws: dict[str, LawCheck] = field(default_factory=dict)

    def law(self, name: str) -> LawCheck:
        return self.laws[name]

    def fields(self) -> list[tuple]:
        run = f" (trials {self.trials}, seed {self.seed})" if self.mode == "sampled" else ""
        return [("mode", self.mode + run), *((f"law {name}", _law_text(self.laws[name])) for name in LAW_NAMES)]


def _law_text(check: LawCheck) -> str:
    text = outcome(check.holds, "holds", "fails") or "undetermined"
    if check.holds is False and check.witness is not None:
        text += f" witness={_format_witness(check.witness)}"
    return text + (f"  [{check.note}]" if check.note else "")


def _format_witness(w: tuple) -> str:
    parts = []
    for item in w:
        if isinstance(item, tuple):
            parts.append("(" + ",".join(str(x) for x in item) + ")")
        else:
            parts.append(str(item))
    if len(parts) > 4:
        return "(" + ",".join(parts[:4]) + f",... {len(parts)} items)"
    return "(" + ",".join(parts) + ")"


# -- the audit ---------------------------------------------------------------------------


def _law_check(alg: Algebra, scan, positive: str = "", failed: str = "") -> LawCheck:
    count, w = scan  # cases checked, first failing case
    return LawCheck(w is None, _scalarize(alg, w), positive if w is None else failed, count)


def _exhaustive_only(alg: Algebra, report: AxiomReport, rows) -> None:
    """Solvability as bijectivity, and units found by search rather than declared, on whole rows
    (x -> a*x) and columns (x -> x*a) of the multiplication table."""
    els, mul, _, col = rows
    nonzero = [x for x in els if not alg._is_zero(x)]

    # unique solvability: each nonzero left/right multiplication is a bijection
    def solvable(lines):
        for a in nonzero:
            if len(set(lines[a])) < len(els):
                seen = {}
                return next((a, seen[p], x) for x, p in zip(els, lines[a]) if seen.setdefault(p, x) != x)
        return None

    report.laws["left_solvable"] = _law_check(alg, (None, solvable(mul)), failed="a*x1 = a*x2 with x1 != x2")
    report.laws["right_solvable"] = _law_check(alg, (None, solvable(col)), failed="x1*b = x2*b with x1 != x2")

    left_units = [e for e in els if mul[e] == els]
    right_units = [e for e in els if col[e] == els]

    def unit_refutation(units_of_other_side, lines):
        # a right unit is the only possible left unit (and vice versa), so one
        # failing pair refutes existence; otherwise refute every candidate
        def refuted(e):
            return _scalarize(alg, (e, next(x for x, prod in zip(els, lines[e]) if prod != x)))

        return refuted(units_of_other_side[0]) if units_of_other_side else tuple(map(refuted, els))

    if left_units:
        report.laws["left_unit"] = LawCheck(True, note=f"left unit = {alg.format_value(left_units[0])}")
    else:
        report.laws["left_unit"] = LawCheck(False, unit_refutation(right_units, mul))
    if right_units:
        report.laws["right_unit"] = LawCheck(True, note=f"right unit = {alg.format_value(right_units[0])}")
    else:
        report.laws["right_unit"] = LawCheck(False, unit_refutation(left_units, col))
    two_sided = [e for e in left_units if e in right_units]
    if two_sided:
        report.laws["two_sided_unit"] = LawCheck(True, note=f"unit = {alg.format_value(two_sided[0])}")
    else:
        side = "left_unit" if not left_units else "right_unit"
        report.laws["two_sided_unit"] = LawCheck(False, report.laws[side].witness)

    # a finite associative quasifield with unit must be commutative
    core = ("left_distributive", "right_distributive", "left_solvable", "right_solvable")
    if (
        all(report.laws[n].holds for n in core)
        and report.laws["associative"].holds
        and report.laws["two_sided_unit"].holds
        and not report.laws["commutative"].holds
    ):
        raise InconsistencyError(
            f"{alg.label}: audit found an associative unital finite quasifield that is not "
            "commutative; the audit itself is inconsistent"
        )


def _sampled_only(alg: Algebra, report: AxiomReport, cases, draw, positive: str) -> None:
    """Solvability as existence of a solution, and the declared units checked on draws."""
    mul = alg._mul
    solvable = positive + "; uniqueness not sampled"
    for name, law in (
        ("left_solvable", lambda a, c: alg._is_zero(a) or mul(a, alg._solve_left(a, c)) == c),
        ("right_solvable", lambda b, c: alg._is_zero(b) or mul(alg._solve_right(b, c), b) == c),
    ):
        report.laws[name] = _law_check(alg, first_failure(law, cases(2)), solvable)

    undecidable = "existence not decidable by sampling"
    for name, unit, law in (
        ("left_unit", alg._left_unit(), lambda e, x: mul(e, x) == x),
        ("right_unit", alg._right_unit(), lambda e, x: mul(x, e) == x),
    ):
        if unit is None:
            report.laws[name] = LawCheck(None, note=undecidable)
            continue
        scan = first_failure(law, seeded_cases(lambda: (unit, draw()), report.trials))
        declared = f"checked declared unit {alg.format_value(unit)}; {positive}"
        report.laws[name] = _law_check(alg, scan, declared)
    lu, ru = report.laws["left_unit"], report.laws["right_unit"]
    if lu.holds and ru.holds and alg._left_unit() == alg._right_unit():
        report.laws["two_sided_unit"] = LawCheck(True, note=f"unit = {alg.format_value(alg._left_unit())}")
    elif lu.holds is False or ru.holds is False:
        bad = lu if lu.holds is False else ru
        report.laws["two_sided_unit"] = LawCheck(False, bad.witness)
    else:
        report.laws["two_sided_unit"] = LawCheck(None, note=undecidable)


def axiom_audit(
    alg: Algebra, mode: str | None = "exhaustive", trials: int = 2000, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> AxiomReport:
    """The audit of every law in LAW_NAMES: exhaustive (mode None) over a finite algebra, else probes then trials."""
    if mode not in (None, "exhaustive", "sampled"):
        raise UnsupportedError(f"unknown audit mode {mode!r}; expected exhaustive or sampled")
    # the largest case set is every triple of elements
    size = Power(alg.order, 3) if alg.is_finite else None
    mode = choose_mode(mode, "sampled", size, budget, "exhaustive audit needs {} cases", alg.label)
    report = AxiomReport.of_run(alg, mode, trials, seed)
    if mode == "exhaustive":
        rows = table_rows(alg)
        for name, scan in _scans(rows, algebra_laws(alg)).items():
            report.laws[name] = _law_check(alg, scan)
        _exhaustive_only(alg, report, rows)
        return report
    rng = random.Random(seed)
    probes = alg.probe_values(8)
    positive = f"no counterexample in {trials} trials"

    def draw():
        return alg._random(rng)

    def cases(arity):
        probed = itertools.product(probes, repeat=arity)
        return seeded_cases(lambda: tuple(draw() for _ in range(arity)), trials, probed)

    # the probe cases share their products and sums: cached for this call's probe cases only
    probing = algebra_laws(alg, functools.cache(alg._mul), functools.cache(alg._add))
    for name, (arity, law) in algebra_laws(alg).items():
        count, w = first_failure(probing[name][1], itertools.product(probes, repeat=arity))
        drawn, w = (0, w) if w is not None else first_failure(
            law, seeded_cases(lambda: tuple(draw() for _ in range(arity)), trials))
        report.laws[name] = _law_check(alg, (count + drawn, w), positive)
    _sampled_only(alg, report, cases, draw, positive)
    return report


def _known_or_exhaustive(alg: Algebra, name: str, budget: int) -> bool:
    """The algebra's structural flag for a law, else an exhaustive check cached on the algebra."""
    known = getattr(alg, name)
    if known is not None:
        return known
    cache = alg.__dict__.setdefault("_law_cache", {})
    if name not in cache:
        arity = algebra_laws(alg)[name][0]
        check_budget(Power(alg.order, arity), budget, f"exhaustive {name} check needs {{}} cases")
        cache[name] = law_witness(alg, name) is None
    return cache[name]


def is_associative(alg: Algebra, budget: int = DEFAULT_BUDGET) -> bool:
    """Known structural flag, or an exhaustive check for finite table algebras."""
    return _known_or_exhaustive(alg, "associative", budget)


def is_commutative(alg: Algebra, budget: int = DEFAULT_BUDGET) -> bool:
    return _known_or_exhaustive(alg, "commutative", budget)
