"""The per-case exhaustive audit and the one-loop sampled audit, kept as oracles for audit.py.

Every law is checked one case at a time: the algebra laws run their scalar
predicates over the product of every element in scalar order, solvability
looks for a repeated product in each multiplication, and units are searched
for by comparing each product with its factor.  This is how axiom_audit ran
in exhaustive mode before it read whole table rows.

axiom_audit_sampled is the sampled audit as it ran before its probe cases
shared their products: each law's predicate on the algebra's own kernels
over the probe cases and then the seeded trials, one loop and one stream,
before audit's own solvability and unit checks.
"""
import itertools
import random

from quasicode import AxiomReport, InconsistencyError, LawCheck, Scalar
from quasicode.algebra import audit
from quasicode.algebra.audit import algebra_laws
from quasicode.algebra.base import first_failure, sorted_elements


def _scalarize(alg, payload_tuple):
    return None if payload_tuple is None else tuple(Scalar(alg, v) for v in payload_tuple)


def _law_check(alg, count, w, failed=""):
    return LawCheck(w is None, _scalarize(alg, w), "" if w is None else failed, count)


def law_scan(alg, name):
    """(cases checked, first failing case) of the named law over every triple or pair, per case."""
    arity, law = algebra_laws(alg)[name]
    return first_failure(law, itertools.product(sorted_elements(alg), repeat=arity))


def axiom_audit_exhaustive(alg) -> AxiomReport:
    report = AxiomReport.of(alg, mode="exhaustive", trials=None, seed=None)
    els = sorted_elements(alg)
    for name in algebra_laws(alg):
        report.laws[name] = _law_check(alg, *law_scan(alg, name))
    nonzero = [x for x in els if not alg._is_zero(x)]
    mul = alg._mul

    def solvable(side: str):
        for a in nonzero:
            seen = {}
            for x in els:
                prod = mul(a, x) if side == "left" else mul(x, a)
                if prod in seen:
                    return (a, seen[prod], x)
                seen[prod] = x
        return None

    report.laws["left_solvable"] = _law_check(alg, None, solvable("left"), "a*x1 = a*x2 with x1 != x2")
    report.laws["right_solvable"] = _law_check(alg, None, solvable("right"), "x1*b = x2*b with x1 != x2")

    left_units = [e for e in els if all(mul(e, x) == x for x in els)]
    right_units = [e for e in els if all(mul(x, e) == x for x in els)]

    def unit_refutation(units_of_other_side, is_left: bool):
        if units_of_other_side:
            e = units_of_other_side[0]
            for x in els:
                bad = mul(e, x) != x if is_left else mul(x, e) != x
                if bad:
                    return _scalarize(alg, (e, x))
        pairs = []
        for e in els:
            for x in els:
                bad = mul(e, x) != x if is_left else mul(x, e) != x
                if bad:
                    pairs.append(_scalarize(alg, (e, x)))
                    break
        return tuple(pairs)

    if left_units:
        report.laws["left_unit"] = LawCheck(True, note=f"left unit = {alg.format_value(left_units[0])}")
    else:
        report.laws["left_unit"] = LawCheck(False, unit_refutation(right_units, True))
    if right_units:
        report.laws["right_unit"] = LawCheck(True, note=f"right unit = {alg.format_value(right_units[0])}")
    else:
        report.laws["right_unit"] = LawCheck(False, unit_refutation(left_units, False))
    two_sided = [e for e in left_units if e in right_units]
    if two_sided:
        report.laws["two_sided_unit"] = LawCheck(True, note=f"unit = {alg.format_value(two_sided[0])}")
    else:
        side = "left_unit" if not left_units else "right_unit"
        report.laws["two_sided_unit"] = LawCheck(False, report.laws[side].witness)

    core = ("left_distributive", "right_distributive", "left_solvable", "right_solvable")
    if (
        all(report.laws[n].holds for n in core)
        and report.laws["associative"].holds
        and report.laws["two_sided_unit"].holds
        and not report.laws["commutative"].holds
    ):
        raise InconsistencyError(f"{alg.label}: associative unital finite quasifield that is not commutative")
    return report


def axiom_audit_sampled(alg, trials: int, seed: int) -> AxiomReport:
    report = AxiomReport.of(alg, mode="sampled", trials=trials, seed=seed)
    rng = random.Random(seed)
    probes = alg.probe_values(8)
    positive = f"no counterexample in {trials} trials"

    def draw():
        return alg._random(rng)

    def cases(arity):
        drawn = (tuple(draw() for _ in range(arity)) for _ in range(trials))
        return itertools.chain(itertools.product(probes, repeat=arity), drawn)

    for name, (arity, law) in algebra_laws(alg).items():
        count, w = first_failure(law, cases(arity))
        report.laws[name] = LawCheck(w is None, _scalarize(alg, w), positive if w is None else "", count)
    audit._sampled_only(alg, report, cases, draw, positive)
    return report
