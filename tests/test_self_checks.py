"""Self-checks and failing verdicts: each InconsistencyError a certificate raises, and each failure
line of a report, driven by an algebra or a code whose kernel or structural flag is deliberately
wrong.

No correct algebra and code reach these.  They guard what the certificates rest on: Wedderburn's
theorem, the flags and units an algebra declares, and the code's own membership test and
factorization.  Each test breaks one of them and checks that the library says so in its own words.
"""
import itertools
import re

import pytest

from broken_decoders import ContainsEverything, NoCodewords, OneSidedQuaternions, ScaledFactor
from quasicode import (
    CayleyTableAlgebra,
    ChoiceFunction,
    Column,
    HammingCode,
    InconsistencyError,
    OctonionAlgebra,
    QuaternionAlgebra,
    RationalField,
    axiom_audit,
    choice_isomorphism,
    conjugate_code_check,
    distinguish_invariant,
    nonassoc_witness,
    resolve_preset,
    right_linearity_witness,
    support_witness,
)

F3, QUATERNIONS, OCTONIONS = resolve_preset("f3"), resolve_preset("quaternions"), resolve_preset("octonions")
WORD = r"FinVec\[.*\]"  # a word as a report or an error prints it


class _AssociativeOctonions(OctonionAlgebra):
    associative = True


class _NonassociativeQuaternions(QuaternionAlgebra):
    associative = False


class _CommutativeQuaternions(QuaternionAlgebra):
    commutative = True


class _NoncommutativeRationals(RationalField):
    commutative = False


class _RightUnitTwo(QuaternionAlgebra):
    """Quaternions that declare 2 their right unit; the left unit stays 1."""

    def _right_unit(self):
        return self._canonical((2, 0, 0, 0))


class _ZeroSums(CayleyTableAlgebra):
    """A Cayley table whose addition rows, as the exhaustive audit reads them, are all zero: every
    distributive law then holds."""

    def _add_row(self, x):
        return (self.zero_index,) * self.n


def _s3_with_zero() -> _ZeroSums:
    """The symmetric group on three points with a zero adjoined: associative, with a unit and
    solvable, but not commutative."""
    perms = sorted(itertools.permutations(range(3)))  # the identity first
    mul = [[0] * 7 for _ in range(7)]
    for (i, p), (j, q) in itertools.product(enumerate(perms, 1), repeat=2):
        mul[i][j] = perms.index(tuple(p[x] for x in q)) + 1
    return _ZeroSums([[(i + j) % 7 for j in range(7)] for i in range(7)], mul, label="s3")


def _inconsistencies():
    octonions = _AssociativeOctonions()
    skew = ChoiceFunction(octonions, default=octonions.parse("e1+2e2"))
    return {
        "associative unital quasifield that is not commutative": (
            lambda: axiom_audit(_s3_with_zero()),
            "s3: audit found an associative unital finite quasifield that is not commutative; "
            "the audit itself is inconsistent"),
        "choice word off the code": (
            lambda: choice_isomorphism(HammingCode(octonions, 2), skew, ChoiceFunction(octonions), trials=5),
            "failed to build a weight-3 codeword for the chosen representatives"),
        "choice image off the target code": (
            lambda: choice_isomorphism(HammingCode(octonions, 2), ChoiceFunction(octonions), skew, trials=5),
            f"representative-change isometry does not carry {WORD} into the target code"),
        "dependence witness off the code": (
            lambda: support_witness(NoCodewords(F3, 2), [Column.parse(c, F3) for c in ("(1,0)", "(1,1)", "(1,2)")]),
            "computed dependence witness fails the syndrome check"),
        "nonassociative flag without a triple": (
            lambda: nonassoc_witness(HammingCode(_NonassociativeQuaternions(), 2)),
            "quaternions is flagged nonassociative but no violating triple was found"),
        "nonassociativity witness in the code": (
            lambda: nonassoc_witness(ContainsEverything(OCTONIONS, 2)),
            "nonassociativity witness failed verification"),
        "noncommutative flag without a pair": (
            lambda: right_linearity_witness(HammingCode(_NoncommutativeRationals(), 2), trials=5),
            "rationals is flagged noncommutative but no violating pair was found"),
        "every right multiple in the code": (
            lambda: right_linearity_witness(ContainsEverything(QUATERNIONS, 2), trials=5),
            "right multiples of the probe codeword all stayed in the code; "
            "expected an escape over a noncommutative algebra"),
    }


INCONSISTENCIES = _inconsistencies()


@pytest.mark.parametrize("call,text", INCONSISTENCIES.values(), ids=INCONSISTENCIES)
def test_a_broken_guarantee_raises_inconsistency(call, text):
    with pytest.raises(InconsistencyError) as info:
        call()
    assert re.fullmatch(text, str(info.value))


def test_a_declared_right_unit_that_fails_fails_the_two_sided_unit():
    report = axiom_audit(_RightUnitTwo(), mode="sampled", trials=20)
    left, right, both = (report.law(name) for name in ("left_unit", "right_unit", "two_sided_unit"))
    assert (left.holds, right.holds) == (True, False)
    assert (both.holds, both.witness) == (False, right.witness)


def test_a_non_canonical_factorization_fails_the_sampled_structural_check():
    report = ScaledFactor(resolve_preset("rationals"), 2).verify_perfect(mode="structural", trials=5)
    assert (report.property_a_ok, report.property_b_ok, report.verdict) == (False, False, False)
    assert re.fullmatch(r"normalize\(.*\) returned a non-canonical factorization", report.witnesses[-1])


def test_an_independent_column_set_fails_distinguish():
    # a Cayley table has no subfield structure, so each dependence is searched for, by the code's membership test
    z3 = CayleyTableAlgebra([[(i + j) % 3 for j in range(3)] for i in range(3)],
                            [[i * j % 3 for j in range(3)] for i in range(3)], label="z3")
    report = distinguish_invariant(NoCodewords(z3, 2), HammingCode(z3, 3))
    assert report.verdict is False
    assert report.lines()[-6:] == [
        "size-3 column sets of the smaller code all support a codeword: VIOLATED (4 sets)",
        "failure: independent set found: (1,0), (1,1), (1,2)",
        "failure: independent set found: (1,0), (1,1), (0,1)",
        "failure: independent set found: (1,0), (1,2), (0,1)",
        "failure: independent set found: (1,1), (1,2), (0,1)",
        "verdict: NOT DISTINGUISHED",
    ]


def test_a_generator_outside_the_right_code_fails_right_linearity():
    report = right_linearity_witness(HammingCode(_CommutativeQuaternions(), 2), trials=3)
    assert report.verdict is False
    *_, checked, disagreement, verdict = report.lines()
    assert (checked, verdict) == ("generators checked against right membership: 1", "verdict: AGREEMENT VIOLATED")
    assert re.fullmatch(f"disagreement: {WORD} fails right membership", disagreement)


def test_a_conjugate_outside_the_right_code_fails_the_conjugate_check():
    report = conjugate_code_check(HammingCode(OneSidedQuaternions(), 2), samples=3)
    assert report.verdict is False
    *_, images, f1, f2, f3, verdict = report.lines()
    assert (images, verdict) == ("conjugate images in the right code: 0/3", "verdict: VIOLATED")
    assert all(re.fullmatch(f"failure: conjugate of {WORD} fails right membership", f) for f in (f1, f2, f3))
