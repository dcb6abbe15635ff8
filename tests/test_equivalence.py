"""Isometries, choice-function and basis-change isomorphisms, and the
classification witnesses.

Independent checks used here: witness vectors are re-verified through the
code's own membership predicate, "no witness" answers over finite algebras are
re-checked by brute-force coefficient enumeration, and isomorphisms are
validated by exact image-set equality.
"""
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quasicode
from quasicode import (
    BasisChange,
    CayleyTableAlgebra,
    ChoiceFunction,
    Column,
    DomainError,
    FinVec,
    HammingCode,
    InvalidIsometryError,
    InvalidParameterError,
    LinearIsometry,
    UnsupportedError,
    apply_isometry,
    basis_change_isomorphism,
    choice_contains,
    choice_isomorphism,
    choice_syndrome,
    conjugate_code_check,
    conjugate_image,
    distinguish_invariant,
    enumerate_choice_codewords,
    nonassoc_witness,
    resolve_preset,
    right_linearity_witness,
    support_witness,
)
from quasicode.equivalence import _choice_word
from quasicode.errors import Binomial, check_budget


def col(text, alg):
    return Column.parse(text, alg)


def vec(text, alg, m):
    return FinVec.parse(text, alg, m)


def z5_tables(h=None):
    # nonzero product g(h(f(x)) + f(y)) with f(x) = x-1, g(s) = s+1 on Z4 indices
    h = h or {i: i for i in range(4)}
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = (h[i - 1] + (j - 1)) % 4 + 1
    return add, mul


# -- linear isometries -------------------------------------------------------------------


def test_identity_isometry(code_f3_m2, f3):
    iso = LinearIsometry(f3, 2)
    w = vec("(1,0) := 1\n(0,1) := 2", f3, 2)
    assert apply_isometry(iso, w) == w


def test_isometry_moves_and_scales(f3):
    a, b = col("(1,0)", f3), col("(0,1)", f3)
    iso = LinearIsometry(f3, 2, pi={a: b, b: a}, alpha={a: f3.parse("2")})
    w = vec("(1,0) := 1\n(0,1) := 1", f3, 2)
    out = apply_isometry(iso, w)
    assert out == vec("(0,1) := 2\n(1,0) := 1", f3, 2)
    assert out.norm() == w.norm()


def test_isometry_rejects_zero_multiplier(f3):
    with pytest.raises(InvalidIsometryError):
        LinearIsometry(f3, 2, alpha={col("(1,0)", f3): f3.parse("0")})


def test_isometry_rejects_column_collision(f3):
    with pytest.raises(InvalidIsometryError):
        LinearIsometry(
            f3, 2, pi={col("(1,0)", f3): col("(0,1)", f3), col("(1,1)", f3): col("(0,1)", f3)}
        )


def test_rule_collision_surfaces_on_apply(f3):
    target = col("(0,1)", f3)
    iso = LinearIsometry(f3, 2, rule=lambda c: (target, f3.parse("1")))
    w = vec("(1,0) := 1\n(1,1) := 1", f3, 2)
    with pytest.raises(InvalidIsometryError):
        apply_isometry(iso, w)


# -- choice functions --------------------------------------------------------------------


def test_default_choice_matches_plain_code(code_f3_m2, f3):
    e = ChoiceFunction(f3)
    for w in code_f3_m2.enumerate_codewords():
        assert choice_contains(code_f3_m2, e, w)
    probe = vec("(1,2) := 1", f3, 2)
    assert choice_syndrome(code_f3_m2, e, probe).entries == code_f3_m2.syndrome(probe).entries


def test_choice_function_requires_nonzero_values(f3):
    with pytest.raises(InvalidParameterError):
        ChoiceFunction(f3, mapping={col("(0,1)", f3): f3.parse("0")})


def test_choice_code_has_same_size(code_f3_m2, f3):
    e2 = ChoiceFunction(f3, mapping={col("(0,1)", f3): f3.parse("2")})
    words = enumerate_choice_codewords(code_f3_m2, e2)
    assert len(words) == 9
    assert set(words) != set(code_f3_m2.enumerate_codewords())


def test_choice_isomorphism_frozen_alpha(code_f3_m2, f3):
    e1 = ChoiceFunction(f3)
    e2 = ChoiceFunction(f3, mapping={col("(0,1)", f3): f3.parse("2")})
    iso = choice_isomorphism(code_f3_m2, e1, e2)
    assert iso.pi == {}
    assert iso.alpha == {col("(0,1)", f3): f3.parse("2")}


def test_choice_isomorphism_maps_code_onto_code(code_f3_m2, f3):
    e1 = ChoiceFunction(f3, mapping={col("(1,1)", f3): f3.parse("2")})
    e2 = ChoiceFunction(f3, mapping={col("(0,1)", f3): f3.parse("2"), col("(1,2)", f3): f3.parse("2")})
    iso = choice_isomorphism(code_f3_m2, e1, e2)
    image = {apply_isometry(iso, w) for w in enumerate_choice_codewords(code_f3_m2, e1)}
    assert image == set(enumerate_choice_codewords(code_f3_m2, e2))


def test_choice_isomorphism_quaternions(code_quat_m2, quaternions):
    e1 = ChoiceFunction(quaternions)
    e2 = ChoiceFunction(quaternions, mapping={col("(0,1)", quaternions): quaternions.parse("i")})
    iso = choice_isomorphism(code_quat_m2, e1, e2)
    # alpha * i = 1 forces alpha = -i
    assert iso.alpha[col("(0,1)", quaternions)] == quaternions.parse("-1i")
    rng = random.Random(3)
    for _ in range(30):
        w = code_quat_m2.random_codeword(rng)
        assert choice_contains(code_quat_m2, e2, apply_isometry(iso, w))


def test_choice_isomorphism_between_defaults_maps_code_onto_code(code_f3_m2, f3):
    # the defaults differ, so every column outside both mappings takes the default multiplier
    e1, e2 = ChoiceFunction(f3, default=f3.parse("2")), ChoiceFunction(f3)
    iso = choice_isomorphism(code_f3_m2, e1, e2)
    assert iso.alpha == {} and iso.rule(col("(1,1)", f3)) == (col("(1,1)", f3), f3.parse("2"))
    image = {apply_isometry(iso, w) for w in enumerate_choice_codewords(code_f3_m2, e1)}
    assert image == set(enumerate_choice_codewords(code_f3_m2, e2))


def test_choice_isomorphism_between_defaults_quaternions(code_quat_m2, quaternions):
    e1 = ChoiceFunction(quaternions, default=quaternions.parse("1+j"))
    e2 = ChoiceFunction(quaternions, mapping={col("(0,1)", quaternions): quaternions.parse("i")})
    iso = choice_isomorphism(code_quat_m2, e1, e2)
    assert iso.rule is not None
    rng = random.Random(5)
    for _ in range(30):  # a codeword w of the plain code is the e1 word x with x_a * c_a = w_a
        x = _choice_word(e1, code_quat_m2.random_codeword(rng))
        assert choice_contains(code_quat_m2, e1, x)
        assert choice_contains(code_quat_m2, e2, apply_isometry(iso, x))


@pytest.mark.parametrize("column", ["(0,2)", "(1,0,0)"])
def test_choice_functions_reject_columns_the_code_lacks(code_f3_m2, f3, column):
    # (0,2) does not lead with its pivot, and (1,0,0) has the wrong length
    bad = ChoiceFunction(f3, mapping={col(column, f3): f3.parse("2")})
    message = f"column {column} is not canonical for this code"
    with pytest.raises(DomainError, match=re.escape(message)):
        choice_isomorphism(code_f3_m2, ChoiceFunction(f3), bad)
    with pytest.raises(DomainError, match=re.escape(message)):
        choice_isomorphism(code_f3_m2, bad, ChoiceFunction(f3))
    with pytest.raises(DomainError, match=re.escape(message)):
        enumerate_choice_codewords(code_f3_m2, bad)


def test_choice_isomorphism_rejects_nonassociative(octonions):
    code = HammingCode(octonions, 2)
    e1 = ChoiceFunction(octonions)
    e2 = ChoiceFunction(octonions, mapping={col("(0,1)", octonions): octonions.parse("e1")})
    with pytest.raises(UnsupportedError):
        choice_isomorphism(code, e1, e2)


# -- basis changes -----------------------------------------------------------------------


def test_identity_basis_change(code_f3_m2, f3):
    iso = basis_change_isomorphism(code_f3_m2, BasisChange.identity(f3, 2))
    for w in code_f3_m2.enumerate_codewords():
        assert apply_isometry(iso, w) == w


def test_swap_maps_code_onto_itself(code_f2_m3, f2):
    iso = basis_change_isomorphism(code_f2_m3, BasisChange.swap(f2, 3, 0, 2))
    words = set(code_f2_m3.enumerate_codewords())
    assert {apply_isometry(iso, w) for w in words} == words


def test_shear_frozen_permutation(code_f3_m2, f3):
    change = BasisChange.shear(f3, 2, 0, 1, f3.parse("1"))
    iso = basis_change_isomorphism(code_f3_m2, change)
    pi = {str(k): str(v) for k, v in iso.pi.items()}
    assert pi == {
        "(1,0)": "(1,1)",
        "(1,1)": "(1,2)",
        "(1,2)": "(1,0)",
        "(0,1)": "(0,1)",
    }
    assert all(v == f3.parse("1") for v in iso.alpha.values())
    words = set(code_f3_m2.enumerate_codewords())
    assert {apply_isometry(iso, w) for w in words} == words


def test_scale_maps_code_onto_itself(code_f3_m2, f3):
    iso = basis_change_isomorphism(code_f3_m2, BasisChange.scale(f3, 2, 1, f3.parse("2")))
    words = set(code_f3_m2.enumerate_codewords())
    assert {apply_isometry(iso, w) for w in words} == words


def test_compose_matches_sequential_application(code_f3_m2, f3):
    first = BasisChange.shear(f3, 2, 0, 1, f3.parse("1"))
    second = BasisChange.swap(f3, 2, 0, 1)
    combined = basis_change_isomorphism(code_f3_m2, first.compose(second))
    iso1 = basis_change_isomorphism(code_f3_m2, first)
    iso2 = basis_change_isomorphism(code_f3_m2, second)
    for w in code_f3_m2.enumerate_codewords():
        assert apply_isometry(combined, w) == apply_isometry(iso2, apply_isometry(iso1, w))


def test_from_ops_equals_manual_compose(f3):
    ops = [("swap", 0, 1), ("scale", 1, f3.parse("2")), ("shear", 0, 1, f3.parse("1"))]
    built = BasisChange.from_ops(f3, 2, ops)
    manual = (
        BasisChange.swap(f3, 2, 0, 1)
        .compose(BasisChange.scale(f3, 2, 1, f3.parse("2")))
        .compose(BasisChange.shear(f3, 2, 0, 1, f3.parse("1")))
    )
    assert built.rows == manual.rows


def test_singular_matrix_rejected(code_f3_m2, f3):
    singular = BasisChange(f3, [[f3.parse("1"), f3.parse("2")], [f3.parse("2"), f3.parse("1")]])
    # rows are proportional over f3: (2,1) = 2*(1,2)
    with pytest.raises(InvalidIsometryError):
        basis_change_isomorphism(code_f3_m2, singular)


def test_basis_change_on_infinite_code(rationals):
    code = HammingCode(rationals, 2)
    iso = basis_change_isomorphism(code, BasisChange.shear(rationals, 2, 1, 0, rationals.parse("1/2")))
    rng = random.Random(8)
    for _ in range(40):
        w = code.random_codeword(rng)
        assert code.contains(apply_isometry(iso, w))


def test_random_elementary_compositions_preserve_code(code_f2_m3, f2):
    rng = random.Random(2)
    words = set(code_f2_m3.enumerate_codewords())
    for _ in range(10):
        change = BasisChange.identity(f2, 3)
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(["swap", "shear"])
            i, j = rng.sample(range(3), 2)
            if kind == "swap":
                change = change.compose(BasisChange.swap(f2, 3, i, j))
            else:
                change = change.compose(BasisChange.shear(f2, 3, i, j, f2.parse("1")))
        iso = basis_change_isomorphism(code_f2_m3, change)
        assert {apply_isometry(iso, w) for w in words} == words


# -- support witnesses -------------------------------------------------------------------


def brute_force_witness(code, cols):
    alg = code.algebra
    for coeffs in itertools.product(alg.elements(), repeat=len(cols)):
        if all(c.is_zero() for c in coeffs):
            continue
        w = FinVec(alg, code.m, [(c, v) for c, v in zip(cols, coeffs) if not v.is_zero()])
        if code.contains(w):
            return w
    return None


def test_support_witness_all_columns_f2(f2):
    code = HammingCode(f2, 2)
    w = support_witness(code, code.enumerate_columns())
    assert w == vec("(0,1) := 1\n(1,0) := 1\n(1,1) := 1", f2, 2)
    assert code.contains(w)


def test_support_witness_none_on_identity_columns(f2, quaternions):
    for alg in (f2, quaternions):
        code = HammingCode(alg, 2)
        assert support_witness(code, code.identity_columns()) is None
        assert support_witness(code, []) is None  # no column supports a nonzero word


def test_support_witness_f3_triple(code_f3_m2, f3):
    S = [col("(1,0)", f3), col("(1,1)", f3), col("(1,2)", f3)]
    w = support_witness(code_f3_m2, S)
    assert w is not None
    assert code_f3_m2.contains(w)
    assert set(w.support()) <= set(S)


def test_support_witness_none_matches_brute_force(code_f3_m2, f3):
    S = [col("(1,0)", f3), col("(1,1)", f3)]
    assert support_witness(code_f3_m2, S) is None
    assert brute_force_witness(code_f3_m2, S) is None


def test_support_witness_quaternions_linearized(code_quat_m2, quaternions):
    S = [col("(1,0)", quaternions), col("(0,1)", quaternions), col("(1,1)", quaternions)]
    w = support_witness(code_quat_m2, S)
    assert w is not None
    assert code_quat_m2.contains(w)
    # x1*(1,0) + x2*(0,1) + x3*(1,1) = 0 forces x1 = x2 = -x3
    vals = [w.get(c) for c in S]
    assert vals[0] == vals[1] == -vals[2]


FOREIGN_COLUMN = """
from quasicode import Column, DomainError, HammingCode, resolve_preset, support_witness
f3, f5 = resolve_preset("f3"), resolve_preset("f5")
try:
    support_witness(HammingCode(f3, 2), [Column.parse("(1,0)", f3), Column.parse("(1,0)", f5)])
except DomainError as exc:
    print(exc)
"""


def test_support_witness_refuses_a_foreign_column_alike_under_every_hash_seed():
    # a set of Columns iterates in one order in every process, so the refusal names the two algebras alike
    texts, src = set(), str(Path(quasicode.__file__).resolve().parents[1])
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", FOREIGN_COLUMN], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        texts.add(run.stdout)
    assert len(texts) == 1, texts
    assert re.fullmatch(r"mixed algebras: compared columns live in (f3 and f5|f5 and f3)\n", texts.pop())


def test_support_witness_rationals(rationals):
    code = HammingCode(rationals, 2)
    S = [col("(1,0)", rationals), col("(0,1)", rationals), col("(1,1)", rationals)]
    w = support_witness(code, S)
    assert w is not None and code.contains(w)
    assert support_witness(code, S[:2]) is None


def test_support_witness_brute_force_table_path():
    add, mul = z5_tables()
    alg = CayleyTableAlgebra(add, mul, label="z5-shift")
    code = HammingCode(alg, 2, pivots=[alg.parse("1"), alg.parse("1")])
    cols = code.enumerate_columns()[:3]
    w = support_witness(code, cols)
    assert w is not None
    assert code.contains(w)
    assert w == brute_force_witness(code, cols)
    assert support_witness(code, code.identity_columns()) is None


def test_support_witness_rejects_non_canonical(code_f3_m2, f3):
    with pytest.raises(DomainError):
        support_witness(code_f3_m2, [col("(2,1)", f3)])


# -- the distinguishing invariant ----------------------------------------------------------


def test_distinguish_f2(f2):
    rep = distinguish_invariant(HammingCode(f2, 2), HammingCode(f2, 3))
    assert rep.mode == "exhaustive"
    assert rep.verdict
    lines = rep.lines()
    assert lines[1] == "codes: m=2 vs m=3"
    assert lines[-1] == "verdict: codes distinguished"


def test_distinguish_f3(f3):
    rep = distinguish_invariant(HammingCode(f3, 2), HammingCode(f3, 3))
    assert rep.verdict


def test_distinguish_quaternions_sampled(quaternions):
    rep = distinguish_invariant(
        HammingCode(quaternions, 2), HammingCode(quaternions, 3), samples=30, seed=0
    )
    assert rep.mode == "sampled"
    assert rep.verdict


def test_distinguish_rejects_bad_inputs(f2, f3):
    with pytest.raises(InvalidParameterError):
        distinguish_invariant(HammingCode(f2, 3), HammingCode(f2, 2))
    with pytest.raises(DomainError):
        distinguish_invariant(HammingCode(f2, 2), HammingCode(f3, 3))


def test_distinguish_checks_column_sets_against_budget(f3):
    # C(4, 3) = 4 size-3 column sets of the f3 m=2 code
    small, large = HammingCode(f3, 2), HammingCode(f3, 3)
    assert distinguish_invariant(small, large, budget=4).dependent_checked == 4
    with pytest.raises(UnsupportedError, match=r"^distinguishing checks C\(4, 3\) = 4 column sets, over the budget of 3$"):
        distinguish_invariant(small, large, budget=3)


def test_distinguish_over_budget_by_column_count_alone(f3):
    # n = 4 > 3 decides; C(4, 3) = 4 still prints, and C(651, 4) past n = 651 > 100 too
    small, large = HammingCode(f3, 2), HammingCode(f3, 3)
    with pytest.raises(UnsupportedError, match=r"^distinguishing checks C\(4, 3\) = 4 column sets"):
        distinguish_invariant(small, large, budget=3)
    gf25 = resolve_preset("gf25")
    with pytest.raises(UnsupportedError, match=r"^distinguishing checks C\(651, 4\) = 7414857450 column sets"):
        distinguish_invariant(HammingCode(gf25, 3), HammingCode(gf25, 4), budget=100)
    for n in range(12):
        for k in range(n + 1):
            for limit in (1, 2, 10, 100):
                c = math.comb(n, k)
                if c <= limit:
                    check_budget(Binomial(n, k), limit, "{}")
                else:
                    with pytest.raises(UnsupportedError, match=rf"^C\({n}, {k}\) = {c}, over the budget of {limit}$"):
                        check_budget(Binomial(n, k), limit, "{}")


def test_distinguish_is_deterministic(quaternions):
    a = distinguish_invariant(HammingCode(quaternions, 2), HammingCode(quaternions, 3), samples=20, seed=5)
    b = distinguish_invariant(HammingCode(quaternions, 2), HammingCode(quaternions, 3), samples=20, seed=5)
    assert a.lines() == b.lines()


# -- nonassociativity witnesses ------------------------------------------------------------


def test_nonassoc_witness_isotope(gf9_isotope):
    rep = nonassoc_witness(HammingCode(gf9_isotope, 2))
    assert rep.verdict
    one, t = gf9_isotope.parse("1"), gf9_isotope.parse("t")
    assert rep.triple == (one, one, t)
    assert rep.violation.norm() == 1
    lines = rep.lines()
    assert "violation in code: False" in lines
    assert lines[-1] == "verdict: left scaling escapes the code"


def test_nonassoc_witness_octonions(octonions):
    rep = nonassoc_witness(HammingCode(octonions, 2))
    assert rep.verdict
    e1, e2, e4 = (octonions.parse(s) for s in ("e1", "e2", "e4"))
    assert rep.triple == (e1, e2, e4)
    assert rep.violation.norm() >= 1


@pytest.mark.parametrize("preset", ["f2", "f3", "f5", "quaternions"])
def test_nonassoc_witness_absent_for_associative(preset):
    rep = nonassoc_witness(HammingCode(resolve_preset(preset), 2))
    assert rep.verdict
    assert rep.triple is None
    assert any("associative: no witness" in ln for ln in rep.lines())


def test_nonassoc_witness_needs_right_unit():
    h = {0: 1, 1: 0, 2: 3, 3: 2}
    add, mul = z5_tables(h)
    alg = CayleyTableAlgebra(add, mul, label="z5-skew")
    assert alg.right_unit() is None
    code = HammingCode(alg, 2, pivots=[alg.parse("1"), alg.parse("1")])
    with pytest.raises(UnsupportedError):
        nonassoc_witness(code)


# -- right-linearity ------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["f3", "f5"])
def test_right_linearity_confirmed_for_fields(preset):
    rep = right_linearity_witness(HammingCode(resolve_preset(preset), 2))
    assert rep.verdict
    assert rep.mode == "exhaustive"
    assert rep.commutative is True


def test_right_linearity_confirmed_for_rationals(rationals):
    rep = right_linearity_witness(HammingCode(rationals, 2), trials=50, seed=4)
    assert rep.verdict
    assert rep.mode == "sampled"


def test_right_linearity_quaternion_witness(code_quat_m2, quaternions):
    rep = right_linearity_witness(code_quat_m2)
    assert rep.verdict
    assert rep.commutative is False
    g, gamma = rep.witness_codeword, rep.witness_scalar
    assert gamma == quaternions.parse("i")
    assert code_quat_m2.contains(g)
    assert not code_quat_m2.contains(g.scalar_mul_right(gamma))


def test_right_linearity_rejects_nonassociative(octonions):
    with pytest.raises(UnsupportedError):
        right_linearity_witness(HammingCode(octonions, 2))


# -- conjugation ----------------------------------------------------------------------------


def test_conjugate_image_single_codeword(code_quat_m2, quaternions):
    i, j = quaternions.parse("i"), quaternions.parse("j")
    c = code_quat_m2.weight3_codeword(
        col("(1,0)", quaternions), col("(0,1)", quaternions), i, j
    )
    img = conjugate_image(code_quat_m2, c)
    assert code_quat_m2.contains_right(img)
    assert img.norm() == 3


def test_conjugate_code_check_batch(code_quat_m2):
    rep = conjugate_code_check(code_quat_m2, samples=40, seed=1)
    assert rep.verdict
    assert rep.samples == 40 and rep.passes == 40
    assert "conjugate images in the right code: 40/40" in rep.lines()


def test_conjugate_check_requires_quaternions(f3, octonions):
    with pytest.raises(UnsupportedError):
        conjugate_code_check(HammingCode(f3, 2))
    with pytest.raises(UnsupportedError):
        conjugate_code_check(HammingCode(octonions, 2))
