"""Rebuilding coordinates from the decoder and checking module laws.

The oracle for pair addition: a pair (alpha, i) stands for the syndrome
alpha*i, so the sum of two pairs must normalize the same way as the dense
vector alpha*i + beta*j.  That path uses only column arithmetic, never the
decoder under test.
"""
import random
from types import SimpleNamespace

import pytest

import hamming_oracle
from broken_decoders import ScaledNewColumn
from quasicode import (
    CayleyTableAlgebra,
    Column,
    FinVec,
    HammingCode,
    InconsistencyError,
    PairElement,
    UnsupportedError,
    enumerate_pairs,
    make_isotope,
    membership_by_reduction,
    module_axiom_check,
    pair_add,
    pair_scalar_mul,
    random_pair,
    resolve_preset,
)


def col(text, alg):
    return Column.parse(text, alg)


def oracle_add(code, u, v):
    z = None
    for p in (u, v):
        if p.is_zero:
            continue
        part = p.column.to_dense().scalar_mul_left(p.value)
        z = part if z is None else z + part
    if z is None or z.is_zero():
        return PairElement.zero()
    y, k = code.normalize(z)
    return PairElement(y, k)


# -- pair arithmetic ---------------------------------------------------------------------


def test_zero_pair_is_neutral(code_f3_m2, f3):
    u = PairElement(f3.parse("2"), col("(1,1)", f3))
    zero = PairElement.zero()
    assert pair_add(code_f3_m2, zero, u) == u
    assert pair_add(code_f3_m2, u, zero) == u
    assert pair_add(code_f3_m2, zero, zero) == zero
    assert repr(zero) == "Zero"
    assert zero.is_zero


def test_zero_valued_pair_collapses(f3):
    assert PairElement(f3.parse("0"), col("(1,1)", f3)) == PairElement.zero()


def test_pair_add_frozen_f2(code_f2_m3, f2):
    one = f2.parse("1")
    u = PairElement(one, col("(1,0,0)", f2))
    v = PairElement(one, col("(0,1,0)", f2))
    assert pair_add(code_f2_m3, u, v) == PairElement(one, col("(1,1,0)", f2))


def test_pair_add_same_column_adds_scalars(code_f3_m2, f3):
    c = col("(1,2)", f3)
    u = PairElement(f3.parse("1"), c)
    v = PairElement(f3.parse("2"), c)
    assert pair_add(code_f3_m2, u, v) == PairElement.zero()
    assert pair_add(code_f3_m2, u, u) == PairElement(f3.parse("2"), c)


def test_pair_add_matches_oracle_exhaustively(code_f3_m2):
    pairs = enumerate_pairs(code_f3_m2)
    assert len(pairs) == 9
    for u in pairs:
        for v in pairs:
            assert pair_add(code_f3_m2, u, v) == oracle_add(code_f3_m2, u, v)


def test_pair_add_matches_oracle_quaternions(code_quat_m2):
    rng = random.Random(17)
    for _ in range(200):
        u = random_pair(code_quat_m2, rng)
        v = random_pair(code_quat_m2, rng)
        assert pair_add(code_quat_m2, u, v) == oracle_add(code_quat_m2, u, v)


def test_pair_additive_inverse(code_f3_m2, f3):
    u = PairElement(f3.parse("2"), col("(1,1)", f3))
    minus = pair_scalar_mul(code_f3_m2, f3.parse("2"), u)  # -1 = 2 over f3
    assert pair_add(code_f3_m2, u, minus) == PairElement.zero()


def test_pair_scalar_mul(code_f3_m2, f3):
    u = PairElement(f3.parse("2"), col("(1,1)", f3))
    assert pair_scalar_mul(code_f3_m2, f3.parse("2"), u) == PairElement(
        f3.parse("1"), col("(1,1)", f3)
    )
    assert pair_scalar_mul(code_f3_m2, f3.parse("0"), u) == PairElement.zero()


def test_pair_add_detects_broken_decoder(f2):
    class BrokenDecode(HammingCode):
        def decode(self, y):
            return y

    code = BrokenDecode(f2, 3)
    one = f2.parse("1")
    u = PairElement(one, col("(1,0,0)", f2))
    v = PairElement(one, col("(0,1,0)", f2))
    with pytest.raises(InconsistencyError):
        pair_add(code, u, v)


@pytest.mark.parametrize("preset", ["rationals", "quaternions", "octonions", "gf9", "gf9-isotope"])
@pytest.mark.parametrize("m", [2, 3])
def test_pair_add_reads_the_decoders_new_entry(preset, m):
    # pair_add needs nothing of the code but its algebra, m and decode
    code = HammingCode(resolve_preset(preset), m)
    oracle_only = SimpleNamespace(algebra=code.algebra, m=m, decode=code.decode)
    rng = random.Random(f"pair-add/{preset}/{m}")
    checked = 0
    while checked < 60:
        u, v = random_pair(code, rng), random_pair(code, rng)
        if u.column == v.column:
            continue
        assert pair_add(oracle_only, u, v) == oracle_add(code, u, v)
        checked += 1


def _shifted(word, col, by):
    """word with by added to its entry at col."""
    return word - FinVec.single(col, word.get(col)) + FinVec.single(col, word.get(col) + by)


@pytest.mark.parametrize("broken", ["returns its input", "alters a given entry", "returns weight 4"])
def test_weight3_shape_check_rejects_broken_decoders(rationals, broken):
    one = rationals.parse("1")
    extra = col("(1,5)", rationals)

    class BrokenDecode(HammingCode):
        def decode(self, y):
            if broken == "returns its input":
                return y
            c = super().decode(y)
            if broken == "alters a given entry":
                return _shifted(c, y.support()[0], one)
            return c + FinVec.single(extra, one)

    code = BrokenDecode(rationals, 2)
    a1, a2 = col("(1,0)", rationals), col("(0,1)", rationals)
    alpha, beta = rationals.parse("2"), rationals.parse("3")
    with pytest.raises(InconsistencyError, match="did not produce a weight-3 codeword"):
        pair_add(code, PairElement(alpha, a1), PairElement(beta, a2))
    with pytest.raises(InconsistencyError, match="did not produce a weight-3 codeword"):
        code.weight3_codeword(a1, a2, alpha, beta)


def test_enumerate_pairs_counts(code_f2_m3, code_quat_m2):
    assert len(enumerate_pairs(code_f2_m3)) == 8
    with pytest.raises(UnsupportedError):
        enumerate_pairs(code_quat_m2)


# -- module axioms -----------------------------------------------------------------------


def test_module_axioms_f2_m3(code_f2_m3):
    rep = module_axiom_check(code_f2_m3)
    assert rep.mode == "exhaustive"
    assert rep.verdict
    assert rep.counts == {
        "add_commutative": 64,
        "add_associative": 512,
        "scalar_distributes_over_pairs": 128,
        "pairs_distribute_over_scalars": 32,
        "scalar_action_associative": 32,
    }


def test_module_axioms_f3_m2(code_f3_m2):
    rep = module_axiom_check(code_f3_m2)
    assert rep.verdict
    assert rep.counts["add_associative"] == 729
    assert all(c.holds for c in rep.axioms.values())


def test_module_axioms_hold_over_a_field_whose_zero_is_not_index_0():
    # f3 with value v at index (v + 2) % 3: the scalar indices and the indices of the pairs on
    # the first column then differ, so no row law may read one for the other
    name = [2, 0, 1]
    add, mul = ([[0] * 3 for _ in range(3)] for _ in range(2))
    for i in range(3):
        for j in range(3):
            add[name[i]][name[j]], mul[name[i]][name[j]] = name[(i + j) % 3], name[i * j % 3]
    code = HammingCode(CayleyTableAlgebra(add, mul, label="f3-relabeled"), 2)
    assert all(c.holds for c in module_axiom_check(code, mode="exhaustive").axioms.values())


def test_module_axioms_quaternions_sampled(code_quat_m2):
    rep = module_axiom_check(code_quat_m2, trials=300, seed=0)
    assert rep.mode == "sampled"
    assert rep.verdict
    assert rep.axioms["scalar_action_associative"].holds is True


def test_module_axioms_octonions_violate_distributivity(octonions):
    code = HammingCode(octonions, 2)
    rep = module_axiom_check(code, trials=150, seed=0)
    assert rep.axioms["scalar_action_associative"].holds is None
    assert rep.axioms["scalar_distributes_over_pairs"].holds is False
    assert rep.axioms["scalar_distributes_over_pairs"].witness is not None
    assert not rep.verdict


def test_exhaustive_violation_keeps_full_case_counts(gf4):
    # the isotope's scalars do not distribute over pair addition; exhaustive
    # mode stops at the first witness but still reports every case it covers
    code = HammingCode(make_isotope(gf4, gf4.parse("t")), 2)
    rep = module_axiom_check(code, mode="exhaustive")
    pairs, scalars = 1 + 5 * 3, 4
    assert rep.counts == {
        "add_commutative": pairs**2,
        "add_associative": pairs**3,
        "scalar_distributes_over_pairs": scalars * pairs**2,
        "pairs_distribute_over_scalars": scalars**2 * pairs,
        "scalar_action_associative": 0,
    }
    assert rep.axioms["scalar_distributes_over_pairs"].witness == (
        "1*((1, (1,0)) + (t, (1,1))) != 1*(1, (1,0)) + 1*(t, (1,1))"
    )
    assert not rep.verdict


def test_exhaustive_mode_checks_cases_against_budget(gf4):
    # the largest case set is every triple of the 4^2 pair elements: 4096 cases
    code = HammingCode(gf4, 2)
    assert module_axiom_check(code, mode="exhaustive", budget=4096).counts["add_associative"] == 4096
    with pytest.raises(UnsupportedError, match=r"^exhaustive axiom check needs 4096 cases, over the budget of 4095$"):
        module_axiom_check(code, mode="exhaustive", budget=4095)


def test_exhaustive_check_names_a_pair_sum_off_the_code(f3):
    with pytest.raises(InconsistencyError, match=(
        r"^the pair sum \(1, \(1,0\)\) \+ \(1, \(1,1\)\) = \(2, \(2,1\)\) is not a pair element of the code"
    )):
        module_axiom_check(ScaledNewColumn(f3, 2), mode="exhaustive")


def test_module_axioms_auto_switches(gf9):
    small = module_axiom_check(HammingCode(gf9, 2), mode="auto")
    assert small.mode == "exhaustive"
    big = module_axiom_check(HammingCode(gf9, 3), mode="auto", trials=40, seed=1)
    assert big.mode == "sampled"
    assert big.verdict


def test_module_report_lines(code_f3_m2):
    lines = module_axiom_check(code_f3_m2).lines()
    assert lines[0].startswith("algebra: f3")
    assert lines[-1] == "verdict: module axioms hold"
    assert "add_associative: ok (729 cases)" in lines


# -- membership by support reduction -----------------------------------------------------


def test_membership_agrees_with_syndrome_f2(code_f2_m3):
    for x in hamming_oracle.all_ambient_vectors(code_f2_m3):
        assert membership_by_reduction(code_f2_m3, x) == code_f2_m3.contains(x)


def test_membership_agrees_with_syndrome_f3(code_f3_m2):
    for x in hamming_oracle.all_ambient_vectors(code_f3_m2):
        assert membership_by_reduction(code_f3_m2, x) == code_f3_m2.contains(x)


def test_membership_quaternions(code_quat_m2, quaternions):
    rng = random.Random(23)
    for _ in range(100):
        c = code_quat_m2.random_codeword(rng)
        assert membership_by_reduction(code_quat_m2, c)
        a = code_quat_m2.random_column(rng)
        v = quaternions.random_scalar(rng)
        if v == c.get(a):
            continue
        corrupted = c - FinVec.single(a, c.get(a)) + FinVec.single(a, v)
        assert membership_by_reduction(code_quat_m2, corrupted) == code_quat_m2.contains(
            corrupted
        )


def test_membership_of_zero(code_f3_m2, f3):
    assert membership_by_reduction(code_f3_m2, FinVec.zero(f3, 2))
