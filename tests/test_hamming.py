"""Code construction, syndromes, decoding, and perfectness verification.

Expected counts come from the sphere-packing identity |C|*(1+n(q-1)) = q^n
computed by hand for each preset; expected normalize outputs were derived by
solving y*b = z_beta and y*x = z_gamma directly.
"""
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamming_oracle
from quasicode import (
    ChoiceFunction,
    Column,
    DenseVec,
    DomainError,
    FinVec,
    HammingCode,
    InconsistencyError,
    InvalidParameterError,
    Scalar,
    UnsupportedError,
    choice_contains,
    enumerate_choice_codewords,
    make_isotope,
    resolve_preset,
)
from quasicode.errors import check_budget, size_text
from quasicode.codewords import _close_pair

F3 = resolve_preset("f3")


def col(text, alg):
    return Column.parse(text, alg)


def vec(text, alg, m):
    return FinVec.parse(text, alg, m)


# -- columns -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "preset,m,count",
    [
        ("f2", 2, 3),
        ("f2", 3, 7),
        ("f3", 2, 4),
        ("f5", 2, 6),
        ("gf4", 2, 5),
        ("gf8", 2, 9),
        ("gf9", 2, 10),
        ("f2", 4, 15),
    ],
)
def test_column_counts(preset, m, count):
    code = HammingCode(resolve_preset(preset), m)
    assert code.column_count() == count
    assert size_text(code.column_size()) == str(count)
    cols = code.enumerate_columns()
    assert len(cols) == count
    assert len(set(cols)) == count


def test_infinite_column_set(rationals):
    code = HammingCode(rationals, 2)
    assert code.column_count() is None
    assert code.column_size() is None
    with pytest.raises(UnsupportedError):
        code.enumerate_columns()


def test_enumeration_is_pivot_major(code_f3_m2):
    assert [str(c) for c in code_f3_m2.enumerate_columns()] == [
        "(1,0)",
        "(1,1)",
        "(1,2)",
        "(0,1)",
    ]


def test_identity_columns(code_f2_m3, rationals):
    assert [str(c) for c in code_f2_m3.identity_columns()] == [
        "(1,0,0)",
        "(0,1,0)",
        "(0,0,1)",
    ]
    # identity columns exist even when the full column set is infinite
    assert len(HammingCode(rationals, 3).identity_columns()) == 3


def test_is_canonical_column(code_f3_m2, f3):
    assert code_f3_m2.is_canonical_column(col("(1,2)", f3))
    assert code_f3_m2.is_canonical_column(col("(0,1)", f3))
    assert not code_f3_m2.is_canonical_column(col("(2,1)", f3))
    assert not code_f3_m2.is_canonical_column(col("(0,0)", f3))
    assert not code_f3_m2.is_canonical_column(col("(1,2,0)", f3))


def test_custom_pivots(f3):
    code = HammingCode(f3, 2, pivots=[f3.parse("2"), f3.parse("1")])
    assert [str(c) for c in code.enumerate_columns()] == ["(2,0)", "(2,1)", "(2,2)", "(0,1)"]
    y, c = code.normalize(DenseVec.parse("(2,1)", f3))
    assert (y.value, str(c)) == (1, "(2,1)")
    rep = code.verify_perfect()
    assert rep.mode == "exhaustive" and rep.verdict


def test_construction_errors(f3, f5):
    with pytest.raises(InvalidParameterError):
        HammingCode(f3, 1)
    with pytest.raises(InvalidParameterError):
        HammingCode(f3, 2, pivots=[f3.parse("1")])
    with pytest.raises(InvalidParameterError):
        HammingCode(f3, 2, pivots=[f3.parse("1"), f3.parse("0")])
    with pytest.raises(DomainError):
        HammingCode(f3, 2, pivots=[f5.parse("1"), f5.parse("1")])


# -- normalize ---------------------------------------------------------------------------


def test_normalize_frozen_field_case(code_f3_m2, f3):
    y, c = code_f3_m2.normalize(DenseVec.parse("(2,1)", f3))
    assert y == f3.parse("2")
    assert str(c) == "(1,2)"


def test_normalize_frozen_quaternion_case(quaternions):
    code = HammingCode(quaternions, 2)
    i, j, k = (quaternions.parse(s) for s in ("i", "j", "k"))
    y, c = code.normalize(DenseVec([i, j]))
    assert y == i
    assert c == Column([quaternions.unit(), -k])


def test_normalize_zero_rejected(code_f3_m2, f3):
    with pytest.raises(DomainError):
        code_f3_m2.normalize(DenseVec.parse("(0,0)", f3))


@settings(max_examples=150)
@given(
    y=st.sampled_from([F3.parse("1"), F3.parse("2")]),
    idx=st.integers(min_value=0, max_value=3),
)
def test_normalize_round_trip_f3(y, idx):
    code = HammingCode(F3, 2)
    a = code.enumerate_columns()[idx]
    z = a.to_dense().scalar_mul_left(y)
    assert code.normalize(z) == (y, a)


def test_normalize_round_trip_quaternions(quaternions):
    code = HammingCode(quaternions, 2)
    rng = random.Random(11)
    for _ in range(100):
        a = code.random_column(rng)
        y = quaternions.random_scalar(rng)
        if y.is_zero():
            continue
        z = a.to_dense().scalar_mul_left(y)
        assert code.normalize(z) == (y, a)


# -- syndromes and membership ------------------------------------------------------------


def test_syndrome_and_contains(code_f2_m3, f2):
    w = vec("(1,0,0) := 1\n(0,1,0) := 1\n(1,1,0) := 1", f2, 3)
    assert code_f2_m3.syndrome(w).is_zero()
    assert code_f2_m3.contains(w)
    bad = vec("(1,0,0) := 1", f2, 3)
    assert not code_f2_m3.contains(bad)
    assert code_f2_m3.contains(FinVec.zero(f2, 3))


def test_left_right_syndromes_agree_over_fields(code_f3_m2, f3):
    for w in code_f3_m2.enumerate_codewords():
        assert code_f3_m2.contains_right(w)
    probe = vec("(1,2) := 2\n(0,1) := 1", f3, 2)
    assert code_f3_m2.syndrome(probe).entries == code_f3_m2.syndrome_right(probe).entries


def test_left_right_syndromes_differ_over_quaternions(code_quat_m2, quaternions):
    x = FinVec.single(col("(1,1i)", quaternions), quaternions.parse("j"))
    left = code_quat_m2.syndrome(x)
    right = code_quat_m2.syndrome_right(x)
    assert left.entries != right.entries
    # j*(1,i) = (j,-k) on the left, (1,i)*j = (j,k) on the right
    assert left.entries[1] == -right.entries[1]


def test_non_canonical_key_rejected(code_f3_m2, f3):
    x = FinVec.single(col("(2,1)", f3), f3.parse("1"))
    with pytest.raises(DomainError):
        code_f3_m2.syndrome(x)
    with pytest.raises(DomainError):
        code_f3_m2.decode(x)


def test_wrong_algebra_vector_rejected(code_f3_m2, f5):
    with pytest.raises(DomainError):
        code_f3_m2.syndrome(vec("(1,0) := 1", f5, 2))


# -- decoding ----------------------------------------------------------------------------


@pytest.mark.parametrize("preset,m", [("f2", 2), ("f2", 3), ("f3", 2), ("gf4", 2)])
def test_decoder_corrects_every_single_error(preset, m):
    alg = resolve_preset(preset)
    code = HammingCode(alg, m)
    words = code.enumerate_codewords()
    for c in words:
        assert code.decode(c) == c
        for a in code.enumerate_columns():
            current = c.get(a)
            for v in alg.elements():
                if v == current:
                    continue
                corrupted = c - FinVec.single(a, current) + FinVec.single(a, v)
                assert code.decode(corrupted) == c


def test_decoder_round_trip_quaternions(code_quat_m2, quaternions):
    rng = random.Random(5)
    for _ in range(200):
        c = code_quat_m2.random_codeword(rng)
        a = code_quat_m2.random_column(rng)
        v = quaternions.random_scalar(rng)
        if v == c.get(a):
            continue
        corrupted = c - FinVec.single(a, c.get(a)) + FinVec.single(a, v)
        assert code_quat_m2.decode(corrupted) == c


def test_decoder_round_trip_octonions(octonions):
    code = HammingCode(octonions, 2)
    rng = random.Random(6)
    for _ in range(100):
        c = code.random_codeword(rng)
        a = code.random_column(rng)
        v = octonions.random_scalar(rng)
        if v == c.get(a):
            continue
        corrupted = c - FinVec.single(a, c.get(a)) + FinVec.single(a, v)
        assert code.decode(corrupted) == c


# -- weight-3 codewords ------------------------------------------------------------------


def test_weight3_codeword_f2(code_f2_m3, f2):
    one = f2.parse("1")
    c = code_f2_m3.weight3_codeword(col("(1,0,0)", f2), col("(0,1,0)", f2), one, one)
    assert c == vec("(1,0,0) := 1\n(0,1,0) := 1\n(1,1,0) := 1", f2, 3)


def test_weight3_codeword_f3(code_f3_m2, f3):
    one = f3.parse("1")
    c = code_f3_m2.weight3_codeword(col("(1,0)", f3), col("(0,1)", f3), one, one)
    assert c.norm() == 3
    assert code_f3_m2.contains(c)
    assert c.get(col("(1,1)", f3)) == f3.parse("2")


def test_weight3_codeword_quaternions(code_quat_m2, quaternions):
    i, j = quaternions.parse("i"), quaternions.parse("j")
    c = code_quat_m2.weight3_codeword(
        col("(1,0)", quaternions), col("(0,1)", quaternions), i, j
    )
    assert c.norm() == 3
    assert code_quat_m2.contains(c)


def test_weight3_guard_detects_broken_decoder(f2):
    class BrokenDecode(HammingCode):
        def decode(self, y):
            return y

    code = BrokenDecode(f2, 3)
    one = f2.parse("1")
    with pytest.raises(InconsistencyError):
        code.weight3_codeword(col("(1,0,0)", f2), col("(0,1,0)", f2), one, one)


def test_weight3_loops_read_the_correction_kernel(monkeypatch):
    # the generators and the drawn codewords come off decode's correction kernel, with no decode and no word check
    isotope, quat = HammingCode(resolve_preset("gf9-isotope"), 2), HammingCode(resolve_preset("quaternions"), 2)
    want_gens = hamming_oracle.weight3_generators(isotope)
    want_words = [hamming_oracle.random_codeword(quat, random.Random(seed), pieces=1) for seed in range(20)]
    for name in ("decode", "_check_vector"):
        monkeypatch.setattr(HammingCode, name, lambda *a, name=name: pytest.fail(f"HammingCode.{name} was called"))
    assert isotope.weight3_generators() == want_gens
    assert [quat.random_codeword(random.Random(seed), pieces=1) for seed in range(20)] == want_words


def _refusal(code, terms) -> str:
    w2 = FinVec._checked(code.algebra, code.m, dict(terms))
    return (f"decoding {w2!r} did not produce a weight-3 codeword through both of its entries; "
            "the code is not a perfect group code")


class KernelOnlyBroken(HammingCode):
    """A correct decode that does not read the correction kernel, over a kernel that finds no correction."""

    def __init__(self, *args):
        super().__init__(*args)
        self._correction = lambda terms: None

    def decode(self, y):
        return hamming_oracle.decode(self, y)


# corrections that find none, or land on the word's first or second column
BROKEN_CORRECTIONS = {"none": lambda terms: None, "a1": lambda terms: list(terms)[0], "a2": lambda terms: list(terms)[1]}


@pytest.mark.parametrize("preset", ["f3", "quaternions"])
@pytest.mark.parametrize("broken", BROKEN_CORRECTIONS)
def test_weight3_loops_refuse_a_broken_correction_kernel(preset, broken):
    code = HammingCode(resolve_preset(preset), 2)
    seen = []
    code._correction = lambda terms: seen.append(tuple(terms)) or BROKEN_CORRECTIONS[broken](terms)
    runs = [lambda: code.random_codeword(random.Random(3), pieces=1)]
    if code.algebra.is_finite:
        runs.append(code.weight3_generators)
    for run in runs:
        with pytest.raises(InconsistencyError) as exc:
            run()
        assert str(exc.value) == _refusal(code, seen[-1])
        # decode reads the same kernel, and weight3_codeword refuses its result in the same words
        (a1, alpha), (a2, beta) = ((Column._wrap(code.algebra, a), Scalar(code.algebra, v)) for a, v in seen[-1])
        with pytest.raises(InconsistencyError) as exc:
            code.weight3_codeword(a1, a2, alpha, beta)
        assert str(exc.value) == _refusal(code, seen[-1])


def test_the_weight3_kernel_refuses_on_its_own(f3):
    # decode is right, so weight3_codeword succeeds; the loops read the broken kernel and refuse
    code = KernelOnlyBroken(f3, 2)
    one = f3.parse("1")
    assert code.weight3_codeword(col("(1,0)", f3), col("(1,1)", f3), one, one).norm() == 3
    a1, a2 = col("(1,0)", f3).payloads, col("(1,1)", f3).payloads
    with pytest.raises(InconsistencyError) as exc:
        code.weight3_generators()
    assert str(exc.value) == _refusal(code, [(a1, one.value), (a2, one.value)])
    with pytest.raises(InconsistencyError, match="did not produce a weight-3 codeword"):
        code.random_codeword(random.Random(0))


def test_weight3_generators_counts(code_f2_m3, code_f3_m2):
    gens2 = code_f2_m3.weight3_generators()
    gens3 = code_f3_m2.weight3_generators()
    assert len(gens2) == 7
    assert len(gens3) == 8
    for g in gens2 + gens3:
        assert g.norm() == 3
    assert all(code_f2_m3.contains(g) for g in gens2)
    assert all(code_f3_m2.contains(g) for g in gens3)


def test_weight3_generators_refuses_infinite_algebras(code_quat_m2):
    with pytest.raises(UnsupportedError, match="cannot enumerate columns of an infinite algebra"):
        code_quat_m2.weight3_generators()


# -- ambient enumeration -----------------------------------------------------------------


def test_ambient_sizes(f2, rationals):
    small, large = HammingCode(f2, 2), HammingCode(f2, 3)
    assert (size_text(small.ambient_size()), size_text(large.ambient_size())) == ("8", "128")
    for code, size in ((small, 8), (large, 128)):
        check_budget(code.ambient_size(), size, "{}")
        with pytest.raises(UnsupportedError, match=rf"^{size}, over the budget of {size - 1}$"):
            check_budget(code.ambient_size(), size - 1, "{}")
    assert HammingCode(rationals, 2).column_count() is None


def test_all_ambient_vectors(f2, rationals):
    vecs = list(hamming_oracle.all_ambient_vectors(HammingCode(f2, 2)))
    assert len(vecs) == 8
    assert len(set(vecs)) == 8
    with pytest.raises(UnsupportedError):
        list(hamming_oracle.all_ambient_vectors(HammingCode(f2, 3), budget=10))
    with pytest.raises(UnsupportedError):
        list(hamming_oracle.all_ambient_vectors(HammingCode(rationals, 2)))


@pytest.mark.parametrize(
    "preset,m,size",
    [("f2", 2, 2), ("f2", 3, 16), ("f3", 2, 9), ("gf4", 2, 64)],
)
def test_codeword_counts(preset, m, size):
    code = HammingCode(resolve_preset(preset), m)
    words = code.enumerate_codewords()
    assert len(words) == size
    assert len(set(words)) == size
    assert all(code.contains(w) for w in words)


def test_codewords_under_custom_pivots_come_in_ambient_order(f3):
    # a pivot of 2 changes the entry each check column solves for; the list keeps the ambient order
    code = HammingCode(f3, 2, [f3.parse("2"), f3.parse("1")])
    assert code.enumerate_codewords() == hamming_oracle.enumerate_codewords(code)


@pytest.mark.parametrize("seed", range(4))
def test_choice_codewords_lie_in_the_choice_code(seed):
    # the gf4 isotope is noncommutative, so each representative c_a must multiply a from the left
    gf4 = resolve_preset("gf4")
    code = HammingCode(make_isotope(gf4, gf4.parse("t")), 2)
    rng = random.Random(seed)
    nonzero = list(code.algebra.nonzero_elements())
    choice = ChoiceFunction(code.algebra, {c: rng.choice(nonzero) for c in code.enumerate_columns()})
    words = enumerate_choice_codewords(code, choice)
    assert len(set(words)) == len(words) == 64
    assert all(choice_contains(code, choice, w) for w in words)


def test_close_pair_is_the_first_pair_within_distance_two():
    # against every pair of random rows; the draws hold pairs at distance 0 to n, on any coordinates
    rng = random.Random(5)
    for _ in range(300):
        q, n = rng.choice([(2, 5), (3, 4), (4, 3), (5, 6)])
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(2, 9))]
        pairs = itertools.combinations(range(len(rows)), 2)
        close = [(a, b) for a, b in pairs if sum(map(operator.ne, rows[a], rows[b])) < 3]
        assert _close_pair(rows, q) == (close[0] if close else None), rows


def test_random_codeword_lands_in_code(code_quat_m2, octonions, code_f3_m2):
    rng = random.Random(9)
    for _ in range(50):
        assert code_quat_m2.contains(code_quat_m2.random_codeword(rng))
    oc = HammingCode(octonions, 2)
    for _ in range(25):
        assert oc.contains(oc.random_codeword(rng))
    for _ in range(25):
        assert code_f3_m2.contains(code_f3_m2.random_codeword(rng))


# -- perfectness verification ------------------------------------------------------------


def test_verify_modes_agree_on_finite_codes(code_f2_m3, code_f3_m2):
    for code in (code_f2_m3, code_f3_m2):
        ex = code.verify_perfect(mode="exhaustive")
        stru = code.verify_perfect(mode="structural")
        assert ex.mode == "exhaustive" and ex.verdict
        assert stru.mode == "structural" and stru.verdict


def test_verify_structural_gf9(gf9):
    rep = HammingCode(gf9, 2).verify_perfect(mode="auto")
    assert rep.mode == "structural"
    assert rep.verdict


def test_verify_exhaustive_fallback_notice(gf9):
    rep = HammingCode(gf9, 2).verify_perfect(mode="exhaustive", budget=100)
    assert rep.mode == "structural"
    assert "fell back" in rep.notice
    assert rep.verdict


def test_ambient_size_past_the_digit_limit_is_a_power():
    # 25^16276 has more digits than CPython converts to str by default
    with pytest.raises(UnsupportedError, match=r"ambient has 25\^16276 vectors, over the budget of 1048576"):
        list(hamming_oracle.all_ambient_vectors(HammingCode(resolve_preset("gf25"), 4)))


def test_verify_sampled_infinite(rationals, octonions):
    rep = HammingCode(rationals, 2).verify_perfect(trials=100, seed=2)
    assert rep.mode == "structural"
    assert rep.trials == 100
    assert rep.verdict
    rep8 = HammingCode(octonions, 2).verify_perfect(trials=50, seed=2)
    assert rep8.verdict


def test_verify_rejects_unknown_mode(code_f3_m2):
    with pytest.raises(UnsupportedError):
        code_f3_m2.verify_perfect(mode="fast")


def test_report_lines_frozen(code_f3_m2):
    lines = code_f3_m2.verify_perfect(mode="exhaustive").lines()
    assert lines == [
        "algebra: f3 (digest 938c09fb6877)",
        "mode: exhaustive",
        "m: 2",
        "q: 3",
        "n: 4",
        "budget: 1048576",
        "code size: 9",
        "covering identity: ok",
        "min distance >= 3: ok",
        "verdict: perfect",
    ]
