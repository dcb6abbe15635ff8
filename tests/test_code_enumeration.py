"""Systematic encoding, deletion hashing and index tables against the slow oracles.

Codeword lists must match the ambient filter in order and in each vector's
entry order, and the exhaustive perfectness and module-axiom reports must
match the pairwise and PairElement-dict checks line for line.
"""
import random

import pytest

import hamming_oracle as oracle
from broken_decoders import DoublingDecoder
from quasicode import (
    CayleyTableAlgebra,
    ChoiceFunction,
    HammingCode,
    UnsupportedError,
    enumerate_choice_codewords,
    make_isotope,
    module_axiom_check,
    resolve_preset,
)


def make_code(name: str, m: int = 2) -> HammingCode:
    if name == "z5-shift":
        # nonzero product = shifted index addition: neither distributive law holds
        add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        mul = [[0] * 5 for _ in range(5)]
        for i in range(1, 5):
            for j in range(1, 5):
                mul[i][j] = ((i - 1) + (j - 1)) % 4 + 1
        alg = CayleyTableAlgebra(add, mul, label="z5-shift")
        return HammingCode(alg, m, [alg.parse("1")] * m)
    if name == "f3-doubling":
        return DoublingDecoder(resolve_preset("f3"), m)
    if name == "gf4-isotope":
        # neither commutative nor associative: left and right division differ
        gf4 = resolve_preset("gf4")
        return HammingCode(make_isotope(gf4, gf4.parse("t")), m)
    return HammingCode(resolve_preset(name), m)


def same_words(got, want):
    assert got == want
    # the same entries in the same order, as the ambient product inserts them
    assert [list(x._map.items()) for x in got] == [list(x._map.items()) for x in want]


@pytest.mark.parametrize("name,m,size", [
    ("f2", 2, 2), ("f2", 3, 16), ("f2", 4, 2048), ("f3", 2, 9), ("gf4", 2, 64), ("f5", 2, 625),
    ("z5-shift", 2, 625), ("gf4-isotope", 2, 64),
])
def test_codewords_match_the_ambient_filter(name, m, size):
    code = make_code(name, m)
    words = code.enumerate_codewords()
    assert len(words) == size
    same_words(words, oracle.enumerate_codewords(code))


@pytest.mark.parametrize("name", ["f3", "gf4", "gf4-isotope"])
@pytest.mark.parametrize("seed", range(4))
def test_choice_codewords_match_the_ambient_filter(name, seed):
    code = make_code(name)
    rng = random.Random(f"choice/{name}/{seed}")
    nonzero = list(code.algebra.nonzero_elements())
    choice = ChoiceFunction(
        code.algebra, {c: rng.choice(nonzero) for c in code.enumerate_columns() if rng.random() < 0.75}
    )
    same_words(enumerate_choice_codewords(code, choice), oracle.enumerate_choice_codewords(code, choice))


def test_enumeration_checks_the_ambient_budget_first():
    code = make_code("f2", 3)
    with pytest.raises(UnsupportedError, match=r"^ambient has 128 vectors, over the budget of 127$"):
        code.enumerate_codewords(budget=127)
    with pytest.raises(UnsupportedError, match=r"^ambient has 128 vectors, over the budget of 127$"):
        enumerate_choice_codewords(code, ChoiceFunction(code.algebra), budget=127)
    assert len(code.enumerate_codewords(budget=128)) == 16


# the perfect codes with at most 64 words: the oracle subtracts every pair, which takes
# about 6 s for the 625 words of f5 m=2 and about a minute for the 2048 of f2 m=4
@pytest.mark.parametrize("name,m", [("f2", 2), ("f2", 3), ("f3", 2), ("gf4", 2), ("gf4-isotope", 2)])
def test_exhaustive_perfectness_matches_the_pairwise_check(name, m):
    code = make_code(name, m)
    assert code.verify_perfect(mode="exhaustive").lines() == oracle.verify_exhaustive(code).lines()


def test_z5_shift_witness_matches_the_pairwise_check():
    code = make_code("z5-shift")
    lines = code.verify_perfect(mode="exhaustive").lines()
    assert lines == oracle.verify_exhaustive(code).lines()
    # the first close pair is codewords 0 and 5
    words = code.enumerate_codewords()
    assert f"witness: codewords at distance < 3: {words[0]!r} vs {words[5]!r}" in lines


@pytest.mark.parametrize("name,m", [
    ("f2", 3), ("f3", 2), ("gf4", 2), ("gf9", 2), ("gf4-isotope", 2), ("gf9-isotope", 2), ("f3-doubling", 2),
])
def test_exhaustive_module_axioms_match_the_object_check(name, m):
    # the gf4 isotope is the violating case of test_exhaustive_violation_keeps_full_case_counts; the
    # gf9 isotope refutes scalar_distributes_over_pairs, and the doubling decoder add_associative
    code = make_code(name, m)
    got = module_axiom_check(code, mode="exhaustive").lines()
    assert got == oracle.module_axioms_exhaustive(code).lines()
    assert any("VIOLATED" in line for line in got) == (name in {"gf4-isotope", "gf9-isotope", "f3-doubling"})
