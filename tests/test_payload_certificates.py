"""The finite equivalence certificates on payloads agree with the paths they replaced.

weight3_generators decodes each weight-3 codeword once, from its first column
pair, and skips the two later pairs it marks; a correction counter pins that
count with no clock.  An unmarked pair that decodes before its second column
is refused.  basis_change_isomorphism pushes payload rows through the matrix;
hamming_oracle keeps the Scalar-level image it replaced (apply_row, a
DenseVec, normalize).  support_witness builds each distinct entry's block
once per call; linalg_oracle keeps the Fraction-row witness.
"""
import itertools
import random

import pytest

import hamming_oracle
import linalg_oracle
from quasicode import (
    BasisChange,
    DomainError,
    FinVec,
    HammingCode,
    InconsistencyError,
    InvalidIsometryError,
    LinearIsometry,
    basis_change_isomorphism,
    distinguish_invariant,
    resolve_preset,
    support_witness,
)
from quasicode.cli import main


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _counted(code) -> list:
    """Wrap the code's correction kernel in a counter; the list of the terms it was called on."""
    seen, kernel = [], code._correction
    code._correction = lambda terms: seen.append(tuple(terms)) or kernel(terms)
    return seen


# -- each weight-3 codeword decoded once ------------------------------------------------


@pytest.mark.parametrize("preset,m,count", [
    ("f2", 3, 7), ("f3", 2, 8), ("gf4", 2, 30), ("gf9", 2, 960), ("gf9-isotope", 2, 960),
])
def test_generators_decode_each_codeword_once(preset, m, count):
    code = HammingCode(resolve_preset(preset), m)
    seen = _counted(code)
    gens = code.weight3_generators()
    assert len(gens) == len(seen) == count
    assert gens == hamming_oracle.weight3_generators(HammingCode(code.algebra, m))


def _before_second(code, terms, fix) -> str:
    w2 = FinVec._checked(code.algebra, code.m, dict(terms))
    c = FinVec._checked(code.algebra, code.m, {**dict(terms), fix[0]: fix[1]})
    return (f"decoding {w2!r} gave {c!r}, whose third column comes before the word's second; "
            "the code is not a perfect group code")


def _first_column_kernel(code):
    """decode's correction, except that a word off the first column is corrected there instead."""
    first, kernel = code.enumerate_columns()[0].payloads, code._correction

    def broken(terms):
        a3, gamma = kernel(terms)
        return (a3, gamma) if first in dict(terms) else (first, gamma)
    return broken


@pytest.mark.parametrize("preset,m", [("f2", 3), ("f3", 2), ("gf4", 2)])
def test_an_unmarked_pair_decoded_before_its_second_column_is_refused(preset, m):
    code = HammingCode(resolve_preset(preset), m)
    broken = _first_column_kernel(code)
    seen = []
    code._correction = lambda terms: seen.append(tuple(terms)) or broken(terms)
    with pytest.raises(InconsistencyError) as exc:
        code.weight3_generators()
    assert str(exc.value) == _before_second(code, seen[-1], broken(seen[-1]))
    # the refused pair is the first visited off the first column: every earlier one was on it
    first = code.enumerate_columns()[0].payloads
    assert [first in dict(terms) for terms in seen] == [True] * (len(seen) - 1) + [False]


def test_the_cli_exits_1_on_a_pair_decoded_before_its_second_column(capsys, monkeypatch):
    kernel = HammingCode._table_correction

    def broken(self, terms):
        fix, first = kernel(self, terms), self.enumerate_columns()[0].payloads
        return fix if first in dict(terms) else (first, fix[1])
    monkeypatch.setattr(HammingCode, "_table_correction", broken)
    assert main(["generators", "--algebra", "f2", "--m", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("inconsistency: decoding ") and captured.err.count("\n") == 1
    assert "whose third column comes before the word's second" in captured.err


# -- basis-change images on payloads ----------------------------------------------------


def _basis_change(alg, m, rng) -> BasisChange:
    """A seeded composition of two to six elementary operations."""
    def nonzero():
        return hamming_oracle.random_scalar(alg, rng, True, 3)
    ops = []
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(m), 2)
        kind = rng.choice(["swap", "shear", "scale"])
        ops.append(("swap", i, j) if kind == "swap" else ("shear", i, j, nonzero()) if kind == "shear"
                   else ("scale", i, nonzero()))
    return BasisChange.from_ops(alg, m, ops)


@pytest.mark.parametrize("preset,m", [("f2", 3), ("f3", 2), ("f3", 3), ("gf4", 2), ("gf9", 2), ("gf25", 2)])
def test_finite_basis_images_match_the_scalar_oracle(preset, m):
    code = HammingCode(resolve_preset(preset), m)
    rng = _rng("basis", preset, m)
    for _ in range(6):
        change = _basis_change(code.algebra, m, rng)
        iso = basis_change_isomorphism(code, change)
        pi, alpha = hamming_oracle.basis_change_maps(code, change)
        assert (iso.pi, iso.alpha) == (pi, alpha)
        assert list(iso.pi) == code.enumerate_columns()


@pytest.mark.parametrize("preset,m", [("rationals", 2), ("rationals", 3), ("quaternions", 2), ("quaternions", 3)])
def test_infinite_basis_rule_matches_the_scalar_oracle(preset, m):
    code = HammingCode(resolve_preset(preset), m)
    rng = _rng("basis-rule", preset, m)
    for _ in range(6):
        change = _basis_change(code.algebra, m, rng)
        iso = basis_change_isomorphism(code, change)
        cols = [code.random_column(rng) for _ in range(10)] + code.identity_columns()
        for col in cols:
            assert iso.rule(col) == hamming_oracle.basis_image(code, change, col)


def _refusal(call) -> str:
    with pytest.raises(InvalidIsometryError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("preset", ["f3", "gf4", "quaternions"])
def test_a_singular_basis_change_is_refused_in_the_oracle_words(preset):
    alg = resolve_preset(preset)
    code, one, zero = HammingCode(alg, 3), alg.right_unit(), alg.zero()
    # the middle row vanishes: columns led by coordinate 1 with a zero tail are annihilated
    change = BasisChange(alg, [[one, one, zero], [zero, zero, zero], [zero, zero, one]])
    col = code.identity_columns()[1]
    want = _refusal(lambda: hamming_oracle.basis_image(code, change, col))
    assert want == f"basis change annihilates column {col}; matrix is singular"
    if alg.is_finite:
        assert _refusal(lambda: basis_change_isomorphism(code, change)) == _refusal(
            lambda: hamming_oracle.basis_change_maps(code, change))
    else:
        assert _refusal(lambda: basis_change_isomorphism(code, change).rule(col)) == want


def test_columns_sent_to_one_target_are_refused_in_the_oracle_words():
    code = HammingCode(resolve_preset("f3"), 2)
    unit = code.algebra.right_unit().value
    first = list(code.identity_columns()[0].payloads)
    code._factor = lambda z, right: (unit, first)  # every image factors onto one column
    change = BasisChange.identity(code.algebra, 2)
    want = "basis change does not permute the columns; matrix is singular"
    assert _refusal(lambda: hamming_oracle.basis_change_maps(code, change)) == want
    assert _refusal(lambda: basis_change_isomorphism(code, change)) == want


def test_certificates_map_generators_without_building_an_image_vector(capsys, monkeypatch):
    monkeypatch.setattr(LinearIsometry, "apply", lambda self, x: pytest.fail("LinearIsometry.apply was called"))
    assert main(["basis-iso", "--algebra", "f3", "--m", "2", "--ops", "swap:0,1;shear:0,1,2"]) == 0
    assert main(["choice-iso", "--algebra", "f3", "--m", "2", "--e2", "(0,1)=2"]) == 0
    capsys.readouterr()


def test_image_rows_raise_as_apply_does():
    alg = resolve_preset("f3")
    cols = HammingCode(alg, 2).enumerate_columns()
    # the rule keeps cols[2] in place, where pi also sends cols[0]
    iso = LinearIsometry(alg, 2, pi={cols[0]: cols[2], cols[1]: cols[3]}, rule=lambda col: (col, None))
    one = alg.parse("1")
    x = FinVec._checked(alg, 2, {cols[2].payloads: one.value, cols[1].payloads: one.value, cols[0].payloads: one.value})
    want = f"pi sends both {cols[0]} and {cols[2]} to {cols[2]}"  # in sorted column order, not in x's own
    assert _refusal(lambda: iso._image_rows(x)) == _refusal(lambda: iso.apply(x)) == want
    assert _refusal(lambda: hamming_oracle.isometry_apply(iso, hamming_oracle.ColumnFinVec(alg, 2, x.items()))) == want


# -- support witnesses with one block per distinct entry --------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", ["f5", "gf4", "gf9", "gf25", "quaternions"])
def test_support_witness_matches_the_fraction_oracle(preset, m):
    code = HammingCode(resolve_preset(preset), m)
    rng = _rng("support", preset, m)
    identity = code.identity_columns()
    found = {True: 0, False: 0}
    for _ in range(16):
        cols = {code.random_column(rng) for _ in range(rng.randint(1, m + 1))}
        cols |= set(rng.sample(identity, rng.randint(0, m)))
        witness = support_witness(code, cols)
        assert witness == linalg_oracle.support_witness(code, cols)
        found[witness is None] += 1
    assert support_witness(code, identity) is None
    assert found[False] > 0


def test_support_witness_refuses_foreign_columns_in_the_parent_words():
    f3, f5 = resolve_preset("f3"), resolve_preset("f5")
    code = HammingCode(f3, 2)
    mixed = [*code.identity_columns(), *HammingCode(f5, 2).identity_columns()]
    with pytest.raises(DomainError) as want:
        sorted(set(mixed))
    with pytest.raises(DomainError) as got:
        support_witness(code, mixed)
    assert str(got.value) == str(want.value)
    foreign = HammingCode(f5, 2).enumerate_columns()
    with pytest.raises(DomainError, match=r"column \(0,1\) is not canonical for this code"):
        support_witness(code, foreign)


@pytest.mark.parametrize("preset", ["gf4", "gf9"])
def test_distinguish_shares_blocks_across_its_column_sets(preset):
    small, large = HammingCode(resolve_preset(preset), 2), HammingCode(resolve_preset(preset), 3)
    report = distinguish_invariant(small, large)
    sets = list(itertools.combinations(small.enumerate_columns(), 3))
    want = [linalg_oracle.support_witness(small, cols) for cols in sets]
    assert report.verdict and report.dependent_checked == len(sets) and None not in want
    assert report.example_witness == str(want[0])
    assert linalg_oracle.support_witness(large, large.identity_columns()) is None
