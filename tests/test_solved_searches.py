"""The solved dependence search, the mirrored pair sum table and Light's test for pair
associativity against the full-product searches they replaced (search_oracle).

_witness_brute must return the very codeword of the search over every tuple, in
product order, over every 1- to 3-column set of every isotope of gf4, gf8 and gf9
at m=2, over seeded 3- and 4-column sets at m=3, over the z5-shift tables and
their twists, and over fields.  The exhaustive module-axiom check must build the
pair sum table of every ordered pair, or raise its first error, and keep the
report of the scan of every triple, also for decoders that break the laws.
"""
import itertools
import random

import pytest

import hamming_oracle
import search_oracle as oracle
from broken_decoders import DoublingDecoder, ScaledNewColumn
from quasicode import (
    CayleyTableAlgebra,
    FinVec,
    HammingCode,
    InconsistencyError,
    InvalidParameterError,
    PrimeField,
    make_isotope,
    module_axiom_check,
    resolve_preset,
)
from quasicode.algebra import audit
from quasicode.equivalence import _witness_brute
from quasicode.reconstruct import _index_tables


def _isotopes(name):
    base = resolve_preset(name)
    out = []
    for a in base.elements():
        try:
            out.append(make_isotope(base, a))
        except InvalidParameterError:
            continue
    return out


def _z5(h):
    # nonzero product g(h(f(x)) + f(y)) with f(x) = x-1, g(s) = s+1 on Z4 indices, h a permutation of Z4
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = (h[i - 1] + (j - 1)) % 4 + 1
    alg = CayleyTableAlgebra(add, mul, label=f"z5-shift-{''.join(map(str, h))}")
    return HammingCode(alg, 2, [alg.parse("1")] * 2)


Z5_TWISTS = list(itertools.permutations(range(4)))


def _same_witness(code, cols) -> None:
    got, want = _witness_brute(code, cols, 2**20), oracle.witness_product(code, cols)
    assert (got is None) == (want is None)
    if got is not None:  # the same codeword, with its entries in the same order
        assert list(got._map.items()) == list(want._map.items())


def _every_small_set(code) -> None:
    cols = code.enumerate_columns()
    for k in (1, 2, 3):
        for subset in itertools.combinations(cols, k):
            _same_witness(code, list(subset))


# -- the dependence search -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["gf4", "gf8", "gf9"])
def test_witnesses_over_every_small_column_set_of_every_isotope(name):
    for alg in _isotopes(name):
        _every_small_set(HammingCode(alg, 2))


@pytest.mark.parametrize("name", ["gf4", "gf8", "gf9"])
def test_witnesses_over_seeded_column_sets_at_m3(name):
    for alg in _isotopes(name):
        code = HammingCode(alg, 3)
        cols = code.enumerate_columns()
        rng = random.Random(f"witness/{alg.label}/3")
        for k in (3, 3, 4, 4):
            _same_witness(code, sorted(rng.sample(cols, k)))


@pytest.mark.parametrize("h", Z5_TWISTS, ids=lambda h: "".join(map(str, h)))
def test_witnesses_over_the_z5_shift_tables(h):
    _every_small_set(_z5(h))


@pytest.mark.parametrize("name,m", [("f2", 3), ("f3", 2), ("gf4", 2), ("gf9-isotope", 2)])
def test_witnesses_over_fields_and_the_gf9_isotope(name, m):
    _every_small_set(HammingCode(resolve_preset(name), m))


def test_the_budget_still_counts_every_tuple():
    code = HammingCode(resolve_preset("gf9-isotope"), 2)
    cols = code.enumerate_columns()[:3]
    assert _witness_brute(code, cols, 729) is not None
    with pytest.raises(Exception, match=r"^brute-force dependence search needs 729 tuples, over the budget of 728$"):
        _witness_brute(code, cols, 728)


# -- the pair sum table ------------------------------------------------------------------------


def _pair_table(code) -> tuple:
    """The pair sum rows of _index_tables: row u of pair addition acting on itself."""
    pools, laws, _ = _index_tables(code)
    return tuple(laws["p"]["commutative"](u)[0] for u in range(len(pools["p"])))


def _same_table_or_error(code) -> None:
    try:
        want = oracle.pair_sum_table(code)
    except InconsistencyError as exc:
        with pytest.raises(InconsistencyError) as got:
            _pair_table(code)
        assert str(got.value) == str(exc)
    else:
        assert _pair_table(code) == want


class FarDoublingDecoder(HammingCode):
    """Doubles the entry it adds to a word that has no entry on the code's first column: pair
    addition stays associative on middles in that column and fails on others."""

    def decode(self, y: FinVec) -> FinVec:
        c = super().decode(y)
        if y.get(self.enumerate_columns()[0]).is_zero():
            return c + FinVec(c.algebra, c.m, [(col, v) for col, v in c.items() if y.get(col).is_zero()])
        return c


@pytest.mark.parametrize("code", [
    HammingCode(resolve_preset("f2"), 3), HammingCode(resolve_preset("f3"), 2), HammingCode(resolve_preset("gf4"), 2),
    HammingCode(resolve_preset("gf9-isotope"), 2), DoublingDecoder(resolve_preset("f3"), 2),
    FarDoublingDecoder(resolve_preset("f3"), 2), ScaledNewColumn(resolve_preset("f3"), 2),
], ids=["f2-3", "f3-2", "gf4-2", "gf9-isotope-2", "f3-doubling", "f3-far-doubling", "f3-scaled-new-column"])
def test_pair_tables_match_every_ordered_pair(code):
    _same_table_or_error(code)


@pytest.mark.parametrize("h", Z5_TWISTS, ids=lambda h: "".join(map(str, h)))
def test_pair_tables_over_the_z5_shift_tables(h):
    _same_table_or_error(_z5(h))


def test_same_column_sums_add_in_both_orders(monkeypatch):
    # an addition that does not commute on one pair of values: on one column the table adds
    # the values in each order, as the full table did, and the module check names the pair
    f3 = PrimeField(3)
    add = f3._add
    monkeypatch.setattr(f3, "_add", lambda x, y: 1 if (x, y) == (1, 2) else add(x, y))
    code = HammingCode(f3, 2)
    want = oracle.pair_sum_table(code)
    assert _pair_table(code) == want
    assert want != tuple(zip(*want))
    report = module_axiom_check(code, mode="exhaustive")
    assert report.axioms["add_commutative"].witness == "(1, (1,0)) + (2, (1,0)) != (2, (1,0)) + (1, (1,0))"


# -- pair associativity --------------------------------------------------------------------------


@pytest.mark.parametrize("decoder", [HammingCode, DoublingDecoder, FarDoublingDecoder], ids=lambda d: d.__name__)
@pytest.mark.parametrize("name,m", [("f3", 2), ("f5", 2)])
def test_pair_associativity_keeps_the_scan_of_every_triple(decoder, name, m):
    # the report, witness included, is the object check's, which compares every triple
    code = decoder(resolve_preset(name), m)
    report = module_axiom_check(code, mode="exhaustive")
    assert report.lines() == hamming_oracle.module_axioms_exhaustive(code).lines()
    psum = oracle.pair_sum_table(code)
    _, w = oracle.pair_associativity_scan(psum)
    assert (w is None) == (decoder is HammingCode)
    assert report.axioms["add_associative"].holds is (w is None)
    assert report.counts["add_associative"] == len(psum) ** 3


def test_an_associative_pair_addition_is_proved_without_a_scan(monkeypatch):
    scanned = []
    row_scan = audit.row_scan
    monkeypatch.setattr(audit, "row_scan", lambda law, prefixes, n: scanned.append(law) or row_scan(law, prefixes, n))
    report = module_axiom_check(HammingCode(resolve_preset("gf4"), 2), mode="exhaustive")
    assert report.verdict and report.counts["add_associative"] == 16**3
    assert len(scanned) == len(report.axioms) - 1  # every axiom but add_associative
    scanned.clear()
    module_axiom_check(DoublingDecoder(resolve_preset("f3"), 2), mode="exhaustive")
    assert len(scanned) == 5


@pytest.mark.parametrize("name,m", [("f3", 2), ("f2", 3), ("gf4", 2), ("gf9-isotope", 2)])
def test_light_generators_reach_every_pair_under_pair_addition(name, m):
    # the proof covers the middles that the generators reach by pair addition: every pair key
    pools, laws, gens = _index_tables(HammingCode(resolve_preset(name), m))
    psum = [laws["p"]["commutative"](u)[0] for u in range(len(pools["p"]))]
    assert audit._closure(psum, gens) == set(range(len(psum)))
    assert len(gens) < len(psum)
