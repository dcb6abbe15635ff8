"""FinVec on payloads agrees with the Column-keyed vectors it replaced.

FinVec keeps each column's entry payload tuple mapped to its value payload.
hamming_oracle keeps the vectors keyed by Column objects (ColumnFinVec) and
the decode, weight-3, pair-sum, brute-force dependence, isometry and
conjugation paths that ran on them.  On seeded inputs over finite fields, a finite quasifield and
the rational division algebras, at m = 2 and 3, both give the same words with
their entries in the same order, the same pair sums and the same witnesses,
and fail with the same errors.

Over compiled index tables, decode and the syndromes read the tables in one
kernel; they must agree with the payload-method decode and syndromes and with
the Scalar-level oracles on every finite preset, on relabelled Cayley tables
whose zero and unit sit at other indices, and under unequal non-unit pivots,
while a field above FLAT_LIMIT takes the payload methods.
"""
import functools
import itertools
import random
import re

import pytest

import hamming_oracle as oracle
from quasicode import (
    CayleyTableAlgebra,
    Column,
    DomainError,
    FinVec,
    HammingCode,
    InvalidIsometryError,
    LinearIsometry,
    PairElement,
    Scalar,
    UnsupportedError,
    conjugate_image,
    pair_add,
    random_pair,
    resolve_preset,
)
from quasicode.algebra.tables import FLAT_LIMIT
from quasicode.equivalence import _witness_brute
from quasicode.reconstruct import _pair_key, _pair_sum

PRESETS = ["f2", "f3", "gf4", "gf9", "gf9-isotope", "rationals", "quaternions", "octonions"]
FINITE = ["f2", "f3", "gf4", "gf9", "gf9-isotope"]
CASES = 30


def _code(preset: str, m: int) -> HammingCode:
    return HammingCode(resolve_preset(preset), m)


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, ("payload-vectors",) + key)))


def rows(x) -> list:
    """The (column payloads, value payload) entries of a FinVec or a ColumnFinVec, in map order."""
    if isinstance(x, oracle.ColumnFinVec):
        return [(c.payloads, v.value) for c, v in x._map.items()]
    return list(x._map.items())


def _entries(code, rng) -> list:
    """Up to five (column, nonzero scalar) entries on distinct canonical columns."""
    alg, out = code.algebra, {}
    for _ in range(rng.randint(1, 5)):
        out[oracle.random_column(code, rng, 5)] = oracle.random_scalar(alg, rng, True, 5)
    return list(out.items())


def _received(code, rng) -> list:
    """Entries of a random codeword, changed at one random column unless the draw is clean."""
    c = oracle.random_codeword(code, rng, height=5)
    if rng.random() < 0.2:
        return c.items()
    a = oracle.random_column(code, rng, 5)
    v = oracle.random_scalar(code.algebra, rng, height=5)
    return (c - FinVec.single(a, c.get(a)) + FinVec.single(a, v)).items()


# -- the vector itself -------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_vectors_match_column_keyed_maps(preset, m):
    code = _code(preset, m)
    alg, rng = code.algebra, _rng("vectors", preset, m)
    for _ in range(CASES):
        e1, e2 = _entries(code, rng), _entries(code, rng)
        x, y = FinVec(alg, m, e1), FinVec(alg, m, e2)
        ox, oy = oracle.ColumnFinVec(alg, m, e1), oracle.ColumnFinVec(alg, m, e2)
        alpha = oracle.random_scalar(alg, rng, height=5)
        assert rows(x) == rows(ox)
        assert x.items() == ox.items() and x.support() == ox.support()
        assert (repr(x), x.format(), x.norm()) == (repr(ox), ox.format(), ox.norm())
        assert all(x.get(c) == ox.get(c) for c, _ in e1 + e2)
        for got, want in [
            (x + y, ox + oy), (x - y, ox - oy), (-x, -ox), (x - x, ox - ox),
            (x.scalar_mul_left(alpha), ox.scalar_mul_left(alpha)),
            (x.scalar_mul_right(alpha), ox.scalar_mul_right(alpha)),
        ]:
            assert got.items() == want.items()
        assert (x == y) == (ox == oy) and x == FinVec(alg, m, list(reversed(e1)))
        assert hash(x) == hash(FinVec(alg, m, list(reversed(e1))))


def test_constructor_raises_what_the_column_keyed_map_raises(f3, f5, rationals):
    one, col = f3.parse("1"), Column.parse("(1,0)", f3)
    bad = {
        "float value": [(col, 1.0)],
        "foreign-algebra value": [(col, f5.parse("1"))],
        "foreign-algebra column": [(Column.parse("(1,0)", f5), one)],
        "non-Column key": [((1, 0), one)],
        "dense tuple key": [(col.entries, one)],
        "column of the wrong length": [(Column.parse("(1,0,0)", f3), one)],
        "duplicate column": [(col, one), (Column.parse("(1,0)", f3), f3.parse("2"))],
    }
    for what, entries in bad.items():
        with pytest.raises(Exception) as want:
            oracle.ColumnFinVec(f3, 2, entries)
        with pytest.raises(type(want.value)) as got:
            FinVec(f3, 2, entries)
        assert str(got.value) == str(want.value), what
    assert isinstance(got.value, DomainError)
    # zero values are dropped, also next to a duplicate that then is none
    assert FinVec(f3, 2, [(col, f3.parse("0")), (col, one)]).items() == [(col, one)]
    assert FinVec(f3, 2, [(col, f3.parse("0"))]).is_zero()
    # exact stays exact: rational entries keep their integer payloads through arithmetic
    third = rationals.parse("1/3")
    x = FinVec(rationals, 2, [(Column.parse("(1,1/3)", rationals), third)])
    y = x.scalar_mul_left(third) + x
    assert y.format() == "(1,1/3) := 4/9"
    assert all(isinstance(n, int) and not isinstance(n, bool) for (_, v) in y._map.items() for n in v)


# -- decode and the weight-3 codewords ---------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_decode_matches_column_keyed_decode(preset, m):
    code = _code(preset, m)
    alg, rng = code.algebra, _rng("decode", preset, m)
    for _ in range(CASES):
        entries = _received(code, rng)
        got = code.decode(FinVec(alg, m, entries))
        want = oracle.payload_decode(code, oracle.ColumnFinVec(alg, m, entries))
        assert rows(got) == rows(want)
        assert code.contains(got) and oracle.contains(code, want)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_weight3_codewords_match_column_keyed_decode(preset, m):
    code = _code(preset, m)
    alg, rng = code.algebra, _rng("weight3", preset, m)
    for _ in range(CASES):
        a1, a2 = oracle.random_column(code, rng, 5), oracle.random_column(code, rng, 5)
        if a1 == a2:
            continue
        alpha, beta = (oracle.random_scalar(alg, rng, True, 5) for _ in range(2))
        got = code.weight3_codeword(a1, a2, alpha, beta)
        assert rows(got) == rows(oracle.weight3_codeword(code, a1, a2, alpha, beta))


@pytest.mark.parametrize("preset,m", [("f2", 3), ("f3", 2), ("gf4", 2), ("gf9-isotope", 2)])
def test_generators_match_column_keyed_weight3_codewords(preset, m):
    # every case of the enumeration, through the Column-keyed decode, in enumeration order
    code = _code(preset, m)
    want = oracle.weight3_generators(code, weight3=functools.partial(oracle.weight3_codeword, code))
    assert list(map(rows, code.weight3_generators())) == list(map(rows, want))


# -- the table kernel --------------------------------------------------------------------


def _z5_relabelled() -> CayleyTableAlgebra:
    """test_audit's z5-shift tables with element i renamed [3, 0, 4, 1, 2][i]: zero is 3 and the unit 0."""
    from test_audit import _relabeled_add_table

    sigma = [3, 0, 4, 1, 2]

    def relabel(table):
        out = [[0] * 5 for _ in range(5)]
        for i, j in itertools.product(range(5), repeat=2):
            out[sigma[i]][sigma[j]] = sigma[table[i][j]]
        return out

    return CayleyTableAlgebra(*map(relabel, _relabeled_add_table()), label="z5-shift-relabelled")


def _pivoted(preset: str, pivots: str) -> HammingCode:
    alg = resolve_preset(preset)
    return HammingCode(alg, len(pivots.split(",")), [alg.parse(p) for p in pivots.split(",")])


KERNEL_CODES = {
    **{f"{p}-{m}": functools.partial(_code, p, m)
       for p in ["f2", "f3", "f5", "gf4", "gf8", "gf9", "gf25", "gf9-isotope"] for m in (2, 3)},
    **{f"z5-relabelled-{m}": lambda m=m: HammingCode(_z5_relabelled(), m) for m in (2, 3)},
    "gf9-pivots-2": lambda: _pivoted("gf9", "t,2t+1"),
    "gf9-isotope-pivots-3": lambda: _pivoted("gf9-isotope", "t,2t+1,2"),
    "f257-2": functools.partial(_code, "f257", 2),
}


@pytest.mark.parametrize("case", KERNEL_CODES)
def test_table_kernel_matches_the_payload_methods_and_the_oracles(case):
    code = KERNEL_CODES[case]()
    alg, m, rng = code.algebra, code.m, _rng("kernel", case)
    # the tables serve every algebra up to FLAT_LIMIT, and the payload methods the rest
    tables = code._correction == code._table_correction
    assert tables == (code._syndrome == code._table_syndrome) == (alg.order <= FLAT_LIMIT)
    words = [[]] + [_entries(code, rng) for _ in range(CASES)]
    words += [code.decode(FinVec(alg, m, w)).items() for w in words]  # codewords, over a perfect code
    for entries in words:
        x = FinVec(alg, m, entries)
        got = code.decode(x)
        assert rows(got) == rows(oracle.payload_decode(code, oracle.ColumnFinVec(alg, m, entries)))
        assert got == oracle.decode(code, x)
        terms = code._check_vector(x)
        for right, syndrome, contains in [
            (False, code.syndrome, code.contains), (True, code.syndrome_right, code.contains_right),
        ]:
            want = oracle.syndrome(code, x, right)
            assert list(code._syndrome_payloads(terms, right)) == [e.value for e in want.entries]
            assert syndrome(x) == want and contains(x) == want.is_zero()


@pytest.mark.parametrize("case", ["f3-2", "gf9-isotope-3", "z5-relabelled-2", "f257-2"])
def test_table_kernel_refuses_what_the_payload_methods_refuse(case):
    code = KERNEL_CODES[case]()
    alg, m = code.algebra, code.m
    pivot, zero = code.pivots[0], alg.zero()
    foreign = resolve_preset("f7")
    bad = [
        FinVec.single(Column([pivot] + [zero] * m), pivot),
        FinVec.single(Column([foreign.scalar(1)] + [foreign.zero()] * (m - 1)), foreign.scalar(1)),
        FinVec.single(Column([zero] * m), pivot),
        *(FinVec.single(Column([s] + [zero] * (m - 1)), pivot) for s in alg.nonzero_elements() if s != pivot),
    ]
    for x in bad:
        with pytest.raises(DomainError) as want:
            oracle.check_vector(code, x)
        for operation in (code.decode, code.syndrome, code.contains, code.syndrome_right, code.contains_right):
            with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
                operation(x)


# -- pair sums ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_pair_sums_match_column_keyed_pair_add(preset, m):
    code = _code(preset, m)
    rng = _rng("pairs", preset, m)
    zero = PairElement.zero()
    for _ in range(CASES):
        u, v = random_pair(code, rng), random_pair(code, rng)
        for p, q in [(u, v), (v, u), (u, u), (u, zero), (zero, v)]:
            want = oracle.column_pair_add(code, p, q)
            assert pair_add(code, p, q) == want
            assert _pair_sum(code, _pair_key(code, p), _pair_key(code, q)) == _pair_key(code, want)


# -- dependence witnesses ----------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", FINITE)
def test_brute_witnesses_match_column_keyed_search(preset, m):
    code = _code(preset, m)
    rng = _rng("witness", preset, m)
    for size in (m, m + 1):
        for _ in range(6):
            cols = _distinct_columns(code, rng, size)
            got, want = _witness_brute(code, cols, 2**20), oracle.witness_brute(code, cols)
            assert (got is None) == (want is None)
            if got is not None:
                assert rows(got) == rows(FinVec(code.algebra, m, want.items()))
    # identity columns support no codeword
    assert _witness_brute(code, code.identity_columns(), 2**20) is None


@pytest.mark.parametrize("preset", ["rationals", "quaternions", "octonions"])
def test_brute_witness_refuses_infinite_algebras_alike(preset):
    code = _code(preset, 2)
    cols = code.identity_columns()
    with pytest.raises(UnsupportedError) as want:
        oracle.witness_brute(code, cols)
    with pytest.raises(UnsupportedError, match=str(want.value)):
        _witness_brute(code, cols, 2**20)


# -- isometries --------------------------------------------------------------------------


def _distinct_columns(code, rng, k: int) -> list:
    cols = set()
    while len(cols) < k:
        cols.add(oracle.random_column(code, rng, 5))
    return sorted(cols)


def _isometry(code, rng, rule: bool) -> LinearIsometry:
    """Three canonical columns sent one to one onto three others, some with nonzero right
    multipliers, and maybe a rule; a column left in place can collide with a moved one."""
    alg = code.algebra
    cols, targets = _distinct_columns(code, rng, 3), _distinct_columns(code, rng, 3)
    rng.shuffle(targets)
    alpha = {c: oracle.random_scalar(alg, rng, True, 5) for c in cols if rng.random() < 0.7}
    mult = oracle.random_scalar(alg, rng, True, 5)
    return LinearIsometry(alg, code.m, pi=dict(zip(cols, targets)), alpha=alpha,
                          rule=(lambda c: (c, mult)) if rule else None)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_isometry_images_match_column_keyed_apply(preset, m):
    code = _code(preset, m)
    alg, rng = code.algebra, _rng("isometry", preset, m)
    for k in range(CASES):
        iso = _isometry(code, rng, rule=k % 2 == 1)
        entries = _entries(code, rng) + [(c, oracle.random_scalar(alg, rng, True, 5)) for c in list(iso.pi)[:2]]
        entries = list(dict(entries).items())
        try:
            want = oracle.isometry_apply(iso, oracle.ColumnFinVec(alg, m, entries))
        except InvalidIsometryError as exc:  # a column of the support moved onto another
            with pytest.raises(InvalidIsometryError, match=f"^{re.escape(str(exc))}$"):
                iso.apply(FinVec(alg, m, entries))
            continue
        assert iso.apply(FinVec(alg, m, entries)).items() == want.items()


def test_isometry_failures_name_the_first_column_in_sorted_order(f3):
    a, b, c = (Column.parse(t, f3) for t in ("(0,1)", "(1,0)", "(1,1)"))
    one, two = f3.parse("1"), f3.parse("2")
    # c comes first in the map but last in sorted order; a and b both land on b
    x = FinVec(f3, 2, [(c, one), (b, one), (a, two)])
    ox = oracle.ColumnFinVec(f3, 2, [(c, one), (b, one), (a, two)])
    moved = LinearIsometry(f3, 2, pi={a: b, c: c})
    with pytest.raises(InvalidIsometryError, match=r"^pi sends both \(0,1\) and \(1,0\) to \(1,0\)$"):
        moved.apply(x)
    with pytest.raises(InvalidIsometryError, match=r"^pi sends both \(0,1\) and \(1,0\) to \(1,0\)$"):
        oracle.isometry_apply(moved, ox)
    # a rule whose multiplier is zero makes an image vanish; the first in sorted order is named
    vanish = LinearIsometry(f3, 2, rule=lambda col: (col, Scalar(f3, 0)))
    for apply in (lambda: vanish.apply(x), lambda: oracle.isometry_apply(vanish, ox)):
        with pytest.raises(InvalidIsometryError, match=r"^image entry at \(0,1\) vanished$"):
            apply()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", ["quaternions", "octonions"])
def test_conjugate_images_match_column_keyed_conjugation(preset, m):
    code = _code(preset, m)
    alg, rng = code.algebra, _rng("conjugate", preset, m)
    for _ in range(CASES):
        entries = _received(code, rng)
        got = conjugate_image(code, FinVec(alg, m, entries))
        assert rows(got) == rows(oracle.conjugate_image(code, oracle.ColumnFinVec(alg, m, entries)))


def test_conjugate_image_refuses_what_column_keyed_conjugation_refuses(f3, quaternions):
    word = [(Column.parse("(1,0)", f3), f3.parse("1"))]
    with pytest.raises(UnsupportedError) as want:
        oracle.conjugate_image(HammingCode(f3, 2), oracle.ColumnFinVec(f3, 2, word))
    with pytest.raises(UnsupportedError, match=f"^{re.escape(str(want.value))}$"):
        conjugate_image(HammingCode(f3, 2), FinVec(f3, 2, word))
    assert conjugate_image(HammingCode(f3, 2), FinVec.zero(f3, 2)) == FinVec.zero(f3, 2)  # nothing to conjugate
    with pytest.raises(DomainError, match="^vector does not match the code's ambient$"):
        conjugate_image(HammingCode(quaternions, 3), FinVec(quaternions, 2, [(Column.parse("(1,0)", quaternions), quaternions.parse("1i"))]))


def test_conjugation_collisions_name_the_first_column_in_sorted_order(quaternions):
    # (1,0) and (2,0) re-index to (1,0), (0,1) and (0,2) to (0,1), which comes first in sorted order
    cols = [Column.parse(t, quaternions) for t in ("(1,0)", "(2,0)", "(0,1)", "(0,2)")]
    entries = [(c, quaternions.parse("1j")) for c in cols]
    code = HammingCode(quaternions, 2)
    for apply in (lambda: conjugate_image(code, FinVec(quaternions, 2, entries)),
                  lambda: oracle.conjugate_image(code, oracle.ColumnFinVec(quaternions, 2, entries))):
        with pytest.raises(InvalidIsometryError, match=f"^two columns re-index to {re.escape(str(cols[2]))} under conjugation$"):
            apply()
