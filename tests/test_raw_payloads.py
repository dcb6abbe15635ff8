"""The raw-payload fast paths agree with the slow implementations they replaced.

HammingCode's syndromes, membership tests, factorizations, decode and
finite structural perfectness check are
checked against the Scalar/DenseVec versions kept in hamming_oracle, left and
right, on seeded words; malformed words must raise the same DomainError.
GaloisField's index tables are checked against a schoolbook polynomial
product on every pair of the presets, and a field above the table limit
against the same product on seeded pairs; choice_syndrome on payloads is
checked against the DenseVec sum it replaced.  weight3_generators must list
the oracle's deduplicated codewords in the same order, and each plain
weight-3 codeword mapped onto chosen representatives must be the oracle's
codeword of that code through the same two entries.  The structural check reads
table rows; copies of gf9 with one table entry corrupted drive it through
every failure branch against the same oracle, and counted payload operations
show that neither it nor the exhaustive audit falls back to one call per case;
a passing structural check factors no product at all.  Every preset keeps
one payload for zero, which the zero tests by payload equality rely on.
"""
import copy
import json
import random
import time

import pytest

import hamming_oracle as oracle
from quasicode import (
    ChoiceFunction,
    Column,
    DenseVec,
    DomainError,
    FinVec,
    HammingCode,
    axiom_audit,
    choice_contains,
    choice_syndrome,
    parse_algebra_spec,
    resolve_preset,
)
from quasicode.algebra.fields import TABLE_LIMIT, GaloisField
from quasicode.equivalence import _choice_word

PRESETS = ["f2", "f3", "gf4", "gf8", "gf9", "gf25", "gf9-isotope", "rationals", "quaternions"]
WORDS = 40


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _random_word(code, rng) -> FinVec:
    """A random vector on up to five canonical columns, possibly with repeats merged away."""
    alg = code.algebra
    entries = {}
    for _ in range(rng.randint(1, 5)):
        entries[code.random_column(rng, height=5)] = alg.random_scalar(rng, nonzero=True, height=5)
    return FinVec(alg, code.m, entries)


def _words(code, rng) -> list[FinVec]:
    """Random vectors, codewords, and codewords with one symbol changed."""
    alg = code.algebra
    words = [FinVec.zero(alg, code.m)]
    while len(words) < WORDS:
        c = code.random_codeword(rng, height=5)
        a = code.random_column(rng, height=5)
        v = alg.random_scalar(rng, height=5)
        corrupted = c - FinVec.single(a, c.get(a)) + FinVec.single(a, v) if v != c.get(a) else c
        words += [_random_word(code, rng), c, corrupted]
    return words


# a table code and a payload code whose pivots differ by position, beside each preset's unit pivots
PIVOTED = [("gf9-isotope", 3, "t,2t+1,2"), ("quaternions", 3, "i,1+j,2-k")]


@pytest.fixture(scope="module", params=[(name, m, None) for name in PRESETS for m in (2, 3)] + PIVOTED,
                ids=lambda p: f"{p[0]}-m{p[1]}" + ("-pivots" if p[2] else ""))
def code(request):
    name, m, pivots = request.param
    alg = resolve_preset(name)
    return HammingCode(alg, m, pivots and [alg.parse(p) for p in pivots.split(",")])


def test_syndromes_and_decode_match_oracle(code):
    rng = _rng("words", code.algebra.label, code.m)
    for x in _words(code, rng):
        for right in (False, True):
            want = oracle.syndrome(code, x, right)
            got = code.syndrome_right(x) if right else code.syndrome(x)
            assert got == want
            assert (code.contains_right(x) if right else code.contains(x)) == want.is_zero()
        decoded = code.decode(x)
        expected = oracle.decode(code, x)
        assert decoded == expected
        assert hash(decoded) == hash(expected)
        assert decoded.format() == expected.format()
        assert code.contains(decoded)


def test_factorizations_match_oracle(code):
    alg = code.algebra
    rng = _rng("dense", alg.label, code.m)
    for _ in range(WORDS):
        z = DenseVec([alg.random_scalar(rng, height=5) for _ in range(code.m)])
        if z.is_zero():
            continue
        assert code.normalize(z) == oracle.normalize(code, z)
        assert code.normalize_right(z) == oracle.normalize(code, z, right=True)
    zero = DenseVec.zero(alg, code.m)
    for factor in (code.normalize, code.normalize_right):
        with pytest.raises(DomainError, match="zero vector"):
            factor(zero)
        with pytest.raises(DomainError, match="ambient"):
            factor(DenseVec.zero(alg, code.m + 1))


@pytest.mark.parametrize("name,m,pivots", [
    ("f2", 3, None), ("f3", 3, None), ("gf4", 3, None), ("gf9", 3, None), ("gf25", 2, None),
    ("gf9-isotope", 2, None), ("f3", 2, "2,1"), ("gf9", 2, "t,2t+1"),
])
def test_structural_check_matches_oracle(name, m, pivots):
    alg = resolve_preset(name)
    code = HammingCode(alg, m, pivots and [alg.parse(p) for p in pivots.split(",")])
    report = code.verify_perfect(mode="structural")
    got = (report.property_a_ok, report.property_b_ok, report.lines_checked, report.witnesses)
    assert got == oracle.structural_finite(code)


def _corrupted(alg, entries):
    """A copy of alg whose tables read value at [x][y] for each (table, x, y, value) of entries;
    its operations read the same tables."""
    bad = copy.copy(alg)
    for table, x, y, value in entries:
        rows = list(getattr(bad, table))
        row = list(rows[x])
        assert row[y] != value
        row[y] = value
        rows[x] = tuple(row)
        setattr(bad, table, tuple(rows))
    return bad


@pytest.mark.parametrize("entries", [
    [("mul_table", 2, 5, 3)],  # 2*5 repeats 2*6: two lines meet, and a vector is missed
    [("mul_table", 4, 0, 1)],  # 4*0 is not zero: products lead before their pivot
    [("mul_table", 1, 1, 2)],  # 1*1 moves the head: normalize solves it to another scalar
    [("left_div", 2, 5, 0)],  # one quotient by 2 is wrong: its tails do not divide back
    [("left_div", 5, 4, 8)],
    # 4*0 and 4*t+2 trade places and left division by 4 follows: every y*t divides back, yet
    # 4*0 is not zero
    [("mul_table", 4, 0, 1), ("mul_table", 4, 5, 0), ("left_div", 4, 1, 0), ("left_div", 4, 0, 5)],
], ids=["repeat", "zero-product", "head", "tail-2", "tail-5", "divides-back-nonzero-zero"])
@pytest.mark.parametrize("m,pivots", [(2, None), (3, None), (2, "t,2t+1")])
def test_structural_failures_match_oracle(entries, m, pivots):
    gf9 = resolve_preset("gf9")
    alg = _corrupted(gf9, entries)
    code = HammingCode(alg, m, pivots and [alg.parse(p) for p in pivots.split(",")])
    report = code.verify_perfect(mode="structural")
    got = (report.property_a_ok, report.property_b_ok, report.lines_checked, report.witnesses)
    assert got == oracle.structural_finite(code)
    assert not report.verdict and report.witnesses


def test_row_kernels_make_no_call_per_case(monkeypatch):
    gf25 = resolve_preset("gf25")
    field = GaloisField(gf25.p, list(gf25.modulus))
    # the per-case paths made 163,846 such calls in the audit and 93,096 in the structural check
    calls = []
    for name in ("_mul", "_solve_left", "_solve_right"):
        op = getattr(field, name)
        monkeypatch.setattr(field, name, lambda *args, op=op: calls.append(op) or op(*args))
    q = field.order
    assert axiom_audit(field).lines() == axiom_audit(gf25).lines()
    assert len(calls) < q**2
    calls.clear()
    report = HammingCode(field, 3).verify_perfect(mode="structural")
    assert report.verdict and report.lines_checked == q**3 - 1
    assert len(calls) < q**2


@pytest.mark.parametrize("name", ["gf25", "gf9-isotope"])
def test_passing_structural_check_factors_no_product(monkeypatch, name):
    # the rows of each y certify that normalize inverts (y, a) -> y * a, so no product is formed
    calls = []
    factor = HammingCode._factor
    monkeypatch.setattr(HammingCode, "_factor", lambda self, *args: calls.append(args) or factor(self, *args))
    code = HammingCode(resolve_preset(name), 3)
    report = code.verify_perfect(mode="structural")
    assert report.verdict and report.lines_checked == code.algebra.order**3 - 1
    assert calls == []


@pytest.mark.parametrize("name", ["f3", "gf4", "gf9-isotope"])
@pytest.mark.parametrize("m", [2, 3])
def test_choice_syndrome_matches_oracle(name, m):
    code = HammingCode(resolve_preset(name), m)
    alg = code.algebra
    nonzero = list(alg.nonzero_elements())
    for seed in range(3):
        rng = _rng("choice", name, m, seed)
        columns = code.enumerate_columns()
        choice = ChoiceFunction(alg, {c: rng.choice(nonzero) for c in columns if rng.random() < 0.75},
                                default=rng.choice(nonzero))
        for x in _words(code, rng):
            want = oracle.choice_syndrome(code, choice, x)
            assert choice_syndrome(code, choice, x) == want
            assert choice_contains(code, choice, x) == want.is_zero()
        # weight-3 codewords of the chosen-representative code (built for associative scalars)
        for _ in range(4 if name != "gf9-isotope" else 0):
            a1, a2 = rng.sample(columns, 2)
            w = oracle.choice_weight3(code, choice, a1, a2, rng.choice(nonzero), rng.choice(nonzero))
            assert choice_syndrome(code, choice, w).is_zero() and oracle.choice_contains(code, choice, w)
    bad = FinVec.single(_non_canonical_columns(code)[0], nonzero[0])
    for check in (choice_syndrome, choice_contains):
        _same_domain_error(lambda: check(code, choice, bad), lambda: oracle.choice_syndrome(code, choice, bad))
        with pytest.raises(DomainError, match="choice functions"):
            check(code, ChoiceFunction(resolve_preset("f5")), FinVec.zero(alg, m))


def test_choice_contains_tests_the_syndrome_payloads(monkeypatch):
    # choice_contains reads the payloads as contains does, and wraps no DenseVec
    code = HammingCode(resolve_preset("f3"), 2)
    choice = ChoiceFunction(code.algebra, {code.enumerate_columns()[0]: code.algebra.scalar(2)})
    words = code.weight3_generators()
    want = [oracle.choice_contains(code, choice, x) for x in words]
    assert True in want and False in want
    monkeypatch.setattr(DenseVec, "_wrap", classmethod(lambda *a: pytest.fail("choice_contains built a DenseVec")))
    assert [choice_contains(code, choice, x) for x in words] == want


@pytest.mark.parametrize("name,m", [
    ("f2", 2), ("f2", 3), ("f3", 2), ("f3", 3), ("gf4", 2), ("gf4", 3), ("gf8", 2), ("gf9", 2), ("gf9-isotope", 2),
    ("quaternions", 2),
])
def test_weight3_codewords_match_oracle(name, m):
    code = HammingCode(resolve_preset(name), m)
    alg = code.algebra
    if alg.is_finite:
        gens = code.weight3_generators()
        assert gens == oracle.weight3_generators(code)
    else:
        gens = code.weight3_batch(30, 0)
        assert len(gens) == 30 and all(g.norm() == 3 and code.contains(g) for g in gens)
    if name not in ("f3", "gf4", "gf9", "quaternions") or m != 2:
        return
    rng = _rng("choice-word", name)
    def draw():
        return alg.random_scalar(rng, nonzero=True, height=5)

    for _ in range(3):
        choice = ChoiceFunction(alg, {g.support()[0]: draw() for g in rng.sample(gens, 5)}, default=draw())
        for g in gens:
            x = _choice_word(choice, g)
            (a1, v1), (a2, v2) = rng.sample(x.items(), 2)
            assert x == oracle.choice_weight3(code, choice, a1, a2, v1, v2)


def _same_domain_error(fast, slow) -> str:
    with pytest.raises(DomainError) as want:
        slow()
    with pytest.raises(DomainError) as got:
        fast()
    assert str(got.value) == str(want.value)
    return str(got.value)


def _non_canonical_columns(code) -> list[Column]:
    """The zero column, and at each position beta the columns led there by a nonzero entry other than
    beta's pivot (another position's pivot among them), in sorted order."""
    alg, m = code.algebra, code.m
    zero = alg.zero()
    heads = list(alg.nonzero_elements()) if alg.is_finite else alg.probe_scalars()[:3] + list(code.pivots)
    bad = {Column([zero] * m)}
    for beta, pivot in enumerate(code.pivots):
        others = [s for s in heads if s != pivot and not s.is_zero()]
        bad.update(Column([zero] * beta + [s] + [zero] * (m - beta - 1)) for s in others)
    return sorted(bad)


def test_malformed_words_raise_like_oracle(code):
    alg = code.algebra
    rng = _rng("malformed", alg.label, code.m)
    one = code.pivots[0]
    operations = [
        (code.syndrome, lambda x: oracle.syndrome(code, x)),
        (code.syndrome_right, lambda x: oracle.syndrome(code, x, right=True)),
        (code.contains, lambda x: oracle.syndrome(code, x)),
        (code.decode, lambda x: oracle.decode(code, x)),
    ]
    foreign = resolve_preset("f5")
    alien = FinVec.single(Column([foreign.scalar(1)] + [foreign.zero()] * (code.m - 1)), foreign.scalar(1))
    longer = FinVec.single(Column([one] + [alg.zero()] * code.m), one)
    bad_cols = _non_canonical_columns(code)
    good = _random_word(code, rng)
    # each non-canonical column alone, the last after good columns, then all of them after
    # good columns in reverse order: the message names the first offending column in sorted order
    malformed = [(FinVec.single(c, one), c) for c in bad_cols]
    malformed.append((good + FinVec.single(bad_cols[-1], one), bad_cols[-1]))
    mixed = good + FinVec(alg, code.m, [(c, one) for c in reversed(bad_cols)])
    malformed.append((mixed, bad_cols[0]))
    for fast, slow in operations:
        assert "ambient" in _same_domain_error(lambda: fast(alien), lambda: slow(alien))
        assert "ambient" in _same_domain_error(lambda: fast(longer), lambda: slow(longer))
        for x, first_bad in malformed:
            msg = _same_domain_error(lambda: fast(x), lambda: slow(x))
            assert msg == f"column {first_bad} is not canonical for this code"


@pytest.mark.parametrize("name", PRESETS + ["f5", "f257", "octonions"])
def test_zero_is_one_payload(name):
    # the syndromes, factorizations and word checks test zero by payload equality
    alg = resolve_preset(name)
    zero, rng = alg._zero(), _rng("zero", name)
    for _ in range(WORDS):
        x, y = alg._random(rng, 5), alg._random_nonzero(rng, 5)
        drawn = [x, y, alg._add(x, y), alg._add(x, alg._neg(x)), alg._mul(x, y), alg._mul(x, zero),
                 alg._mul(zero, y), alg._solve_left(y, x), alg._solve_right(y, x), alg._solve_left(y, zero)]
        assert [alg._is_zero(v) for v in drawn] == [v == zero for v in drawn]
        assert alg._is_zero(drawn[3]) and alg._is_zero(drawn[-1])


# -- Galois field tables ---------------------------------------------------------------


def _check_field_ops(field, pairs) -> None:
    p, coeffs = field.p, field.coefficients
    zero = field._zero()
    for x, y in pairs:
        cx, cy = coeffs(x), coeffs(y)
        assert coeffs(field._mul(x, y)) == oracle.gf_product(field, cx, cy)
        assert coeffs(field._add(x, y)) == tuple((a + b) % p for a, b in zip(cx, cy))
        assert coeffs(field._neg(x)) == tuple((-a) % p for a in cx)
        if field._is_zero(x):
            for solve in (field._solve_left, field._solve_right):
                with pytest.raises(DomainError, match="zero has no inverse"):
                    solve(x, y)
            continue
        left, right = field._solve_left(x, y), field._solve_right(x, y)
        assert oracle.gf_product(field, cx, coeffs(left)) == cy
        assert oracle.gf_product(field, coeffs(right), cx) == cy
        assert field._is_zero(left) == field._is_zero(y) == (y == zero)


@pytest.mark.parametrize("name", ["gf4", "gf8", "gf9", "gf25"])
def test_gf_tables_match_polynomial_product_on_every_pair(name):
    field = resolve_preset(name)
    els = list(field._elements())
    _check_field_ops(field, [(x, y) for x in els for y in els])


def test_gf_above_table_limit_constructs_at_once_and_multiplies_polynomials(tmp_path):
    spec = tmp_path / "gf6561.json"
    # x^8 + x^4 + 2 is irreducible over f3
    spec.write_text(json.dumps({"kind": "galois-field", "p": 3, "poly": [2, 0, 0, 0, 1, 0, 0, 0, 1]}))
    start = time.perf_counter()
    field = parse_algebra_spec(str(spec))
    assert time.perf_counter() - start < 0.5
    assert field.order == 3**8 > TABLE_LIMIT
    rng = _rng("gf6561")
    pairs = [(field._random(rng), field._random(rng)) for _ in range(200)]
    pairs += [(field._zero(), pairs[0][1]), (pairs[1][0], field._zero())]
    _check_field_ops(field, pairs)
