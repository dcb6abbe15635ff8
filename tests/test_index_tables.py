"""The index-table backend of the finite fields against the former arithmetic.

GaloisField payloads are base-p ordinals; every operation on every pair is
checked through coefficients() against the former tuple-keyed log/Zech and
polynomial arithmetic kept in galois_oracle, for the presets, a spec-file
field at the flat-table bound, one just above it (logarithms on ordinals)
and one above TABLE_LIMIT (polynomials, on seeded pairs).  Prime fields are
checked against % and pow.  The literals that seeded draws and scalar order
give are pinned to those of the tuple payloads, and every preset's literals to
the oracle's formatter, which builds each one from its digits on every call.  Fields built without tables
read the rows of the exhaustive kernels off their own operations and must
give the tabled reports byte for byte.
"""
import json
import random
import time

import pytest

from galois_oracle import TupleGaloisField
from quasicode import CayleyTableAlgebra, DomainError, HammingCode, axiom_audit, parse_algebra_spec, resolve_preset
from quasicode.algebra import tables
from quasicode.algebra.base import sorted_elements
from quasicode.algebra.fields import TABLE_LIMIT, GaloisField
from quasicode.algebra.tables import FLAT_LIMIT, PrimeField


def _spec_field(tmp_path, p, poly):
    spec = tmp_path / f"gf{p}-{len(poly) - 1}.json"
    spec.write_text(json.dumps({"kind": "galois-field", "p": p, "poly": poly}))
    return parse_algebra_spec(str(spec))


def _check_against_oracle(field, pairs) -> None:
    oracle = TupleGaloisField(field.p, field.modulus)
    # payload v is the v-th coefficient tuple in base-p digit order, both ways
    coeffs = list(map(field.coefficients, range(field.order)))
    assert coeffs == list(oracle.elements())
    assert list(map(field._canonical, coeffs)) == list(range(field.order))
    add, mul, neg = field._add, field._mul, field._neg
    left, right = field._solve_left, field._solve_right
    for x, y in pairs:
        cx, cy = coeffs[x], coeffs[y]
        assert coeffs[add(x, y)] == oracle.add(cx, cy)
        assert coeffs[mul(x, y)] == oracle.mul(cx, cy)
        assert coeffs[neg(x)] == oracle.neg(cx)
        if x == 0:
            for solve in (left, right):
                with pytest.raises(DomainError, match="zero has no inverse"):
                    solve(x, y)
        else:
            want = oracle.quotient(cy, cx)
            assert coeffs[left(x, y)] == want
            assert coeffs[right(x, y)] == want


def _every_pair(field):
    els = range(field.order)
    return [(x, y) for x in els for y in els]


@pytest.mark.parametrize("name", ["gf4", "gf8", "gf9", "gf25"])
def test_preset_tables_match_tuple_arithmetic_on_every_pair(name):
    field = resolve_preset(name)
    assert len(field.mul_table) == field.order
    _check_against_oracle(field, _every_pair(field))


def test_field_at_the_flat_bound_compiles_to_tables(tmp_path):
    # x^8 + x^4 + x^3 + x + 1, irreducible over f2
    start = time.perf_counter()
    field = _spec_field(tmp_path, 2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    assert time.perf_counter() - start < 1
    assert field.order == FLAT_LIMIT
    assert len(field.add_table) == len(field.left_div) == FLAT_LIMIT
    _check_against_oracle(field, _every_pair(field))


def test_field_above_the_flat_bound_uses_ordinal_logarithms(tmp_path):
    # x^6 + x^5 + x^4 + 1, irreducible over f3
    field = _spec_field(tmp_path, 3, [1, 0, 0, 0, 1, 1, 1])
    assert FLAT_LIMIT < field.order == 729 <= TABLE_LIMIT
    assert not hasattr(field, "mul_table")
    _check_against_oracle(field, _every_pair(field))


def test_field_above_table_limit_matches_polynomial_arithmetic(tmp_path):
    start = time.perf_counter()
    # x^8 + x^4 + 2, irreducible over f3
    field = _spec_field(tmp_path, 3, [2, 0, 0, 0, 1, 0, 0, 0, 1])
    assert time.perf_counter() - start < 0.5
    assert field.order == 3**8 > TABLE_LIMIT
    rng = random.Random("gf6561/oracle")
    pairs = [(field._random(rng), field._random(rng)) for _ in range(300)]
    pairs += [(0, pairs[0][1]), (pairs[1][0], 0), (1, field.order - 1)]
    _check_against_oracle(field, pairs)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_prime_field_tables_match_residue_arithmetic(p):
    field = PrimeField(p)
    for x in range(p):
        assert field._neg(x) == -x % p
        for y in range(p):
            assert field._add(x, y) == (x + y) % p
            assert field._mul(x, y) == x * y % p
            if x:
                assert field._solve_left(x, y) == field._solve_right(x, y) == pow(x, -1, p) * y % p
    for solve in (field._solve_left, field._solve_right):
        with pytest.raises(DomainError, match="zero has no inverse"):
            solve(0, 1)


def test_prime_field_above_the_flat_bound_keeps_residues():
    field = PrimeField(257)
    assert not hasattr(field, "mul_table")
    rng = random.Random("f257")
    for _ in range(200):
        x, y = rng.randrange(1, 257), rng.randrange(257)
        assert field._add(x, y) == (x + y) % 257
        assert field._neg(x) == -x % 257
        assert field._mul(x, y) == x * y % 257
        assert field._solve_left(x, y) == field._solve_right(x, y) == pow(x, -1, 257) * y % 257
    with pytest.raises(DomainError, match="zero has no inverse"):
        field._solve_left(0, 1)


def test_galois_payloads_are_ordinals_and_tuples_are_accepted():
    gf9 = resolve_preset("gf9")
    t = gf9.parse("2t+1")
    assert t.value == 7
    assert gf9.coefficients(t.value) == (1, 2)
    assert gf9.scalar((1, 2)) == gf9.scalar([4, 5]) == gf9.scalar(7) == t
    for bad in (True, 7.0, -1, 9, (1, 2, 0), (1.0, 2), (True, 2), "7"):
        with pytest.raises(DomainError):
            gf9.scalar(bad)


def test_seeded_draws_and_scalar_order_give_the_tuple_payload_literals():
    gf9, gf25 = resolve_preset("gf9"), resolve_preset("gf25")
    rng = random.Random(2024)
    assert [str(gf9.random_scalar(rng)) for _ in range(12)] == [
        "1", "2t+2", "1", "t+2", "t+2", "2", "2t+2", "t+1", "2t+1", "2t+2", "t", "2t+2"]
    rng = random.Random(7)
    assert [str(gf9.random_scalar(rng, nonzero=True)) for _ in range(8)] == [
        "1", "2t+1", "2", "2t+1", "2t", "t", "1", "t+2"]
    rng = random.Random(2024)
    assert [str(gf25.random_scalar(rng)) for _ in range(12)] == [
        "t+3", "2t+4", "3t+1", "4t+2", "3t+1", "3t+2", "4t+4", "2t+1", "2t+4", "4", "3t+1", "4t+1"]
    rng = random.Random(7)
    assert [str(gf25.random_scalar(rng, nonzero=True)) for _ in range(8)] == [
        "t+2", "3", "4t", "2t", "4", "t+4", "3t+3", "t"]
    assert " ".join(map(gf9.format_value, sorted_elements(gf9))) == "0 1 2 t t+1 t+2 2t 2t+1 2t+2"
    assert " ".join(map(gf25.format_value, sorted_elements(gf25))) == (
        "0 1 2 3 4 t t+1 t+2 t+3 t+4 2t 2t+1 2t+2 2t+3 2t+4 3t 3t+1 3t+2 3t+3 3t+4 "
        "4t 4t+1 4t+2 4t+3 4t+4"
    )


@pytest.mark.parametrize("name", ["f2", "f3", "f5", "f7", "gf4", "gf8", "gf9", "gf25", "gf9-isotope"])
def test_literals_match_the_uncached_formatter(name, monkeypatch):
    alg = resolve_preset(name)
    if isinstance(alg, PrimeField):
        want = [str(x) for x in range(alg.order)]
    else:
        gf = alg if isinstance(alg, GaloisField) else resolve_preset("gf9")  # the isotope names gf9's payloads
        oracle = TupleGaloisField(gf.p, gf.modulus)
        want = list(map(oracle.literal, oracle.elements()))
    assert [alg.format_value(x) for x in range(alg.order)] == want
    if isinstance(alg, GaloisField):
        # every literal is built by now, so reading them again builds none
        monkeypatch.setattr(alg, "_literal", lambda x: pytest.fail(f"literal of {x} built twice"))
        assert [alg.format_value(x) for x in range(alg.order)] == want


def test_cayley_division_by_zero_raises():
    # Z/3 with its field multiplication, zero at index 2
    add = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    mul = [[1, 0, 2], [0, 1, 2], [2, 2, 2]]
    alg = CayleyTableAlgebra(add, mul, label="relabeled-f3")
    assert alg._zero() == 2 and alg._right_unit() == alg._left_unit() == 1
    assert alg._solve_left(0, 1) == alg._solve_right(0, 1) == 0
    for solve in (alg._solve_left, alg._solve_right):
        with pytest.raises(DomainError, match="zero has no inverse"):
            solve(2, 1)


@pytest.mark.parametrize("name", ["f5", "gf9"])
def test_untabled_fields_give_the_tabled_reports(name, monkeypatch):
    tabled = resolve_preset(name)
    monkeypatch.setattr(tables, "FLAT_LIMIT", tabled.order - 1)
    untabled = PrimeField(5) if name == "f5" else GaloisField(3, list(tabled.modulus))
    assert not hasattr(untabled, "mul_table")
    got, want = axiom_audit(untabled), axiom_audit(tabled)
    assert got.lines() == want.lines()
    assert [c.cases for c in got.laws.values()] == [c.cases for c in want.laws.values()]
    for m in (2, 3):
        got = HammingCode(untabled, m).verify_perfect(mode="structural")
        assert got.lines() == HammingCode(tabled, m).verify_perfect(mode="structural").lines()
        assert got.lines_checked == tabled.order**m - 1
