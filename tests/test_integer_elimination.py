"""Integer-row elimination agrees with the field-generic elimination it replaced.

linalg's row_reduce / nullspace_vector / invert_matrix work on integer rows
over the rationals or mod p; linalg_oracle keeps the former FieldOps routines.
The support witness solved on integer rows must equal the witness the former
Fraction rows gave, on seeded column sets, and the isotope construction,
which runs on the same routine mod p, must build the same tables.
"""
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from quasicode import HammingCode, linalg, make_isotope, resolve_preset, support_witness


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _matrix(rng, nrows, ncols):
    """A small integer matrix, with some rows combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-3, 3)
            rows.append([x + k * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_elimination_matches_field_oracle(p):
    rng = _rng("elimination", p)
    ops = oracle.ops_for(p)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = _matrix(rng, nrows, ncols)
        field_rows = [[x % p if p else Fraction(x) for x in r] for r in rows]
        got = linalg.nullspace_vector(rows, ncols, p)
        if p is None and got is not None:
            # rational payloads in lowest terms over a positive denominator
            assert all(d > 0 and math.gcd(n, d) == 1 for n, d in got)
            got = [Fraction(n, d) for n, d in got]
        assert got == oracle.nullspace_vector(field_rows, ncols, ops)
        if not rows:
            continue
        mat, pivots = linalg.row_reduce(rows, p)
        want, want_pivots = oracle.row_reduce(field_rows, ops)
        assert pivots == want_pivots
        for row, c, expected in zip(mat, pivots, want):
            if p is None:
                # a primitive integer multiple of the reduced echelon row
                assert math.gcd(*row) == 1
                row = [Fraction(x, row[c]) for x in row]
            assert row == expected
        if p and nrows == ncols:
            inverse = linalg.invert_matrix(rows, p)
            if len(want_pivots) < nrows:
                assert inverse is None
            else:
                identity = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
                assert linalg.mat_mul(rows, inverse, p) == identity


@pytest.mark.parametrize("preset,m", [
    ("rationals", 2), ("rationals", 3), ("rationals", 4),
    ("quaternions", 2), ("quaternions", 3), ("octonions", 2),
    ("f3", 2), ("f3", 3), ("gf9", 2),
])
def test_support_witness_matches_field_oracle(preset, m):
    code = HammingCode(resolve_preset(preset), m)
    rng = _rng("witness", preset, m)
    found = {True: 0, False: 0}
    for _ in range(24):
        size = rng.randint(1, m + 1)
        cols = {code.random_column(rng) for _ in range(size)}
        witness = support_witness(code, cols)
        assert witness == oracle.support_witness(code, cols)
        found[witness is None] += 1
    # sets of m + 1 columns are always dependent; single columns never are
    assert found[False] > 0 and found[True] > 0


def _table_digest(alg) -> str:
    return hashlib.sha256(json.dumps([alg.add_table, alg.mul_table]).encode()).hexdigest()[:16]


def test_isotope_tables_unchanged():
    gf8, gf25 = resolve_preset("gf8"), resolve_preset("gf25")
    assert _table_digest(resolve_preset("gf9-isotope")) == "051969e39b0171fe"
    assert _table_digest(make_isotope(gf8, gf8.parse("t"), [[1, 0, 1], [0, 1, 1], [0, 0, 1]])) == "0dc5752df3c80196"
    assert _table_digest(make_isotope(gf8, gf8.parse("t+1"))) == "7462fc7af611ad33"
    assert _table_digest(make_isotope(gf25, gf25.parse("t"))) == "e83301b96a083d52"
