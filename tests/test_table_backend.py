"""The compiled index tables of the finite algebras, pinned, and the isotopes against their oracle.

Every table the backend compiles (addition, multiplication, negation, both
division tables with their raising zero row, and the units) is digested for
fifteen algebras, the prime fields f2..f251, the Galois fields gf4..gf256
and three isotopes, so a change to how tables are built cannot change one
entry.  make_isotope is checked against isotope_oracle, the former greedy
basis completion with an explicit inverse, for every element a of six
Galois fields, and a Cayley table's refusals of its addition against
cayley_oracle, the former loops, over seeded drawn tables.
"""
import collections
import hashlib
import itertools
import json
import random

import pytest

from cayley_oracle import addition_refusal
from isotope_oracle import isotope_tables
from quasicode import (
    CayleyTableAlgebra, DomainError, InvalidParameterError, SpecFormatError, make_isotope, resolve_preset,
)
from quasicode.algebra.base import Scalar
from quasicode.algebra.fields import GaloisField
from quasicode.algebra.tables import PrimeField

_MODULI = {"gf16": (2, [1, 1, 0, 0, 1]), "gf27": (3, [1, 2, 0, 1]),
           "gf256": (2, [1, 1, 0, 1, 1, 0, 0, 0, 1])}


def _field(name):
    if name in _MODULI:
        return GaloisField(*_MODULI[name], label=name)
    return resolve_preset(name)


def _isotope(name, a, v=None):
    base = _field(name)
    return make_isotope(base, base.parse(a), v)


_ALGEBRAS = {
    "f2": lambda: resolve_preset("f2"),
    "f3": lambda: resolve_preset("f3"),
    "f5": lambda: resolve_preset("f5"),
    "f7": lambda: resolve_preset("f7"),
    "f251": lambda: PrimeField(251),
    "gf4": lambda: _field("gf4"),
    "gf8": lambda: _field("gf8"),
    "gf9": lambda: _field("gf9"),
    "gf16": lambda: _field("gf16"),
    "gf25": lambda: _field("gf25"),
    "gf27": lambda: _field("gf27"),
    "gf256": lambda: _field("gf256"),
    "gf9-isotope": lambda: resolve_preset("gf9-isotope"),
    "gf8-isotope-t+1": lambda: _isotope("gf8", "t+1", [[1, 0, 1], [0, 1, 1], [0, 0, 1]]),
    "gf25-isotope-t": lambda: _isotope("gf25", "t"),
}

# fixed: a change to how the tables are built may not change one entry of them
_DIGESTS = {
    "f2": "8a29d6c284a4ed52",
    "f3": "404216ab7b5dc1a7",
    "f5": "a0eaa05b0cc184b1",
    "f7": "ba21e9ffd75166d3",
    "f251": "3b15275a56361b28",
    "gf4": "00e02e4aa9e14a52",
    "gf8": "ec95c37def3fd084",
    "gf9": "f4a117487394dc50",
    "gf16": "85e0cce432d6a555",
    "gf25": "4c9a888275658f7a",
    "gf27": "6a2757ccef3e74fd",
    "gf256": "494e7faed032a2ee",
    "gf9-isotope": "7efba48256866a25",
    "gf8-isotope-t+1": "564c0a7eee864cd7",
    "gf25-isotope-t": "de60d1846ce7afef",
}


def _digest(alg) -> str:
    zero = alg.zero_index

    def quotients(table):
        return [None if a == zero else list(row) for a, row in enumerate(table)]

    tables = [alg.add_table, alg.mul_table, alg.neg_table, quotients(alg.left_div), quotients(alg.right_div),
              zero, alg._left_unit(), alg._right_unit()]
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(_ALGEBRAS))
def test_compiled_tables_are_pinned(name):
    alg = _ALGEBRAS[name]()
    assert _digest(alg) == _DIGESTS[name]
    for table in (alg.left_div, alg.right_div):
        with pytest.raises(DomainError, match="zero has no inverse"):
            table[alg.zero_index][0]


@pytest.mark.parametrize("name", ["gf4", "gf8", "gf9", "gf16", "gf25", "gf27"])
def test_isotopes_match_the_greedy_oracle(name):
    base = _field(name)
    built = 0
    for a in range(base.order):
        want = isotope_tables(base, a)
        if want is None:
            with pytest.raises(InvalidParameterError):
                make_isotope(base, Scalar(base, a))
            continue
        alg = make_isotope(base, Scalar(base, a))
        assert [list(row) for row in alg.add_table] == want[0]
        assert [list(row) for row in alg.mul_table] == want[1]
        built += 1
    assert built > 0


def test_isotope_with_v_matches_the_greedy_oracle():
    base = _field("gf8")
    v = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    a = base.parse("t+1").value
    alg = make_isotope(base, Scalar(base, a), v)
    assert [list(row) for row in alg.mul_table] == isotope_tables(base, a, v)[1]


def _drawn_addition(rng):
    """Z_n, 2 <= n <= 6, relabelled, with up to three entries redrawn, mirrored in half the draws."""
    n = rng.randint(2, 6)
    s = list(range(n))
    rng.shuffle(s)
    add = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        add[s[i]][s[j]] = s[(i + j) % n]
    mirror = rng.random() < 0.5
    for _ in range(rng.randint(0, 3)):
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        add[i][j] = v
        if mirror:
            add[j][i] = v
    return add


def _accepted_multiplication(add):
    """A multiplication every check accepts once the addition is accepted: the nonzero
    elements as a cyclic group, zero annihilating."""
    n = len(add)
    zero = next((e for e, row in enumerate(add) if row == list(range(n))), 0)
    nonzero = [x for x in range(n) if x != zero]
    return [[zero if zero in (x, y) else nonzero[(nonzero.index(x) + nonzero.index(y)) % (n - 1)]
             for y in range(n)] for x in range(n)]


def test_cayley_addition_refusals_match_the_loop_oracle():
    refused = collections.Counter()
    for seed in range(4000):
        add = _drawn_addition(random.Random(seed))
        want = addition_refusal(add)
        try:
            CayleyTableAlgebra(add, _accepted_multiplication(add))
            got = None
        except SpecFormatError as exc:
            got = str(exc)
        assert got == want, (seed, add)
        refused[want and want.split(" at ")[0]] += 1
    # the draws reach both laws the oracle names a case of, and accepted tables
    assert refused["cayley: addition is not commutative"] > 500
    assert refused["cayley: addition is not associative"] > 300
    assert refused[None] > 1000
