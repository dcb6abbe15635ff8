"""The payload decode kernel agrees with the syndrome it would sum without its shortcuts.

HammingCode._payload_correction serves every algebra without compiled index
tables: the rationals, quaternions, octonions and the fields above
FLAT_LIMIT (f257, gf729 on logarithm tables and gf6561 on polynomials).  It
sums the syndrome with _syndrome_payloads, which skips zero column entries
and starts each coordinate at its first nonzero term, then factors it with
HammingCode._factor.  hamming_oracle sums every term, zero entries included
(syndrome_payloads), before the same factorization; test_raw_payloads checks
_factor itself against the Scalar-level normalize.  On seeded words at m = 2, 3
and 4 (codewords, words on identity columns, words where a syndrome
coordinate cancels to zero, and random words), under unit and non-unit
pivots, both give the same correction, decode the same codeword with its
entries in the same order and compute the same syndromes on either side.
The shortcuts rest on canonical payloads and an annihilating zero, which the
last test pins on draws.
"""
import functools
import random

import pytest

import hamming_oracle as oracle
from quasicode import FinVec, GaloisField, HammingCode, resolve_preset
from quasicode.algebra.tables import FLAT_LIMIT

NAMES = ["rationals", "quaternions", "octonions", "f257", "gf729", "gf6561"]
WORDS = 200


@functools.cache
def _algebra(name: str):
    if name == "gf729":
        return GaloisField(3, [1, 0, 0, 0, 1, 1, 1], label="gf729")
    if name == "gf6561":
        return GaloisField(3, [2, 0, 0, 0, 1, 0, 0, 0, 1], label="gf6561")
    return resolve_preset(name)


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, ("payload-correction",) + key)))


def _cancelling(code, rng) -> dict:
    """Two entries whose terms cancel at one syndrome coordinate i: v2 * a2[i] = -(v1 * a1[i])."""
    alg, draw = code.algebra, code._random_column_payloads
    i = rng.randrange(code.m)
    a1 = a2 = None
    while a1 is None or a1 == a2 or alg._is_zero(a1[i]) or alg._is_zero(a2[i]):
        a1, a2 = draw(rng), draw(rng)
    v1 = alg._random_nonzero(rng)
    return {a1: v1, a2: alg._solve_right(a2[i], alg._neg(alg._mul(v1, a1[i])))}


def _corrected(code, word: dict) -> dict:
    """word with the oracle's correction added, as decode adds it."""
    alg, out = code.algebra, dict(word)
    fix = oracle.payload_correction(code, word.items())
    if fix is not None:
        a0, value = fix
        if a0 in out:
            value = alg._add(out[a0], value)
        if alg._is_zero(value):
            del out[a0]
        else:
            out[a0] = value
    return out


def _words(code, rng) -> list[dict]:
    """WORDS seeded words, as maps from column payloads to nonzero value payloads, of four kinds in
    turn: codewords, entries at identity columns, a cancelling pair with up to one more entry, and
    one to four random entries."""
    draw, value = code._random_column_payloads, code.algebra._random_nonzero
    identity = [col.payloads for col in code.identity_columns()]
    words = []
    for k in range(WORDS):
        if k % 4 == 1:
            word = {a: value(rng) for a in rng.sample(identity, rng.randint(1, code.m))}
            if rng.random() < 0.5:
                word[draw(rng)] = value(rng)
        elif k % 4 == 2:
            word = _cancelling(code, rng)
            if rng.random() < 0.5:
                word.setdefault(draw(rng), value(rng))
        else:
            word = {draw(rng): value(rng) for _ in range(rng.randint(1, 4))}
        words.append(_corrected(code, word) if k % 4 == 0 else word)
    return words


# (algebra, m, pivots): the right unit at every position, or the pivots listed
CODES = {f"{name}-{m}": (name, m, None) for name in NAMES for m in (2, 3, 4)}
CODES.update({"quaternions-pivots-3": ("quaternions", 3, "i,1+j,2-k"), "gf729-pivots-2": ("gf729", 2, "t,2t+1")})


@pytest.mark.parametrize("case", CODES)
def test_correction_decode_and_syndromes_match_the_oracle(case):
    name, m, pivots = CODES[case]
    alg = _algebra(name)
    code = HammingCode(alg, m, pivots and [alg.parse(p) for p in pivots.split(",")])
    zero = alg._zero()
    assert alg.order is None or alg.order > FLAT_LIMIT
    assert code._correction == code._payload_correction and code._syndrome == code._syndrome_payloads
    seen = {"codeword": 0, "zero tail coordinate": 0, "cancelled coordinate": 0}
    for word in _words(code, _rng(case)):
        terms = list(word.items())
        fix = oracle.payload_correction(code, terms)
        assert code._correction(terms) == fix
        got = code.decode(FinVec._checked(alg, m, word))
        assert list(got._map.items()) == list(_corrected(code, word).items())
        assert code.contains(got) and code.contains(FinVec._checked(alg, m, word)) == (fix is None)
        for right in (False, True):
            assert code._syndrome_payloads(terms, right) == oracle.syndrome_payloads(code, terms, right)
        z = oracle.syndrome_payloads(code, terms)
        seen["codeword"] += fix is None
        if fix is not None:  # a zero syndrome coordinate after the head divides to zero
            beta = next(i for i, e in enumerate(fix[0]) if e != zero)
            seen["zero tail coordinate"] += zero in fix[0][beta + 1:]
        seen["cancelled coordinate"] += any(
            alg._is_zero(c) and sum(not alg._is_zero(a[i]) for a in word) > 1 for i, c in enumerate(z))
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", NAMES)
def test_zero_annihilates_and_adds_nothing(name):
    # the zero shortcuts are exact only where v * 0 = 0 * v = 0 and 0 + x = x + 0 = x
    alg, rng = _algebra(name), _rng("zero", name)
    zero = alg._zero()
    for _ in range(WORDS):
        v = alg._random(rng)
        assert alg._mul(v, zero) == alg._mul(zero, v) == zero
        assert alg._add(zero, v) == alg._add(v, zero) == v
