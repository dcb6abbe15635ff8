"""Integer-numerator rational, quaternion and octonion payloads against the Fraction oracles.

The payload operations, sort keys, literals and random draws must give what
the Fraction-tuple arithmetic in hypercomplex_oracle gives, on seeded values
that include zero components and large heights; every payload they return
must be in lowest terms.  The rationals must also compute what the former
bare-Fraction RationalField (FractionRationals) computed.  The sampled structural perfectness check on
payloads must produce the report of the Scalar-level check in hamming_oracle.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

import hamming_oracle
import hypercomplex_oracle as oracle
from quasicode import DomainError, HammingCode, QuaternionAlgebra, UnsupportedError, conjugate, resolve_preset
from quasicode.algebra.base import is_exact_int

CASES = 400


@pytest.fixture(scope="module", params=["quaternions", "octonions"])
def alg(request):
    return resolve_preset(request.param)


def _fractions(alg, rng) -> tuple:
    """A Fraction tuple with some zero components and mixed heights."""
    height = rng.choice((1, 3, 10, 1000))
    return tuple(
        Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-height, height), rng.randint(1, height))
        for _ in range(alg.dim)
    )


def assert_lowest_terms(alg, x):
    assert isinstance(x, tuple) and len(x) == alg.dim + 1
    assert all(is_exact_int(a) for a in x)
    assert x[-1] > 0
    assert gcd(*x) == 1


def test_arithmetic_matches_fraction_tuples(alg):
    rng = random.Random(f"arith/{alg.label}")
    for _ in range(CASES):
        u, v = _fractions(alg, rng), _fractions(alg, rng)
        x, y = alg._canonical(u), alg._canonical(v)
        results = {
            "add": (alg._add(x, y), oracle.add(u, v)),
            "neg": (alg._neg(x), oracle.neg(u)),
            "conj": (alg._conj(x), oracle.conj(u)),
            "mul": (alg._mul(x, y), oracle.mul(alg, u, v)),
        }
        if any(u):
            results["solve_left"] = (alg._solve_left(x, y), oracle.solve_left(alg, u, v))
            results["solve_right"] = (alg._solve_right(x, y), oracle.solve_right(alg, u, v))
        for name, (got, want) in results.items():
            assert_lowest_terms(alg, got)
            assert alg.components(got) == want, name
            assert got == alg._canonical(want), name
        assert alg._is_zero(x) == (not any(u))


def test_sort_key_and_literals_match_fraction_tuples(alg):
    rng = random.Random(f"format/{alg.label}")
    values = [_fractions(alg, rng) for _ in range(CASES)]
    payloads = [alg._canonical(u) for u in values]
    for u, x in zip(values, payloads):
        assert alg.sort_key(x) == oracle.sort_key(u)
        assert alg.format_value(x) == oracle.format_value(alg, u)
        assert alg.parse(alg.format_value(x)).value == x
    assert sorted(payloads, key=alg.sort_key) == [alg._canonical(u) for u in sorted(values, key=oracle.sort_key)]


@pytest.mark.parametrize("height", [1, 10, 50])
def test_random_draws_match_fraction_tuples(alg, height):
    ours, theirs = random.Random(height), random.Random(height)
    for _ in range(CASES):
        x = alg._random(ours, height)
        assert_lowest_terms(alg, x)
        assert alg.components(x) == oracle.random_value(alg, theirs, height)
    assert ours.getstate() == theirs.getstate()


def test_equal_values_have_one_payload(quaternions):
    half = quaternions.parse("1/2i")
    assert quaternions.parse("2/4i") == half
    assert hash(quaternions.parse("2/4i")) == hash(half)
    assert half.value == (0, 1, 0, 0, 2)
    assert quaternions.zero().value == (0, 0, 0, 0, 1)
    assert quaternions.parse("-3/6 + 0i + 4/8j").value == (-1, 0, 1, 0, 2)
    assert quaternions.scalar((Fraction(1, 3), 0, Fraction(-2, 6), 1)).value == (1, 0, -1, 3, 3)


# -- the rationals: the dim-1 payload (n, d) ----------------------------------------


def test_rational_payloads_match_the_fraction_field():
    rationals, fractions = resolve_preset("rationals"), oracle.FractionRationals()
    rng = random.Random("rationals")
    values = []
    for _ in range(CASES):
        (u,), (v,) = _fractions(rationals, rng), _fractions(rationals, rng)
        x, y = rationals._canonical(u), rationals._canonical(v)
        results = {
            "add": (rationals._add(x, y), fractions._add(u, v)),
            "neg": (rationals._neg(x), fractions._neg(u)),
            "mul": (rationals._mul(x, y), fractions._mul(u, v)),
        }
        if u:
            results["solve_left"] = (rationals._solve_left(x, y), fractions._solve_left(u, v))
            results["solve_right"] = (rationals._solve_right(x, y), fractions._solve_right(u, v))
        for name, (got, want) in results.items():
            assert_lowest_terms(rationals, got)
            assert rationals.components(got) == (want,), name
            assert rationals.format_value(got) == fractions.format_value(want), name
        values.append(u)
    payloads = [rationals._canonical(u) for u in values]
    want = [rationals._canonical(u) for u in sorted(values, key=fractions.sort_key)]
    assert sorted(payloads, key=rationals.sort_key) == want


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("height", [1, 10, 1000])
def test_rational_random_stream_is_pinned(seed, height):
    rationals, fractions = resolve_preset("rationals"), oracle.FractionRationals()
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(CASES):
        x = rationals.random_scalar(ours, height=height)
        assert rationals.components(x.value) == (fractions._random(theirs, height),)
    assert ours.getstate() == theirs.getstate()


def test_rational_scalars_take_exact_values_only():
    rationals = resolve_preset("rationals")
    for bad in (0.5, (0.5,), True):
        with pytest.raises(DomainError):
            rationals.scalar(bad)
    assert rationals.scalar(3).value == (3, 1)
    assert rationals.scalar(Fraction(1, 2)).value == (1, 2)
    assert rationals.scalar((Fraction(1, 2),)).value == (1, 2)
    assert rationals.parse("1/2").value == (1, 2)
    assert rationals.parse("-0.25").value == (-1, 4)


def test_conjugate_is_unsupported_over_the_rationals():
    message = "^conjugate is only defined over quaternions and octonions, not rationals$"
    with pytest.raises(UnsupportedError, match=message):
        conjugate(resolve_preset("rationals").parse("1/2"))


# bool and float components are covered by test_algebra.test_bool_and_float_payloads_rejected
@pytest.mark.parametrize("payload", [
    (0, 1, 0, 0, 2),  # a payload is not a value: dim components only
    (1, 2, 3),
    "1+i",
])
def test_canonical_rejects_non_component_tuples(quaternions, payload):
    with pytest.raises(DomainError):
        quaternions.scalar(payload)


# -- the sampled structural check against its Scalar-level version -----------------

CRITERION_2_CODES = [("rationals", 2), ("rationals", 3), ("rationals", 4),
                     ("quaternions", 2), ("quaternions", 3), ("octonions", 2)]


@pytest.mark.parametrize("name,m", CRITERION_2_CODES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_structural_check_matches_oracle(name, m, seed):
    code = HammingCode(resolve_preset(name), m)
    report = code.verify_perfect(mode="structural", trials=150, seed=seed)
    got = (report.property_a_ok, report.property_b_ok, report.witnesses)
    assert got == hamming_oracle.structural_sampled(code, 150, seed)
    assert got == (True, True, [])


class _OneSidedQuaternions(QuaternionAlgebra):
    """Quaternions whose left quotient is the right one: factorizations go wrong."""

    def _solve_left(self, a, c):
        return self._solve_right(a, c)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_structural_witnesses_match_oracle(m, seed):
    code = HammingCode(_OneSidedQuaternions(), m)
    report = code.verify_perfect(mode="structural", trials=50, seed=seed)
    got = (report.property_a_ok, report.property_b_ok, report.witnesses)
    assert got == hamming_oracle.structural_sampled(code, 50, seed)
    assert report.property_a_ok is False and len(report.witnesses) == 2
