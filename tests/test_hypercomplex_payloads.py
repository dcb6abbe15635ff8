"""Integer-numerator rational, quaternion and octonion payloads against the Fraction oracles.

The payload operations, sort keys, literals and random draws must give what
the Fraction-tuple arithmetic in hypercomplex_oracle gives, on seeded values
that include zero components and large heights; every payload they return
must be in lowest terms.  On the oracle's draws of all three algebras at
heights 1 to 1000, the zero test must say whether every component is zero,
also on x + (-x) and on products with a zero factor; the sort key must be the
Fraction key on products and quotients, whose entries outgrow the draws; and a product or quotient with the unit must
be the other operand.  The rationals must also compute what the former
bare-Fraction RationalField (FractionRationals) computed.  The sampled structural perfectness check on
payloads must produce the report of the Scalar-level check in hamming_oracle.
The inlined draws, of the one height 10, must consume the stream exactly as
random.Random.randint does, so a Python whose randint draws otherwise fails
here before any report changes.  The flat octonion product must be the
Cayley-Dickson one.  A trial or sample count of a sampled certificate that is
not a positive int is refused before anything is drawn.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

import hamming_oracle
import hypercomplex_oracle as oracle
from broken_decoders import OneSidedQuaternions
from quasicode import (
    ChoiceFunction,
    Column,
    DomainError,
    HammingCode,
    InvalidParameterError,
    OctonionAlgebra,
    QuaternionAlgebra,
    RationalField,
    UnsupportedError,
    axiom_audit,
    choice_isomorphism,
    conjugate,
    conjugate_code_check,
    distinguish_invariant,
    module_axiom_check,
    resolve_preset,
    right_linearity_witness,
)
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


# seeds that start the generator at different points, so the inlined rejection loops
# retry on different draws; each seed gives its own test id
PIN_SEEDS = [1, 2, 3, 4, 7, 8, 10, 15, 16, 31, 50, 1000]


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_random_draws_match_fraction_tuples(alg, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(CASES):
        x = alg._random(ours)
        assert_lowest_terms(alg, x)
        assert alg.components(x) == oracle.random_value(alg, theirs)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("preset", ["rationals", "quaternions", "octonions"])
def test_draw_order_is_pinned_to_randint(preset):
    # the object draws of hamming_oracle take every scalar from random.Random.randint
    code = HammingCode(resolve_preset(preset), 3)
    alg = code.algebra
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert alg._random_nonzero(ours) == hamming_oracle.random_scalar(alg, theirs, True).value
            assert code._random_column_payloads(ours) == hamming_oracle.random_column(code, theirs).payloads
        got, want = code.random_codeword(ours), hamming_oracle.random_codeword(code, theirs)
        assert list(got._map.items()) == list(want._map.items())
        assert ours.getstate() == theirs.getstate()


def test_flat_octonion_product_is_the_cayley_dickson_product(octonions):
    kernel = octonions._mul_int
    basis = [(0,) * i + (1,) + (0,) * (7 - i) + (1,) for i in range(8)]
    pairs = [(x, y) for x in basis for y in basis]
    rng = random.Random("cayley-dickson")
    for _ in range(2000):
        height = rng.choice((1, 9, 10**6))
        pairs.append(tuple(tuple(rng.randint(-height, height) for _ in range(8)) + (1,) for _ in range(2)))
    for x, y in pairs:
        assert kernel(x, y) == oracle.cayley_dickson(x, y)


def test_equal_values_have_one_payload(quaternions):
    half = quaternions.parse("1/2i")
    assert quaternions.parse("2/4i") == half
    assert hash(quaternions.parse("2/4i")) == hash(half)
    assert half.value == (0, 1, 0, 0, 2)
    assert quaternions.zero().value == (0, 0, 0, 0, 1)
    assert quaternions.parse("-3/6 + 0i + 4/8j").value == (-1, 0, 1, 0, 2)
    assert quaternions.scalar((Fraction(1, 3), 0, Fraction(-2, 6), 1)).value == (1, 0, -1, 3, 3)


# -- the zero test, the sort key and the unit on draws of all three algebras -------

DRAWN = ["rationals", "quaternions", "octonions"]


def _drawn(alg, seed) -> list:
    """(payload, Fraction tuple) pairs of the oracle's draws at heights 1 to 1000."""
    rng = random.Random(seed)
    values = [oracle.random_value(alg, rng, h) for h in [1, 2, 10, 1000] * (CASES // 8)]
    return [(alg._canonical(u), u) for u in values]


@pytest.mark.parametrize("preset", DRAWN)
def test_zero_test_is_every_component_zero(preset):
    alg = resolve_preset(preset)
    zero, fraction_zero = alg._zero(), (Fraction(0),) * alg.dim
    drawn, cases = _drawn(alg, f"zero/{preset}"), []
    for (x, u), (y, v) in zip(drawn[::2], drawn[1::2]):
        cases += [
            (x, u),
            (alg._add(x, alg._neg(x)), oracle.add(u, oracle.neg(u))),
            (alg._mul(x, zero), oracle.mul(alg, u, fraction_zero)),
            (alg._mul(zero, y), oracle.mul(alg, fraction_zero, v)),
            (alg._mul(x, y), oracle.mul(alg, u, v)),
        ]
    verdicts = [alg._is_zero(x) for x, _ in cases]
    assert verdicts == [not any(u) for _, u in cases]
    assert True in verdicts and False in verdicts
    assert zero == alg._canonical(fraction_zero)


@pytest.mark.parametrize("preset", DRAWN)
def test_sort_key_is_the_fraction_key_on_products_and_quotients(preset):
    alg = resolve_preset(preset)
    drawn = _drawn(alg, f"sort/{preset}")
    widest = 0
    for (x, u), (y, v) in zip(drawn, drawn[1:]):
        results = [(alg._mul(x, y), oracle.mul(alg, u, v))]
        if any(u):
            results += [(alg._solve_left(x, y), oracle.solve_left(alg, u, v)),
                        (alg._solve_right(x, y), oracle.solve_right(alg, u, v))]
        for got, want in results:
            assert alg.sort_key(got) == oracle.sort_key(want)
            widest = max(widest, *[abs(a) for a in got])
    assert widest > 1000  # past the entries of any one draw


@pytest.mark.parametrize("preset", DRAWN)
def test_the_unit_gives_back_the_other_operand(preset):
    alg = resolve_preset(preset)
    one, unit = alg._right_unit(), (Fraction(1),) + (Fraction(0),) * (alg.dim - 1)
    assert one == alg._left_unit() == alg._canonical(unit)
    for x, u in _drawn(alg, f"unit/{preset}"):
        assert alg._mul(x, one) == alg._mul(one, x) == x == alg._canonical(oracle.mul(alg, u, unit))
        assert alg._solve_left(one, x) == alg._solve_right(one, x) == alg._canonical(oracle.solve_left(alg, unit, u))
        if any(u):
            assert alg._solve_left(x, x) == alg._solve_right(x, x) == one


# -- the rationals: the dim-1 payload (n, d) ----------------------------------------


# (u, v) with equal denominators, sums that cancel, negative divisors and zero operands
RATIONAL_EDGES = [
    (Fraction(1, 6), Fraction(5, 6)),
    (Fraction(1, 6), Fraction(1, 6)),
    (Fraction(-3, 8), Fraction(-1, 8)),
    (Fraction(2, 3), Fraction(-2, 3)),
    (Fraction(-7, 10), Fraction(7, 10)),
    (Fraction(-3, 4), Fraction(5, 6)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(-5, 2), Fraction(0)),
    (Fraction(-9, 4), Fraction(3, 2)),
    (Fraction(0), Fraction(3, 7)),
    (Fraction(0), Fraction(0)),
]


def test_rational_payloads_match_the_fraction_field():
    rationals, fractions = resolve_preset("rationals"), oracle.FractionRationals()
    rng = random.Random("rationals")
    drawn = [(_fractions(rationals, rng)[0], _fractions(rationals, rng)[0]) for _ in range(CASES)]
    values = []
    for u, v in RATIONAL_EDGES + drawn:
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
        if u + v == 0:
            assert rationals._add(x, y) == (0, 1)
        values.append(u)
    payloads = [rationals._canonical(u) for u in values]
    want = [rationals._canonical(u) for u in sorted(values, key=fractions.sort_key)]
    assert sorted(payloads, key=rationals.sort_key) == want


@pytest.mark.parametrize("seed", range(36))
def test_rational_random_stream_is_pinned(seed):
    rationals, fractions = resolve_preset("rationals"), oracle.FractionRationals()
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(CASES):
        x = rationals.random_scalar(ours)
        assert rationals.components(x.value) == (fractions._random(theirs),)
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


# -- bad counts are refused ---------------------------------------------------------


def _counting(base):
    """An instance of the algebra class base that counts its draws."""

    class Counting(base):
        draws = 0

        def _random(self, rng):
            self.draws += 1
            return super()._random(rng)

    return Counting()


def _choice_isomorphism(code, trials):
    alg = code.algebra
    e2 = ChoiceFunction(alg, mapping={Column.parse("(0,1)", alg): alg.parse("i")})
    return choice_isomorphism(code, ChoiceFunction(alg), e2, trials=trials)


# name: (algebra, counted parameter, the check over a code with that count)
SAMPLED_CHECKS = {
    "verify_perfect": (QuaternionAlgebra, "trials", lambda code, n: code.verify_perfect(mode="structural", trials=n)),
    "verify_perfect_auto": (OctonionAlgebra, "trials", lambda code, n: code.verify_perfect(trials=n)),
    "module_axiom_check": (
        RationalField, "trials", lambda code, n: module_axiom_check(code, mode="sampled", trials=n)
    ),
    "axiom_audit": (OctonionAlgebra, "trials", lambda code, n: axiom_audit(code.algebra, mode="sampled", trials=n)),
    "conjugate_code_check": (QuaternionAlgebra, "samples", lambda code, n: conjugate_code_check(code, samples=n)),
    "distinguish_invariant": (
        RationalField, "samples",
        lambda code, n: distinguish_invariant(code, HammingCode(code.algebra, 3), samples=n),
    ),
    "right_linearity_witness": (RationalField, "trials", lambda code, n: right_linearity_witness(code, trials=n)),
    "choice_isomorphism": (QuaternionAlgebra, "trials", _choice_isomorphism),
    "weight3_batch": (RationalField, "trials", lambda code, n: code.weight3_batch(n, 0)),
}


@pytest.mark.parametrize("count", [0, -3, True, 2.0, "5", None])
@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_sampled_certificates_refuse_a_non_positive_count(check, count):
    base, name, run = SAMPLED_CHECKS[check]
    alg = _counting(base)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be a positive count, got "):
        run(HammingCode(alg, 2), count)
    assert alg.draws == 0
    run(HammingCode(alg, 2), 1)
    assert alg.draws > 0


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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_structural_witnesses_match_oracle(m, seed):
    code = HammingCode(OneSidedQuaternions(), m)
    report = code.verify_perfect(mode="structural", trials=50, seed=seed)
    got = (report.property_a_ok, report.property_b_ok, report.witnesses)
    assert got == hamming_oracle.structural_sampled(code, 50, seed)
    assert report.property_a_ok is False and len(report.witnesses) == 2
