"""Pair arithmetic and seeded draws on payloads against the object versions they replaced.

The module axioms run on scalar payloads and pair keys in both modes, and the
seeded draws of a nonzero scalar and a canonical column have one payload
implementation each (Algebra._random_nonzero, HammingCode._random_column_payloads).
hamming_oracle keeps the object draws and the object-level sampled check: the
reports must match line for line, each draw must give the same payloads and
leave the generator in the same state, and a passing check must build no
PairElement.
"""
import random
import re

import pytest

import hamming_oracle as oracle
from broken_decoders import DoublingDecoder
from quasicode import (
    Column,
    DomainError,
    FinVec,
    HammingCode,
    PairElement,
    module_axiom_check,
    pair_add,
    pair_scalar_mul,
    random_pair,
    resolve_preset,
)

INFINITE = ["rationals", "quaternions", "octonions"]
FINITE = ["f3", "gf4", "gf9-isotope"]


def _code(preset: str, m: int = 2) -> HammingCode:
    if preset == "f3-doubling":
        return DoublingDecoder(resolve_preset("f3"), m)
    return HammingCode(resolve_preset(preset), m)


# -- sampled reports -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 19])
@pytest.mark.parametrize("preset", INFINITE + FINITE + ["f3-doubling"])
def test_sampled_reports_match_the_object_check(preset, seed):
    # octonions and the gf9 isotope refute scalar_distributes_over_pairs, the doubling decoder add_associative
    code = _code(preset)
    got = module_axiom_check(code, mode="sampled", trials=30, seed=seed).lines()
    assert got == oracle.module_axioms_sampled(code, 30, seed).lines()
    assert any("VIOLATED" in line for line in got) == (preset in {"octonions", "gf9-isotope", "f3-doubling"})


def test_sampled_reports_match_the_object_check_at_m3():
    code = _code("quaternions", 3)
    assert module_axiom_check(code, trials=12, seed=4).lines() == oracle.module_axioms_sampled(code, 12, 4).lines()


# -- seeded draws --------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("preset", INFINITE + FINITE)
def test_payload_draws_match_the_object_draws(preset, m):
    code = _code(preset, m)
    alg = code.algebra
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for height in (10, 3, 1):
            assert alg._random_nonzero(ours, height) == oracle.random_scalar(alg, theirs, True, height).value
            assert ours.getstate() == theirs.getstate()
            assert code._random_column_payloads(ours, height) == oracle.random_column(code, theirs, height).payloads
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("preset", INFINITE + FINITE)
def test_public_draws_match_the_object_draws(preset):
    code = _code(preset)
    alg = code.algebra
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for height in (10, 2):
            assert alg.random_scalar(ours, height=height) == oracle.random_scalar(alg, theirs, height=height)
            assert alg.random_scalar(ours, True, height) == oracle.random_scalar(alg, theirs, True, height)
            assert code.random_column(ours, height) == oracle.random_column(code, theirs, height)
            assert random_pair(code, ours, height) == oracle.random_pair(code, theirs, height)
            got, want = code.random_codeword(ours, height=height), oracle.random_codeword(code, theirs, height=height)
            assert list(got._map.items()) == list(want._map.items())
            assert ours.getstate() == theirs.getstate()


def test_random_codeword_draws_a_second_column_until_it_differs():
    # over f2 m=2 the three columns collide often, so the redraw loop runs
    code = _code("f2")
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        got, want = code.random_codeword(ours, pieces=3), oracle.random_codeword(code, theirs, pieces=3)
        assert got == want and ours.getstate() == theirs.getstate()


def test_sampled_perfectness_draws_match_the_object_check():
    for preset in INFINITE:
        code = _code(preset)
        for seed in range(5):
            rep = code.verify_perfect(mode="structural", trials=40, seed=seed)
            ok_a, ok_b, witnesses = oracle.structural_sampled(code, 40, seed)
            assert (rep.property_a_ok, rep.property_b_ok, rep.witnesses) == (ok_a, ok_b, witnesses)


# -- objects only at the boundary ----------------------------------------------------------


@pytest.fixture
def pair_inits(monkeypatch):
    """The argument tuples of every PairElement.__init__ call while the test runs."""
    calls = []
    init = PairElement.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairElement, "__init__", spy)
    return calls


@pytest.mark.parametrize("preset,mode", [("rationals", "sampled"), ("f3", "exhaustive")])
def test_a_passing_check_builds_no_pair_element(pair_inits, preset, mode):
    code = _code(preset)
    report = module_axiom_check(code, mode=mode, trials=40, seed=2)
    assert report.mode == mode and report.verdict
    assert pair_inits == []
    # the spy sees the public wrappers
    random_pair(code, random.Random(0))
    assert len(pair_inits) == 1


# -- the wrappers' errors ------------------------------------------------------------------


def test_pairs_outside_the_ambient_are_refused_as_finvec_refuses_them(code_f3_m2, f3, f5):
    one = f3.parse("1")
    u = PairElement(one, Column.parse("(1,1)", f3))
    longer = PairElement(one, Column.parse("(1,0,2)", f3))
    foreign = PairElement(f5.parse("1"), Column.parse("(1,0)", f5))
    for bad in (longer, foreign):
        with pytest.raises(DomainError) as want:
            FinVec(f3, 2, [(u.column, u.value), (bad.column, bad.value)])
        message = f"^{re.escape(str(want.value))}$"
        for left, right in ((u, bad), (bad, u), (bad, bad), (PairElement.zero(), bad)):
            with pytest.raises(DomainError, match=message):
                pair_add(code_f3_m2, left, right)
        with pytest.raises(DomainError, match=message):
            pair_scalar_mul(code_f3_m2, bad.value, bad)
    with pytest.raises(DomainError, match="^mixed algebras: operands live in f5 and f3$"):
        pair_scalar_mul(code_f3_m2, f5.parse("2"), u)
    assert pair_scalar_mul(code_f3_m2, f5.parse("0"), u) == PairElement.zero()
