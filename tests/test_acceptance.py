"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the criterion lines
inline; each test also carries the full check so plain pytest reports the
same verdicts.
"""
import itertools
import random
import time

import hamming_oracle
from quasicode import (
    BasisChange,
    ChoiceFunction,
    Column,
    FinVec,
    HammingCode,
    apply_isometry,
    axiom_audit,
    basis_change_isomorphism,
    choice_isomorphism,
    conjugate_code_check,
    distinguish_invariant,
    enumerate_choice_codewords,
    membership_by_reduction,
    module_axiom_check,
    nonassoc_witness,
    resolve_preset,
    right_linearity_witness,
)

ALL_PRESETS = [
    "f2",
    "f3",
    "f5",
    "gf4",
    "gf8",
    "gf9",
    "gf25",
    "gf9-isotope",
    "rationals",
    "quaternions",
    "octonions",
]


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _corrupt_one(code, c, rng):
    alg = code.algebra
    a = code.random_column(rng)
    v = alg.random_scalar(rng)
    while v == c.get(a):
        v = alg.random_scalar(rng)
    return c - FinVec.single(a, c.get(a)) + FinVec.single(a, v), a


def test_criterion_01_sphere_packing():
    start = time.perf_counter()
    expected = [("f2", 2, 2, 8), ("f2", 3, 16, 128), ("f3", 2, 9, 81), ("gf4", 2, 64, 1024)]
    results = []
    for preset, m, size, total in expected:
        alg = resolve_preset(preset)
        code = HammingCode(alg, m)
        words = code.enumerate_codewords()
        n, q = code.column_count(), alg.order
        results.append(len(words) == size and len(words) * (1 + n * (q - 1)) == total == q**n)
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 5.0
    _line(1, ok, f"4 exhaustive identities, {elapsed:.1f}s")


def test_criterion_02_structural_perfectness():
    start = time.perf_counter()
    jobs = [("gf9-isotope", 2), ("rationals", 2), ("rationals", 3), ("rationals", 4),
            ("quaternions", 2), ("quaternions", 3), ("octonions", 2)]
    verdicts = []
    for preset, m in jobs:
        code = HammingCode(resolve_preset(preset), m)
        rep = code.verify_perfect(mode="structural", trials=10000, seed=0)
        verdicts.append(rep.verdict)
    elapsed = time.perf_counter() - start
    ok = all(verdicts) and elapsed < 30.0
    _line(2, ok, f"{len(jobs)} codes, 10^4 trials each infinite, {elapsed:.1f}s")


def test_criterion_03_decoder_round_trip():
    checked = 0
    for name in ALL_PRESETS:
        alg = resolve_preset(name)
        code = HammingCode(alg, 2)
        rng = random.Random(0)
        for _ in range(1000):
            c = code.random_codeword(rng)
            y, _ = _corrupt_one(code, c, rng)
            assert code.decode(y) == c, name
            checked += 1
    f2 = resolve_preset("f2")
    code = HammingCode(f2, 3)
    one = f2.parse("1")
    exhaustive = 0
    for c in code.enumerate_codewords():
        for a in code.enumerate_columns():
            flipped = c + FinVec.single(a, one)
            assert code.decode(flipped) == c
            exhaustive += 1
    ok = checked == 1000 * len(ALL_PRESETS) and exhaustive == 112
    _line(3, ok, f"{checked} random trials across {len(ALL_PRESETS)} presets, 112 exhaustive flips")


def test_criterion_04_module_reconstruction():
    f2 = resolve_preset("f2")
    f3 = resolve_preset("f3")
    q = resolve_preset("quaternions")
    code2 = HammingCode(f2, 3)
    code3 = HammingCode(f3, 2)
    codeq = HammingCode(q, 2)
    r2 = module_axiom_check(code2, mode="exhaustive")
    r3 = module_axiom_check(code3, mode="exhaustive")
    rq = module_axiom_check(codeq, trials=1000, seed=0)
    small = [x for x in hamming_oracle.all_ambient_vectors(code2) if x.norm() <= 4]
    agree = all(membership_by_reduction(code2, x) == code2.contains(x) for x in small)
    rng = random.Random(1)
    quat_checked = 0
    for _ in range(1000):
        c = codeq.random_codeword(rng)
        x = c if rng.random() < 0.5 else _corrupt_one(codeq, c, rng)[0]
        assert membership_by_reduction(codeq, x) == codeq.contains(x)
        quat_checked += 1
    ok = (r2.verdict and r3.verdict and rq.verdict and agree
          and len(small) == 99 and quat_checked == 1000)
    _line(4, ok, f"axioms f2/f3 exhaustive + 10^3 quaternion triples; membership on {len(small)}+1000 vectors")


def test_criterion_05_nonassociativity_witnesses():
    found = []
    for preset in ("gf9-isotope", "octonions"):
        code = HammingCode(resolve_preset(preset), 2)
        rep = nonassoc_witness(code)
        v = rep.violation
        found.append(rep.verdict and v is not None and 1 <= v.norm() <= 2
                     and not code.contains(v))
    absent = []
    for preset in ("f2", "f3", "f5", "quaternions"):
        rep = nonassoc_witness(HammingCode(resolve_preset(preset), 2))
        absent.append(rep.verdict and rep.triple is None
                      and any("associative: no witness" in ln for ln in rep.lines()))
    ok = all(found) and all(absent)
    _line(5, ok, "verified escapes for gf9-isotope and octonions; none for 4 associative presets")


def test_criterion_06_distinguishing_invariant():
    start = time.perf_counter()
    verdicts = []
    for preset in ("f2", "f3"):
        alg = resolve_preset(preset)
        rep = distinguish_invariant(HammingCode(alg, 2), HammingCode(alg, 3))
        verdicts.append(rep.verdict and rep.mode == "exhaustive")
    q = resolve_preset("quaternions")
    rep = distinguish_invariant(HammingCode(q, 2), HammingCode(q, 3), samples=100, seed=0)
    verdicts.append(rep.verdict and rep.mode == "sampled")
    elapsed = time.perf_counter() - start
    ok = all(verdicts) and elapsed < 60.0
    _line(6, ok, f"f2/f3 exact + 100 sampled quaternion sets, {elapsed:.1f}s")


def test_criterion_07_choice_and_basis_isomorphisms():
    f3 = resolve_preset("f3")
    code = HammingCode(f3, 2)
    cols = code.enumerate_columns()
    nonzero = [f3.parse("1"), f3.parse("2")]
    choices = [
        ChoiceFunction(f3, mapping=dict(zip(cols, values)))
        for values in itertools.product(nonzero, repeat=4)
    ]
    assert len(choices) == 16
    codewords = [set(enumerate_choice_codewords(code, e)) for e in choices]
    pair_count = 0
    for i, j in itertools.combinations(range(16), 2):
        iso = choice_isomorphism(code, choices[i], choices[j])
        image = {apply_isometry(iso, w) for w in codewords[i]}
        assert image == codewords[j], (i, j)
        pair_count += 1

    f2 = resolve_preset("f2")
    code2 = HammingCode(f2, 3)
    words = set(code2.enumerate_codewords())
    rng = random.Random(4)
    comp_count = 0
    for _ in range(20):
        change = BasisChange.identity(f2, 3)
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(3), 2)
            if rng.random() < 0.5:
                change = change.compose(BasisChange.swap(f2, 3, i, j))
            else:
                change = change.compose(BasisChange.shear(f2, 3, i, j, f2.parse("1")))
        iso = basis_change_isomorphism(code2, change)
        assert {apply_isometry(iso, w) for w in words} == words
        comp_count += 1
    ok = pair_count == 120 and comp_count == 20
    _line(7, ok, "16 choice codes pairwise isomorphic (120 pairs); 20 elementary compositions fix the f2 code")


def test_criterion_08_right_linearity():
    confirmed = []
    for preset in ("f3", "f5"):
        rep = right_linearity_witness(HammingCode(resolve_preset(preset), 2))
        confirmed.append(rep.verdict and rep.mode == "exhaustive" and rep.commutative)
    q = resolve_preset("quaternions")
    code = HammingCode(q, 2)
    rep = right_linearity_witness(code)
    g, gamma = rep.witness_codeword, rep.witness_scalar
    witness_ok = (rep.verdict and g is not None
                  and code.contains(g) and not code.contains(g.scalar_mul_right(gamma)))
    ok = all(confirmed) and witness_ok
    _line(8, ok, "f3/f5 two-sided; quaternion escape witness verified")


def test_criterion_09_conjugate_code():
    q = resolve_preset("quaternions")
    rep = conjugate_code_check(HammingCode(q, 2), samples=1000, seed=0)
    ok = rep.verdict and rep.passes == 1000 and not rep.failures
    _line(9, ok, f"{rep.passes}/1000 conjugated codewords in the right code")


def test_criterion_10_determinism():
    q = resolve_preset("quaternions")
    oc = resolve_preset("octonions")
    r = resolve_preset("rationals")
    reruns = [
        lambda: HammingCode(oc, 2).verify_perfect(trials=500, seed=11).lines(),
        lambda: distinguish_invariant(HammingCode(q, 2), HammingCode(q, 3), samples=40, seed=11).lines(),
        lambda: module_axiom_check(HammingCode(q, 2), trials=200, seed=11).lines(),
        lambda: right_linearity_witness(HammingCode(r, 2), trials=60, seed=11).lines(),
        lambda: conjugate_code_check(HammingCode(q, 2), samples=100, seed=11).lines(),
        lambda: axiom_audit(oc, mode="sampled", trials=100, seed=11).lines(),
    ]
    stable = all(fn() == fn() for fn in reruns)
    _line(10, stable, f"{len(reruns)} sampled reports byte-identical on rerun")
