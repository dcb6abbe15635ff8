"""Law auditor behavior on algebras whose properties are known in advance.

The "known" side is established independently: fields satisfy every law by
definition, the twisted-multiplication tables were checked by hand against the
twist formula in test_algebra, and the relabeled-addition table below is a
worked example whose distributivity failure is verified by direct arithmetic
inside the test.  The exhaustive audit reads whole table rows; it is checked
against the per-case audit kept in audit_oracle, report lines and case counts
alike, over fields, every isotope of gf4 and gf9, the opposites of these and
of the gf8 isotopes, seeded quasigroup tables, and tables on which a proof
pass with too few generators, the wrong generators or no check of the
addition would pass a law that fails.  The sampled audit, whose probe cases
share their products within a call, is checked against the one-loop sampled
audit kept in audit_oracle over the infinite algebras and two large prime
fields, and must leave no state on the algebra.
"""
import copy
import random

import pytest

import audit_oracle as oracle
from quasicode import (
    CayleyTableAlgebra,
    InvalidParameterError,
    UnsupportedError,
    axiom_audit,
    make_isotope,
    resolve_preset,
)
from quasicode.algebra.audit import LAW_NAMES, _generators, algebra_laws, law_witness, table_rows


@pytest.mark.parametrize("name", ["f2", "f3", "f5", "gf4", "gf9"])
def test_fields_pass_every_law(name):
    rep = axiom_audit(resolve_preset(name))
    assert rep.mode == "exhaustive"
    for law in LAW_NAMES:
        assert rep.law(law).holds is True, law


def test_isotope_audit_flags(gf9_isotope):
    rep = axiom_audit(gf9_isotope)
    holds = {law for law in LAW_NAMES if rep.law(law).holds}
    assert holds == {
        "left_distributive",
        "right_distributive",
        "left_solvable",
        "right_solvable",
        "right_unit",
    }
    one, t = gf9_isotope.parse("1"), gf9_isotope.parse("t")
    assert rep.law("associative").witness == (one, one, t)
    assert rep.law("left_unit").witness == (one, t)
    assert rep.law("alternative").witness == (one, t)


def test_witness_is_lexicographically_smallest(gf9_isotope):
    rep = axiom_audit(gf9_isotope)
    elems = sorted(gf9_isotope.elements())
    first = next(
        (x, y) for x in elems for y in elems if x * y != y * x
    )
    assert rep.law("commutative").witness == first


def test_quasigroup_flags_positive_for_any_isotope():
    gf4 = resolve_preset("gf4")
    rep = axiom_audit(make_isotope(gf4, gf4.parse("t")))
    assert rep.law("left_solvable").holds is True
    assert rep.law("right_solvable").holds is True
    assert rep.law("right_unit").holds is True
    assert rep.law("left_unit").holds is False


def test_sampled_rationals_all_hold(rationals):
    rep = axiom_audit(rationals, mode="sampled", trials=200, seed=1)
    assert rep.mode == "sampled"
    for law in LAW_NAMES:
        assert rep.law(law).holds is True, law


def test_sampled_quaternions(quaternions):
    rep = axiom_audit(quaternions, mode="sampled", trials=300, seed=0)
    i, j = quaternions.parse("i"), quaternions.parse("j")
    comm = rep.law("commutative")
    assert comm.holds is False
    assert comm.witness == (i, j)
    for law in ("left_distributive", "right_distributive", "associative",
                "alternative", "two_sided_unit"):
        assert rep.law(law).holds is True, law


def test_sampled_octonions(octonions):
    rep = axiom_audit(octonions, mode="sampled", trials=300, seed=0)
    assoc = rep.law("associative")
    assert assoc.holds is False
    e1, e2, e4 = (octonions.parse(s) for s in ("e1", "e2", "e4"))
    assert assoc.witness == (e1, e2, e4)
    assert rep.law("alternative").holds is True
    assert rep.law("commutative").holds is False


def test_exhaustive_on_infinite_rejected(rationals, quaternions):
    with pytest.raises(UnsupportedError):
        axiom_audit(rationals, mode="exhaustive")
    with pytest.raises(UnsupportedError):
        axiom_audit(quaternions)


def _relabeled_add_table():
    # nonzero product = shifted index addition: x*y = ((x-1)+(y-1) mod 4)+1.
    # Multiplication alone is a commutative group, but it ignores the additive
    # structure, so both distributive laws fail: (1+1)*2 = 3 yet 1*2+1*2 = 4.
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = ((i - 1) + (j - 1)) % 4 + 1
    return add, mul


def test_nondistributive_table_audit():
    add, mul = _relabeled_add_table()
    alg = CayleyTableAlgebra(add, mul, label="z5-shift")
    two = alg.parse("2")
    one = alg.parse("1")
    assert (one + one) * two != one * two + one * two
    rep = axiom_audit(alg)
    assert rep.law("left_distributive").holds is False
    assert rep.law("right_distributive").holds is False
    assert rep.law("left_solvable").holds is True
    assert rep.law("right_solvable").holds is True
    assert rep.law("associative").holds is True
    assert rep.law("two_sided_unit").holds is True


def test_report_lines_shape(f3):
    lines = axiom_audit(f3).lines()
    assert lines[0].startswith("algebra: f3 (digest ")
    assert lines[1] == "mode: exhaustive"
    law_lines = lines[2:]
    assert len(law_lines) == len(LAW_NAMES)
    for name, line in zip(LAW_NAMES, law_lines):
        assert line.startswith(f"law {name}: ")


def test_sampled_reports_are_deterministic(octonions):
    a = axiom_audit(octonions, mode="sampled", trials=120, seed=7)
    b = axiom_audit(octonions, mode="sampled", trials=120, seed=7)
    assert a.lines() == b.lines()


# -- the row kernels against the per-case oracle ------------------------------------------


def _isotopes(name):
    base = resolve_preset(name)
    out = []
    for a in base.elements():
        try:
            out.append(make_isotope(base, a))
        except InvalidParameterError:
            continue
    return out


def _opposite(alg) -> CayleyTableAlgebra:
    """alg with x * y read as y * x: its left and right laws trade places."""
    mul = [list(col) for col in zip(*alg.mul_table)]
    return CayleyTableAlgebra([list(r) for r in alg.add_table], mul, label=f"opposite({alg.label})")


def _random_quasigroup(n: int, seed: int) -> CayleyTableAlgebra:
    """Z_n addition, and as multiplication a seeded Latin square on the nonzero elements."""
    rng = random.Random(f"quasigroup/{n}/{seed}")
    k = n - 1
    rows, cols, symbols = (rng.sample(range(k), k) for _ in range(3))
    mul = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            mul[rows[i] + 1][cols[j] + 1] = symbols[(i + j) % k] + 1
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    return CayleyTableAlgebra(add, mul, label=f"quasigroup-{n}-{seed}")


def _repeated_product_gf9():
    """gf9 with a product repeated in row 2: neither solvability holds."""
    alg = copy.copy(resolve_preset("gf9"))
    row = list(alg.mul_table[2])
    row[3] = row[4]
    alg.mul_table = alg.mul_table[:2] + (tuple(row),) + alg.mul_table[3:]
    return alg


def _sigma_gf25() -> CayleyTableAlgebra:
    """gf25 with the second factor precomposed by sigma(u + 5v) = ((u + v^2) mod 5) + 5v, so
    a(b + c) = ab + ac fails exactly when neither b nor c lies in f5: the prefixes (a, 1) of
    the additive generator 1 agree, and only those of the second generator 5 refute it."""
    gf25 = resolve_preset("gf25")
    sigma = [(u + v * v) % 5 + 5 * v for v in range(5) for u in range(5)]
    mul = [[row[sigma[y]] for y in range(25)] for row in gf25.mul_table]
    return CayleyTableAlgebra([list(r) for r in gf25.add_table], mul, label="gf25-sigma")


def _nonassociative_addition_gf9():
    """gf9 with 0 + 1 = 2 and 0 + 2 = 1: (0 + 0) + 1 != 0 + (0 + 1).  Left distributivity holds
    on every prefix (a, b) with b nonzero, so the additive generators 1 and t, which reach 0,
    do not refute it, and only the scan finds that t(0 + 1) != 0 + t."""
    alg = copy.copy(resolve_preset("gf9"))
    row = list(alg.add_table[0])
    row[1], row[2] = 2, 1
    alg.add_table = (tuple(row),) + alg.add_table[1:]
    return alg


FIELDS = ("f2", "f3", "f5", "f7", "gf4", "gf8", "gf9", "gf25")
def _right_alternative_row_table() -> CayleyTableAlgebra:
    """Z_6 addition and a Latin square whose first nonalternative row, that of 2, is right
    alternative: (2b)b = 2(bb) for every b, while 2(2b) = (22)b fails."""
    mul = [
        [0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5], [0, 2, 1, 4, 5, 3],
        [0, 4, 5, 1, 3, 2], [0, 5, 3, 2, 1, 4], [0, 3, 4, 5, 2, 1],
    ]
    add = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    return CayleyTableAlgebra(add, mul, label="right-alternative-row")


def _nonassociative_loop_table() -> CayleyTableAlgebra:
    """Z_6 addition and, on the nonzero elements, a loop of order 5 with unit 1, which cannot be
    associative (no group of order 5 has every square equal to 1).  The additive generator 1 is
    the unit, so Light's test on the additive generators passes; on the multiplicative ones it
    fails."""
    loop = [[1, 2, 3, 4, 5], [2, 1, 4, 5, 3], [3, 5, 1, 2, 4], [4, 3, 5, 1, 2], [5, 4, 2, 3, 1]]
    mul = [[0] * 6] + [[0, *row] for row in loop]
    add = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    return CayleyTableAlgebra(add, mul, label="nonassociative-loop")


AUDITED = (
    [(name, lambda name=name: resolve_preset(name)) for name in FIELDS]
    + [(f"isotope-{name}-{i}", lambda name=name, i=i: _isotopes(name)[i])
       for name in ("gf4", "gf9") for i in range(len(_isotopes(name)))]
    + [(f"opposite-isotope-{name}-{i}", lambda name=name, i=i: _opposite(_isotopes(name)[i]))
       for name in ("gf4", "gf8", "gf9") for i in range(len(_isotopes(name)))]
    + [("z5-shift", lambda: CayleyTableAlgebra(*_relabeled_add_table(), label="z5-shift"))]
    + [(f"quasigroup-{n}-{seed}", lambda n=n, seed=seed: _random_quasigroup(n, seed))
       for n in (4, 5, 6, 7) for seed in range(4)]
    + [("gf9-repeated-product", _repeated_product_gf9), ("right-alternative-row", _right_alternative_row_table)]
    + [("gf25-sigma", _sigma_gf25), ("gf9-nonassociative-addition", _nonassociative_addition_gf9),
       ("nonassociative-loop", _nonassociative_loop_table)]
)


@pytest.mark.parametrize("make", [make for _, make in AUDITED], ids=[name for name, _ in AUDITED])
def test_row_audit_matches_per_case_oracle(make):
    alg = make()
    got, want = axiom_audit(alg), oracle.axiom_audit_exhaustive(alg)
    assert got.lines() == want.lines()
    assert {n: c.cases for n, c in got.laws.items()} == {n: c.cases for n, c in want.laws.items()}
    for name in algebra_laws(alg):
        count, w = oracle.law_scan(alg, name)
        assert law_witness(alg, name) == oracle._scalarize(alg, w)


@pytest.mark.parametrize("make", [make for _, make in AUDITED], ids=[name for name, _ in AUDITED])
def test_generators_reach_every_element(make):
    # the proof pass is sound only when the rows of the generators reach every element
    els, mul, add, _ = table_rows(make())
    for table in (mul, add):
        gens = _generators(els, table)
        reached, todo = set(gens), list(gens)
        while todo:
            x = todo.pop()
            for s in gens:
                if table[x][s] not in reached:
                    reached.add(table[x][s])
                    todo.append(table[x][s])
        assert reached == set(els)


def test_oracle_corpus_reaches_every_failure():
    # the differential corpus refutes every law somewhere, so every witness branch is compared
    failed = set()
    for _, make in AUDITED:
        rep = axiom_audit(make())
        failed |= {name for name in LAW_NAMES if rep.law(name).holds is False}
    assert failed == set(LAW_NAMES)


def test_case_counts_are_totals_or_witness_ranks(gf9_isotope):
    rep = axiom_audit(gf9_isotope)
    q = gf9_isotope.order
    assert rep.law("left_distributive").cases == q**3
    assert rep.law("right_distributive").cases == q**3
    # (1, 1, t) is case 1*81 + 1*9 + 3 of the triples in scalar order 0 1 2 t ..., so the 94th
    assert [str(x) for x in rep.law("associative").witness] == ["1", "1", "t"]
    assert rep.law("associative").cases == 94
    assert rep.law("left_solvable").cases is None
    rationals = resolve_preset("rationals")
    sampled = axiom_audit(rationals, mode="sampled", trials=50, seed=3)
    assert sampled.law("commutative").cases == len(rationals.probe_values()[:8]) ** 2 + 50


@pytest.mark.parametrize("trials", [1, 20, 300])
@pytest.mark.parametrize("name", ["rationals", "quaternions", "octonions", "f257", "f2305843009213693951"])
def test_sampled_audit_matches_one_loop_oracle(name, trials):
    alg = resolve_preset(name)
    alg.digest()  # every report reads the digest, which the algebra caches on first use
    for seed in (0, 7, 29):
        state = dict(vars(alg))
        rep = axiom_audit(alg, mode="sampled", trials=trials, seed=seed)
        assert vars(alg) == state  # the probe caches live for the call only
        want = oracle.axiom_audit_sampled(alg, trials, seed)
        for law in LAW_NAMES:  # LawCheck equality compares holds, witness, note and cases
            assert rep.law(law) == want.laws[law], law
        assert rep.lines() == want.lines()


def test_sampled_octonion_laws_count_probe_cases_and_trials(octonions):
    # eight basis probes: a law that holds checks every probe case, then every trial
    rep = axiom_audit(octonions, mode="sampled", trials=20, seed=1)
    arities = {name: arity for name, (arity, _) in algebra_laws(octonions).items()}
    arities.update(left_solvable=2, right_solvable=2)
    held = [name for name in arities if rep.law(name).holds]
    assert set(held) == {"left_distributive", "right_distributive", "alternative", "left_solvable", "right_solvable"}
    assert [rep.law(name).cases for name in held] == [8 ** arities[name] + 20 for name in held]
