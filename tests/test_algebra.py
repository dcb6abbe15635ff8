"""Scalar arithmetic against independent test-local oracles.

The Cayley-Dickson doubling below is written from scratch on plain tuples so
quaternion and octonion products are checked against a second derivation, not
against the code under test.
"""
import hashlib
import json
import operator
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from field_oracle import trial_is_irreducible, trial_is_prime
from quasicode import (
    CayleyTableAlgebra,
    DomainError,
    GaloisField,
    InvalidParameterError,
    Scalar,
    SpecFormatError,
    UnsupportedError,
    add,
    algebra_from_dict,
    conjugate,
    expand_scalar,
    make_isotope,
    mul,
    neg,
    resolve_algebra,
    resolve_preset,
    solve_left,
    solve_right,
    subfield_structure,
)
from quasicode.algebra.tables import ORDER_LIMIT, PrimeField, is_prime


# -- oracle: Cayley-Dickson doubling on nested pairs --------------------------------


def cd_mul(x, y):
    if isinstance(x, tuple):
        a, b = x
        c, d = y
        return (cd_sub(cd_mul(a, c), cd_mul(cd_conj(d), b)),
                cd_add(cd_mul(d, a), cd_mul(b, cd_conj(c))))
    return x * y


def cd_add(x, y):
    if isinstance(x, tuple):
        return (cd_add(x[0], y[0]), cd_add(x[1], y[1]))
    return x + y


def cd_sub(x, y):
    if isinstance(x, tuple):
        return (cd_sub(x[0], y[0]), cd_sub(x[1], y[1]))
    return x - y


def cd_conj(x):
    if isinstance(x, tuple):
        return (cd_conj(x[0]), cd_neg(x[1]))
    return x


def cd_neg(x):
    if isinstance(x, tuple):
        return (cd_neg(x[0]), cd_neg(x[1]))
    return -x


def nest(flat):
    if len(flat) == 1:
        return flat[0]
    half = len(flat) // 2
    return (nest(flat[:half]), nest(flat[half:]))


def flatten(x):
    if isinstance(x, tuple):
        return flatten(x[0]) + flatten(x[1])
    return [x]


def oracle_mul(u, v):
    return flatten(cd_mul(nest(list(u)), nest(list(v))))


def test_oracle_sanity():
    # i * j = k and i * i = -1 in the nested-pair arithmetic itself
    i = (1j, 0j)
    j = (0j, 1 + 0j)
    k = (0j, 0 + 1j)
    assert cd_mul(i, j) == k
    assert cd_mul(i, i) == (-1 + 0j, 0j)


def test_quaternion_mul_matches_doubling(quaternions):
    rng = random.Random(7)
    for _ in range(10000):
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        x = quaternions.scalar(tuple(u))
        y = quaternions.scalar(tuple(v))
        assert list(quaternions.components((x * y).value)) == oracle_mul(u, v)


def test_octonion_mul_matches_doubling(octonions):
    rng = random.Random(11)
    for _ in range(10000):
        u = [Fraction(rng.randint(-9, 9)) for _ in range(8)]
        v = [Fraction(rng.randint(-9, 9)) for _ in range(8)]
        x = octonions.scalar(tuple(u))
        y = octonions.scalar(tuple(v))
        assert list(octonions.components((x * y).value)) == oracle_mul(u, v)


def test_quaternion_defining_relations(quaternions):
    i, j, k = (quaternions.parse(s) for s in "ijk")
    minus_one = quaternions.parse("-1")
    assert i * i == j * j == k * k == minus_one
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j


def test_octonion_associator(octonions):
    e1, e2, e4, e7 = (octonions.parse(s) for s in ("e1", "e2", "e4", "e7"))
    assert (e1 * e2) * e4 == e7
    assert e1 * (e2 * e4) == -e7


def test_conjugation_is_an_antihomomorphism(quaternions, octonions):
    for alg, n in ((quaternions, 4), (octonions, 8)):
        rng = random.Random(n)
        for _ in range(10000):
            x = alg.random_scalar(rng, height=9)
            y = alg.random_scalar(rng, height=9)
            assert conjugate(x * y) == conjugate(y) * conjugate(x)


def test_quaternion_frozen_solves(quaternions):
    i, j, k = (quaternions.parse(s) for s in "ijk")
    assert solve_left(i, j) == -k  # i * (-k) = j
    assert solve_right(i, j) == k  # k * i = j
    assert i * solve_left(i, j) == j
    assert solve_right(i, j) * i == j


@pytest.mark.parametrize("preset", ["f3", "gf9-isotope", "quaternions"])
def test_module_level_operations_agree_with_the_operators(preset):
    alg = resolve_preset(preset)
    rng = random.Random(preset)
    xs = list(alg.elements()) if alg.is_finite else [alg.random_scalar(rng) for _ in range(12)]
    for a in xs:
        assert neg(a) == -a
        for b in xs:
            assert add(a, b) == a + b
            assert mul(a, b) == a * b


@pytest.mark.parametrize("op,function", [(operator.add, add), (operator.mul, mul)], ids=["add", "mul"])
def test_module_level_operations_refuse_mixed_algebras_as_the_operators_do(op, function, f3, quaternions):
    a, b = f3.parse("1"), quaternions.parse("i")
    with pytest.raises(DomainError) as want:
        op(a, b)
    with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
        function(a, b)


def test_solve_rejects_zero_divisor(quaternions):
    zero = quaternions.zero()
    one = quaternions.unit()
    with pytest.raises(DomainError):
        solve_left(zero, one)
    with pytest.raises(DomainError):
        solve_right(zero, one)


# -- prime and galois fields ------------------------------------------------------


def test_f5_solves_against_brute_force(f5):
    els = list(f5.elements())
    for a in els:
        if a.is_zero():
            continue
        for c in els:
            want = [x for x in els if a * x == c]
            assert len(want) == 1
            assert solve_left(a, c) == want[0]
            want_r = [x for x in els if x * a == c]
            assert solve_right(a, c) == want_r[0]
    assert solve_left(f5.parse("2"), f5.parse("3")) == f5.parse("4")


def gf9_oracle_mul(a, b):
    # (a0 + a1 t)(b0 + b1 t) mod t^2 + 1 over F_3
    c0 = (a[0] * b[0] - a[1] * b[1]) % 3
    c1 = (a[0] * b[1] + a[1] * b[0]) % 3
    return (c0, c1)


def test_gf9_mul_matches_polynomial_oracle(gf9):
    for a0 in range(3):
        for a1 in range(3):
            for b0 in range(3):
                for b1 in range(3):
                    x = gf9.scalar((a0, a1))
                    y = gf9.scalar((b0, b1))
                    assert gf9.coefficients((x * y).value) == gf9_oracle_mul((a0, a1), (b0, b1))


def test_gf_literals_round_trip(gf9):
    for x in gf9.elements():
        assert gf9.parse(str(x)) == x
    assert str(gf9.parse("2t+1")) == "2t+1"
    assert gf9.parse("t") * gf9.parse("t") == gf9.parse("2")  # t^2 = -1


@pytest.mark.parametrize("p,poly,stride", [
    (2, [1, 1, 1], 1),
    (2, [1, 1, 0, 1], 1),
    (3, [1, 0, 1], 1),
    (5, [1, 1, 1], 1),
    (3, [1, 0, 0, 0, 1, 1, 1], 1),  # gf729, above the flat-table bound
    (3, [2, 0, 0, 0, 1, 0, 0, 0, 1], 97),  # gf6561, above TABLE_LIMIT: every 97th exponent
])
def test_gf_power_literal_is_the_repeated_product(p, poly, stride):
    field = GaloisField(p, poly)
    t, two, power = field.parse("t"), field.parse("2"), field.unit()
    for d in range(3 * field.order):
        if d % stride == 0:
            assert field.parse(f"t^{d}") == power
            assert field.parse(f"2t^{d}+1") == two * power + field.unit()
        power = power * t


def test_gf_literal_with_a_huge_exponent_is_reduced(gf9):
    # t^2 = -1 in gf9, so t^4 = 1, and both exponents are 3 mod 4
    assert gf9.parse("t^99999999") == gf9.parse("t^3") == gf9.parse("2t")
    assert gf9.parse("t^" + "9" * 4000) == gf9.parse("2t")


def test_gf8_frobenius():
    gf8 = resolve_preset("gf8")
    # x -> x^2 is additive in characteristic 2
    for x in gf8.elements():
        for y in gf8.elements():
            s = x + y
            assert s * s == x * x + y * y


def test_reducible_modulus_rejected():
    with pytest.raises(InvalidParameterError):
        GaloisField(3, [2, 0, 1])  # t^2 + 2 = (t+1)(t+2) over F_3


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n) != trial_is_prime(n)] == []


@pytest.mark.parametrize("n,prime", [
    (2**31 - 1, True), (2**61 - 1, True), (2**61 + 1, False), (ORDER_LIMIT, False),
    (3825123056546413051, False),  # a strong pseudoprime to the bases 2..31
    (318665857834031151167461, False),  # a strong pseudoprime to the bases 2..37: base 41 decides it
])
def test_is_prime_decides_large_orders(n, prime):
    assert is_prime(n) is prime


def test_an_order_above_the_limit_is_refused():
    message = f"field order {ORDER_LIMIT + 1} exceeds the limit {ORDER_LIMIT}"
    for build in (lambda: is_prime(ORDER_LIMIT + 1), lambda: PrimeField(ORDER_LIMIT + 1)):
        with pytest.raises(InvalidParameterError, match=message):
            build()
    with pytest.raises(InvalidParameterError, match=f"field order 3\\^52 exceeds the limit {ORDER_LIMIT}"):
        GaloisField(3, [1] * 52 + [1])  # 3^51 is below the limit


def test_rabin_test_matches_trial_irreducibility(monkeypatch):
    # construction stops once the modulus is decided: no logarithms, no tables
    monkeypatch.setattr(GaloisField, "_build_logarithms", lambda self: None)
    monkeypatch.setattr(GaloisField, "_arithmetic", lambda self, *ops: None)
    irreducible = 0
    for p, degrees in ((2, range(2, 9)), (3, range(2, 5)), (5, range(2, 5)), (7, range(2, 5))):
        for k in degrees:
            for idx in range(p**k):
                modulus = [idx // p**i % p for i in range(k)] + [1]
                try:
                    GaloisField(p, modulus)
                    built = True
                except InvalidParameterError as exc:
                    assert "is reducible" in str(exc)
                    built = False
                assert built == trial_is_irreducible(modulus, p), (p, modulus)
                irreducible += built
    assert irreducible == 69 + 29 + 200 + 721  # Gauss's count of monic irreducibles of each degree


def test_non_monic_and_low_degree_modulus_rejected():
    with pytest.raises(InvalidParameterError):
        GaloisField(3, [1, 1, 2])
    with pytest.raises(InvalidParameterError):
        GaloisField(3, [1, 1])


def test_composite_characteristic_rejected():
    from quasicode import PrimeField

    with pytest.raises(InvalidParameterError):
        PrimeField(6)
    assert resolve_preset("f6") is None


def test_rationals_exact(rationals):
    half = rationals.parse("1/2")
    third = rationals.parse("1/3")
    assert rationals.components((half + third).value) == (Fraction(5, 6),)
    assert rationals.components(solve_left(half, rationals.unit()).value) == (2,)
    # decimal literals stay exact; malformed text is rejected
    assert rationals.components(rationals.parse("0.1").value) == (Fraction(1, 10),)
    with pytest.raises(SpecFormatError):
        rationals.parse("1/0")
    with pytest.raises(SpecFormatError):
        rationals.parse("abc")


@pytest.mark.parametrize("preset,payload", [
    ("f3", True),
    ("f3", 1.0),
    ("gf9", (1.7, 2.2)),
    ("gf9", (True, 0)),
    ("rationals", True),
    ("rationals", 0.5),
    ("quaternions", (True, 0, 0, 0)),
    ("quaternions", (0, 0.5, 0, 0)),
    ("octonions", (1, 0, 0, 0, 0, 0, 0, False)),
    ("gf9-isotope", True),
])
def test_bool_and_float_payloads_rejected(preset, payload):
    with pytest.raises(DomainError):
        resolve_preset(preset).scalar(payload)


def test_scalar_sort_order_is_stable(f5, gf9, rationals):
    assert [str(x) for x in sorted(f5.elements())] == ["0", "1", "2", "3", "4"]
    ordered = [str(x) for x in sorted(gf9.elements())]
    assert ordered[:4] == ["0", "1", "2", "t"]
    a = rationals.parse("1/2")
    b = rationals.parse("2")
    assert sorted([b, a]) == [a, b]


def test_mixed_algebra_operations_rejected(f3, f5):
    with pytest.raises(DomainError):
        f3.parse("1") + f5.parse("1")
    with pytest.raises(DomainError):
        f3.parse("2") * f5.parse("2")


def test_conjugate_unsupported_off_hypercomplex(f3):
    with pytest.raises(UnsupportedError):
        conjugate(f3.parse("1"))


def test_digest_is_stable_and_label_independent(f3):
    from quasicode import PrimeField

    assert f3.digest() == PrimeField(3, label="renamed").digest()
    assert f3.digest() == PrimeField(3).digest()


# -- subfield structure --------------------------------------------------------------


def test_expand_recombine_round_trip(gf9, quaternions, octonions):
    for alg in (gf9, quaternions, octonions):
        st = subfield_structure(alg)
        rng = random.Random(3)
        for _ in range(200):
            x = alg.random_scalar(rng)
            assert st.recombine(st.expand(x)) == x
    assert expand_scalar(gf9.parse("2t+1")) == (
        subfield_structure(gf9).coeff_field.parse("1"),
        subfield_structure(gf9).coeff_field.parse("2"),
    )


def test_structure_constants_reproduce_products(quaternions):
    st = subfield_structure(quaternions)
    cf = st.coeff_field

    def frac(c):
        return cf.components(c)[0]

    constants = [[[frac(c.value) for c in st.expand(bp * bq)] for bq in st.basis] for bp in st.basis]
    rng = random.Random(5)
    for _ in range(200):
        x = quaternions.random_scalar(rng)
        y = quaternions.random_scalar(rng)
        xc, yc = st.expand(x), st.expand(y)
        acc = [Fraction(0)] * st.dimension
        for p in range(st.dimension):
            for q in range(st.dimension):
                f = frac(xc[p].value) * frac(yc[q].value)
                for r in range(st.dimension):
                    acc[r] += f * constants[p][q][r]
        assert st.recombine([cf.scalar(a) for a in acc]) == x * y


# -- cayley tables and the isotope construction -----------------------------------------


def z_add_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_cayley_table_requires_permutation_rows():
    add = z_add_table(3)
    mul = [[0, 0, 0], [0, 1, 1], [0, 2, 2]]  # row 1 repeats 1
    with pytest.raises(SpecFormatError) as err:
        CayleyTableAlgebra(add, mul)
    assert "row 1" in str(err.value)


@pytest.mark.parametrize("entry", [1.0, True, "1", None])
def test_cayley_table_refuses_an_entry_that_is_no_int(entry):
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, entry]]
    with pytest.raises(SpecFormatError, match="mul table row 2 is not a valid index row"):
        CayleyTableAlgebra(z_add_table(3), mul)


def test_cayley_table_requires_zero_annihilation():
    add = z_add_table(3)
    mul = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]  # 0 * 1 = 1
    with pytest.raises(SpecFormatError):
        CayleyTableAlgebra(add, mul)


def test_cayley_table_requires_abelian_group_addition():
    add = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not a group table
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    with pytest.raises(SpecFormatError):
        CayleyTableAlgebra(add, mul)


def test_cayley_table_names_the_first_nonassociative_triple():
    # commutative, with identity 0 and an inverse for each element, but 1 + 1 = 3
    add = z_add_table(5)
    add[1][1] = 3
    mul = [[i * j % 5 for j in range(5)] for i in range(5)]
    with pytest.raises(SpecFormatError) as err:
        CayleyTableAlgebra(add, mul, label="z5-patched")
    assert str(err.value) == "z5-patched: addition is not associative at (1,1,2)"


def test_f3_as_cayley_table_matches_field(f3):
    add = z_add_table(3)
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    alg = CayleyTableAlgebra(add, mul, label="f3-table")
    for a in range(3):
        for b in range(3):
            lhs = Scalar(alg, a) * Scalar(alg, b)
            rhs = f3.parse(str(a)) * f3.parse(str(b))
            assert str(lhs) == str(rhs)


def u_swap_gf9(coeffs):
    # the prime-linear twist swapping 1 and t over GF(9) with basis {1, t}
    return (coeffs[1], coeffs[0])


def test_isotope_mul_matches_direct_twist(gf9, gf9_isotope):
    names = [str(x) for x in sorted(gf9.elements())]
    for xs in names:
        for ys in names:
            x = gf9.parse(xs)
            y = gf9.parse(ys)
            twisted = u_swap_gf9(gf9_oracle_mul(u_swap_gf9(gf9.coefficients(x.value)), gf9.coefficients(y.value)))
            got = gf9_isotope.parse(xs) * gf9_isotope.parse(ys)
            assert str(got) == str(gf9.scalar(twisted))


def test_isotope_frozen_product(gf9_isotope):
    one = gf9_isotope.parse("1")
    t = gf9_isotope.parse("t")
    assert str(one * t) == "2t"
    assert one * one == one
    assert gf9_isotope.order == 9


def test_isotope_has_right_unit_only(gf9_isotope):
    assert gf9_isotope.right_unit() == gf9_isotope.parse("1")
    assert gf9_isotope.left_unit() is None
    assert gf9_isotope.unit() is None


def test_isotope_rejects_prime_subfield_element(gf9):
    with pytest.raises(InvalidParameterError):
        make_isotope(gf9, gf9.parse("2"))


def test_isotope_accepts_gf4_and_rejects_unit():
    gf4 = resolve_preset("gf4")
    # only +-1 square to 1 in a field, and both sit in the prime subfield, so the
    # twist's a^2 != 1 requirement is automatic once a is outside it
    gf25 = resolve_preset("gf25")
    squares_to_one = {x for x in gf25.nonzero_elements() if x * x == gf25.unit()}
    assert squares_to_one == {gf25.parse("1"), gf25.parse("4")}
    with pytest.raises(InvalidParameterError):
        make_isotope(gf25, gf25.parse("1"))
    iso4 = make_isotope(gf4, gf4.parse("t"))
    assert iso4.order == 4


def test_isotope_rejects_bad_v_matrix(gf9):
    with pytest.raises(InvalidParameterError):
        make_isotope(gf9, gf9.parse("t"), v_matrix=[[1, 0], [2, 0]])  # singular
    with pytest.raises(InvalidParameterError):
        make_isotope(gf9, gf9.parse("t"), v_matrix=[[1, 1], [0, 1]])  # moves 1


@pytest.mark.parametrize("entry", [1.0, True, "1"])
def test_isotope_refuses_a_v_entry_that_is_no_int(gf9, entry):
    with pytest.raises(InvalidParameterError, match="V must be a 2x2 matrix over f3"):
        make_isotope(gf9, gf9.parse("t"), v_matrix=[[1, 0], [0, entry]])


# -- spec files ------------------------------------------------------------------------


def test_algebra_from_dict_round_trip(tmp_path):
    from quasicode import parse_algebra_spec, write_algebra_spec

    specs = [
        {"kind": "prime-field", "p": 7},
        {"kind": "galois-field", "p": 3, "poly": [1, 0, 1]},
        {"kind": "quaternions"},
        {"kind": "isotope", "base": "gf9", "a": "t"},
    ]
    for data in specs:
        alg = algebra_from_dict(data)
        path = tmp_path / "alg.json"
        write_algebra_spec(alg, path)
        again = parse_algebra_spec(path)
        assert again.digest() == alg.digest()


def test_equality_and_hashing_need_no_digest():
    # equality and hashing read the canonical spec, never the digest; the digest's sha256 comes
    # from CPython's builtin module, so neither hashlib nor OpenSSL (_hashlib) is ever loaded
    code = """
import sys
import quasicode as qc
a, b = qc.resolve_preset("gf9"), qc.GaloisField(3, [1, 0, 1], label="gf9")
assert a is not b and a == b and hash(a) == hash(b) and a != qc.resolve_preset("gf25")
assert a._digest is None and b._digest is None
assert a.digest() == b.digest()
assert "_hashlib" not in sys.modules and "hashlib" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True)


# -- oracle: the digest by hashlib ------------------------------------------------------


def hashlib_digest(alg) -> str:
    """The digest as it was computed before it took sha256 from CPython's builtin module."""
    return hashlib.sha256(alg._canonical_spec().encode()).hexdigest()[:12]


DIGEST_PRESETS = ["f2", "f3", "f5", "f7", "f4", "gf4", "gf8", "gf9", "gf25", "gf9-isotope",
                  "rationals", "quaternions", "octonions"]
DIGEST_SPECS = {  # one spec file per kind
    "prime": {"kind": "prime-field", "p": 11},
    "galois": {"kind": "galois-field", "p": 5, "poly": [2, 0, 1]},
    "cayley": {"kind": "cayley-table", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "label": "z2"},
    "isotope": {"kind": "isotope", "base": {"kind": "galois-field", "p": 3, "poly": [1, 2, 0, 1]}, "a": "t",
                "V": [[1, 0, 1], [0, 1, 1], [0, 0, 2]]},
    "rationals": {"kind": "rationals"},
    "quaternions": {"kind": "quaternions"},
    "octonions": {"kind": "octonions"},
}


def _digest_cases(tmp_path) -> list[str]:
    """The presets, then a path to each spec file."""
    paths = []
    for kind, data in DIGEST_SPECS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return DIGEST_PRESETS + paths


def test_digest_matches_hashlib(tmp_path):
    algebras = [resolve_algebra(case) for case in _digest_cases(tmp_path)]
    assert [alg.digest() for alg in algebras] == [hashlib_digest(alg) for alg in algebras]


def test_digest_falls_back_to_hashlib_without_the_builtin_module(tmp_path):
    cases = _digest_cases(tmp_path)
    code = f"""
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None  # neither builtin module imports
from quasicode import resolve_algebra
print(" ".join(resolve_algebra(case).digest() for case in {cases!r}))
assert "_hashlib" in sys.modules
"""
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert run.stdout.split() == [hashlib_digest(resolve_algebra(case)) for case in cases]


def test_algebra_from_dict_reports_missing_field():
    with pytest.raises(SpecFormatError) as err:
        algebra_from_dict({"kind": "prime-field"})
    assert "p" in str(err.value)


def test_unknown_preset_rejected():
    with pytest.raises(SpecFormatError):
        algebra_from_dict({"kind": "nonsense"})
    assert resolve_preset("f11").order == 11
    assert resolve_preset("no-such-thing") is None
