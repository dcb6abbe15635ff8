"""The integer form of the subfield structure agrees with the coefficient-payload form it replaced.

structure_oracle keeps the former SubfieldStructure, whose coefficients are
payloads of the coefficient field and whose recombination multiplies embedded
coefficients by the basis.  On seeded draws over prime fields, Galois fields
(one above TABLE_LIMIT), the rationals, quaternions and octonions, expansion,
recombination and the basis-product constants must agree with it, and the
support witness solved on the integer terms must equal the one the oracle's
constants give.  The refusal tests make each of the three self-checks raise.
"""
import random

import pytest

import linalg_oracle
from quasicode import GaloisField, HammingCode, InconsistencyError, resolve_preset, subfield_structure, support_witness
from quasicode.algebra.fields import TABLE_LIMIT
from quasicode.algebra.hypercomplex import _lowest_terms
from quasicode.algebra.structure import SubfieldStructure
from structure_oracle import oracle_structure

NAMES = ["f5", "f2305843009213693951", "gf4", "gf8", "gf9", "gf25", "gf6561", "rationals", "quaternions", "octonions"]


def _algebra(name):
    if name == "gf6561":
        return GaloisField(3, [2, 0, 0, 0, 1, 0, 0, 0, 1], label="gf6561")
    return resolve_preset(name)


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, ("subfield-structure",) + key)))


def test_gf6561_is_above_table_limit():
    assert _algebra("gf6561").order > TABLE_LIMIT


@pytest.mark.parametrize("name", NAMES)
def test_terms_are_the_oracle_constants(name):
    alg = _algebra(name)
    st, oracle = subfield_structure(alg), oracle_structure(alg)
    assert (st.basis, st.dimension, st.modulus, st.coeff_field) == (
        oracle.basis, oracle.dimension, oracle.modulus, oracle.coeff_field)
    s = st.dimension
    for p, bp in enumerate(st.basis):
        for q, bq in enumerate(st.basis):
            assert [c.value for c in st.expand(bp * bq)] == list(oracle.constants_raw[p][q])

    def integer(c):
        if st.modulus:
            return c
        assert c[1] == 1  # every basis product has integer coordinates
        return c[0]

    const = oracle.constants_raw
    assert st.terms == tuple(
        tuple(tuple((q, integer(const[r][q][w])) for q in range(s) if integer(const[r][q][w])) for r in range(s))
        for w in range(s)
    )


@pytest.mark.parametrize("name", NAMES)
def test_expand_and_recombine_match_oracle(name):
    alg = _algebra(name)
    st, oracle = subfield_structure(alg), oracle_structure(alg)
    rng = _rng("draws", name)
    for _ in range(100):
        x = alg.random_scalar(rng, height=rng.choice([1, 10, 1000]))
        assert st.expand(x) == oracle.expand(x)
        assert st.recombine(st.expand(x)) == x
        coeffs = [st.coeff_field.random_scalar(rng) for _ in range(st.dimension)]
        assert st.recombine(coeffs) == oracle.recombine(coeffs)


@pytest.mark.parametrize("name", NAMES)
def test_support_witness_matches_oracle(name):
    alg = _algebra(name)
    code, oracle = HammingCode(alg, 2), oracle_structure(alg)
    rng = _rng("witness", name)
    found = {True: 0, False: 0}
    for size in [1, 2, 3] * 4:
        cols = set()
        while len(cols) < size:
            cols.add(code.random_column(rng))
        witness = support_witness(code, cols)
        assert witness == linalg_oracle.support_witness(code, cols, oracle)
        found[witness is None] += 1
    # three columns are always dependent at m = 2; one column never is
    assert found[False] > 0 and found[True] > 0


# -- the self-check refuses -------------------------------------------------------------


def test_refuses_constants_that_disagree_with_products():
    quaternions = resolve_preset("quaternions")
    with pytest.raises(InconsistencyError, match="structure constants disagree with multiplication at basis pair"):
        SubfieldStructure(
            quaternions, resolve_preset("rationals"), quaternions.basis_payloads(),
            lambda x: ((x[0], x[2], x[1], x[3]), x[-1]),  # the i and j coordinates swapped
            lambda nums, d: _lowest_terms([*nums, d]),
        )


def test_refuses_a_noncentral_first_basis_element():
    quaternions = resolve_preset("quaternions")
    one, i, j, k = quaternions.basis_payloads()
    with pytest.raises(InconsistencyError, match="subfield coefficient is not central"):
        SubfieldStructure(
            quaternions, resolve_preset("rationals"), [i, one, j, k],
            lambda x: ((x[1], x[0], x[2], x[3]), x[-1]),
            lambda nums, d: _lowest_terms([nums[1], nums[0], nums[2], nums[3], d]),
        )


def test_refuses_a_nonlinear_expansion():
    f5 = resolve_preset("f5")
    with pytest.raises(InconsistencyError, match="bilinear expansion through structure constants disagrees"):
        # x -> x + 1 is a bijection that agrees with the basis product 1 * 1, but it is not linear
        SubfieldStructure(f5, f5, [1], lambda x: (((x + 1) % 5,), 1), lambda nums, d: (nums[0] - 1) % 5)
