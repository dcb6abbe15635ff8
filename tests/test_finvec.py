"""Finite-support vectors: arithmetic, validation, and the text format."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicode import (
    Column,
    DenseVec,
    DomainError,
    FinVec,
    SpecFormatError,
    hamming_distance,
    hamming_norm,
    resolve_preset,
    vec_add,
)

F3 = resolve_preset("f3")
F3_COLUMNS = [Column.parse(s, F3) for s in ("(1,0)", "(1,1)", "(1,2)", "(0,1)")]


def fv(*pairs):
    return FinVec(F3, 2, [(Column.parse(c, F3), F3.parse(v)) for c, v in pairs])


finvecs = st.builds(
    lambda d: FinVec(F3, 2, list(d.items())),
    st.dictionaries(st.sampled_from(F3_COLUMNS), st.sampled_from([F3.parse("1"), F3.parse("2")])),
)


# -- columns and dense vectors ---------------------------------------------------------


def test_column_ordering_is_entrywise(f3):
    cols = sorted(Column.parse(s, f3) for s in ("(0,1)", "(1,2)", "(1,0)", "(1,1)"))
    assert [str(c) for c in cols] == ["(0,1)", "(1,0)", "(1,1)", "(1,2)"]


def test_column_pivot_index(f3):
    assert Column.parse("(0,1)", f3).pivot_index() == 1
    assert Column.parse("(1,2)", f3).pivot_index() == 0
    assert Column.parse("(0,0)", f3).pivot_index() is None


def test_dense_roundtrip_and_arithmetic(f3):
    d = DenseVec.parse("(1,2)", f3)
    assert (d + d).entries == DenseVec.parse("(2,1)", f3).entries
    assert (d - d).is_zero()
    assert str(-d) == "(2,1)"
    assert d.scalar_mul_left(f3.parse("2")) == DenseVec.parse("(2,1)", f3)
    assert d.to_column().to_dense() == d
    assert type(d.to_column()) is Column and type(d.to_column().to_dense()) is DenseVec


def test_columns_over_different_algebras_with_equal_payloads_are_unequal(f3, f5):
    a, b = Column.parse("(1,0)", f3), Column.parse("(1,0)", f5)
    assert a.payloads == b.payloads
    assert a != b and a.to_dense() != b.to_dense()
    assert len({a, b}) == 2


@pytest.mark.parametrize("preset,texts", [("f3", ("0", "2")), ("quaternions", ("1/2+i", "0", "-k"))])
def test_entries_are_the_scalars_a_column_was_built_from(preset, texts):
    alg = resolve_preset(preset)
    scalars = tuple(map(alg.parse, texts))
    col = Column(scalars)
    assert col.entries == scalars
    assert col.payloads == tuple(e.value for e in scalars)
    assert col.to_dense().entries == scalars


def test_dense_mixed_length_rejected(f3):
    with pytest.raises(DomainError):
        DenseVec.parse("(1,2)", f3) + DenseVec.parse("(1,2,0)", f3)


# -- finvec construction and arithmetic ------------------------------------------------


def test_zero_values_are_dropped():
    v = FinVec(F3, 2, [(F3_COLUMNS[0], F3.parse("0"))])
    assert v.is_zero()
    assert v.norm() == 0


def test_duplicate_column_rejected():
    c = F3_COLUMNS[0]
    with pytest.raises(DomainError):
        FinVec(F3, 2, [(c, F3.parse("1")), (c, F3.parse("2"))])


def test_mixed_algebra_rejected(f3, f5):
    with pytest.raises(DomainError):
        FinVec(f3, 2, [(Column.parse("(1,0)", f5), f3.parse("1"))])
    v3 = FinVec.parse("(1,0) := 1", f3, 2)
    v5 = FinVec.parse("(1,0) := 1", f5, 2)
    with pytest.raises(DomainError):
        v3 + v5


def test_wrong_column_length_rejected(f3):
    with pytest.raises(DomainError):
        FinVec(f3, 2, [(Column.parse("(1,0,0)", f3), f3.parse("1"))])


def test_addition_cancels_entries():
    a = fv(("(1,0)", "1"), ("(0,1)", "2"))
    b = fv(("(1,0)", "2"), ("(1,1)", "1"))
    s = a + b
    assert s == fv(("(0,1)", "2"), ("(1,1)", "1"))
    assert s.get(F3_COLUMNS[0]).value == 0
    assert vec_add(a, b) == s
    assert (a - a).is_zero()


def test_scalar_multiplication_sides():
    v = fv(("(1,2)", "1"))
    assert v.scalar_mul_left(F3.parse("2")) == fv(("(1,2)", "2"))
    assert v.scalar_mul_right(F3.parse("0")).is_zero()


def test_norm_and_distance():
    a = fv(("(1,0)", "1"), ("(0,1)", "2"))
    b = fv(("(1,0)", "2"))
    assert hamming_norm(a) == 2
    assert a.norm() == 2
    assert hamming_distance(a, b) == 2  # entries differ at (1,0) and (0,1)
    assert hamming_distance(a, a) == 0


def test_items_are_sorted():
    v = fv(("(1,0)", "2"), ("(0,1)", "1"), ("(1,2)", "1"))
    assert [str(c) for c, _ in v.items()] == ["(0,1)", "(1,0)", "(1,2)"]
    assert v.support() == (F3_COLUMNS[3], F3_COLUMNS[0], F3_COLUMNS[2])


# -- text format ------------------------------------------------------------------------


def test_parse_skips_comments_and_blank_lines(f3):
    text = "\n# header\n(1,0) := 2\n\n(0,1) := 1\n"
    assert FinVec.parse(text, f3, 2) == fv(("(1,0)", "2"), ("(0,1)", "1"))


def test_parse_reports_line_numbers(f3):
    with pytest.raises(SpecFormatError) as exc:
        FinVec.parse("(1,0) := 1\n(0,1) = 2", f3, 2)
    assert "line 2" in str(exc.value)


def test_parse_rejects_duplicate_lines(f3):
    with pytest.raises(DomainError):
        FinVec.parse("(1,0) := 1\n(1,0) := 2", f3, 2)


def test_zero_vector_round_trip(f3):
    z = FinVec.zero(f3, 2)
    assert z.format() == ""
    assert FinVec.parse("", f3, 2) == z
    assert FinVec.parse("# nothing here\n", f3, 2) == z


def test_quaternion_literals_round_trip(quaternions):
    v = FinVec.parse("(1,0) := 3/2+1i+0j-2k\n(0,1) := -1k", quaternions, 2)
    assert FinVec.parse(v.format(), quaternions, 2) == v
    entry = v.get(Column.parse("(1,0)", quaternions))
    assert str(entry) == "3/2+1i+0j-2k"


# -- properties --------------------------------------------------------------------------


@settings(max_examples=200)
@given(finvecs)
def test_format_parse_identity(v):
    assert FinVec.parse(v.format(), F3, 2) == v


@settings(max_examples=200)
@given(finvecs, finvecs)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=100)
@given(finvecs, finvecs, finvecs)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200)
@given(finvecs, finvecs)
def test_distance_is_symmetric(a, b):
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, b) == hamming_norm(a - b)


@settings(max_examples=100)
@given(finvecs, finvecs, finvecs)
def test_distance_triangle(a, b, c):
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
