"""The index-table backend of the finite algebras, Cayley tables, and isotopes of Galois fields.

Every finite algebra of order at most FLAT_LIMIT computes on one backend,
IndexTableAlgebra: its payloads are the indices 0..n-1, and addition,
negation, multiplication and both one-sided divisions are reads of tables
built once at construction (n x n for the binary operations, so at most
65,536 entries each).  This module alone builds them.  _compile takes an
addition and a multiplication table and derives negation and both division
tables, whose row zero raises.  PrimeField and GaloisField hand their four
operations on indices to _arithmetic, which decides FLAT_LIMIT: up to it
addition and multiplication are tabulated and compiled.  CayleyTableAlgebra,
of any order, takes its two tables as given, validates them (its addition
on the audit's row laws), compiles them and reads its units off them.

Above the bound the payloads stay indices, but no table is built: the
field's operations are bound as they are, logarithm and Zech tables for a
Galois field up to fields.TABLE_LIMIT, polynomials beyond it, and residues
for a prime field (see fields).

HammingCode decodes on the compiled tables themselves, reading add_table,
mul_table, both division tables, neg_table and zero_index; a field above the
bound, which has no neg_table, decodes through the payload methods.
"""
from __future__ import annotations

import itertools

from ..errors import (
    DegenerateConstructionError,
    DomainError,
    InvalidParameterError,
    SpecFormatError,
)
# lazy modules read at call time: only a Cayley table executes audit, and only an isotope given a V linalg;
# fields, which builds on this module's backend, is read when an isotope is made
from .. import linalg
from . import audit, fields
from .base import Algebra, Scalar, is_exact_int

# Finite fields of at most this order compute on index tables; _arithmetic decides it.
FLAT_LIMIT = 2**8


class _NoQuotient:
    """The division-table row of zero: reading it raises, as dividing by zero must."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __getitem__(self, c):
        raise DomainError(f"{self.label}: zero has no inverse")


def _division_tables(mul, zero: int, none: _NoQuotient) -> tuple[tuple, tuple]:
    """left[a][a*x] = x and right[b][x*b] = x for every nonzero a, b of the table mul; row zero is none.

    Each nonzero row and column of mul is a permutation of the indices, and its
    quotient row the inverse permutation.  A commutative table's two are one.
    """
    def inverses(lines):
        out = []
        for a, line in enumerate(lines):
            inverse = list(line)
            for x, c in enumerate(line):
                inverse[c] = x
            out.append(none if a == zero else tuple(inverse))
        return tuple(out)

    columns, left = tuple(zip(*mul)), inverses(mul)
    return left, left if columns == mul else inverses(columns)


class IndexTableAlgebra(Algebra):
    """A finite algebra whose payloads are the indices 0..n-1.

    _compile installs addition and multiplication and derives negation and the
    two division tables; the operations below, and the whole rows the
    exhaustive kernels read, are reads of them.  A field hands its four
    operations to _arithmetic, which compiles them up to FLAT_LIMIT and binds
    them above it.
    """

    def __init__(self, label: str, n: int):
        super().__init__(label)
        self.n = n
        self.zero_index = 0  # a Cayley table finds its zero when it validates addition

    def _compile(self, add_table, mul_table) -> None:
        """Install the two tables and derive negation and both division tables from them.

        Row zero of a division table is never read as a quotient: it raises.
        """
        zero = self.zero_index
        self.add_table = tuple(map(tuple, add_table))
        self.mul_table = tuple(map(tuple, mul_table))
        self.neg_table = tuple(row.index(zero) for row in self.add_table)
        self.left_div, self.right_div = _division_tables(self.mul_table, zero, _NoQuotient(self.label))

    def _arithmetic(self, add, neg, mul, quotient) -> None:
        """A field's operations on indices, quotient(a, c) = c / a as both divisions.

        Up to FLAT_LIMIT add and mul are tabulated and compiled; above it the four are
        bound instead of tables, and the rows the exhaustive kernels read are built when read.
        """
        els = range(self.n)
        rows = [lambda x, op=op: tuple(map(op, itertools.repeat(x), els)) for op in (add, mul, quotient)]
        if self.n <= FLAT_LIMIT:
            self._compile(map(rows[0], els), map(rows[1], els))
            return
        self._add, self._neg, self._mul = add, neg, mul
        self._solve_left = self._solve_right = quotient
        self._add_row, self._mul_row, self._left_div_row = rows

    def _add_row(self, x):
        return self.add_table[x]

    def _mul_row(self, x):
        return self.mul_table[x]

    def _left_div_row(self, a):  # the x with a * x = c, indexed by c
        return self.left_div[a]

    def _add(self, x, y):
        return self.add_table[x][y]

    def _neg(self, x):
        return self.neg_table[x]

    def _mul(self, x, y):
        return self.mul_table[x][y]

    def _solve_left(self, a, c):
        return self.left_div[a][c]

    def _solve_right(self, b, c):
        return self.right_div[b][c]

    def _zero(self):
        return self.zero_index

    def _is_zero(self, x):
        return x == self.zero_index

    def _canonical(self, x):
        if not is_exact_int(x) or not (0 <= x < self.n):
            raise DomainError(f"{self.label}: payload must be a table index in [0,{self.n})")
        return x

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return self.n

    def _elements(self):
        return iter(range(self.n))

    def _random(self, rng, height: int = 10):
        return rng.randrange(self.n)

    def sort_key(self, x):
        return x


class CayleyTableAlgebra(IndexTableAlgebra):
    kind = "cayley-table"

    def __init__(
        self,
        add_table: list[list[int]],
        mul_table: list[list[int]],
        label: str = "cayley",
        element_names: list[str] | None = None,
        provenance: dict | None = None,
    ):
        n = len(add_table)
        super().__init__(label, n)
        self._provenance = provenance
        self._names = list(element_names) if element_names else None
        for tname, table in (("add", add_table), ("mul", mul_table)):
            if len(table) != n:
                raise SpecFormatError(f"{label}: {tname} table must be {n}x{n}")
            for i, row in enumerate(table):
                if len(row) != n or any(not is_exact_int(v) or not 0 <= v < n for v in row):
                    raise SpecFormatError(f"{label}: {tname} table row {i} is not a valid index row")
        self.add_table = tuple(tuple(r) for r in add_table)
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self._validate_addition()
        self._validate_multiplication()
        self._compile(self.add_table, self.mul_table)
        # a left unit's row, and a right unit's column, lists the indices in order
        ident = tuple(range(n))
        self._left_unit_idx = next((e for e, row in enumerate(self.mul_table) if row == ident), None)
        self._right_unit_idx = next((e for e, col in enumerate(zip(*self.mul_table)) if col == ident), None)

    # -- construction-time table validation ---------------------------------------

    def _validate_addition(self):
        add, n, els = self.add_table, self.n, range(self.n)
        zero = next((e for e, row in enumerate(add) if row == tuple(els)), None)
        if zero is None:
            raise SpecFormatError(f"{self.label}: addition table has no identity element")
        self.zero_index = zero
        laws = audit.row_laws(add, add, add, add, tuple(zip(*add)))
        # the first failing pair (i, j) has i < j: row j would fail at i first
        _, w = audit.row_scan(laws["commutative"], itertools.product(els, repeat=1), n)
        if w is not None:
            raise SpecFormatError(f"{self.label}: addition is not commutative at ({w[0]},{w[1]})")
        for x in els:
            if zero not in add[x]:
                raise SpecFormatError(f"{self.label}: element {x} has no additive inverse")
        # Light's test proves associativity on the rows of the generators; the scan of every
        # triple only names the first failing one
        if not audit._proved(laws["associative"], els, audit._generators(els, add)):
            _, w = audit.row_scan(laws["associative"], itertools.product(els, repeat=2), n)
            raise SpecFormatError(f"{self.label}: addition is not associative at ({w[0]},{w[1]},{w[2]})")

    def _validate_multiplication(self):
        mul, n, zero = self.mul_table, self.n, self.zero_index
        for x in range(n):
            if mul[zero][x] != zero or mul[x][zero] != zero:
                raise SpecFormatError(
                    f"{self.label}: zero does not annihilate in multiplication at element {x}"
                )
        nonzero = frozenset(x for x in range(n) if x != zero)
        for a in nonzero:
            row = {mul[a][x] for x in nonzero}
            if row != nonzero:
                raise SpecFormatError(
                    f"{self.label}: multiplication row {a} is not a permutation of the nonzero elements"
                )
            col = {mul[x][a] for x in nonzero}
            if col != nonzero:
                raise SpecFormatError(
                    f"{self.label}: multiplication column {a} is not a permutation of the nonzero elements"
                )

    # -- algebra interface ----------------------------------------------------------

    def _right_unit(self):
        return self._right_unit_idx

    def _left_unit(self):
        return self._left_unit_idx

    def format_value(self, x):
        return self._names[x] if self._names else str(x)

    def parse_value(self, text: str):
        s = text.strip()
        if self._names and s in self._names:
            return self._names.index(s)
        try:
            v = int(s)
        except ValueError:
            raise SpecFormatError(f"{self.label}: unknown element literal {s!r}") from None
        if not (0 <= v < self.n):
            raise SpecFormatError(f"{self.label}: element index {v} out of range [0,{self.n})")
        return v

    def spec_dict(self):
        if self._provenance is not None:
            return self._provenance
        return {
            "kind": self.kind,
            "add": [list(r) for r in self.add_table],
            "mul": [list(r) for r in self.mul_table],
        }




def make_isotope(
    base,
    a: Scalar,
    v_matrix: list[list[int]] | None = None,
    label: str | None = None,
) -> CayleyTableAlgebra:
    """Twist a Galois field's multiplication into x*y = U^-1(U(x) V(y)).

    U is the prime-linear map that swaps 1 and a and fixes each t^i, 0 < i < k,
    but the top degree of a, so U^-1 = U; V defaults to the identity.  The result keeps the field's
    addition, has right unit 1 and no left unit, and is nonassociative.
    Element i of the result is the field element with payload i.
    """
    if not isinstance(base, fields.GaloisField):
        raise InvalidParameterError("isotope base must be a galois field")
    if a.algebra != base:
        raise InvalidParameterError("isotope element a must belong to the base field")
    coeffs_a = list(base.coefficients(a.value))
    if all(c == 0 for c in coeffs_a[1:]):
        raise InvalidParameterError(
            f"isotope element a={base.format_value(a.value)} lies in the prime subfield"
        )
    one = base._right_unit()
    if base._mul(a.value, a.value) == one:
        raise DegenerateConstructionError(
            f"isotope element a={base.format_value(a.value)} squares to 1; the twist degenerates"
        )
    p, k = base.p, base.k
    coeffs_one = list(base.coefficients(one))
    values = range(base.order)
    if v_matrix is None:
        v = list(values)
        v_rows = [[int(i == j) for j in range(k)] for i in range(k)]
    else:
        if len(v_matrix) != k or any(len(r) != k or not all(map(is_exact_int, r)) for r in v_matrix):
            raise InvalidParameterError(f"V must be a {k}x{k} matrix over f{p}")
        v_rows = [[c % p for c in row] for row in v_matrix]
        if linalg.invert_matrix(v_rows, p) is None:
            raise InvalidParameterError("V must be invertible over the prime subfield")
        if linalg.mat_vec(v_rows, coeffs_one, p) != coeffs_one:
            raise InvalidParameterError("V must fix 1")
        if linalg.mat_vec(v_rows, coeffs_a, p) != coeffs_a:
            raise InvalidParameterError("V must fix a")
        # V's image of each element, by payload
        v = [base._canonical(tuple(linalg.mat_vec(v_rows, list(base.coefficients(x)), p))) for x in values]

    # 1, a and t^i for 0 < i < k but the top degree d of a form a basis; U swaps 1 and a and fixes
    # each t^i, so U is its own inverse: x = alpha + beta a + (the t^i terms) goes to x + (alpha - beta)(a - 1)
    d = max(i for i, c in enumerate(coeffs_a) if c)
    inverse = pow(coeffs_a[d], -1, p)
    a_minus_one = base._add(a.value, base._neg(one))

    def swap(x: int) -> int:
        c = base.coefficients(x)
        beta = c[d] * inverse % p
        return base._add(x, base._mul((c[0] - beta * coeffs_a[0] - beta) % p, a_minus_one))

    u = list(map(swap, values))
    assert u[one] == a.value and u[a.value] == one
    add, mul = base._add, base._mul
    add_table = [[add(x, y) for y in values] for x in values]
    mul_table = [[u[mul(u[x], v[y])] for y in values] for x in values]
    names = [base.format_value(x) for x in values]
    a_lit = base.format_value(a.value)
    provenance = {
        "kind": "isotope",
        "base": base.spec_dict(),
        "a": a_lit,
        "V": [list(r) for r in v_rows],
    }
    alg = CayleyTableAlgebra(
        add_table,
        mul_table,
        label=label or f"isotope({base.label},a={a_lit})",
        element_names=names,
        provenance=provenance,
    )
    assert alg._right_unit() == one
    return alg
