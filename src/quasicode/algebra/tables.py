"""Finite algebras given by explicit Cayley tables, and isotopes of Galois fields.

A table algebra stores addition and multiplication as n x n index tables.
Construction validates that addition is an abelian group, that zero
annihilates, and that multiplication restricted to nonzero elements has
permutation rows and columns (unique one-sided division).
"""
from __future__ import annotations

from ..errors import (
    DegenerateConstructionError,
    DomainError,
    InvalidParameterError,
    SpecFormatError,
)
from .. import linalg
from .base import Algebra, Scalar, is_exact_int
from .fields import GaloisField


class CayleyTableAlgebra(Algebra):
    kind = "cayley-table"

    def __init__(
        self,
        add_table: list[list[int]],
        mul_table: list[list[int]],
        label: str = "cayley",
        element_names: list[str] | None = None,
        provenance: dict | None = None,
    ):
        super().__init__(label)
        n = len(add_table)
        self.n = n
        self._provenance = provenance
        self._names = list(element_names) if element_names else None
        for tname, table in (("add", add_table), ("mul", mul_table)):
            if len(table) != n:
                raise SpecFormatError(f"{label}: {tname} table must be {n}x{n}")
            for i, row in enumerate(table):
                if len(row) != n or any(not (0 <= v < n) for v in row):
                    raise SpecFormatError(f"{label}: {tname} table row {i} is not a valid index row")
        self.add_table = tuple(tuple(r) for r in add_table)
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self._validate_addition()
        self._validate_multiplication()
        self._neg_table = tuple(self.add_table[x].index(self.zero_index) for x in range(n))
        self._left_div = None
        self._right_div = None
        self._right_unit_idx = self._scan_right_unit()
        self._left_unit_idx = self._scan_left_unit()

    # -- construction-time table validation ---------------------------------------

    def _validate_addition(self):
        add, n = self.add_table, self.n
        zero = None
        for e in range(n):
            if all(add[e][x] == x for x in range(n)):
                zero = e
                break
        if zero is None:
            raise SpecFormatError(f"{self.label}: addition table has no identity element")
        self.zero_index = zero
        for i in range(n):
            for j in range(i + 1, n):
                if add[i][j] != add[j][i]:
                    raise SpecFormatError(
                        f"{self.label}: addition is not commutative at ({i},{j})"
                    )
        for x in range(n):
            if zero not in add[x]:
                raise SpecFormatError(f"{self.label}: element {x} has no additive inverse")
        for i in range(n):
            for j in range(n):
                aij = add[i][j]
                for k in range(n):
                    if add[aij][k] != add[i][add[j][k]]:
                        raise SpecFormatError(
                            f"{self.label}: addition is not associative at ({i},{j},{k})"
                        )

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

    def _scan_right_unit(self):
        for e in range(self.n):
            if all(self.mul_table[x][e] == x for x in range(self.n)):
                return e
        return None

    def _scan_left_unit(self):
        for e in range(self.n):
            if all(self.mul_table[e][x] == x for x in range(self.n)):
                return e
        return None

    def _division_tables(self):
        if self._left_div is None:
            n = self.n
            left = [[0] * n for _ in range(n)]
            right = [[0] * n for _ in range(n)]
            for a in range(n):
                for x in range(n):
                    left[a][self.mul_table[a][x]] = x
                    right[a][self.mul_table[x][a]] = x
            self._left_div = left
            self._right_div = right
        return self._left_div, self._right_div

    # -- algebra interface ----------------------------------------------------------

    def _add(self, x, y):
        return self.add_table[x][y]

    def _neg(self, x):
        return self._neg_table[x]

    def _mul(self, x, y):
        return self.mul_table[x][y]

    def _solve_left(self, a, c):
        left, _ = self._division_tables()
        return left[a][c]

    def _solve_right(self, b, c):
        _, right = self._division_tables()
        return right[b][c]

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

    def _right_unit(self):
        return self._right_unit_idx

    def _left_unit(self):
        return self._left_unit_idx

    def _random(self, rng, height: int = 10):
        return rng.randrange(self.n)

    def sort_key(self, x):
        return x

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
    base: GaloisField,
    a: Scalar,
    v_matrix: list[list[int]] | None = None,
    label: str | None = None,
) -> CayleyTableAlgebra:
    """Twist a Galois field's multiplication into x*y = Uinv(U(x) V(y)).

    U is the prime-linear map swapping 1 and a (fixing a completion of {1, a}
    to a basis), V defaults to the identity.  The result keeps the field's
    addition, has right unit 1 and no left unit, and is nonassociative.
    """
    if not isinstance(base, GaloisField):
        raise InvalidParameterError("isotope base must be a galois field")
    if a.algebra != base:
        raise InvalidParameterError("isotope element a must belong to the base field")
    coeffs_a = base.coefficients(a.value)
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

    if v_matrix is None:
        v_rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    else:
        v_rows = [[int(c) % p for c in row] for row in v_matrix]
        if len(v_rows) != k or any(len(r) != k for r in v_rows):
            raise InvalidParameterError(f"V must be a {k}x{k} matrix over f{p}")
        if linalg.invert_matrix(v_rows, p) is None:
            raise InvalidParameterError("V must be invertible over the prime subfield")
        if linalg.mat_vec(v_rows, list(one), p) != list(one):
            raise InvalidParameterError("V must fix 1")
        if linalg.mat_vec(v_rows, list(coeffs_a), p) != list(coeffs_a):
            raise InvalidParameterError("V must fix a")

    # complete {1, a} to a basis with standard basis vectors, greedily
    basis_cols = [list(one), list(coeffs_a)]
    for i in range(k):
        if len(basis_cols) == k:
            break
        cand = [1 if j == i else 0 for j in range(k)]
        trial = basis_cols + [cand]
        rows = [[trial[c][r] for c in range(len(trial))] for r in range(k)]
        _, pivots = linalg.row_reduce(rows, p)
        if len(pivots) == len(trial):
            basis_cols.append(cand)
    b_mat = [[basis_cols[c][r] for c in range(k)] for r in range(k)]
    b_inv = linalg.invert_matrix(b_mat, p)
    assert b_inv is not None
    swap = [[1 if (i, j) in ((0, 1), (1, 0)) else (1 if i == j and i > 1 else 0) for j in range(k)] for i in range(k)]
    u_rows = linalg.mat_mul(linalg.mat_mul(b_mat, swap, p), b_inv, p)
    u_inv = linalg.invert_matrix(u_rows, p)
    assert u_inv is not None
    assert linalg.mat_vec(u_rows, list(one), p) == list(coeffs_a)
    assert linalg.mat_vec(u_rows, list(coeffs_a), p) == list(one)

    values = list(base._elements())
    index = {v: i for i, v in enumerate(values)}

    def apply(mat, value):
        return tuple(linalg.mat_vec(mat, list(value), p))

    n = len(values)
    add_table = [[index[base._add(x, y)] for y in values] for x in values]
    mul_table = [
        [index[apply(u_inv, base._mul(apply(u_rows, x), apply(v_rows, y)))] for y in values]
        for x in values
    ]
    names = [base.format_value(v) for v in values]
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
    ru = alg._right_unit()
    assert ru is not None and values[ru] == one
    return alg
