"""Field-generic Gaussian elimination, kept as the oracle for linalg's integer rows.

FieldOps bundles a coefficient field's operations; row_reduce and
nullspace_vector are the reduced-echelon routines over such a record that
linalg's integer elimination replaced, and support_witness is the former
linearized dependence search: rows of Fractions (or residues mod p) built
from the structure constants and reduced with these routines.
"""
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from quasicode import FinVec, subfield_structure


@dataclass(frozen=True)
class FieldOps:
    zero: object
    one: object
    add: Callable
    sub: Callable
    mul: Callable
    inv: Callable
    is_zero: Callable


def fraction_ops() -> FieldOps:
    return FieldOps(
        zero=Fraction(0),
        one=Fraction(1),
        add=lambda a, b: a + b,
        sub=lambda a, b: a - b,
        mul=lambda a, b: a * b,
        inv=lambda a: Fraction(1) / a,
        is_zero=lambda a: a == 0,
    )


def prime_field_ops(p: int) -> FieldOps:
    return FieldOps(
        zero=0,
        one=1 % p,
        add=lambda a, b: (a + b) % p,
        sub=lambda a, b: (a - b) % p,
        mul=lambda a, b: (a * b) % p,
        inv=lambda a: pow(a, -1, p),
        is_zero=lambda a: a % p == 0,
    )


def ops_for(p) -> FieldOps:
    return prime_field_ops(p) if p else fraction_ops()


def row_reduce(rows, ops: FieldOps):
    """Reduced row echelon form. Returns (new rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not ops.is_zero(mat[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ops.inv(mat[r][c])
        mat[r] = [ops.mul(inv, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and not ops.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [ops.sub(v, ops.mul(f, w)) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace_vector(rows, ncols: int, ops: FieldOps):
    """A nonzero kernel vector with the smallest free column one, or None."""
    if not rows:
        if ncols == 0:
            return None
        v = [ops.zero] * ncols
        v[0] = ops.one
        return v
    mat, pivots = row_reduce(rows, ops)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    v = [ops.zero] * ncols
    v[f] = ops.one
    for r, c in enumerate(pivots):
        v[c] = ops.sub(ops.zero, mat[r][f])
    return v


def support_witness(code, columns, st=None):
    """The linearized dependence witness among canonical columns, or None.

    st is the subfield structure to solve with, subfield_structure's by default;
    its constants are read off the expansions of the basis products, not off its
    integer terms."""
    cols = sorted(set(columns))
    st = st or subfield_structure(code.algebra)
    ops = ops_for(st.modulus)
    cf = st.coeff_field

    def field_value(c):
        # residues as they are; a rational payload as its Fraction
        return c if st.modulus else cf.components(c)[0]

    s = st.dimension
    ncols = s * len(cols)
    constants = [[[field_value(c.value) for c in st.expand(bp * bq)] for bq in st.basis] for bp in st.basis]
    expanded = [[[field_value(c.value) for c in st.expand(entry)] for entry in col.entries] for col in cols]
    rows = []
    for l in range(code.m):
        for w in range(s):
            row = [ops.zero] * ncols
            for n in range(len(cols)):
                entry = expanded[n][l]
                for r in range(s):
                    acc = ops.zero
                    for q in range(s):
                        acc = ops.add(acc, ops.mul(entry[q], constants[r][q][w]))
                    row[s * n + r] = acc
            rows.append(row)
    sol = nullspace_vector(rows, ncols, ops)
    if sol is None:
        return None
    entries = []
    for n, col in enumerate(cols):
        val = st.recombine([cf.scalar(c) for c in sol[s * n : s * n + s]])
        if not val.is_zero():
            entries.append((col, val))
    return FinVec(code.algebra, code.m, entries)
