"""Exact Gaussian elimination on integer rows.

One routine serves every coefficient field in the package.  Over a prime
field GF(p) the entries are residues mod p and each pivot row is scaled to a
leading one.  Over the rationals (p is None) the rows stay integers: a step
replaces a row by the integer combination with the pivot row that clears the
pivot column, then divides it by its content (the gcd of its entries), so no
fraction is ever formed.  This is fraction-free elimination in the sense of
Bareiss (Math. Comp. 22, 1968), with content removal in place of his exact
division by the previous pivot.  Matrices are plain lists of lists of ints.
"""
from __future__ import annotations

from math import gcd


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content; a zero row stays as it is."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def row_reduce(rows: list[list[int]], p: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon form of integer rows, over GF(p) or (p None) the rationals.

    Returns (rows, pivot column indices).  Every row is zero in the pivot
    columns of the others.  Over GF(p) each pivot is one; over the rationals
    each row is a primitive integer row, which divided by its pivot entry is
    the row of the reduced echelon form over the rationals.
    """
    mat = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for k in range(r, nrows):
            if mat[k][c]:
                break
        else:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        top = mat[r]
        if not p:
            top = mat[r] = _primitive(top)
        elif top[c] != 1:
            inv = pow(top[c], -1, p)
            top = mat[r] = [x * inv % p for x in top]
        a = top[c]
        for i, row in enumerate(mat):
            b = row[c]
            if i == r or not b:
                continue
            if p:
                mat[i] = [(x - b * y) % p for x, y in zip(row, top)]
            else:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                mat[i] = _primitive([ag * x - bg * y for x, y in zip(row, top)])
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace_vector(rows: list[list[int]], ncols: int, p: int | None = None) -> list | None:
    """A nonzero kernel vector of the homogeneous system, or None if the kernel is trivial.

    Deterministic: sets the smallest free column to one, remaining free
    columns to zero.  Entries are residues mod p or, when p is None, rational
    payloads (n, d) in lowest terms with d > 0.
    """
    mat, pivots = row_reduce(rows, p)
    f = next((c for c in range(ncols) if c not in pivots), None)
    if f is None:
        return None
    if p:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(mat, pivots):
            v[c] = -row[f] % p
        return v
    v = [(0, 1)] * ncols
    v[f] = (1, 1)
    for row, c in zip(mat, pivots):
        # -row[f] / row[c], the gcd taking the pivot's sign so the denominator is positive
        n, d = -row[f], row[c]
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        v[c] = (n // g, d // g)
    return v


def invert_matrix(rows: list[list[int]], p: int) -> list[list[int]] | None:
    """Inverse of a square matrix over GF(p), or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [int(j == i) for j in range(n)] for i in range(n)]
    mat, pivots = row_reduce(aug, p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in mat]


def mat_vec(rows: list[list[int]], vec: list[int], p: int) -> list[int]:
    return [sum(a * x for a, x in zip(row, vec)) % p for row in rows]


def mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
