"""The former isotope construction, kept as an oracle for make_isotope.

make_isotope twists a Galois field's multiplication into
x*y = U^-1(U(x) V(y)), where U swaps 1 and a and fixes a completion of
{1, a} to a basis of the field over its prime subfield.  The former code
completed {1, a} greedily with the standard basis vectors t^0, t^1, ...,
keeping each one that raised the rank (a trial row reduction per
candidate), and inverted U explicitly.  isotope_tables reproduces that from
the field's payload methods alone.
"""
from quasicode import linalg


def isotope_tables(base, a: int, v_rows=None):
    """(add_table, mul_table) of the isotope of base at payload a, or None where it is refused.

    A refused a lies in the prime subfield or squares to 1.
    """
    p, k = base.p, base.k
    coeffs_a = list(base.coefficients(a))
    coeffs_one = list(base.coefficients(1))
    if all(c == 0 for c in coeffs_a[1:]) or base._mul(a, a) == 1:
        return None
    if v_rows is None:
        v_rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    basis_cols = [coeffs_one, coeffs_a]
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
    swap = [[1 if (i, j) in ((0, 1), (1, 0)) else int(i == j and i > 1) for j in range(k)] for i in range(k)]
    u_rows = linalg.mat_mul(linalg.mat_mul(b_mat, swap, p), b_inv, p)
    u_inv = linalg.invert_matrix(u_rows, p)

    values = range(base.order)

    def image(mat):
        return [base._canonical(tuple(linalg.mat_vec(mat, list(base.coefficients(x)), p))) for x in values]

    u, v, u_back = image(u_rows), image(v_rows), image(u_inv)
    add_table = [[base._add(x, y) for y in values] for x in values]
    mul_table = [[u_back[base._mul(u[x], v[y])] for y in values] for x in values]
    return add_table, mul_table
