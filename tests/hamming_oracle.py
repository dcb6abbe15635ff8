"""Slow reference implementations, kept as oracles for the raw-payload fast paths.

The Hamming functions are the Scalar/DenseVec versions of HammingCode's
vector check, syndromes, factorizations, decode and finite and sampled
structural perfectness checks that the payload loops in hamming.py replaced;
every step goes through Scalar operators and checked vector constructors.
gf_product is a schoolbook polynomial product reduced by long division,
independent of GaloisField's tables and of its reduction.
"""
from quasicode import Column, DenseVec, DomainError, FinVec, solve_left, solve_right


def check_vector(code, x: FinVec) -> None:
    if x.algebra != code.algebra or x.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    for col in x.support():
        if not code.is_canonical_column(col):
            raise DomainError(f"column {col} is not canonical for this code")


def syndrome(code, x: FinVec, right: bool = False) -> DenseVec:
    """sum of x_a * a over the support (a * x_a with right=True)."""
    check_vector(code, x)
    acc = DenseVec.zero(code.algebra, code.m)
    for col, val in x.items():
        dense = col.to_dense()
        acc = acc + (dense.scalar_mul_right(val) if right else dense.scalar_mul_left(val))
    return acc


def normalize(code, z: DenseVec, right: bool = False):
    """(y, a) with z = y * a (z = a * y with right=True), a canonical."""
    if z.algebra != code.algebra or z.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    beta = next((i for i, e in enumerate(z.entries) if not e.is_zero()), None)
    if beta is None:
        raise DomainError("the zero vector has no factorization")
    head, tail = (solve_left, solve_right) if right else (solve_right, solve_left)
    y = head(code.pivots[beta], z.entries[beta])
    entries = [code.algebra.zero()] * beta + [code.pivots[beta]]
    for i in range(beta + 1, code.m):
        entries.append(tail(y, z.entries[i]))
    return y, Column(entries)


def decode(code, y: FinVec) -> FinVec:
    z = syndrome(code, y)
    if z.is_zero():
        return y
    alpha0, a0 = normalize(code, z)
    return y - FinVec.single(a0, alpha0)


def structural_finite(code) -> tuple:
    """(line disjointness, factorization totality, vectors checked, witnesses) of a finite code."""
    cols = code.enumerate_columns()
    q = code.algebra.order
    seen = {}
    ok_a = ok_b = True
    witnesses = []
    for y in code.algebra.nonzero_elements():
        for a in cols:
            z = a.to_dense().scalar_mul_left(y)
            key = z.entries
            if key in seen:
                ok_a = False
                witnesses.append(f"two factorizations of {z}: ({seen[key][0]},{seen[key][1]}) and ({y},{a})")
            else:
                seen[key] = (y, a)
            y2, a2 = normalize(code, z)
            if y2 != y or a2 != a:
                ok_b = False
                witnesses.append(f"normalize({z}) returned ({y2},{a2}), expected ({y},{a})")
    if len(seen) != q**code.m - 1:
        ok_b = False
        witnesses.append(f"products cover {len(seen)} of {q ** code.m - 1} nonzero dense vectors")
    return ok_a, ok_b, len(seen), witnesses


def structural_sampled(code, trials: int, seed: int) -> tuple:
    """(line disjointness, factorization totality, witnesses) from seeded draws."""
    import random

    rng = random.Random(seed)
    ok_a = ok_b = True
    witnesses = []
    for _ in range(trials):
        a1 = code.random_column(rng)
        y = code.algebra.random_scalar(rng, nonzero=True)
        z = a1.to_dense().scalar_mul_left(y)
        y2, a2 = normalize(code, z)
        if y2 != y or a2 != a1:
            ok_a = False
            witnesses.append(f"normalize({z}) returned ({y2},{a2}), expected ({y},{a1})")
            break
    for _ in range(trials):
        z = DenseVec([code.algebra.random_scalar(rng) for _ in range(code.m)])
        if z.is_zero():
            continue
        y, a = normalize(code, z)
        if y.is_zero() or not code.is_canonical_column(a):
            ok_b = False
            witnesses.append(f"normalize({z}) returned a non-canonical factorization")
            break
        if a.to_dense().scalar_mul_left(y) != z:
            ok_b = False
            witnesses.append(f"normalize({z}) does not reproduce the vector")
            break
    return ok_a, ok_b, witnesses


def gf_product(field, x, y) -> tuple:
    """x * y in field, by schoolbook product and long division by the modulus."""
    p, k, modulus = field.p, field.k, field.modulus
    out = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    for d in range(2 * k - 2, k - 1, -1):
        top = out[d] % p
        for i, c in enumerate(modulus):
            out[d - k + i] -= top * c
    return tuple(c % p for c in out[:k])
