"""Fraction arithmetic for the rationals, quaternions and octonions, kept as an oracle.

These are the payload operations that _HypercomplexBase ran on tuples of
Fractions before it moved to integer numerators over one common
denominator.  Each function takes the algebra only for its dimension and
unit names; the products on integer tuples are this module's own
(KERNELS, by dimension), with the octonions as the Cayley-Dickson doubling
of the quaternions, (a,b)(c,d) = (ac - conj(d)b, da + b conj(c)), where the
algebra multiplies by a flat 64-term form.  Values are plain tuples of
Fractions, so a disagreement with the integer payloads shows up as a
different rational vector, sort key, literal or random stream.  Draws use
random.Random.randint itself, where the algebras inline it.

FractionRationals is the rationals as they ran on bare Fraction payloads
before they became the dim-1 integer-numerator algebra.
"""
from fractions import Fraction
from math import lcm


def quat(a0, a1, a2, a3, b0, b1, b2, b3):
    """Components of (a0 + a1 i + a2 j + a3 k)(b0 + b1 i + b2 j + b3 k)."""
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def cayley_dickson(x, y):
    """The octonion product of the first 8 entries of x and y as doubled quaternions."""
    a0, a1, a2, a3, b0, b1, b2, b3 = x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
    c0, c1, c2, c3, d0, d1, d2, d3 = y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
    p0, p1, p2, p3 = quat(a0, a1, a2, a3, c0, c1, c2, c3)
    q0, q1, q2, q3 = quat(d0, -d1, -d2, -d3, b0, b1, b2, b3)
    r0, r1, r2, r3 = quat(d0, d1, d2, d3, a0, a1, a2, a3)
    s0, s1, s2, s3 = quat(b0, b1, b2, b3, c0, -c1, -c2, -c3)
    return (p0 - q0, p1 - q1, p2 - q2, p3 - q3, r0 + s0, r1 + s1, r2 + s2, r3 + s3)


# the product of integer numerator sequences, by dimension
KERNELS = {
    1: lambda x, y: (x[0] * y[0],),
    4: lambda x, y: quat(*x[:4], *y[:4]),
    8: cayley_dickson,
}


def _over_common_denominator(x):
    d = lcm(*(a.denominator for a in x))
    return [a.numerator * (d // a.denominator) for a in x], d


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def neg(x):
    return tuple(-a for a in x)


def conj(x):
    return (x[0],) + tuple(-a for a in x[1:])


def mul(alg, x, y):
    xs, dx = _over_common_denominator(x)
    ys, dy = _over_common_denominator(y)
    d = dx * dy
    return tuple(Fraction(v, d) for v in KERNELS[alg.dim](xs, ys))


def solve_left(alg, a, c):
    """conj(a) c / N(a): the x with a * x = c."""
    A, da = _over_common_denominator(a)
    C, dc = _over_common_denominator(c)
    n = dc * sum(v * v for v in A)
    return tuple(Fraction(v * da, n) for v in KERNELS[alg.dim]([A[0]] + [-v for v in A[1:]], C))


def solve_right(alg, b, c):
    """c conj(b) / N(b): the x with x * b = c."""
    B, db = _over_common_denominator(b)
    C, dc = _over_common_denominator(c)
    n = dc * sum(v * v for v in B)
    return tuple(Fraction(v * db, n) for v in KERNELS[alg.dim](C, [B[0]] + [-v for v in B[1:]]))


def random_value(alg, rng, height: int = 10):
    return tuple(
        Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(alg.dim)
    )


def sort_key(x):
    return tuple((a.numerator, a.denominator) for a in x)


def format_value(alg, x):
    parts = [str(x[0])]
    for a, name in zip(x[1:], alg.unit_names):
        parts.append(f"-{-a}{name}" if a < 0 else f"+{a}{name}")
    return "".join(parts)


class FractionRationals:
    """The former RationalField arithmetic: a payload is a Fraction."""

    def _add(self, x, y):
        return x + y

    def _neg(self, x):
        return -x

    def _mul(self, x, y):
        return x * y

    def _solve_left(self, a, c):
        return c / a

    def _solve_right(self, b, c):
        return c / b

    def _random(self, rng, height: int = 10):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def format_value(self, x):
        return str(x)
