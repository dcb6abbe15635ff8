"""Fraction arithmetic for the rationals, quaternions and octonions, kept as an oracle.

These are the payload operations that _HypercomplexBase ran on tuples of
Fractions before it moved to integer numerators over one common
denominator.  Each function takes the algebra only for its dimension, unit
names and basis-product kernel on integer tuples; values are plain tuples of
Fractions, so a disagreement with the integer payloads shows up as a
different rational vector, sort key, literal or random stream.

FractionRationals is the rationals as they ran on bare Fraction payloads
before they became the dim-1 integer-numerator algebra.
"""
from fractions import Fraction
from math import lcm


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
    return tuple(Fraction(v, d) for v in alg._mul_int(xs, ys))


def solve_left(alg, a, c):
    """conj(a) c / N(a): the x with a * x = c."""
    A, da = _over_common_denominator(a)
    C, dc = _over_common_denominator(c)
    n = dc * sum(v * v for v in A)
    return tuple(Fraction(v * da, n) for v in alg._mul_int([A[0]] + [-v for v in A[1:]], C))


def solve_right(alg, b, c):
    """c conj(b) / N(b): the x with x * b = c."""
    B, db = _over_common_denominator(b)
    C, dc = _over_common_denominator(c)
    n = dc * sum(v * v for v in B)
    return tuple(Fraction(v * db, n) for v in alg._mul_int(C, [B[0]] + [-v for v in B[1:]]))


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
