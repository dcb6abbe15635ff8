"""The index-table backend of the finite algebras, and the prime fields that run on it.

Every finite algebra of order at most FLAT_LIMIT computes on one backend,
IndexTableAlgebra: its payloads are the indices 0..n-1, and addition,
negation, multiplication and both one-sided divisions are reads of tables
built once at construction (n x n for the binary operations, so at most
65,536 entries each).  This module alone builds them.  _compile takes an
addition and a multiplication table and derives negation and both division
tables, whose row zero raises.  A field hands its four operations on indices
to _arithmetic, which decides FLAT_LIMIT: up to it addition and
multiplication are tabulated and compiled.  Above the bound the payloads
stay indices, but no table is built: the field's operations are bound as
they are.

A prime field's payload is its residue: PrimeField reduces residues mod p
and inverts by pow.  Every field's order is at most ORDER_LIMIT, and is_prime
decides primality below it by deterministic Miller-Rabin.  This is all that
a command over a prime field executes of the finite algebras: Galois fields,
Cayley tables and isotopes, which build on this backend, live in fields.

HammingCode decodes on the compiled tables themselves, reading add_table,
mul_table, both division tables, neg_table and zero_index; a field above the
bound, which has no neg_table, decodes through the payload methods.
"""
from __future__ import annotations

import itertools

from ..errors import DomainError, InvalidParameterError, SpecFormatError
from .base import Algebra, is_exact_int

# Finite fields of at most this order compute on index tables; _arithmetic decides it.
FLAT_LIMIT = 2**8

# Miller-Rabin on the first 13 primes as bases proves primality below the least strong pseudoprime
# to all 13, 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017); a field's order
# is at most ORDER_LIMIT, one less, which also bounds the work of the irreducibility test.
ORDER_LIMIT = 3_317_044_064_679_887_385_961_980
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _check_order(q: int, shown) -> None:
    """Refuse a field order q, shown as given, above ORDER_LIMIT."""
    if q > ORDER_LIMIT:
        raise InvalidParameterError(f"field order {shown} exceeds the limit {ORDER_LIMIT}")


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n above ORDER_LIMIT is refused."""
    _check_order(n, n)
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    # every base b has b^d = 1, or b^(d 2^r) = -1 for some r < s
    return all(pow(b, (n - 1) >> s, n) == 1 or n - 1 in (pow(b, (n - 1) >> (s - r), n) for r in range(s))
               for b in _BASES)


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
    def order(self):
        return self.n

    def _elements(self):
        return iter(range(self.n))

    def _random(self, rng):
        return rng.randrange(self.n)

    def sort_key(self, x):
        return x


class PrimeField(IndexTableAlgebra):
    kind = "prime-field"
    associative = True
    commutative = True

    def __init__(self, p: int, label: str | None = None):
        if not is_prime(p):
            raise InvalidParameterError(f"prime field order must be prime, got {p}")
        super().__init__(label or f"f{p}", p)
        self.p = p
        self._arithmetic(self._residue_add, self._residue_neg, self._residue_mul, self._residue_quotient)

    def _residue_add(self, x, y):
        return (x + y) % self.p

    def _residue_neg(self, x):
        return (-x) % self.p

    def _residue_mul(self, x, y):
        return (x * y) % self.p

    def _residue_quotient(self, a, c):
        """c / a, the one quotient of a commutative field."""
        if a == 0:
            raise DomainError(f"{self.label}: zero has no inverse")
        return (pow(a, -1, self.p) * c) % self.p

    def _canonical(self, x):
        if not is_exact_int(x):
            raise DomainError(f"{self.label}: payload must be an int, got {type(x).__name__}")
        return x % self.p

    def _right_unit(self):
        return 1

    def _left_unit(self):
        return 1

    def format_value(self, x):
        return str(x)

    def parse_value(self, text: str):
        try:
            return int(text.strip()) % self.p
        except ValueError:
            raise SpecFormatError(f"{self.label}: bad residue literal {text!r}") from None

    def spec_dict(self):
        return {"kind": self.kind, "p": self.p}

