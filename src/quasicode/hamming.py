"""Single-error-correcting codes over a coefficient algebra.

A code handle fixes the algebra, the number of check coordinates m, and one
pivot value per position (the right unit unless overridden).  Coordinates are
the canonical columns: leading zeros, the pivot at the leading position, an
arbitrary tail.  A vector belongs to the code when its syndrome
sum_a x_a * a vanishes; every nonzero dense vector factors uniquely as
y * a with a canonical, which is what normalize computes and what makes the
code perfect.

Over compiled index tables (fields up to tables.FLAT_LIMIT, Cayley tables), decode and the
syndromes read the tables in one kernel each, decode's kernel testing each column's head in
the pass that sums the syndrome; the rationals, quaternions, octonions and larger fields run
the payload methods, decode's correction factoring the syndrome by _factor as normalize
does, in one scan for its head, after _check_vector has tested the heads in _canonical_payloads,
the one loop that also answers is_canonical_column; their syndromes skip zero entries and start
each coordinate at its first term (exact: payloads are canonical, zero annihilates and adds
nothing).  Decode is the oracle at the API (weight3_codeword) and for reconstruct (decode_weight2).

The weight-3 generators and draws, the codeword enumeration and the perfectness check are
methods here whose bodies live in codewords, a module executed on first use: a command that
only builds columns, syndromes, decodes or single weight-3 codewords never compiles them.
"""
from __future__ import annotations

import itertools

from . import codewords  # lazy, read at call time
from .algebra import Algebra, Scalar
from .algebra.base import sorted_elements
from .errors import DEFAULT_BUDGET, DomainError, InconsistencyError, InvalidParameterError, Power, UnsupportedError
from .errors import check_budget
from .finvec import Column, DenseVec, FinVec


def _not_weight3(w2: FinVec) -> InconsistencyError:
    return InconsistencyError(f"decoding {w2!r} did not produce a weight-3 codeword through both of its entries; "
                              "the code is not a perfect group code")


def decode_weight2(code, w2: FinVec) -> tuple[FinVec, tuple, object]:
    """The codeword c that code.decode gives for the weight-2 word w2 (code needs only algebra, m and
    decode), and the column and value payloads of the entry it adds.  c must have norm 3 and agree with
    both entries of w2; otherwise the decoder is not that of a perfect group code."""
    c = code.decode(w2)
    got = c._map
    if len(got) == 3 and w2._map.items() <= got.items():
        (k,) = got.keys() - w2._map.keys()
        return c, k, got[k]
    raise _not_weight3(w2)


class HammingCode:
    def __init__(self, algebra: Algebra, m: int, pivots=None):
        if m < 2:
            raise InvalidParameterError(f"a code needs m >= 2 check coordinates, got {m}")
        self.algebra = algebra
        self.m = m
        if pivots is None:
            unit = algebra.right_unit()
            if unit is None:
                raise InvalidParameterError(
                    f"{algebra.label} has no right unit; pass explicit pivots"
                )
            pivots = (unit,) * m
        else:
            pivots = tuple(pivots)
            if len(pivots) != m:
                raise InvalidParameterError(f"expected {m} pivots, got {len(pivots)}")
            for i, b in enumerate(pivots):
                if b.algebra != algebra:
                    raise DomainError(f"pivot {i} does not belong to {algebra.label}")
                if b.is_zero():
                    raise InvalidParameterError(f"pivot {i} must be nonzero")
        self.pivots = pivots
        self._pivot_payloads = tuple(b.value for b in pivots)
        self._columns: list[Column] | None = None
        # the syndromes and decode read compiled index tables (IndexTableAlgebra._compile sets neg_table)
        tables = hasattr(algebra, "neg_table")
        self._syndrome = self._table_syndrome if tables else self._syndrome_payloads
        self._correction = self._table_correction if tables else self._payload_correction
        # the table kernel tests each column's head in its syndrome pass; the payload kernel, which the
        # weight-3 loops read on canonical columns only, leaves decode's test to _check_vector
        self._decode_rows = self._ambient_rows if tables else self._check_vector

    @property
    def label(self) -> str:
        return f"hamming({self.algebra.label}, m={self.m})"

    def column_count(self) -> int | None:
        q = self.algebra.order
        if q is None:
            return None
        return (q**self.m - 1) // (q - 1)

    def column_size(self) -> Power | None:
        """The column count n = (q^m - 1)/(q - 1) as a closed form, or None over an infinite algebra."""
        q = self.algebra.order
        return None if q is None else Power(q, self.m, 1, q - 1)

    def ambient_size(self) -> Power:
        """The number q^n of vectors in the finite ambient, as a closed form."""
        if not self.algebra.is_finite:
            raise UnsupportedError(f"{self.algebra.label}: infinite ambient cannot be enumerated")
        return Power(self.algebra.order, self.column_size())

    # -- columns -----------------------------------------------------------------

    def enumerate_columns(self, budget: int = DEFAULT_BUDGET) -> list[Column]:
        """All canonical columns, leading position ascending, tails in scalar order."""
        if not self.algebra.is_finite:
            raise UnsupportedError(
                f"{self.algebra.label}: cannot enumerate columns of an infinite algebra; "
                "use is_canonical_column / normalize"
            )
        check_budget(self.column_size(), budget, "code has {} columns")
        if self._columns is None:
            els, zero = sorted_elements(self.algebra), self.algebra._zero()
            self._columns = [
                self._column((zero,) * beta + (pivot, *tail))
                for beta, pivot in enumerate(self._pivot_payloads)
                for tail in itertools.product(els, repeat=self.m - beta - 1)
            ]
        return list(self._columns)

    def identity_columns(self) -> list[Column]:
        """The m canonical columns with an all-zero tail."""
        zero = self.algebra._zero()
        return [self._column((zero,) * beta + (pivot,) + (zero,) * (self.m - beta - 1))
                for beta, pivot in enumerate(self._pivot_payloads)]

    def is_canonical_column(self, col: Column) -> bool:
        return col.algebra == self.algebra and col.m == self.m and self._canonical_payloads((col.payloads,))

    def _require_canonical(self, columns) -> None:
        """Raise DomainError naming the first of columns that is not canonical for this code."""
        for col in itertools.filterfalse(self.is_canonical_column, columns):
            raise DomainError(f"column {col} is not canonical for this code")

    def _canonical_payloads(self, columns) -> bool:
        """Whether each column of columns, a tuple of entry payloads, leads with its position's pivot."""
        zero, pivots = self.algebra._zero(), self._pivot_payloads
        for a in columns:
            for beta, e in enumerate(a):
                if e != zero:
                    break
            if e != pivots[beta]:  # the zero column too: the search ends on its last entry, and no pivot is zero
                return False
        return True

    def random_column(self, rng) -> Column:
        return self._column(self._random_column_payloads(rng))

    def _random_column_payloads(self, rng) -> tuple:
        """A canonical column's entry payloads: a random leading position, then random tail entries."""
        # beta = rng.randrange(m), inlined as CPython's _randbelow(m) like the algebras' randint
        m, bits, k = self.m, rng.getrandbits, self.m.bit_length()
        while (beta := bits(k)) >= m:
            pass
        tail = [self.algebra._random(rng) for _ in range(m - beta - 1)]
        return (self.algebra._zero(),) * beta + (self._pivot_payloads[beta], *tail)

    # -- factorization ------------------------------------------------------------

    def _dense_payloads(self, z) -> list:
        if not isinstance(z, Column):
            raise DomainError("normalize expects a DenseVec or Column")
        if z.algebra != self.algebra or z.m != self.m:
            raise DomainError("vector does not match the code's ambient")
        return list(z.payloads)

    def _factor(self, z, right: bool) -> tuple[object, list] | None:
        """Payloads (y, a) with z = y * a (left action) or z = a * y (right), a canonical; None for zero z."""
        alg = self.algebra
        zero = alg._zero()
        for beta, head in enumerate(z):
            if head != zero:
                break
        else:
            return None
        if right:
            solve_head, solve_tail = alg._solve_left, alg._solve_right
        else:
            solve_head, solve_tail = alg._solve_right, alg._solve_left
        pivot = self._pivot_payloads[beta]
        y = solve_head(pivot, head)
        a = [zero] * beta + [pivot]
        a += [solve_tail(y, z[i]) for i in range(beta + 1, self.m)]
        return y, a

    def _factor_nonzero(self, z, right: bool) -> tuple[object, list]:
        """_factor of z, which normalize refuses to be zero."""
        factors = self._factor(z, right)
        if factors is None:
            raise DomainError(f"{'normalize_right' if right else 'normalize'}: the zero vector has no factorization")
        return factors

    def _column(self, payloads) -> Column:
        return Column._wrap(self.algebra, tuple(payloads))

    def _dense(self, payloads) -> DenseVec:
        return DenseVec._wrap(self.algebra, tuple(payloads))

    def normalize(self, z) -> tuple[Scalar, Column]:
        """Factor a nonzero dense vector uniquely as z = y * a with a canonical."""
        y, a = self._factor_nonzero(self._dense_payloads(z), right=False)
        return Scalar(self.algebra, y), self._column(a)

    def normalize_right(self, z) -> tuple[Scalar, Column]:
        """Factor a nonzero dense vector uniquely as z = a * y with a canonical."""
        y, a = self._factor_nonzero(self._dense_payloads(z), right=True)
        return Scalar(self.algebra, y), self._column(a)

    # -- membership and decoding ----------------------------------------------------

    def _ambient_rows(self, x: FinVec):
        """Check x against the code's ambient; its (column payloads, value payload) entries.

        FinVec keeps its columns in its own algebra and length, so matching the
        ambient covers them.
        """
        if x.algebra is not self.algebra and x.algebra != self.algebra or x.m != self.m:
            raise DomainError("vector does not match the code's ambient")
        return x._map.items()

    def _check_vector(self, x: FinVec):
        """_ambient_rows(x), once each column also leads with its pivot."""
        rows = self._ambient_rows(x)
        if not self._canonical_payloads(x._map):
            self._require_canonical(x.support())  # reports the first offending column in sorted order
        return rows

    def _syndrome_payloads(self, terms, right: bool) -> list:
        alg = self.algebra
        add, mul, zero = alg._add, alg._mul, alg._zero()
        acc = [zero] * self.m
        for a, v in terms:
            for i, e in enumerate(a):
                if e != zero:  # a zero entry adds nothing; a coordinate starts at its first term
                    t = mul(e, v) if right else mul(v, e)
                    acc[i] = t if acc[i] == zero else add(acc[i], t)
        return acc

    def _table_syndrome(self, terms, right: bool) -> list:
        """_syndrome_payloads read off the compiled addition and multiplication tables."""
        alg = self.algebra
        add, mul = alg.add_table, alg.mul_table
        z = [alg.zero_index] * self.m
        for a, v in terms:
            for i, e in enumerate(a):
                z[i] = add[z[i]][mul[e][v] if right else mul[v][e]]
        return z

    def _is_zero_payloads(self, z: list) -> bool:
        return z.count(self.algebra._zero()) == len(z)

    def _payload_correction(self, terms):
        """The entry (column payloads, value payload) that decode adds to the word with support
        terms, or None for a codeword: the syndrome y * a (_factor) calls for -y at a."""
        factors = self._factor(self._syndrome_payloads(terms, False), right=False)
        if factors is None:
            return None
        y, a = factors
        return tuple(a), self.algebra._neg(y)

    def _table_correction(self, terms):
        """_payload_correction in one frame of table reads: the syndrome, with each column's head
        tested against its position's pivot in the same pass, its head, the head's and the tail's
        divisions and the negation."""
        alg = self.algebra
        add, mul, zero, pivots = alg.add_table, alg.mul_table, alg.zero_index, self._pivot_payloads
        z = [zero] * self.m
        for a, v in terms:
            row, entries = mul[v], enumerate(a)
            for beta, e in entries:  # zero entries add nothing: the sum starts at the head
                if e != zero:
                    break
            if e != pivots[beta]:  # the zero column too: the search ends on its last entry, and no pivot is zero
                self._require_canonical(sorted(self._column(a) for a, _ in terms))
            z[beta] = add[z[beta]][row[e]]
            for i, e in entries:
                z[i] = add[z[i]][row[e]]
        for beta, head in enumerate(z):
            if head != zero:
                pivot = pivots[beta]
                y = alg.right_div[pivot][head]  # y * pivot = head
                tail = map(alg.left_div[y].__getitem__, z[beta + 1:])  # y * a_i = z_i
                return (zero,) * beta + (pivot, *tail), alg.neg_table[y]
        return None

    def _in_code(self, terms, right: bool = False) -> bool:
        """Whether the syndrome of the (column payloads, value payload) rows terms vanishes."""
        return self._is_zero_payloads(self._syndrome(terms, right))

    def syndrome(self, x: FinVec) -> DenseVec:
        """sum over the support of x_a * a (left scalar action)."""
        return self._dense(self._syndrome(self._check_vector(x), right=False))

    def contains(self, x: FinVec) -> bool:
        return self._in_code(self._check_vector(x))

    def syndrome_right(self, x: FinVec) -> DenseVec:
        """sum over the support of a * x_a (right scalar action)."""
        return self._dense(self._syndrome(self._check_vector(x), right=True))

    def contains_right(self, x: FinVec) -> bool:
        return self._in_code(self._check_vector(x), right=True)

    def decode(self, y: FinVec) -> FinVec:
        """The unique codeword within Hamming distance one of y."""
        fix = self._correction(self._decode_rows(y))
        if fix is None:
            return y
        alg = self.algebra
        a0, value = fix
        mapping = dict(y._map)
        if a0 in mapping:
            value = alg._add(mapping[a0], value)
            if alg._is_zero(value):
                del mapping[a0]
                return FinVec._checked(alg, self.m, mapping)
        mapping[a0] = value
        return FinVec._checked(alg, self.m, mapping)

    # -- weight-3 structure -----------------------------------------------------------

    def weight3_codeword(self, a1: Column, a2: Column, alpha: Scalar, beta: Scalar) -> FinVec:
        """The codeword through alpha at a1 and beta at a2 (third entry decoded)."""
        if a1 == a2:
            raise DomainError("weight3_codeword needs two distinct columns")
        if alpha.is_zero() or beta.is_zero():
            raise DomainError("weight3_codeword needs nonzero entries")
        return decode_weight2(self, FinVec(self.algebra, self.m, [(a1, alpha), (a2, beta)]))[0]

    # -- the codeword half: weight-3 generators, enumeration and perfectness (codewords) ---------------

    def weight3_generators(self, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """Every weight-3 codeword once, in the order its first two columns and their entries are reached.

        A codeword on columns a1 < a2 < a3 (enumerate_columns order) is decoded once, from its entries at
        (a1, a2); its later entry pairs, at (a1, a3) and (a2, a3), are marked and skipped.
        """
        return codewords.weight3_generators(self, budget)

    def weight3_batch(self, trials: int | None, seed: int, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """The weight-3 codewords a certificate maps: weight3_generators over a finite algebra,
        else trials seeded draws of random_codeword(rng, pieces=1)."""
        return codewords.weight3_batch(self, trials, seed, budget)

    def enumerate_codewords(self, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """Every codeword, in the order the ambient product in scalar order lists them."""
        return codewords.enumerate_codewords(self, budget)

    def random_codeword(self, rng, pieces: int | None = None) -> FinVec:
        """A random codeword: a sum of random weight-3 codewords."""
        return codewords.random_codeword(self, rng, pieces)

    def verify_perfect(self, mode: str = "auto", budget: int = DEFAULT_BUDGET, trials: int = 10000,
                       seed: int = 0) -> codewords.PerfectnessReport:
        """Exhaustive when the ambient fits the budget, else (with a notice in exhaustive mode)
        structural over the q^m - 1 nonzero vectors of a finite algebra, or over seeded trials."""
        return codewords.verify_perfect(self, mode, budget, trials, seed)
