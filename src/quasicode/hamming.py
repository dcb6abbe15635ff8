"""Single-error-correcting codes over a coefficient algebra.

A code handle fixes the algebra, the number of check coordinates m, and one
pivot value per position (the right unit unless overridden).  Coordinates are
the canonical columns: leading zeros, the pivot at the leading position, an
arbitrary tail.  A vector belongs to the code when its syndrome
sum_a x_a * a vanishes; every nonzero dense vector factors uniquely as
y * a with a canonical, which is what normalize computes and what makes the
code perfect.

Over compiled index tables (fields up to tables.FLAT_LIMIT, Cayley tables), decode and the
syndromes read the tables in one kernel each; the rationals, quaternions, octonions and
larger fields run the payload methods, decode's correction factoring the syndrome by
_factor as normalize does; their syndromes skip zero entries and start each coordinate at
its first term (exact: payloads are canonical, zero annihilates and adds nothing).  Decode
is the oracle at the API and for reconstruct (decode_weight2); the weight-3 loops read its
correction kernel, with the same refusal (_weight3).  weight3_generators decodes each
weight-3 codeword once and marks its two later entry pairs; an unmarked pair that decodes
before its second column is refused, as no perfect code gives one.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from .algebra import Algebra, Scalar
from .algebra.base import SHOWN, Report, first_failure, outcome, seeded_cases, sorted_elements
from .errors import (
    DEFAULT_BUDGET,
    DomainError,
    InconsistencyError,
    InvalidParameterError,
    Power,
    UnsupportedError,
    check_budget,
    check_count,
    check_height,
    choose_mode,
    size_text,
)
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


def _close_pair(rows: list[tuple], q: int) -> tuple[int, int] | None:
    """The first index pair a < b, in itertools.combinations order, of rows at distance < 3.

    Rows of ranks below q at distance at most 2 agree once some two coordinates are
    deleted.  Read as base-q numbers with those two digits cleared, they hash equal
    under that deletion, so the search costs O(len(rows) * n^2).
    """
    digits = [[row[k] * q**k for row in rows] for k in range(len(rows[0]))]
    whole = [sum(ds) for ds in zip(*digits)]
    best = None
    for di, dj in itertools.combinations(digits, 2):
        keys = list(map(operator.sub, map(operator.sub, whole, di), dj))
        if len(set(keys)) == len(keys):
            continue
        first = {}
        for b, key in enumerate(keys):
            a = first.setdefault(key, b)
            if a != b and (best is None or (a, b) < best):
                best = (a, b)
    return best


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
        if col.algebra != self.algebra or col.m != self.m:
            return False
        return self._is_canonical_payloads(col.payloads)

    def _require_canonical(self, columns) -> None:
        """Raise DomainError naming the first of columns that is not canonical for this code."""
        for col in itertools.filterfalse(self.is_canonical_column, columns):
            raise DomainError(f"column {col} is not canonical for this code")

    def _is_canonical_payloads(self, a) -> bool:
        """Whether column entry payloads a lead with their position's pivot."""
        is_zero = self.algebra._is_zero
        for beta, e in enumerate(a):
            if not is_zero(e):
                return e == self._pivot_payloads[beta]
        return False

    def random_column(self, rng, height: int = 10) -> Column:
        check_height(height)
        return self._column(self._random_column_payloads(rng, height))

    def _random_column_payloads(self, rng, height: int = 10) -> tuple:
        """A canonical column's entry payloads: a random leading position, then random tail entries."""
        # beta = rng.randrange(m), inlined as CPython's _randbelow(m) like the algebras' randint
        m, bits, k = self.m, rng.getrandbits, self.m.bit_length()
        while (beta := bits(k)) >= m:
            pass
        tail = [self.algebra._random(rng, height) for _ in range(m - beta - 1)]
        return (self.algebra._zero(),) * beta + (self._pivot_payloads[beta], *tail)

    # -- factorization ------------------------------------------------------------

    def _dense_payloads(self, z) -> list:
        if not isinstance(z, Column):
            raise DomainError("normalize expects a DenseVec or Column")
        if z.algebra != self.algebra or z.m != self.m:
            raise DomainError("vector does not match the code's ambient")
        return list(z.payloads)

    def _factor(self, z, right: bool) -> tuple[object, list]:
        """Payloads (y, a) with z = y * a (left action) or z = a * y (right), a canonical."""
        alg = self.algebra
        zero = alg._zero()
        for beta, head in enumerate(z):
            if head != zero:
                break
        else:
            name = "normalize_right" if right else "normalize"
            raise DomainError(f"{name}: the zero vector has no factorization")
        if right:
            solve_head, solve_tail = alg._solve_left, alg._solve_right
        else:
            solve_head, solve_tail = alg._solve_right, alg._solve_left
        pivot = self._pivot_payloads[beta]
        y = solve_head(pivot, head)
        a = [zero] * beta + [pivot]
        a += [solve_tail(y, z[i]) for i in range(beta + 1, self.m)]
        return y, a

    def _column(self, payloads) -> Column:
        return Column._wrap(self.algebra, tuple(payloads))

    def _dense(self, payloads) -> DenseVec:
        return DenseVec._wrap(self.algebra, tuple(payloads))

    def normalize(self, z) -> tuple[Scalar, Column]:
        """Factor a nonzero dense vector uniquely as z = y * a with a canonical."""
        y, a = self._factor(self._dense_payloads(z), right=False)
        return Scalar(self.algebra, y), self._column(a)

    def normalize_right(self, z) -> tuple[Scalar, Column]:
        """Factor a nonzero dense vector uniquely as z = a * y with a canonical."""
        y, a = self._factor(self._dense_payloads(z), right=True)
        return Scalar(self.algebra, y), self._column(a)

    # -- membership and decoding ----------------------------------------------------

    def _check_vector(self, x: FinVec):
        """Check x against the code; its (column payloads, value payload) entries.

        FinVec keeps its columns in its own algebra and length, so matching the
        ambient covers them; each column must then lead with its pivot.
        """
        if x.algebra is not self.algebra and x.algebra != self.algebra or x.m != self.m:
            raise DomainError("vector does not match the code's ambient")
        # _is_canonical_payloads inlined: this loop runs once per support column of every decode
        zero, pivots = self.algebra._zero(), self._pivot_payloads
        for a in x._map:
            for beta, e in enumerate(a):
                if e != zero:
                    break
            else:
                beta = None
            if beta is None or a[beta] != pivots[beta]:
                self._require_canonical(x.support())  # reports the first offending column in sorted order
        return x._map.items()

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
        z = self._syndrome_payloads(terms, False)
        if self._is_zero_payloads(z):
            return None
        y, a = self._factor(z, right=False)
        return tuple(a), self.algebra._neg(y)

    def _table_correction(self, terms):
        """_payload_correction in one frame of table reads: the syndrome, its head, the head's and
        the tail's divisions and the negation."""
        alg = self.algebra
        add, mul, zero = alg.add_table, alg.mul_table, alg.zero_index
        z = [zero] * self.m
        for a, v in terms:
            row = mul[v]
            for i, e in enumerate(a):
                z[i] = add[z[i]][row[e]]
        for beta, head in enumerate(z):
            if head != zero:
                pivot = self._pivot_payloads[beta]
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
        fix = self._correction(self._check_vector(y))
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

    def _weight3(self, a1, alpha, a2, beta) -> dict:
        """The codeword through payloads alpha at column a1 and beta at a2 as a payload map, its third
        entry read off decode's correction kernel and refused as decode_weight2 refuses it."""
        fix = self._correction(((a1, alpha), (a2, beta)))
        if fix is None or fix[0] in (a1, a2):
            raise _not_weight3(FinVec._checked(self.algebra, self.m, {a1: alpha, a2: beta}))
        return {a1: alpha, a2: beta, fix[0]: fix[1]}

    def weight3_generators(self, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """Every weight-3 codeword once, in the order its first two columns and their entries are reached.

        A codeword on columns a1 < a2 < a3 (enumerate_columns order) is decoded once, from its entries at
        (a1, a2) (_weight3); its later entry pairs, at (a1, a3) and (a2, a3), are marked and skipped.
        """
        alg, m = self.algebra, self.m
        columns = [col.payloads for col in self.enumerate_columns(budget)]
        els = list(alg._elements())
        n, q = len(columns), len(els)
        check_budget(n * (n - 1) // 2 * (q - 1) ** 2, budget, "generator enumeration needs {} decodes")
        # entry (column rank i, scalar index t) is numbered i * q + t; the entry pair (e, f) is marked at e * size + f
        size, rank, index = n * q, {a: i * q for i, a in enumerate(columns)}, {v: t for t, v in enumerate(els)}
        entries = [[(i + t, v) for t, v in enumerate(els) if not alg._is_zero(v)] for i in rank.values()]
        marks, wrap, weight3, out = bytearray(size * size), FinVec._checked, self._weight3, []
        for (i, a1), (j, a2) in itertools.combinations(enumerate(columns), 2):
            for (e1, alpha), (e2, beta) in itertools.product(entries[i], entries[j]):
                if marks[e1 * size + e2]:
                    continue
                c = weight3(a1, alpha, a2, beta)
                *_, a3 = c
                e3 = rank[a3] + index[c[a3]]
                if e3 < j * q:
                    w2, c = wrap(alg, m, {a1: alpha, a2: beta}), wrap(alg, m, c)
                    raise InconsistencyError(f"decoding {w2!r} gave {c!r}, whose third column comes before the word's "
                                             "second; the code is not a perfect group code")
                marks[e1 * size + e3] = marks[e2 * size + e3] = 1
                out.append(wrap(alg, m, c))
        return out

    def weight3_batch(self, trials: int | None, seed: int, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """The weight-3 codewords a certificate maps: weight3_generators over a finite algebra,
        else trials seeded draws of random_codeword(rng, pieces=1)."""
        if choose_mode(None, "sampled", self.column_size(), budget, "code has {} columns") == "exhaustive":
            return self.weight3_generators(budget)
        rng = random.Random(seed)
        return [self.random_codeword(rng, pieces=1) for _ in range(check_count(trials, "trials"))]

    # -- enumeration -------------------------------------------------------------------

    def _codeword_rows(self, budget: int, choice=None) -> tuple[list, list[tuple]]:
        """The payloads in scalar order, and each codeword as a row of their ranks in column order.

        x is a codeword when sum_a x_a * r_a vanishes, r_a being the column a or, with a
        choice function, c_a * a.  Each assignment to the n - m non-identity columns
        extends to one codeword, whose entry at the identity column of position beta
        solves x_beta * r_beta[beta] = -s_beta for the syndrome s of the assigned part
        (systematic encoding; it needs an abelian addition, an annihilating zero and unique
        right division).  The rows come sorted, as the ambient product lists the codewords.
        """
        check_budget(self.ambient_size(), budget, "ambient has {} vectors")
        alg, m = self.algebra, self.m
        add, mul, neg, solve, is_zero = alg._add, alg._mul, alg._neg, alg._solve_right, alg._is_zero
        els = sorted_elements(alg)
        rank = {v: k for k, v in enumerate(els)}
        cols = self.enumerate_columns()
        reps = [list(a.payloads) for a in cols]
        checks, free = [None] * m, []
        for i, r in enumerate(reps):
            support = [beta for beta, e in enumerate(r) if not is_zero(e)]
            if len(support) == 1:
                checks[support[0]] = i
            else:
                free.append(i)
        if choice is not None:
            reps = [[mul(choice._rep(a.payloads), e) for e in r] for a, r in zip(cols, reps)]
        # partial syndromes of every assignment to the free columns, in product order
        partial = [((), (alg._zero(),) * m)]
        for i in free:
            terms = [(k, [mul(v, e) for e in reps[i]]) for k, v in enumerate(els)]
            partial = [(ks + (k,), tuple(map(add, s, t))) for ks, s in partial for k, t in terms]
        solved = [
            {v: rank[solve(reps[checks[beta]][beta], neg(v))] for v in els} for beta in range(m)
        ]
        # column i reads entry where[i] of (free ranks + check ranks)
        where = sorted(range(len(cols)), key=(free + checks).__getitem__)
        rows = []
        for ks, s in partial:
            ranks = ks + tuple(sol[v] for sol, v in zip(solved, s))
            rows.append(tuple(map(ranks.__getitem__, where)))
        rows.sort()
        return els, rows

    def _codewords(self, els, rows) -> list[FinVec]:
        """Rows of ranks into els, as codewords."""
        alg, m = self.algebra, self.m
        cols = [a.payloads for a in self.enumerate_columns()]
        nonzero = [not alg._is_zero(v) for v in els]
        return [FinVec._checked(alg, m, {cols[i]: els[k] for i, k in enumerate(row) if nonzero[k]}) for row in rows]

    def enumerate_codewords(self, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
        """Every codeword, in the order the ambient product in scalar order lists them."""
        return self._codewords(*self._codeword_rows(budget))

    def random_codeword(self, rng, pieces: int | None = None, height: int = 10) -> FinVec:
        """A random codeword: a sum of random weight-3 codewords."""
        check_height(height)
        if pieces is None:
            pieces = rng.randint(1, 3)
        alg, draw = self.algebra, self._random_column_payloads
        acc = FinVec.zero(alg, self.m)
        for _ in range(pieces):
            a1, a2 = draw(rng, height), draw(rng, height)
            while a2 == a1:
                a2 = draw(rng, height)
            alpha = alg._random_nonzero(rng, height)
            beta = alg._random_nonzero(rng, height)
            acc = acc + FinVec._checked(alg, self.m, self._weight3(a1, alpha, a2, beta))
        return acc

    # -- perfectness ----------------------------------------------------------------------

    def verify_perfect(
        self,
        mode: str = "auto",
        budget: int = DEFAULT_BUDGET,
        trials: int = 10000,
        seed: int = 0,
    ) -> "PerfectnessReport":
        """Exhaustive when the ambient fits the budget, else (with a notice in exhaustive mode)
        structural over the q^m - 1 nonzero vectors of a finite algebra, or over seeded trials."""
        if mode not in ("auto", "exhaustive", "structural"):
            raise UnsupportedError(f"unknown verify mode {mode!r}")
        finite, notice = self.algebra.is_finite, ""
        size = self.ambient_size() if finite else None
        try:
            mode = choose_mode(mode, "structural", size, budget, "ambient has {} vectors")
        except UnsupportedError:  # an exhaustive request falls back, with a notice
            shown = f"{size_text(size)} vectors > budget {budget}" if finite else "infinite algebra"
            notice = f"exhaustive enumeration infeasible ({shown}); fell back to structural mode"
            mode = "structural"
        if mode == "structural" and finite:
            check_budget(Power(self.algebra.order, self.m, 1), budget, "structural check needs {} nonzero vectors")
        report = PerfectnessReport.of(
            self.algebra,
            mode=mode,
            m=self.m,
            q=self.algebra.order,
            n=self.column_count(),
            budget=budget,
            notice=notice,
        )
        if mode == "exhaustive":
            self._verify_exhaustive(report, budget)
        elif finite:
            self._verify_structural_finite(report, budget)
        else:
            report.trials = check_count(trials, "trials")
            report.seed = seed
            self._verify_structural_sampled(report, trials, seed)
        return report

    def _verify_exhaustive(self, report: "PerfectnessReport", budget: int) -> None:
        els, rows = self._codeword_rows(budget)
        q, n = self.algebra.order, self.column_count()
        report.code_size = len(rows)
        report.covering_identity_ok = len(rows) * (1 + n * (q - 1)) == q**n
        close = _close_pair(rows, q)
        report.min_distance_ok = close is None
        if close is not None:
            x, y = self._codewords(els, [rows[i] for i in close])
            report.witnesses.append(f"codewords at distance < 3: {x!r} vs {y!r}")

    def _verify_structural_finite(self, report: "PerfectnessReport", budget: int) -> None:
        # line disjointness and factorization totality over the q^m - 1 products z = y * a: certified
        # by the rows of each y when they pass, else every product is factored and recorded in seen
        alg, m, q = self.algebra, self.m, self.algebra.order
        zero, is_zero, solve_head = alg._zero(), alg._is_zero, alg._solve_right
        els = tuple(sorted_elements(alg))  # the payloads 0..q-1, which index every row
        nonzero = [y for y in els if not is_zero(y)]

        def inverted(y):  # y * 0 = 0, y's left division undoes its row, and each head solves back to y
            row = alg._mul_row(y)
            divides = is_zero(row[zero]) and tuple(map(alg._left_div_row(y).__getitem__, row)) == els
            return divides and all(solve_head(p, row[p]) == y for p in self._pivot_payloads)

        report.property_a_ok = report.property_b_ok = True
        if all(map(inverted, nonzero)):
            # normalize inverts (y, a) -> y * a, so the (q - 1) * n products are distinct: all q^m - 1
            report.lines_checked = q**m - 1
            return
        seen: dict[tuple, tuple] = {}
        for y, a in itertools.product(nonzero, self.enumerate_columns(budget)):
            expected = list(a.payloads)
            z = tuple(alg._mul(y, e) for e in expected)
            y1, a1 = seen.setdefault(z, (y, a))
            if (y1, a1) != (y, a):
                report.property_a_ok = False
                report.witnesses.append(
                    f"two factorizations of {self._dense(z)}: ({alg.format_value(y1)},{a1}) "
                    f"and ({alg.format_value(y)},{a})"
                )
            y2, a2 = self._factor(z, right=False)
            if y2 != y or a2 != expected:
                report.property_b_ok = False
                report.witnesses.append(
                    f"normalize({self._dense(z)}) returned ({alg.format_value(y2)},"
                    f"{self._column(a2)}), expected ({alg.format_value(y)},{a})"
                )
        report.lines_checked = len(seen)
        if len(seen) != q**m - 1:
            report.property_b_ok = False
            report.witnesses.append(f"products cover {len(seen)} of {q ** m - 1} nonzero dense vectors")

    def _verify_structural_sampled(self, report: "PerfectnessReport", trials: int, seed: int) -> None:
        alg, m = self.algebra, self.m
        draw, mul, is_zero, fmt = alg._random, alg._mul, alg._is_zero, alg.format_value
        rng = random.Random(seed)

        def rederived(a1, y):  # (a) a random point of a random line re-derives its own line
            return self._factor([mul(y, e) for e in a1], right=False)

        def fault(z):  # (b) a nonzero dense vector factors, consistently; "" when it does, or for zero
            if self._is_zero_payloads(z):
                return ""
            y, a = self._factor(z, right=False)
            if is_zero(y) or not self._is_canonical_payloads(a):
                return "returned a non-canonical factorization"
            return "" if [mul(y, e) for e in a] == z else "does not reproduce the vector"

        lines = seeded_cases(lambda: (list(self._random_column_payloads(rng)), alg._random_nonzero(rng)), trials)
        _, w = first_failure(lambda a1, y: rederived(a1, y) == (y, a1), lines)
        report.property_a_ok = w is None
        if w:
            (a1, y), (y2, a2) = w, rederived(*w)
            report.witnesses.append(
                f"normalize({self._dense([mul(y, e) for e in a1])}) returned ({fmt(y2)},{self._column(a2)}), "
                f"expected ({fmt(y)},{self._column(a1)})"
            )
        vectors = seeded_cases(lambda: ([draw(rng, 10) for _ in range(m)],), trials)
        _, w = first_failure(lambda z: not fault(z), vectors)
        report.property_b_ok = w is None
        if w:
            report.witnesses.append(f"normalize({self._dense(w[0])}) {fault(w[0])}")


@dataclass
class PerfectnessReport(Report):
    mode: str
    m: int
    q: int | None
    n: int | None
    budget: int
    trials: int | None = None
    seed: int | None = None
    code_size: int | None = None
    covering_identity_ok: bool | None = None
    min_distance_ok: bool | None = None
    property_a_ok: bool | None = None
    property_b_ok: bool | None = None
    lines_checked: int | None = None
    notice: str = ""
    witnesses: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        flags = [
            self.covering_identity_ok,
            self.min_distance_ok,
            self.property_a_ok,
            self.property_b_ok,
        ]
        stated = [f for f in flags if f is not None]
        return bool(stated) and all(stated)

    def fields(self) -> list[tuple]:
        return [
            ("mode", self.mode),
            ("m", self.m),
            ("q", "infinite" if self.q is None else self.q),
            ("n", "unbounded" if self.n is None else self.n),
            ("budget", self.budget),
            ("trials", self.trials),
            ("seed", self.seed),
            ("code size", self.code_size),
            ("covering identity", outcome(self.covering_identity_ok)),
            ("min distance >= 3", outcome(self.min_distance_ok)),
            ("line disjointness", outcome(self.property_a_ok)),
            ("factorization totality", outcome(self.property_b_ok)),
            ("nonzero vectors checked", self.lines_checked),
            ("notice", self.notice or None),
            ("witness", self.witnesses[:SHOWN]),
            ("verdict", outcome(self.verdict, "perfect", "NOT VERIFIED")),
        ]
