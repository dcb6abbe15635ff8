"""Isometries between codes and the certificates that classify them.

The pieces here either construct an explicit distance-preserving map between
two codes (different line representatives, changed check basis) or certify
that no such map exists / no stronger linearity holds (column-dependence
invariants, associativity and commutativity escape witnesses, conjugation
onto the right-handed code).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from .algebra import Scalar, solve_right
from .algebra.base import SHOWN, Report, outcome, seeded_cases, sorted_elements
from .errors import (
    DEFAULT_BUDGET,
    Binomial,
    DomainError,
    InconsistencyError,
    InvalidIsometryError,
    InvalidParameterError,
    Power,
    UnsupportedError,
    check_budget,
    check_count,
    choose_mode,
)
from .finvec import Column, DenseVec, FinVec

# lazy modules read at call time: each executes only when a certificate that reads it runs
from . import codewords, linalg
from .algebra import audit, hypercomplex, structure

# Sampled distinguishing refuses after this many draws in a row repeat a chosen column.  The
# rarest column of a height-10 draw over the rationals at m=2 comes with probability 1/420,
# so it stays undrawn this long with probability below 1e-10.
REPEATED_DRAWS = 10_000

# -- isometries ------------------------------------------------------------------


class LinearIsometry:
    """Coordinate permutation plus right multipliers, identity off a finite set.

    pi maps columns to columns, alpha gives the multiplier applied on the
    right of each entry.  A rule callback may supply (target, multiplier)
    lazily for columns outside the explicit maps.  apply reads pi and alpha
    as they stood at construction, keyed by payloads.
    """

    def __init__(self, algebra, m, pi=None, alpha=None, rule=None):
        self.algebra = algebra
        self.m = m
        self.pi = dict(pi or {})
        self.alpha = dict(alpha or {})
        self.rule = rule
        for col, target in self.pi.items():
            if col.algebra != algebra or target.algebra != algebra:
                raise DomainError("isometry columns must belong to the stated algebra")
            if col.m != m or target.m != m:
                raise DomainError("isometry columns must match the stated ambient")
        if len(set(self.pi.values())) != len(self.pi):
            raise InvalidIsometryError("pi maps two columns to the same column")
        for col, mult in self.alpha.items():
            if mult.is_zero():
                raise InvalidIsometryError(f"multiplier at {col} is zero")
        self._pi = {col.payloads: target.payloads for col, target in self.pi.items()}
        self._alpha = {col.payloads: mult.value for col, mult in self.alpha.items()}

    def _resolve(self, a: tuple) -> tuple[tuple, object]:
        """The target column payloads of column payloads a, and its multiplier payload or None."""
        if self.rule is not None and a not in self._pi and a not in self._alpha:
            target, mult = self.rule(Column._wrap(self.algebra, a))
            return target.payloads, None if mult is None else mult.value
        return self._pi.get(a, a), self._alpha.get(a)

    def _images(self, rows):
        """(target, image value) payloads of (column, value) payload rows; raises at the first
        two columns sent to one target, or at the first image value that vanishes."""
        alg, seen = self.algebra, {}
        for a, v in rows:
            target, mult = self._resolve(a)
            if target in seen:
                shown = (Column._wrap(alg, c) for c in (seen[target], a, target))
                raise InvalidIsometryError("pi sends both {} and {} to {}".format(*shown))
            seen[target] = a
            if mult is not None:
                v = alg._mul(v, mult)
            if alg._is_zero(v):
                raise InvalidIsometryError(f"image entry at {Column._wrap(alg, target)} vanished")
            yield target, v

    def _image_rows(self, x: FinVec) -> list:
        # the (target, value) payload rows of apply(x), for x in the isometry's ambient
        try:
            return list(self._images(x._map.items()))
        except InvalidIsometryError:
            return list(self._images(x._rows()))  # raises the first failure in sorted column order

    def apply(self, x: FinVec) -> FinVec:
        if x.algebra != self.algebra or x.m != self.m:
            raise DomainError("vector does not match the isometry's ambient")
        return FinVec._checked(x.algebra, x.m, dict(self._image_rows(x)))


def apply_isometry(isometry: LinearIsometry, x: FinVec) -> FinVec:
    return isometry.apply(x)


# -- choice functions (line representatives) ------------------------------------------


class ChoiceFunction:
    """One nonzero representative scalar per canonical column; default 1."""

    def __init__(self, algebra, mapping=None, default=None):
        self.algebra = algebra
        if default is None:
            default = algebra.right_unit()
            if default is None:
                raise InvalidParameterError(
                    f"{algebra.label} has no right unit; pass an explicit default representative"
                )
        if default.algebra != algebra or default.is_zero():
            raise InvalidParameterError("default representative must be a nonzero scalar")
        self.default = default
        self.mapping = dict(mapping or {})
        for col, c in self.mapping.items():
            if col.algebra != algebra:
                raise DomainError(f"column {col} does not belong to {algebra.label}")
            if c.algebra != algebra or c.is_zero():
                raise InvalidParameterError(f"representative at {col} must be a nonzero scalar")
        self._reps = {col.payloads: c.value for col, c in self.mapping.items()}

    def __call__(self, col: Column) -> Scalar:
        return self.mapping.get(col, self.default)

    def _rep(self, a: tuple):
        """The representative's payload at column payloads a."""
        return self._reps.get(a, self.default.value)


def _choice_terms(code, choice: ChoiceFunction):
    """The syndrome terms (c_a * a, value) of (column, value) payload rows, as a function that
    scales each column's payloads on its first read only."""
    if choice.algebra != code.algebra:
        raise DomainError("choice functions must live over the code's algebra")
    mul, rep = code.algebra._mul, choice._rep
    scaled = functools.cache(lambda a: [mul(rep(a), e) for e in a])
    return lambda rows: [(scaled(a), v) for a, v in rows]


def choice_syndrome(code, choice: ChoiceFunction, x: FinVec) -> DenseVec:
    """sum of x_a * (c_a * a) over the support of x."""
    return code._dense(code._syndrome(_choice_terms(code, choice)(code._check_vector(x)), right=False))


def choice_contains(code, choice: ChoiceFunction, x: FinVec) -> bool:
    return code._in_code(_choice_terms(code, choice)(code._check_vector(x)))


def enumerate_choice_codewords(code, choice: ChoiceFunction, budget: int = DEFAULT_BUDGET) -> list[FinVec]:
    """Every codeword of the code with representatives choice, in ambient product order.

    Systematic encoding as for the plain code, with each identity entry solved
    against c_beta * pivot_beta.
    """
    if choice.algebra != code.algebra:
        raise DomainError("choice functions must live over the code's algebra")
    code._require_canonical(choice.mapping)
    return codewords.enumerate_codewords(code, budget, choice)


def _choice_word(choice: ChoiceFunction, g: FinVec) -> FinVec:
    """The word x with x_a * c_a = g_a: for associative scalars x_a * (c_a * a) = g_a * a,
    so x lies in the code with representatives choice exactly when g lies in the plain code."""
    alg = g.algebra
    solve, is_zero, rep = alg._solve_right, alg._is_zero, choice._rep
    return FinVec._checked(alg, g.m, {a: x for a, v in g._map.items() if not is_zero(x := solve(rep(a), v))})


def choice_isomorphism(
    code, e1: ChoiceFunction, e2: ChoiceFunction, budget: int = DEFAULT_BUDGET, trials: int = 20, seed: int = 0
) -> LinearIsometry:
    """The isometry carrying the code with representatives e1 onto the one with e2.

    Keeps every column in place; the multiplier at column a solves
    alpha * c2_a = c1_a, so syndromes match term by term.  It is checked on
    weight3_batch(trials, seed, budget).
    """
    if not audit.is_associative(code.algebra, budget):
        raise UnsupportedError(f"{code.algebra.label}: representative-change isomorphisms need associative scalars")
    if e1.algebra != code.algebra or e2.algebra != code.algebra:
        raise DomainError("choice functions must live over the code's algebra")
    code._require_canonical([*e1.mapping, *e2.mapping])
    default_mult = solve_right(e2.default, e1.default)
    alpha = {col: solve_right(e2(col), e1(col)) for col in set(e1.mapping) | set(e2.mapping)}
    unit = code.algebra.right_unit()
    rule = None if unit is not None and default_mult == unit else lambda col, _m=default_mult: (col, _m)
    iso = LinearIsometry(code.algebra, code.m, pi={}, alpha=alpha, rule=rule)
    _verify_choice_isometry(code, e1, e2, iso, budget, trials, seed)
    return iso


def _verify_choice_isometry(code, e1, e2, iso, budget: int, trials: int, seed: int) -> None:
    """Map the weight-3 codewords of the e1 code (trials seeded ones over an infinite algebra)
    and insist the images land in the target."""
    # both words lie on the code's own canonical columns, so their payload rows are read unchecked
    terms1, terms2 = _choice_terms(code, e1), _choice_terms(code, e2)
    for g in code.weight3_batch(trials, seed, budget):
        x = _choice_word(e1, g)
        if not code._in_code(terms1(x._map.items())):
            raise InconsistencyError("failed to build a weight-3 codeword for the chosen representatives")
        if not code._in_code(terms2(iso._image_rows(x))):
            raise InconsistencyError(f"representative-change isometry does not carry {x!r} into the target code")


# -- basis changes ------------------------------------------------------------------


class BasisChange:
    """Invertible check-basis substitution, built from elementary operations.

    The matrix acts on row vectors from the right: (vM)_j = sum_i v_i * M[i][j].
    """

    def __init__(self, algebra, rows, provenance=()):
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        for r in self.rows:
            if len(r) != self.m:
                raise InvalidParameterError("basis change matrix must be square")
            for e in r:
                if e.algebra != algebra:
                    raise DomainError("matrix entries must belong to the stated algebra")
        self.provenance = tuple(provenance)

    @classmethod
    def identity(cls, algebra, m) -> "BasisChange":
        unit = algebra.right_unit()
        if unit is None:
            raise UnsupportedError(f"{algebra.label} has no unit to build matrices from")
        zero = algebra.zero()
        rows = [[unit if i == j else zero for j in range(m)] for i in range(m)]
        return cls(algebra, rows, ("identity",))

    @classmethod
    def swap(cls, algebra, m, i, j) -> "BasisChange":
        _check_index(m, i)
        _check_index(m, j)
        if i == j:
            raise InvalidParameterError("swap needs two distinct coordinates")
        rows = [list(r) for r in cls.identity(algebra, m).rows]
        rows[i], rows[j] = rows[j], rows[i]
        return cls(algebra, rows, (f"swap({i},{j})",))

    @classmethod
    def scale(cls, algebra, m, i, alpha: Scalar) -> "BasisChange":
        _check_index(m, i)
        if alpha.algebra != algebra or alpha.is_zero():
            raise InvalidParameterError("scale factor must be a nonzero scalar of the algebra")
        rows = [list(r) for r in cls.identity(algebra, m).rows]
        rows[i][i] = alpha
        return cls(algebra, rows, (f"scale({i},{alpha})",))

    @classmethod
    def shear(cls, algebra, m, i, j, alpha: Scalar) -> "BasisChange":
        """Adds alpha times coordinate i into coordinate j."""
        _check_index(m, i)
        _check_index(m, j)
        if i == j:
            raise InvalidParameterError("shear needs two distinct coordinates")
        if alpha.algebra != algebra:
            raise DomainError("shear factor must belong to the stated algebra")
        rows = [list(r) for r in cls.identity(algebra, m).rows]
        rows[i][j] = alpha
        return cls(algebra, rows, (f"shear({i},{j},{alpha})",))

    @classmethod
    def from_ops(cls, algebra, m, ops) -> "BasisChange":
        """Compose ("swap", i, j) / ("scale", i, alpha) / ("shear", i, j, alpha) steps."""
        acc = cls.identity(algebra, m)
        for name, *args in ops:
            if name not in ("swap", "scale", "shear"):
                raise InvalidParameterError(f"unknown basis operation {name!r}")
            acc = acc.compose(getattr(cls, name)(algebra, m, *args))
        return acc

    def compose(self, other: "BasisChange") -> "BasisChange":
        """First apply self, then other: the product matrix self.rows * other.rows."""
        if other.algebra != self.algebra or other.m != self.m:
            raise DomainError("cannot compose basis changes over different ambients")
        zero, cols = self.algebra.zero(), list(zip(*other.rows))
        rows = [[sum(map(operator.mul, row, col), zero) for col in cols] for row in self.rows]
        prov = tuple(p for p in self.provenance + other.provenance if p != "identity")
        return BasisChange(self.algebra, rows, prov or ("identity",))

    def __str__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"[{body}]"


def _check_index(m: int, i: int) -> None:
    if not 0 <= i < m:
        raise InvalidParameterError(f"coordinate {i} out of range for m={m}")


def basis_change_isomorphism(code, change: BasisChange, budget: int = DEFAULT_BUDGET) -> LinearIsometry:
    """The isometry induced on coordinates by substituting the check basis.

    Each column's row vector is pushed through the matrix and re-normalized:
    aM = alpha_a * pi(a).  The code is carried onto itself.
    """
    if not audit.is_associative(code.algebra, budget):
        raise UnsupportedError(f"{code.algebra.label}: basis-change isomorphisms need associative scalars")
    if change.algebra != code.algebra or change.m != code.m:
        raise DomainError("basis change does not match the code's ambient")

    alg, m = code.algebra, code.m
    rows = [[e.value for e in r] for r in change.rows]

    def image(a: tuple) -> tuple[tuple, object]:
        # the payloads (target, y) with aM = sum a_i * M_i = y * target: the syndrome of the rows M_i valued a_i
        factors = code._factor(code._syndrome(list(zip(rows, a)), False), right=False)
        if factors is None:
            raise InvalidIsometryError(f"basis change annihilates column {code._column(a)}; matrix is singular")
        y, target = factors
        return tuple(target), y

    def rule(col: Column) -> tuple[Column, Scalar]:
        target, y = image(col.payloads)
        return code._column(target), Scalar(alg, y)

    if not alg.is_finite:
        return LinearIsometry(alg, m, rule=rule)
    cols = code.enumerate_columns(budget)
    images = [image(col.payloads) for col in cols]
    if len({target for target, _ in images}) != len(cols):
        raise InvalidIsometryError("basis change does not permute the columns; matrix is singular")
    known = {col.payloads: col for col in cols}  # the targets permute the code's own columns
    pi = {col: known[target] for col, (target, _) in zip(cols, images)}
    return LinearIsometry(alg, m, pi=pi, alpha={col: Scalar(alg, y) for col, (_, y) in zip(cols, images)})


# -- column dependence over the base subfield ----------------------------------------


def support_witness(code, columns, budget: int = DEFAULT_BUDGET) -> FinVec | None:
    """A nonzero codeword supported inside the given columns, or None.

    Left-coefficient dependence is rewritten as a linear system over the
    algebra's base subfield through its structure constants; finite algebras
    without that structure fall back to a bounded search (_witness_brute).
    """
    return _support_witness(code, columns, budget, {})


def _support_witness(code, columns, budget: int, blocks: dict) -> FinVec | None:
    """support_witness, sharing blocks (see _witness_linearized) with the other column sets of one certificate."""
    cols = set(columns)
    # the key sort, once every column is in the code's algebra; else the comparisons raise as they name them
    cols = sorted(cols, key=Column.sort_key) if all(col.algebra == code.algebra for col in cols) else sorted(cols)
    if not cols:
        return None
    code._require_canonical(cols)
    st = structure.subfield_structure(code.algebra)
    witness = _witness_brute(code, cols, budget) if st is None else _witness_linearized(code, cols, st, blocks)
    if witness is not None and not code._in_code(witness._map.items()):  # on the columns checked above
        raise InconsistencyError("computed dependence witness fails the syndrome check")
    return witness


def _witness_linearized(code, cols, st, blocks: dict) -> FinVec | None:
    # unknown s*n + r is the coefficient of basis element r in the left multiplier
    # of column n; equation (l, w) is coordinate w of the syndrome's entry l.  Each
    # entry expands to integer numerators over one denominator, and the equations of
    # entry l are scaled by the lcm of those denominators, so every row is integer.
    # entry l of every column is read off one (denominator, right-action matrix) block per distinct
    # payload, kept in blocks: the pivots and zeros repeat across canonical columns
    s, rows = st.dimension, []
    for entries in zip(*(col.payloads for col in cols)):
        for v in entries:
            if v not in blocks:
                nums, d = st.expand_int(v)
                blocks[v] = d, st.right_action(nums)
        coords = [blocks[v] for v in entries]
        den = math.lcm(*(d for d, _ in coords))
        rows += [[den // d * x for d, act in coords for x in act[w]] for w in range(s)]
    sol = linalg.nullspace_vector(rows, s * len(cols), st.modulus)
    if sol is None:
        return None
    alg, values = code.algebra, [st._recombine(sol[s * n : s * n + s]) for n in range(len(cols))]
    return FinVec._checked(alg, code.m, {col.payloads: v for col, v in zip(cols, values) if not alg._is_zero(v)})


def _witness_brute(code, cols, budget: int) -> FinVec | None:
    """The first nonzero codeword with values on cols, in product order over sorted_elements: each
    prefix of values on all but the last column c is completed by the one value y that clears the
    syndrome at c's pivot coordinate b, y * c[b] = -z_b, and kept if the whole syndrome vanishes."""
    alg, q = code.algebra, code.algebra.order
    if q is None:
        raise UnsupportedError(f"{alg.label}: no subfield structure and the algebra is infinite; "
                               "dependence search is not possible")
    check_budget(Power(q, len(cols)), budget, "brute-force dependence search needs {} tuples")
    els, is_zero = sorted_elements(alg), alg._is_zero
    keys = [c.payloads for c in cols]
    beta = cols[-1].pivot_index()
    *heads, pivot = [a[beta] for a in keys]
    for values in itertools.product(els, repeat=len(cols) - 1):
        z = functools.reduce(alg._add, map(alg._mul, values, heads), alg._zero())
        values += (alg._solve_right(pivot, alg._neg(z)),)
        x = {a: v for a, v in zip(keys, values) if not is_zero(v)}
        if x and code._in_code(x.items()):
            return FinVec._checked(alg, code.m, x)
    return None


@dataclass
class DistinguishReport(Report):
    m1: int
    m2: int
    mode: str
    samples: int | None
    seed: int | None
    independent_ok: bool = False
    dependent_checked: int = 0
    dependent_failures: list[str] = field(default_factory=list)
    example_witness: str = ""

    @property
    def verdict(self) -> bool:
        return self.independent_ok and self.dependent_checked > 0 and not self.dependent_failures

    def fields(self) -> list[tuple]:
        first, *rest = self.example_witness.splitlines() or [None]  # one printed line per item
        return [
            ("codes", f"m={self.m1} vs m={self.m2}"),
            ("mode", self.mode),
            ("samples", self.samples),
            ("seed", self.seed),
            ("identity columns of the larger code support no nonzero codeword", outcome(self.independent_ok)),
            (
                f"size-{self.m2} column sets of the smaller code all support a codeword",
                f"{outcome(not self.dependent_failures)} ({self.dependent_checked} sets)",
            ),
            ("example dependence", first),
            (None, rest),
            ("failure", self.dependent_failures[:SHOWN]),
            ("verdict", outcome(self.verdict, "codes distinguished", "NOT DISTINGUISHED")),
        ]


def distinguish_invariant(
    code_a, code_b, samples: int = 100, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> DistinguishReport:
    """Separate two codes over one algebra by maximal-independent-set size.

    The larger code's identity columns admit no dependence; every size-m2
    column set of the smaller code does.  Both halves go through
    support_witness, so an equivalence could not flip the outcome.
    """
    if code_a.algebra != code_b.algebra:
        raise DomainError("distinguishing codes requires a common algebra")
    m1, m2 = code_a.m, code_b.m
    if m1 >= m2:
        raise InvalidParameterError(f"expected m1 < m2, got {m1} and {m2}")
    alg = code_a.algebra
    size = Binomial(code_a.column_size(), m2) if alg.is_finite else None
    mode = choose_mode(None, "sampled", size, budget, "distinguishing checks {} column sets")
    report = DistinguishReport.of_run(alg, mode, samples, seed, "samples", m1=m1, m2=m2)
    blocks = {}  # one algebra, so one block per entry payload across both codes
    report.independent_ok = _support_witness(code_b, code_b.identity_columns(), budget, blocks) is None
    if mode == "exhaustive":
        sets = itertools.combinations(code_a.enumerate_columns(budget), m2)
    else:
        rng = random.Random(seed)

        def sample_set():
            chosen, repeats = [], 0
            while len(chosen) < m2:
                col = code_a.random_column(rng)
                if col not in chosen:
                    chosen.append(col)
                    repeats = 0
                elif (repeats := repeats + 1) == REPEATED_DRAWS:
                    raise UnsupportedError(
                        f"{REPEATED_DRAWS} column draws in a row repeated one of {len(chosen)} columns; "
                        f"the draws of {alg.label} may not hold {m2} distinct columns"
                    )
            return tuple(chosen)

        sets = seeded_cases(sample_set, samples)
    for cols in sets:
        report.dependent_checked += 1
        w = _support_witness(code_a, cols, budget, blocks)
        if w is None:
            report.dependent_failures.append(f"independent set found: {', '.join(map(str, cols))}")
        elif not report.example_witness:
            report.example_witness = str(w)
    return report


# -- linearity escape witnesses ------------------------------------------------------


@dataclass
class NonassocWitnessReport(Report):
    associative: bool
    triple: tuple[Scalar, Scalar, Scalar] | None = None
    codeword: FinVec | None = None
    violation: FinVec | None = None
    in_code: bool | None = None
    scan: str = ""

    @property
    def verdict(self) -> bool:
        if self.associative:
            return self.triple is None
        return (
            self.violation is not None
            and not self.violation.is_zero()
            and self.violation.norm() <= 2
            and self.in_code is False
        )

    def fields(self) -> list[tuple]:
        if self.associative:
            found = [("associative", "no witness")]
            verdict = outcome(self.verdict, "claim holds", "INCONSISTENT")
        else:
            a, b, c = self.triple
            found = [
                ("triple", f"a={a} b={b} c={c}"),
                (None, f"a(bc)={a * (b * c)} (ab)c={(a * b) * c}"),
                ("codeword y", repr(self.codeword)),
                ("a(by) - (ab)y", repr(self.violation)),
                ("violation weight", self.violation.norm()),
                ("violation in code", self.in_code),
            ]
            verdict = outcome(self.verdict, "left scaling escapes the code", "WITNESS NOT VERIFIED")
        return [("scan", self.scan or None), *found, ("verdict", verdict)]


def _scan_pool(alg, arity: int, budget: int) -> list | None:
    """Payloads a deterministic scan of arity-tuples runs over: the probes, or None for every
    element of a finite algebra once its q^arity tuples fit the budget (see law_witness)."""
    size = Power(alg.order, arity) if alg.is_finite else None
    mode = choose_mode(None, "probes", size, budget, "exhaustive witness scan needs {} cases")
    return None if mode == "exhaustive" else alg.probe_values()


def nonassoc_witness(code, budget: int = DEFAULT_BUDGET) -> NonassocWitnessReport:
    """Certify that a nonassociative quasifield's code admits no left scaling.

    From a triple with a(bc) != (ab)c and a weight-3 codeword y starting with
    the right unit, the vector a(by) - (ab)y is nonzero of weight at most 2,
    so it cannot be a codeword even though left-closedness would force it.
    """
    alg = code.algebra
    unit = alg.right_unit()
    if unit is None:
        raise UnsupportedError(f"{alg.label}: the witness construction needs a right unit")
    report = NonassocWitnessReport.of(alg, associative=bool(audit.is_associative(alg, budget)))
    if report.associative:
        report.scan = "skipped (algebra is associative)"
        return report
    pool = _scan_pool(alg, 3, budget)
    shown = f"exhaustive over {alg.order}" if pool is None else f"probe scan over {len(pool)}"
    report.scan = f"{shown}^3 triples"
    triple = audit.law_witness(alg, "associative", pool)
    if triple is None:
        raise InconsistencyError(
            f"{alg.label} is flagged nonassociative but no violating triple was found"
        )
    a, b, c = triple
    report.triple = triple
    i1, i2 = code.identity_columns()[:2]
    y = code.weight3_codeword(i1, i2, unit, c)
    report.codeword = y
    report.violation = y.scalar_mul_left(b).scalar_mul_left(a) - y.scalar_mul_left(a * b)
    report.in_code = code.contains(report.violation)
    if not report.verdict:
        raise InconsistencyError("nonassociativity witness failed verification")
    return report


@dataclass
class RightLinearityReport(Report):
    commutative: bool
    mode: str
    checked: int = 0
    trials: int | None = None
    seed: int | None = None
    witness_codeword: FinVec | None = None
    witness_scalar: Scalar | None = None
    disagreement: str = ""

    @property
    def verdict(self) -> bool:
        if self.commutative:
            return not self.disagreement and self.checked > 0
        return self.witness_codeword is not None

    def fields(self) -> list[tuple]:
        if self.commutative:
            found = [
                ("generators checked against right membership", self.checked),
                ("disagreement", self.disagreement or None),
                ("verdict", outcome(self.verdict, "left and right linearity agree", "AGREEMENT VIOLATED")),
            ]
        else:
            found = [
                ("codeword", repr(self.witness_codeword)),
                ("right multiplier", self.witness_scalar),
                ("verdict", outcome(self.verdict, "right scaling escapes the code", "NO WITNESS FOUND")),
            ]
        run = [("commutative", self.commutative), ("mode", self.mode), ("trials", self.trials), ("seed", self.seed)]
        return run + found


def right_linearity_witness(
    code, trials: int = 200, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> RightLinearityReport:
    """Confirm right linearity over commutative scalars, refute it otherwise."""
    alg = code.algebra
    if not audit.is_associative(alg, budget):
        raise UnsupportedError(f"{alg.label}: right-linearity analysis needs associative scalars")
    commutative = bool(audit.is_commutative(alg, budget))
    # exhaustive over the code's weight-3 generators, or over every pair of scalars for a witness
    what = "code has {} columns" if commutative else "exhaustive witness scan needs {} cases"
    size = (code.column_size() if commutative else Power(alg.order, 2)) if alg.is_finite else None
    mode = choose_mode(None, "sampled", size, budget, what)
    report = RightLinearityReport.of_run(alg, mode, trials, seed, commutative=commutative)
    if commutative:
        for g in code.weight3_batch(trials, seed, budget):  # built on canonical columns: rows read unchecked
            report.checked += 1
            if not code._in_code(g._map.items(), right=True):
                report.disagreement = f"{g!r} fails right membership"
                break
        return report
    probes = None if mode == "exhaustive" else alg.probe_values()
    pair = audit.law_witness(alg, "commutative", probes)
    if pair is None:
        raise InconsistencyError(
            f"{alg.label} is flagged noncommutative but no violating pair was found"
        )
    a, b = pair
    i1, i2 = code.identity_columns()[:2]
    g = code.weight3_codeword(i1, i2, a, b)
    # every probe value is nonzero
    candidates = alg.nonzero_elements() if probes is None else [Scalar(alg, v) for v in probes]
    for gamma in candidates:
        if not code.contains(g.scalar_mul_right(gamma)):
            report.witness_codeword = g
            report.witness_scalar = gamma
            return report
    raise InconsistencyError(
        "right multiples of the probe codeword all stayed in the code; "
        "expected an escape over a noncommutative algebra"
    )


# -- conjugation onto the right-handed code ---------------------------------------------


@dataclass
class ConjugateCodeReport(Report):
    samples: int
    seed: int
    passes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return self.passes > 0 and not self.failures

    def fields(self) -> list[tuple]:
        return [
            ("samples", self.samples),
            ("seed", self.seed),
            ("conjugate images in the right code", f"{self.passes}/{self.passes + len(self.failures)}"),
            ("failure", self.failures[:SHOWN]),
            ("verdict", outcome(self.verdict, "conjugation lands in the right code", "VIOLATED")),
        ]


def conjugate_image(code, x: FinVec) -> FinVec:
    """Conjugate every entry and re-index columns right-canonically."""
    alg, out = code.algebra, {}
    if x.algebra != alg or x.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    conj = hypercomplex._conjugation(alg) if x._map else None  # the zero vector is its own image over any algebra
    for a, v in x._map.items():
        y, target = code._factor(list(map(conj, a)), right=True)
        if tuple(target) in out:
            if list(x._map) != [a for a, _ in x._rows()]:  # name the first collision in sorted column order
                return conjugate_image(code, FinVec._checked(alg, code.m, dict(x._rows())))
            raise InvalidIsometryError(f"two columns re-index to {code._column(target)} under conjugation")
        out[tuple(target)] = alg._mul(y, conj(v))
    return FinVec._checked(alg, code.m, out)


def conjugate_code_check(code, samples: int = 1000, seed: int = 0) -> ConjugateCodeReport:
    """Push random codewords through conjugation and test right membership."""
    alg = code.algebra
    if alg.kind != "quaternions":
        raise UnsupportedError(
            f"{alg.label}: the conjugation isomorphism is implemented for quaternions only"
        )
    report = ConjugateCodeReport.of(alg, samples=check_count(samples, "samples"), seed=seed)
    rng = random.Random(seed)
    for x in seeded_cases(lambda: code.random_codeword(rng), samples):
        image = conjugate_image(code, x)
        if code.contains_right(image):
            report.passes += 1
        else:
            report.failures.append(f"conjugate of {x!r} fails right membership")
    return report
