"""The codeword half of a Hamming code: weight-3 generators and draws, codeword enumeration, perfectness.

Each HammingCode method of these calls the function of its name here, the code first; quasicode
registers this module unexecuted, so a command that only builds columns, syndromes, decodes or single
weight-3 codewords never compiles it.  The weight-3 loops read decode's correction kernel, with decode_weight2's refusal
(_weight3).  weight3_generators decodes each weight-3 codeword once and marks its two later entry
pairs; an unmarked pair that decodes before its second column is refused, as no perfect code gives one.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from .algebra.base import SHOWN, Report, first_failure, outcome, seeded_cases, sorted_elements
from .errors import InconsistencyError, Power, UnsupportedError, check_budget, check_count, check_height, choose_mode
from .errors import size_text
from .finvec import FinVec
from .hamming import _not_weight3


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


# -- weight-3 structure -----------------------------------------------------------

def _weight3(code, a1, alpha, a2, beta) -> dict:
    """The codeword through payloads alpha at column a1 and beta at a2 as a payload map, its third
    entry read off decode's correction kernel and refused as decode_weight2 refuses it."""
    fix = code._correction(((a1, alpha), (a2, beta)))
    if fix is None or fix[0] in (a1, a2):
        raise _not_weight3(FinVec._checked(code.algebra, code.m, {a1: alpha, a2: beta}))
    return {a1: alpha, a2: beta, fix[0]: fix[1]}


def weight3_generators(code, budget: int) -> list[FinVec]:
    alg, m = code.algebra, code.m
    columns = [col.payloads for col in code.enumerate_columns(budget)]
    els = list(alg._elements())
    n, q = len(columns), len(els)
    check_budget(n * (n - 1) // 2 * (q - 1) ** 2, budget, "generator enumeration needs {} decodes")
    # entry (column rank i, scalar index t) is numbered i * q + t; the entry pair (e, f) is marked at e * size + f
    size, rank, index = n * q, {a: i * q for i, a in enumerate(columns)}, {v: t for t, v in enumerate(els)}
    entries = [[(i + t, v) for t, v in enumerate(els) if not alg._is_zero(v)] for i in rank.values()]
    marks, wrap, weight3, out = bytearray(size * size), FinVec._checked, _weight3, []
    for (i, a1), (j, a2) in itertools.combinations(enumerate(columns), 2):
        for (e1, alpha), (e2, beta) in itertools.product(entries[i], entries[j]):
            if marks[e1 * size + e2]:
                continue
            c = weight3(code, a1, alpha, a2, beta)
            *_, a3 = c
            e3 = rank[a3] + index[c[a3]]
            if e3 < j * q:
                w2, c = wrap(alg, m, {a1: alpha, a2: beta}), wrap(alg, m, c)
                raise InconsistencyError(f"decoding {w2!r} gave {c!r}, whose third column comes before the word's "
                                         "second; the code is not a perfect group code")
            marks[e1 * size + e3] = marks[e2 * size + e3] = 1
            out.append(wrap(alg, m, c))
    return out


def weight3_batch(code, trials: int | None, seed: int, budget: int) -> list[FinVec]:
    if choose_mode(None, "sampled", code.column_size(), budget, "code has {} columns") == "exhaustive":
        return code.weight3_generators(budget)
    rng = random.Random(seed)
    return [code.random_codeword(rng, pieces=1) for _ in range(check_count(trials, "trials"))]


# -- enumeration -------------------------------------------------------------------

def _codeword_rows(code, budget: int, choice=None) -> tuple[list, list[tuple]]:
    """The payloads in scalar order, and each codeword as a row of their ranks in column order.

    x is a codeword when sum_a x_a * r_a vanishes, r_a being the column a or, with a
    choice function, c_a * a.  Each assignment to the n - m non-identity columns
    extends to one codeword, whose entry at the identity column of position beta
    solves x_beta * r_beta[beta] = -s_beta for the syndrome s of the assigned part
    (systematic encoding; it needs an abelian addition, an annihilating zero and unique
    right division).  The rows come sorted, as the ambient product lists the codewords.
    """
    check_budget(code.ambient_size(), budget, "ambient has {} vectors")
    alg, m = code.algebra, code.m
    add, mul, neg, solve, is_zero = alg._add, alg._mul, alg._neg, alg._solve_right, alg._is_zero
    els = sorted_elements(alg)
    rank = {v: k for k, v in enumerate(els)}
    cols = code.enumerate_columns()
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
    solved = [{v: rank[solve(reps[checks[beta]][beta], neg(v))] for v in els} for beta in range(m)]
    # column i reads entry where[i] of (free ranks + check ranks)
    where = sorted(range(len(cols)), key=(free + checks).__getitem__)
    rows = []
    for ks, s in partial:
        ranks = ks + tuple(sol[v] for sol, v in zip(solved, s))
        rows.append(tuple(map(ranks.__getitem__, where)))
    rows.sort()
    return els, rows


def _codewords(code, els, rows) -> list[FinVec]:
    """Rows of ranks into els, as codewords."""
    alg, m = code.algebra, code.m
    cols = [a.payloads for a in code.enumerate_columns()]
    nonzero = [not alg._is_zero(v) for v in els]
    return [FinVec._checked(alg, m, {cols[i]: els[k] for i, k in enumerate(row) if nonzero[k]}) for row in rows]


def enumerate_codewords(code, budget: int, choice=None) -> list[FinVec]:
    """Every codeword of the code, or with a choice function of the code with those representatives."""
    return _codewords(code, *_codeword_rows(code, budget, choice))


def random_codeword(code, rng, pieces: int | None, height: int) -> FinVec:
    check_height(height)
    if pieces is None:
        pieces = rng.randint(1, 3)
    alg, draw = code.algebra, code._random_column_payloads
    acc = FinVec.zero(alg, code.m)
    for _ in range(pieces):
        a1, a2 = draw(rng, height), draw(rng, height)
        while a2 == a1:
            a2 = draw(rng, height)
        alpha = alg._random_nonzero(rng, height)
        beta = alg._random_nonzero(rng, height)
        acc = acc + FinVec._checked(alg, code.m, _weight3(code, a1, alpha, a2, beta))
    return acc


# -- perfectness ----------------------------------------------------------------------

def verify_perfect(code, mode: str, budget: int, trials: int, seed: int) -> PerfectnessReport:
    if mode not in ("auto", "exhaustive", "structural"):
        raise UnsupportedError(f"unknown verify mode {mode!r}")
    finite, notice = code.algebra.is_finite, ""
    size = code.ambient_size() if finite else None
    try:
        mode = choose_mode(mode, "structural", size, budget, "ambient has {} vectors")
    except UnsupportedError:  # an exhaustive request falls back, with a notice
        shown = f"{size_text(size)} vectors > budget {budget}" if finite else "infinite algebra"
        notice = f"exhaustive enumeration infeasible ({shown}); fell back to structural mode"
        mode = "structural"
    if mode == "structural" and finite:
        check_budget(Power(code.algebra.order, code.m, 1), budget, "structural check needs {} nonzero vectors")
    report = PerfectnessReport.of(code.algebra, mode=mode, m=code.m, q=code.algebra.order, n=code.column_count(),
                                  budget=budget, notice=notice)
    if mode == "exhaustive":
        _verify_exhaustive(code, report, budget)
    elif finite:
        _verify_structural_finite(code, report, budget)
    else:
        report.trials = check_count(trials, "trials")
        report.seed = seed
        _verify_structural_sampled(code, report, trials, seed)
    return report


def _verify_exhaustive(code, report: PerfectnessReport, budget: int) -> None:
    els, rows = _codeword_rows(code, budget)
    q, n = code.algebra.order, code.column_count()
    report.code_size = len(rows)
    report.covering_identity_ok = len(rows) * (1 + n * (q - 1)) == q**n
    close = _close_pair(rows, q)
    report.min_distance_ok = close is None
    if close is not None:
        x, y = _codewords(code, els, [rows[i] for i in close])
        report.witnesses.append(f"codewords at distance < 3: {x!r} vs {y!r}")


def _verify_structural_finite(code, report: PerfectnessReport, budget: int) -> None:
    # line disjointness and factorization totality over the q^m - 1 products z = y * a: certified
    # by the rows of each y when they pass, else every product is factored and recorded in seen
    alg, m, q = code.algebra, code.m, code.algebra.order
    zero, is_zero, solve_head = alg._zero(), alg._is_zero, alg._solve_right
    els = tuple(sorted_elements(alg))  # the payloads 0..q-1, which index every row
    nonzero = [y for y in els if not is_zero(y)]

    def inverted(y):  # y * 0 = 0, y's left division undoes its row, and each head solves back to y
        row = alg._mul_row(y)
        divides = is_zero(row[zero]) and tuple(map(alg._left_div_row(y).__getitem__, row)) == els
        return divides and all(solve_head(p, row[p]) == y for p in code._pivot_payloads)

    report.property_a_ok = report.property_b_ok = True
    if all(map(inverted, nonzero)):
        # normalize inverts (y, a) -> y * a, so the (q - 1) * n products are distinct: all q^m - 1
        report.lines_checked = q**m - 1
        return
    seen: dict[tuple, tuple] = {}
    for y, a in itertools.product(nonzero, code.enumerate_columns(budget)):
        expected = list(a.payloads)
        z = tuple(alg._mul(y, e) for e in expected)
        y1, a1 = seen.setdefault(z, (y, a))
        if (y1, a1) != (y, a):
            report.property_a_ok = False
            report.witnesses.append(
                f"two factorizations of {code._dense(z)}: ({alg.format_value(y1)},{a1}) "
                f"and ({alg.format_value(y)},{a})"
            )
        y2, a2 = code._factor_nonzero(z, right=False)
        if y2 != y or a2 != expected:
            report.property_b_ok = False
            report.witnesses.append(
                f"normalize({code._dense(z)}) returned ({alg.format_value(y2)},"
                f"{code._column(a2)}), expected ({alg.format_value(y)},{a})"
            )
    report.lines_checked = len(seen)
    if len(seen) != q**m - 1:
        report.property_b_ok = False
        report.witnesses.append(f"products cover {len(seen)} of {q ** m - 1} nonzero dense vectors")


def _verify_structural_sampled(code, report: PerfectnessReport, trials: int, seed: int) -> None:
    alg, m = code.algebra, code.m
    draw, mul, is_zero, fmt = alg._random, alg._mul, alg._is_zero, alg.format_value
    rng = random.Random(seed)

    def rederived(a1, y):  # (a) a random point of a random line re-derives its own line
        return code._factor_nonzero([mul(y, e) for e in a1], right=False)

    def fault(z):  # (b) a nonzero dense vector factors, consistently; "" when it does, or for zero
        factors = code._factor(z, right=False)
        if factors is None:
            return ""
        y, a = factors
        if is_zero(y) or not code._is_canonical_payloads(a):
            return "returned a non-canonical factorization"
        return "" if [mul(y, e) for e in a] == z else "does not reproduce the vector"

    lines = seeded_cases(lambda: (list(code._random_column_payloads(rng)), alg._random_nonzero(rng)), trials)
    _, w = first_failure(lambda a1, y: rederived(a1, y) == (y, a1), lines)
    report.property_a_ok = w is None
    if w:
        (a1, y), (y2, a2) = w, rederived(*w)
        report.witnesses.append(
            f"normalize({code._dense([mul(y, e) for e in a1])}) returned ({fmt(y2)},{code._column(a2)}), "
            f"expected ({fmt(y)},{code._column(a1)})"
        )
    vectors = seeded_cases(lambda: ([draw(rng, 10) for _ in range(m)],), trials)
    _, w = first_failure(lambda z: not fault(z), vectors)
    report.property_b_ok = w is None
    if w:
        report.witnesses.append(f"normalize({code._dense(w[0])}) {fault(w[0])}")


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
        flags = [self.covering_identity_ok, self.min_distance_ok, self.property_a_ok, self.property_b_ok]
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
