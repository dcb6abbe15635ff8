"""Rebuilding the coefficient module from a decoder.

Any perfect group code determines scalar arithmetic on pairs (value, column):
the sum of two pairs on distinct columns is read off the unique weight-3
codeword through them, which only needs the code's decode map.  This module
defines that pair arithmetic, checks the module axioms it satisfies, and
re-derives code membership by weight-3 reduction, using decode as the sole
oracle so externally supplied codes work too.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .algebra import Scalar, is_associative
from .algebra.audit import LawCheck, Report, first_failure, row_laws, row_scan, seeded_cases, table_rows
from .errors import DEFAULT_BUDGET, DomainError, InconsistencyError, Power, UnsupportedError, check_budget
from .finvec import Column, FinVec
from .hamming import third_entry


class PairElement:
    """Zero, or a nonzero scalar sitting at one canonical column."""

    __slots__ = ("value", "column")

    def __init__(self, value: Scalar | None = None, column: Column | None = None):
        if value is None or value.is_zero():
            self.value = None
            self.column = None
        else:
            if column is None:
                raise DomainError("a nonzero pair element needs a column")
            if column.algebra != value.algebra:
                raise DomainError("pair value and column live in different algebras")
            self.value = value
            self.column = column

    @classmethod
    def zero(cls) -> "PairElement":
        return cls()

    @property
    def is_zero(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, PairElement):
            return NotImplemented
        return self.value == other.value and self.column == other.column

    def __hash__(self):
        return hash((PairElement, self.value, self.column))

    def __repr__(self):
        if self.is_zero:
            return "Zero"
        return f"({self.value}, {self.column})"


def pair_add(code, u: PairElement, v: PairElement) -> PairElement:
    """The pair sum, read off the decoder as the one entry it adds to u and v.

    Pairs on distinct columns decode to the weight-3 codeword through both,
    whose third entry (k, y) makes u + v = (-y, k).
    """
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    if u.column == v.column:
        return PairElement(u.value + v.value, u.column)
    alg = code.algebra
    w2 = FinVec(alg, code.m, [(u.column, u.value), (v.column, v.value)])
    k, y = third_entry(w2, code.decode(w2))
    return PairElement(Scalar(alg, alg._neg(y)), Column._wrap(alg, k))


def _pair_key(p: PairElement):
    """A pair element as payloads: (value, column payloads), or None for zero."""
    return None if p.is_zero else (p.value.value, p.column.payloads)


def _pair_sum(code, u, v):
    """pair_add on pair keys (see _pair_key)."""
    if u is None or v is None:
        return v if u is None else u
    alg = code.algebra
    (x, a), (y, b) = u, v
    if a == b:
        s = alg._add(x, y)
        return None if alg._is_zero(s) else (s, a)
    w2 = FinVec._checked(alg, code.m, {a: x, b: y})
    k, s = third_entry(w2, code.decode(w2))
    return alg._neg(s), k


def pair_scalar_mul(code, alpha: Scalar, u: PairElement) -> PairElement:
    if u.is_zero or alpha.is_zero():
        return PairElement.zero()
    return PairElement(alpha * u.value, u.column)


def enumerate_pairs(code) -> list[PairElement]:
    """Zero plus every (nonzero value, column) pair; finite algebras only."""
    out = [PairElement.zero()]
    for col in code.enumerate_columns():
        for val in code.algebra.nonzero_elements():
            out.append(PairElement(val, col))
    return out


def random_pair(code, rng, height: int = 10) -> PairElement:
    return PairElement(
        code.algebra.random_scalar(rng, nonzero=True, height=height),
        code.random_column(rng, height),
    )


def _module_laws(code):
    """Each module axiom, in report order, as (name, case kinds, law, failure text).

    Kind "s" is a scalar and "p" a pair element.  The law runs in sampled mode,
    calling pair_add directly; exhaustive mode checks the same law as the row
    law _index_tables gives it.
    """
    padd, act = functools.partial(pair_add, code), functools.partial(pair_scalar_mul, code)
    return (
        ("add_commutative", "pp",
         lambda u, v: padd(u, v) == padd(v, u),
         lambda u, v: f"{u!r} + {v!r} != {v!r} + {u!r}"),
        ("add_associative", "ppp",
         lambda u, v, w: padd(padd(u, v), w) == padd(u, padd(v, w)),
         lambda u, v, w: f"({u!r} + {v!r}) + {w!r} != {u!r} + ({v!r} + {w!r})"),
        ("scalar_distributes_over_pairs", "spp",
         lambda a, u, v: act(a, padd(u, v)) == padd(act(a, u), act(a, v)),
         lambda a, u, v: f"{a}*({u!r} + {v!r}) != {a}*{u!r} + {a}*{v!r}"),
        ("pairs_distribute_over_scalars", "ssp",
         lambda a, b, u: act(a + b, u) == padd(act(a, u), act(b, u)),
         lambda a, b, u: f"({a}+{b})*{u!r} != {a}*{u!r} + {b}*{u!r}"),
        ("scalar_action_associative", "ssp",
         lambda a, b, u: act(a, act(b, u)) == act(a * b, u),
         lambda a, b, u: f"{a}*({b}*{u!r}) != ({a}*{b})*{u!r}"),
    )


def _index_tables(code) -> tuple[dict, dict]:
    """Pools {"s": scalars in scalar order, "p": enumerate_pairs(code)}, and each module axiom
    as an audit row law on tuple tables of pool indices: pair addition acting on itself for
    the two addition laws, and the scalars acting on pairs for the other three.

    The pair sum table reads each ordered pair's sum off decode once, on payload pairs
    (value, column payloads), so decode stays the only oracle.
    """
    alg = code.algebra
    els, smul, sadd, _ = table_rows(alg)
    scalars = [Scalar(alg, v) for v in els]
    pairs = enumerate_pairs(code)
    keys = list(map(_pair_key, pairs))
    index = {p: k for k, p in enumerate(keys)}

    def sum_index(i, j):
        s = _pair_sum(code, keys[i], keys[j])
        if s not in index:
            shown = PairElement(Scalar(alg, s[0]), Column._wrap(alg, s[1]))
            raise InconsistencyError(
                f"the pair sum {pairs[i]!r} + {pairs[j]!r} = {shown!r} is not a pair element of the code; "
                "the code is not a perfect group code"
            )
        return index[s]

    ids = range(len(pairs))
    psum = tuple(tuple(sum_index(i, j) for j in ids) for i in ids)
    act = tuple(tuple(index[_pair_key(pair_scalar_mul(code, a, u))] for u in pairs) for a in scalars)
    on_pairs = row_laws(psum, psum, psum, psum, tuple(zip(*psum)))
    on_scalars = row_laws(act, psum, sadd, smul, None)
    return {"s": scalars, "p": pairs}, {
        "add_commutative": on_pairs["commutative"],
        "add_associative": on_pairs["associative"],
        "scalar_distributes_over_pairs": on_scalars["left_distributive"],
        "pairs_distribute_over_scalars": on_scalars["right_distributive"],
        "scalar_action_associative": on_scalars["associative"],
    }


@dataclass
class ModuleAxiomReport(Report):
    code_label: str
    mode: str
    trials: int | None
    seed: int | None
    axioms: dict[str, LawCheck] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c.holds is not False for c in self.axioms.values())

    def lines(self) -> list[str]:
        out = [self.algebra_line(), f"code: {self.code_label}", f"mode: {self.mode}", *self.run_lines()]
        for name, check in self.axioms.items():
            status = {True: "ok", False: "VIOLATED", None: "skipped"}[check.holds]
            line = f"{name}: {status} ({self.counts.get(name, 0)} cases)"
            if check.witness is not None:
                line += f" witness {check.witness}"
            if check.note:
                line += f" [{check.note}]"
            out.append(line)
        out.append(self.verdict_line("module axioms hold", "AXIOM VIOLATED"))
        return out


def module_axiom_check(
    code,
    mode: str = "auto",
    trials: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ModuleAxiomReport:
    """Check the module axioms of pair arithmetic over a decode oracle.

    Exhaustive mode runs every axiom as an audit row law over the index
    tables of _index_tables, and counts the full product even when it stops
    at a witness; sampled mode draws trials cases per axiom from one seeded
    stream and calls pair_add directly.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise UnsupportedError(f"unknown axiom-check mode {mode!r}")
    alg = code.algebra
    if mode == "exhaustive" and not alg.is_finite:
        raise UnsupportedError(f"{alg.label}: exhaustive axiom check needs a finite algebra")
    if mode != "sampled" and alg.is_finite:
        try:
            # the largest case set is every triple of the q^m pair elements
            check_budget(Power(alg.order, 3 * code.m), budget, "exhaustive axiom check needs {} cases")
            mode = "exhaustive"
        except UnsupportedError:
            if mode == "exhaustive":
                raise
    sampled = mode != "exhaustive"
    report = ModuleAxiomReport.of(
        alg,
        code_label=getattr(code, "label", "external code"),
        mode="sampled" if sampled else mode,
        trials=trials if sampled else None,
        seed=seed if sampled else None,
    )
    if sampled:
        rng = random.Random(seed)
        draws = {"s": lambda: alg.random_scalar(rng), "p": lambda: random_pair(code, rng)}
    else:
        pools, rows = _index_tables(code)
    for name, kinds, law, describe in _module_laws(code):
        if name == "scalar_action_associative" and not is_associative(alg, budget):
            report.axioms[name] = LawCheck(None, note="skipped: scalar multiplication is not associative")
            report.counts[name] = 0
            continue
        if sampled:
            count, w = first_failure(law, seeded_cases(lambda: tuple(draws[k]() for k in kinds), trials))
        else:
            *heads, last = sizes = [len(pools[k]) for k in kinds]
            _, w = row_scan(rows[name], itertools.product(*map(range, heads)), last)
            w = w and tuple(pools[k][i] for k, i in zip(kinds, w))  # the objects at the indices
            count = math.prod(sizes)
        report.axioms[name] = LawCheck(w is None, None if w is None else describe(*w))
        report.counts[name] = count
    return report


def membership_by_reduction(code, x: FinVec) -> bool:
    """Decide membership by repeatedly subtracting weight-3 codewords.

    Each step takes the two smallest support columns and subtracts the unique
    weight-3 codeword agreeing with the vector there, shrinking the support.
    The vector was in the code iff the residue reaches zero.
    """
    if x.algebra != code.algebra or x.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    cur = x
    while cur.norm() >= 2:
        # cur minus the weight-3 codeword through its first two entries
        w2 = FinVec._checked(code.algebra, code.m, dict(cur._rows()[:2]))
        c = code.decode(w2)
        third_entry(w2, c)
        nxt = cur - c
        if nxt.norm() >= cur.norm():
            raise InconsistencyError(
                "weight-3 reduction failed to shrink the support; "
                "the supplied code is not a perfect group code"
            )
        cur = nxt
    return cur.is_zero()
