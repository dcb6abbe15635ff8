"""Rebuilding the coefficient module from a decoder.

Any perfect group code determines scalar arithmetic on pairs (value, column):
the sum of two pairs on distinct columns is read off the unique weight-3
codeword through them, which only needs the code's decode map.  This module
defines that pair arithmetic, checks the module axioms it satisfies, and
re-derives code membership by weight-3 reduction, using decode as the sole
oracle so externally supplied codes work too.  The arithmetic runs on pair
keys, (value payload, column payloads) or None for zero: _pair_sum and
_pair_scaled are its one implementation, which pair_add, pair_scalar_mul,
enumerate_pairs and random_pair wrap as PairElement objects.  Each module
axiom is an audit law (_AXIOMS).
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .algebra import Scalar, same_algebra
from .algebra import audit  # lazy, read at call time: membership by reduction leaves it unexecuted
from .algebra.base import LawCheck, Report, first_failure, outcome, seeded_cases
from .errors import DEFAULT_BUDGET, DomainError, InconsistencyError, Power, UnsupportedError, choose_mode
from .finvec import Column, FinVec
from .hamming import decode_weight2


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


def _pair_element(alg, key) -> PairElement:
    """The pair element of a pair key (see _pair_key)."""
    return PairElement() if key is None else PairElement(Scalar(alg, key[0]), Column._wrap(alg, key[1]))


def _pair_key(code, p: PairElement):
    """A pair element of code's ambient as payloads: (value, column payloads), or None for zero."""
    if p.is_zero:
        return None
    FinVec(code.algebra, code.m, [(p.column, p.value)])  # refuses a column of another algebra or length
    return p.value.value, p.column.payloads


def _pair_sum(code, u, v):
    """The sum of two pair keys, read off the decoder as the one entry it adds to them.

    Pairs on distinct columns decode to the weight-3 codeword through both,
    whose third entry (k, y) makes u + v = (-y, k).
    """
    if u is None or v is None:
        return v if u is None else u
    alg = code.algebra
    (x, a), (y, b) = u, v
    if a == b:
        s = alg._add(x, y)
        return None if alg._is_zero(s) else (s, a)
    _, k, s = decode_weight2(code, FinVec._checked(alg, code.m, {a: x, b: y}))
    return alg._neg(s), k


def _pair_scaled(alg, a, u):
    """The scalar payload a acting on the pair key u, on the left of its value."""
    s = alg._zero() if u is None or alg._is_zero(a) else alg._mul(a, u[0])
    return None if alg._is_zero(s) else (s, u[1])


def pair_add(code, u: PairElement, v: PairElement) -> PairElement:
    """The pair sum: _pair_sum on the keys of u and v."""
    return _pair_element(code.algebra, _pair_sum(code, _pair_key(code, u), _pair_key(code, v)))


def pair_scalar_mul(code, alpha: Scalar, u: PairElement) -> PairElement:
    if u.is_zero or alpha.is_zero():
        return PairElement.zero()
    same_algebra(alpha.algebra, u.value.algebra)
    return _pair_element(code.algebra, _pair_scaled(code.algebra, alpha.value, _pair_key(code, u)))


def _pair_keys(code) -> list:
    """Zero, then every (nonzero value, column) pair key, columns outermost; finite algebras only."""
    cols, alg = code.enumerate_columns(), code.algebra
    return [None] + [(v, col.payloads) for col in cols for v in alg._elements() if not alg._is_zero(v)]


def enumerate_pairs(code) -> list[PairElement]:
    """Zero plus every (nonzero value, column) pair; finite algebras only."""
    return [_pair_element(code.algebra, key) for key in _pair_keys(code)]


def _random_pair_key(code, rng):
    return code.algebra._random_nonzero(rng), code._random_column_payloads(rng)


def random_pair(code, rng, height: int = 10) -> PairElement:
    return PairElement(code.algebra.random_scalar(rng, True, height), code.random_column(rng, height))


# Each module axiom, in report order: its case kinds, "s" a scalar payload and "p" a pair key; the audit
# law it is; the kind of the acting element, "p" for pair addition acting on itself and "s" for the
# scalars acting on pairs; and its failure text, which takes the case as Scalar and PairElement objects.
_AXIOMS = (
    ("add_commutative", "pp", "commutative", "p",
     lambda u, v: f"{u!r} + {v!r} != {v!r} + {u!r}"),
    ("add_associative", "ppp", "associative", "p",
     lambda u, v, w: f"({u!r} + {v!r}) + {w!r} != {u!r} + ({v!r} + {w!r})"),
    ("scalar_distributes_over_pairs", "spp", "left_distributive", "s",
     lambda a, u, v: f"{a}*({u!r} + {v!r}) != {a}*{u!r} + {a}*{v!r}"),
    ("pairs_distribute_over_scalars", "ssp", "right_distributive", "s",
     lambda a, b, u: f"({a}+{b})*{u!r} != {a}*{u!r} + {b}*{u!r}"),
    ("scalar_action_associative", "ssp", "associative", "s",
     lambda a, b, u: f"{a}*({b}*{u!r}) != ({a}*{b})*{u!r}"),
)


def _index_tables(code) -> tuple[dict, dict, list]:
    """Pools {"s": scalar payloads in scalar order, "p": _pair_keys(code)}, by acting kind (see
    _AXIOMS) the audit row laws on tuple tables of pool indices, and the generators of pair
    addition that Light's test proves pair associativity on.

    The pair sum table reads cells i <= j off decode (through _pair_sum, so decode stays the only
    oracle) in row-major order: with columns outermost in the keys, decode gets the words, and
    raises the first error, of a table of every ordered pair.  A cell i > j mirrors (j, i) when
    the keys lie on distinct columns; on one column _pair_sum adds the values without a decode."""
    alg = code.algebra
    els, smul, sadd, _ = audit.table_rows(alg)
    keys = _pair_keys(code)
    index = {p: k for k, p in enumerate(keys)}

    def sum_index(i, j):
        s = _pair_sum(code, keys[i], keys[j])
        if s not in index:
            u, v, shown = (_pair_element(alg, key) for key in (keys[i], keys[j], s))
            raise InconsistencyError(
                f"the pair sum {u!r} + {v!r} = {shown!r} is not a pair element of the code; "
                "the code is not a perfect group code"
            )
        return index[s]

    ids, cols, psum = range(len(keys)), [key and key[1] for key in keys], []
    for i in ids:
        psum.append(tuple(psum[j][i] if j < i and cols[j] != cols[i] else sum_index(i, j) for j in ids))
    act = tuple(tuple(index[_pair_scaled(alg, a, u)] for u in keys) for a in els)
    pairs = audit.row_laws(psum, psum, psum, psum, tuple(zip(*psum)))
    laws = {"p": pairs, "s": audit.row_laws(act, psum, sadd, smul, None)}
    return {"s": els, "p": keys}, laws, audit._generators(ids, psum)


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

    def fields(self) -> list[tuple]:
        return [
            ("code", self.code_label),
            ("mode", self.mode),
            ("trials", self.trials),
            ("seed", self.seed),
            *((name, self._axiom_text(name, check)) for name, check in self.axioms.items()),
            ("verdict", outcome(self.verdict, "module axioms hold", "AXIOM VIOLATED")),
        ]

    def _axiom_text(self, name: str, check: LawCheck) -> str:
        text = f"{outcome(check.holds) or 'skipped'} ({self.counts.get(name, 0)} cases)"
        if check.witness is not None:
            text += f" witness {check.witness}"
        return text + (f" [{check.note}]" if check.note else "")


def module_axiom_check(
    code,
    mode: str = "auto",
    trials: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ModuleAxiomReport:
    """Check the module axioms of pair arithmetic over a decode oracle.

    Both modes run on scalar payloads and pair keys, and wrap a case as
    Scalar and PairElement objects only for a witness's text.  Exhaustive
    mode runs every axiom as its audit row law over the index tables of
    _index_tables, and counts the full product even when it stops at a
    witness or proves the law (pair associativity, by Light's test, scanned
    only when the proof fails); sampled mode draws trials cases per axiom from
    one seeded stream, in the order of random_scalar and random_pair, and runs
    its audit law on them.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise UnsupportedError(f"unknown axiom-check mode {mode!r}")
    alg = code.algebra
    # the largest case set is every triple of the q^m pair elements
    size = Power(alg.order, 3 * code.m) if alg.is_finite else None
    mode = choose_mode(mode, "sampled", size, budget, "exhaustive axiom check needs {} cases", alg.label)
    sampled = mode == "sampled"
    report = ModuleAxiomReport.of_run(alg, mode, trials, seed, code_label=getattr(code, "label", "external code"))
    if sampled:
        rng = random.Random(seed)
        draws = {"s": lambda: alg._random(rng), "p": lambda: _random_pair_key(code, rng)}
        padd, act = functools.partial(_pair_sum, code), functools.partial(_pair_scaled, alg)
        laws = {"p": audit.laws(padd, padd, padd, padd), "s": audit.laws(act, padd, alg._add, alg._mul)}
    else:
        pools, laws, gens = _index_tables(code)
    shown = {"s": Scalar, "p": _pair_element}  # a witness's payloads as objects
    for name, kinds, law_name, acting, describe in _AXIOMS:
        law = laws[acting][law_name]
        if name == "scalar_action_associative" and not audit.is_associative(alg, budget):
            report.axioms[name] = LawCheck(None, note="skipped: scalar multiplication is not associative")
            report.counts[name] = 0
            continue
        if sampled:
            count, w = first_failure(law, seeded_cases(lambda: tuple(draws[k]() for k in kinds), trials))
        else:
            *heads, last = sizes = [len(pools[k]) for k in kinds]
            # Light's test proves pair associativity; keyed on the law and acting kind, as _AXIOMS states them
            proved = (law_name, acting) == ("associative", "p") and audit._proved(law, range(last), gens)
            w = None if proved else audit.row_scan(law, itertools.product(*map(range, heads)), last)[1]
            w = w and tuple(pools[k][i] for k, i in zip(kinds, w))  # the payloads at the indices
            count = math.prod(sizes)
        report.axioms[name] = LawCheck(w is None, w and describe(*(shown[k](alg, x) for k, x in zip(kinds, w))))
        report.counts[name] = count
    return report


def membership_by_reduction(code, x: FinVec) -> bool:
    """Decide membership by repeatedly subtracting weight-3 codewords.

    Each step takes the two smallest support columns and subtracts the unique
    weight-3 codeword agreeing with the vector there (decode_weight2 refuses any
    other), which drops both entries and adds at most one.  The vector was in
    the code iff the residue reaches zero.
    """
    if x.algebra != code.algebra or x.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    while x.norm() >= 2:
        # x minus the weight-3 codeword through its first two entries
        x = x - decode_weight2(code, FinVec._checked(code.algebra, code.m, dict(x._rows()[:2])))[0]
    return x.is_zero()
