"""Slow reference implementations, kept as oracles for the raw-payload fast paths.

The Hamming functions are the Scalar/DenseVec versions of HammingCode's
vector check, syndromes, factorizations, decode and finite and sampled
structural perfectness checks that the payload loops in hamming.py and
codewords.py replaced; every step goes through Scalar operators and checked
vector constructors.
choice_syndrome sums Scalar-level DenseVecs, as before it ran on payloads.
weight3_generators decodes all n(n-1)/2 * (q-1)^2 weight-3 cases and drops
repeats with a set of the codewords seen, and choice_weight3 builds a
codeword of the chosen-representative code through two given entries by
normalizing a sum of DenseVecs; these are what reading each codeword off its
first column pair, and mapping plain codewords onto the chosen
representatives, replaced.
all_ambient_vectors lists the q^n vectors of a finite ambient in product
order.  The enumeration functions filter them by their syndrome
and check the minimum distance on every pair of codewords; the exhaustive
module-axiom check runs over PairElement objects with a dict pair table.
These are what systematic encoding, deletion hashing and index tables replaced.
random_scalar, random_column, random_pair and random_codeword draw Scalar,
Column, PairElement and FinVec objects in the order the payload draws
Algebra._random_nonzero and HammingCode._random_column_payloads must keep; over
the rationals, quaternions and octonions each scalar is hypercomplex_oracle's
random_value, which calls random.Random.randint.  module_axioms_sampled is the
sampled module-axiom check on those objects; both module-axiom checks add pairs
with column_pair_add, reading the code's own decode, and act on them with
scalar_act.  These are what pair keys replaced.
gf_product is a schoolbook polynomial product reduced by long division,
independent of GaloisField's tables and of its reduction.
ColumnFinVec is FinVec as it was before it kept payloads: a map from Column
objects to Scalar values, checked entry by entry.  check_terms, payload_decode,
contains, third_entry, weight3_codeword, column_pair_add, witness_brute,
isometry_apply and conjugate_image are the decode, membership, weight-3,
pair-sum, brute-force dependence, isometry and conjugation paths that ran on
it; payload maps replaced them.  apply_row, basis_image and
basis_change_maps push columns through a basis change on Scalars (the former
BasisChange.apply_row, a DenseVec, normalize), as basis_change_isomorphism did
before its images ran on payloads.  syndrome_payloads and payload_correction
are the payload-method syndrome and correction without the syndrome's
shortcuts: every column entry is multiplied and added, zero ones included,
and the syndrome is then factored by HammingCode._factor.
payload_decode and contains read them, which makes them the reference for
the payload decode kernel and for the index-table decode kernel too.
"""
import functools
import itertools
import math
import random

from hypercomplex_oracle import random_value
from quasicode import (
    Column,
    DenseVec,
    DomainError,
    FinVec,
    InconsistencyError,
    InvalidIsometryError,
    LawCheck,
    ModuleAxiomReport,
    PairElement,
    PerfectnessReport,
    Scalar,
    conjugate,
    is_associative,
    solve_left,
    solve_right,
)
from quasicode.algebra import same_algebra
from quasicode.algebra.base import first_failure
from quasicode.errors import Power, UnsupportedError, check_budget


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
    rng = random.Random(seed)
    ok_a = ok_b = True
    witnesses = []
    for _ in range(trials):
        a1 = random_column(code, rng)
        y = random_scalar(code.algebra, rng, nonzero=True)
        z = a1.to_dense().scalar_mul_left(y)
        y2, a2 = normalize(code, z)
        if y2 != y or a2 != a1:
            ok_a = False
            witnesses.append(f"normalize({z}) returned ({y2},{a2}), expected ({y},{a1})")
            break
    for _ in range(trials):
        z = DenseVec([random_scalar(code.algebra, rng) for _ in range(code.m)])
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


def all_ambient_vectors(code, budget: int = 2**20):
    """Every vector of a finite ambient, in product order: all q^n assignments to the columns."""
    check_budget(code.ambient_size(), budget, "ambient has {} vectors")
    cols = code.enumerate_columns()
    els = sorted(code.algebra.elements(), key=Scalar.sort_key)
    for values in itertools.product(els, repeat=len(cols)):
        yield FinVec(code.algebra, code.m, list(zip(cols, values)))


def enumerate_codewords(code, budget: int = 2**20) -> list:
    """Every ambient vector, in product order, whose syndrome vanishes."""
    return [x for x in all_ambient_vectors(code, budget) if code.contains(x)]


def choice_syndrome(code, choice, x: FinVec) -> DenseVec:
    """sum of x_a * (c_a * a) over the support of x, as a sum of DenseVecs of Scalars."""
    code._check_vector(x)
    acc = DenseVec.zero(code.algebra, code.m)
    for col, val in x.items():
        acc = acc + col.to_dense().scalar_mul_left(choice(col)).scalar_mul_left(val)
    return acc


def choice_contains(code, choice, x: FinVec) -> bool:
    return choice_syndrome(code, choice, x).is_zero()


def weight3_generators(code, budget: int = 2**20, weight3=None) -> list:
    """Distinct weight-3 codewords over column pairs and nonzero scalar pairs, in first-seen order,
    each from weight3(a1, a2, alpha, beta) (by default code.weight3_codeword)."""
    columns = code.enumerate_columns(budget)
    scalars = list(code.algebra.nonzero_elements())
    n = len(columns)
    check_budget(n * (n - 1) // 2 * len(scalars) ** 2, budget, "generator enumeration needs {} decodes")
    seen = set()
    out = []
    for a1, a2 in itertools.combinations(columns, 2):
        for alpha in scalars:
            for beta in scalars:
                c = (weight3 or code.weight3_codeword)(a1, a2, alpha, beta)
                if c not in seen:
                    seen.add(c)
                    out.append(c)
    return out


def choice_weight3(code, choice, a1, a2, alpha, beta) -> FinVec:
    """Weight-3 codeword of the chosen-representative code through alpha at a1 and beta at a2."""
    def representative(col):
        return col.to_dense().scalar_mul_left(choice(col))

    y0, k = code.normalize(representative(a1).scalar_mul_left(alpha) + representative(a2).scalar_mul_left(beta))
    # the representative at k absorbs part of the scalar: value * c_k = y0
    val = solve_right(choice(k), y0)
    c = FinVec(code.algebra, code.m, [(a1, alpha), (a2, beta)]) - FinVec.single(k, val)
    if c.norm() != 3 or not choice_contains(code, choice, c):
        raise InconsistencyError("failed to build a weight-3 codeword for the chosen representatives")
    return c


def enumerate_choice_codewords(code, choice, budget: int = 2**20) -> list:
    """Every ambient vector, in product order, in the code with representatives choice."""
    return [x for x in all_ambient_vectors(code, budget) if choice_contains(code, choice, x)]


def verify_exhaustive(code, budget: int = 2**20) -> PerfectnessReport:
    """The exhaustive perfectness report, from the ambient filter and every pair of codewords."""
    report = PerfectnessReport.of(
        code.algebra, mode="exhaustive", m=code.m, q=code.algebra.order, n=code.column_count(),
        budget=budget, trials=None, seed=None,
    )
    words = enumerate_codewords(code, budget)
    q, n = code.algebra.order, code.column_count()
    report.code_size = len(words)
    report.covering_identity_ok = len(words) * (1 + n * (q - 1)) == q**n
    report.min_distance_ok = True
    for x, y in itertools.combinations(words, 2):
        if (x - y).norm() < 3:
            report.min_distance_ok = False
            report.witnesses.append(f"codewords at distance < 3: {x!r} vs {y!r}")
            break
    return report


# -- seeded draws and module axioms on objects ------------------------------------------


def random_scalar(alg, rng, nonzero: bool = False, height: int = 10) -> Scalar:
    while True:
        x = alg._random(rng, height) if alg.is_finite else alg._canonical(random_value(alg, rng, height))
        if not nonzero or not alg._is_zero(x):
            return Scalar(alg, x)


def random_column(code, rng, height: int = 10) -> Column:
    beta = rng.randrange(code.m)
    entries = [code.algebra.zero()] * beta + [code.pivots[beta]]
    entries += [random_scalar(code.algebra, rng, height=height) for _ in range(code.m - beta - 1)]
    return Column(entries)


def random_pair(code, rng, height: int = 10) -> PairElement:
    return PairElement(random_scalar(code.algebra, rng, nonzero=True, height=height), random_column(code, rng, height))


def random_codeword(code, rng, pieces: int | None = None, height: int = 10) -> FinVec:
    """A sum of pieces weight-3 codewords, each through two drawn columns and nonzero values."""
    if pieces is None:
        pieces = rng.randint(1, 3)
    acc = FinVec.zero(code.algebra, code.m)
    for _ in range(pieces):
        a1 = random_column(code, rng, height)
        a2 = random_column(code, rng, height)
        while a2 == a1:
            a2 = random_column(code, rng, height)
        alpha = random_scalar(code.algebra, rng, nonzero=True, height=height)
        beta = random_scalar(code.algebra, rng, nonzero=True, height=height)
        acc = acc + code.weight3_codeword(a1, a2, alpha, beta)
    return acc


def scalar_act(alpha, u) -> PairElement:
    """alpha * u on PairElements: the value multiplied on the left, the column kept."""
    if u.is_zero or alpha.is_zero():
        return PairElement.zero()
    return PairElement(alpha * u.value, u.column)


def code_decode(code, w: "ColumnFinVec") -> "ColumnFinVec":
    """code.decode on a Column-keyed map, through the FinVec constructor and items()."""
    c = code.decode(FinVec(code.algebra, code.m, w._map))
    return ColumnFinVec(code.algebra, code.m, c.items())


def _module_axioms(code, report, pools, padd, cases) -> ModuleAxiomReport:
    """report with each module axiom checked over cases(kinds), pair sums from padd."""
    alg, smul = code.algebra, scalar_act
    laws = (
        ("add_commutative", "pp",
         lambda u, v: padd(u, v) == padd(v, u),
         lambda u, v: f"{u!r} + {v!r} != {v!r} + {u!r}"),
        ("add_associative", "ppp",
         lambda u, v, w: padd(padd(u, v), w) == padd(u, padd(v, w)),
         lambda u, v, w: f"({u!r} + {v!r}) + {w!r} != {u!r} + ({v!r} + {w!r})"),
        ("scalar_distributes_over_pairs", "spp",
         lambda a, u, v: smul(a, padd(u, v)) == padd(smul(a, u), smul(a, v)),
         lambda a, u, v: f"{a}*({u!r} + {v!r}) != {a}*{u!r} + {a}*{v!r}"),
        ("pairs_distribute_over_scalars", "ssp",
         lambda a, b, u: smul(a + b, u) == padd(smul(a, u), smul(b, u)),
         lambda a, b, u: f"({a}+{b})*{u!r} != {a}*{u!r} + {b}*{u!r}"),
        ("scalar_action_associative", "ssp",
         lambda a, b, u: smul(a, smul(b, u)) == smul(a * b, u),
         lambda a, b, u: f"{a}*({b}*{u!r}) != ({a}*{b})*{u!r}"),
    )
    for name, kinds, law, describe in laws:
        if name == "scalar_action_associative" and not is_associative(alg):
            report.axioms[name] = LawCheck(None, note="skipped: scalar multiplication is not associative")
            report.counts[name] = 0
            continue
        count, w = first_failure(law, cases(kinds))
        report.axioms[name] = LawCheck(w is None, None if w is None else describe(*w))
        report.counts[name] = math.prod(len(pools[k]) for k in kinds) if pools else count
    return report


def module_axioms_exhaustive(code) -> ModuleAxiomReport:
    """The exhaustive module-axiom report, with pair sums in a dict keyed by PairElement pairs."""
    alg = code.algebra
    report = ModuleAxiomReport.of(
        alg, code_label=getattr(code, "label", "external code"), mode="exhaustive", trials=None, seed=None
    )
    pairs = [PairElement.zero()] + [PairElement(v, col) for col in code.enumerate_columns() for v in alg.nonzero_elements()]
    pools = {"s": sorted(alg.elements(), key=Scalar.sort_key), "p": pairs}
    add = functools.partial(column_pair_add, code, decode=functools.partial(code_decode, code))
    table = {(u, v): add(u, v) for u in pairs for v in pairs}
    return _module_axioms(
        code, report, pools, lambda u, v: table[u, v], lambda kinds: itertools.product(*(pools[k] for k in kinds))
    )


def module_axioms_sampled(code, trials: int, seed: int) -> ModuleAxiomReport:
    """The sampled module-axiom report from one seeded stream of drawn Scalars and PairElements."""
    alg = code.algebra
    report = ModuleAxiomReport.of(
        alg, code_label=getattr(code, "label", "external code"), mode="sampled", trials=trials, seed=seed
    )
    rng = random.Random(seed)
    draws = {"s": lambda: random_scalar(alg, rng), "p": lambda: random_pair(code, rng)}

    def cases(kinds):
        return (tuple(draws[k]() for k in kinds) for _ in range(trials))

    add = functools.partial(column_pair_add, code, decode=functools.partial(code_decode, code))
    return _module_axioms(code, report, None, add, cases)


# -- vectors keyed by Column objects ------------------------------------------------------


class ColumnFinVec:
    """A finite-support map from Column objects to nonzero Scalars."""

    __slots__ = ("algebra", "m", "_map", "_hash")

    def __init__(self, algebra, m: int, entries=()):
        self.algebra = algebra
        self.m = m
        self._hash = None
        mapping = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for col, val in items:
            if not isinstance(col, Column):
                raise DomainError("FinVec keys must be Columns")
            same_algebra(algebra, col.algebra, "vector ambient and column")
            same_algebra(algebra, val.algebra, "vector ambient and value")
            if col.m != m:
                raise DomainError(f"column has {col.m} coordinates, ambient expects {m}")
            if val.is_zero():
                continue
            if col in mapping:
                raise DomainError(f"duplicate column {col} in FinVec entries")
            mapping[col] = val
        self._map = mapping

    @classmethod
    def _checked(cls, algebra, m: int, mapping: dict) -> "ColumnFinVec":
        x = cls.__new__(cls)
        x.algebra, x.m, x._map, x._hash = algebra, m, mapping, None
        return x

    def items(self) -> list:
        return sorted(self._map.items(), key=lambda kv: kv[0].sort_key())

    def support(self) -> tuple:
        return tuple(sorted(self._map, key=Column.sort_key))

    def get(self, column):
        return self._map.get(column, self.algebra.zero())

    def norm(self) -> int:
        return len(self._map)

    def is_zero(self) -> bool:
        return not self._map

    def __add__(self, other):
        same_algebra(self.algebra, other.algebra, "added vectors")
        if self.m != other.m:
            raise DomainError(f"ambient mismatch: m={self.m} vs m={other.m}")
        out = dict(self._map)
        for col, val in other._map.items():
            if col in out:
                s = out[col] + val
                if s.is_zero():
                    del out[col]
                else:
                    out[col] = s
            else:
                out[col] = val
        return ColumnFinVec(self.algebra, self.m, out)

    def __neg__(self):
        return ColumnFinVec(self.algebra, self.m, {c: -v for c, v in self._map.items()})

    def __sub__(self, other):
        return self + (-other)

    def scalar_mul_left(self, alpha):
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        return ColumnFinVec(self.algebra, self.m, {c: alpha * v for c, v in self._map.items()})

    def scalar_mul_right(self, alpha):
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        return ColumnFinVec(self.algebra, self.m, {c: v * alpha for c, v in self._map.items()})

    def __eq__(self, other):
        return self.algebra == other.algebra and self.m == other.m and self._map == other._map

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.m, tuple(self.items())))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{c}:{v}" for c, v in self.items())
        return f"FinVec[{body}]"

    def format(self) -> str:
        return "\n".join(f"{col} := {val}" for col, val in self.items())


def check_terms(code, x: ColumnFinVec) -> list:
    """(column, entry payloads, value payload) per support column of a vector of the code."""
    if x.algebra != code.algebra or x.m != code.m:
        raise DomainError("vector does not match the code's ambient")
    terms = []
    for col, val in x._map.items():
        if not code.is_canonical_column(col):
            code._require_canonical(x.support())
        terms.append((col, [e.value for e in col.entries], val.value))
    return terms


def syndrome_payloads(code, terms, right: bool = False) -> list:
    """sum of v * a (a * v with right=True) over the (column payloads a, value payload v) terms,
    entry by entry, zero entries included."""
    alg = code.algebra
    acc = [alg._zero()] * code.m
    for a, v in terms:
        for i, e in enumerate(a):
            acc[i] = alg._add(acc[i], alg._mul(e, v) if right else alg._mul(v, e))
    return acc


def payload_correction(code, terms):
    """The entry (column payloads, value payload) that decode adds to the word with support
    terms, or None for a codeword: the syndrome alpha0 * a0, factored, calls for -alpha0 at a0."""
    z = syndrome_payloads(code, terms)
    if code._is_zero_payloads(z):
        return None
    alpha0, a0 = code._factor(z, right=False)
    return tuple(a0), code.algebra._neg(alpha0)


def contains(code, x: ColumnFinVec) -> bool:
    return code._is_zero_payloads(syndrome_payloads(code, [(a, v) for _, a, v in check_terms(code, x)]))


def payload_decode(code, y: ColumnFinVec) -> ColumnFinVec:
    """The payload decode on a Column-keyed map, rewrapping the entry it changes."""
    terms = check_terms(code, y)
    fix = payload_correction(code, [(a, v) for _, a, v in terms])
    if fix is None:
        return y
    alg = code.algebra
    a0, neg_alpha0 = fix
    mapping = dict(y._map)
    for col, a, v in terms:
        if tuple(a) == a0:
            value = alg._add(v, neg_alpha0)
            if alg._is_zero(value):
                del mapping[col]
            else:
                mapping[col] = Scalar(alg, value)
            break
    else:
        mapping[Column([Scalar(alg, v) for v in a0])] = Scalar(alg, neg_alpha0)
    return ColumnFinVec._checked(alg, code.m, mapping)


def third_entry(w2: ColumnFinVec, c: ColumnFinVec) -> tuple:
    """(column, scalar) that the codeword c decoded from w2 adds to it."""
    got = c._map
    if len(got) == 3 and all(got.get(col) == val for col, val in w2._map.items()):
        (k,) = got.keys() - w2._map.keys()
        return k, got[k]
    raise InconsistencyError(
        f"decoding {w2!r} did not produce a weight-3 codeword through both of its entries; "
        "the code is not a perfect group code"
    )


def weight3_codeword(code, a1, a2, alpha, beta) -> ColumnFinVec:
    w2 = ColumnFinVec(code.algebra, code.m, [(a1, alpha), (a2, beta)])
    c = payload_decode(code, w2)
    third_entry(w2, c)
    return c


def column_pair_add(code, u, v, decode=None):
    """The pair sum read off decode (by default payload_decode), on PairElements."""
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    if u.column == v.column:
        return PairElement(u.value + v.value, u.column)
    w2 = ColumnFinVec(code.algebra, code.m, [(u.column, u.value), (v.column, v.value)])
    k, y = third_entry(w2, (decode or functools.partial(payload_decode, code))(w2))
    return PairElement(-y, k)


def witness_brute(code, cols, budget: int = 2**20):
    """The first nonzero tuple of values on cols, in product order, whose vector lies in the code."""
    alg = code.algebra
    if alg.order is None:
        raise UnsupportedError(
            f"{alg.label}: no subfield structure and the algebra is infinite; "
            "dependence search is not possible"
        )
    check_budget(Power(alg.order, len(cols)), budget, "brute-force dependence search needs {} tuples")
    els = sorted(alg.elements(), key=Scalar.sort_key)
    for values in itertools.product(els, repeat=len(cols)):
        if all(v.is_zero() for v in values):
            continue
        x = ColumnFinVec(alg, code.m, [(c, v) for c, v in zip(cols, values) if not v.is_zero()])
        if contains(code, x):
            return x
    return None


def isometry_apply(iso, x: ColumnFinVec) -> ColumnFinVec:
    """iso applied entry by entry in sorted column order, through its Column-keyed pi, alpha and rule."""
    if x.algebra != iso.algebra or x.m != iso.m:
        raise DomainError("vector does not match the isometry's ambient")
    out = []
    seen = {}
    for col, val in x.items():
        if iso.rule is not None and col not in iso.pi and col not in iso.alpha:
            target, mult = iso.rule(col)
        else:
            target, mult = iso.pi.get(col, col), iso.alpha.get(col)
        if target in seen:
            raise InvalidIsometryError(f"pi sends both {seen[target]} and {col} to {target}")
        seen[target] = col
        if mult is not None:
            val = val * mult
        if val.is_zero():
            raise InvalidIsometryError(f"image entry at {target} vanished")
        out.append((target, val))
    return ColumnFinVec(x.algebra, x.m, out)


def apply_row(change, entries) -> tuple:
    """The row vector entries times the matrix of change, on Scalars: (vM)_j = sum_i v_i * M[i][j]
    over the nonzero v_i, each sum started at zero."""
    entries = tuple(entries)
    if len(entries) != change.m:
        raise DomainError("row vector length does not match the matrix")
    terms = [(e, row) for e, row in zip(entries, change.rows) if not e.is_zero()]
    return tuple(sum((e * row[j] for e, row in terms), change.algebra.zero()) for j in range(change.m))


def basis_image(code, change, col: Column) -> tuple:
    """(target column, multiplier) with col M = multiplier * target: the row pushed through
    apply_row, wrapped as a DenseVec and factored by normalize."""
    dense = DenseVec(apply_row(change, col.entries))
    if dense.is_zero():
        raise InvalidIsometryError(f"basis change annihilates column {col}; matrix is singular")
    y, target = code.normalize(dense)
    return target, y


def basis_change_maps(code, change, budget: int = 2**20) -> tuple:
    """The pi and alpha maps of basis_change_isomorphism over a finite algebra, column by column."""
    images = {col: basis_image(code, change, col) for col in code.enumerate_columns(budget)}
    if len({target for target, _ in images.values()}) != len(images):
        raise InvalidIsometryError("basis change does not permute the columns; matrix is singular")
    return {col: target for col, (target, _) in images.items()}, {col: y for col, (_, y) in images.items()}


def conjugate_image(code, x: ColumnFinVec) -> ColumnFinVec:
    """Every entry conjugated, its column re-indexed right-canonically through normalize_right."""
    out = {}
    for col, val in x.items():
        y, target = code.normalize_right(DenseVec(tuple(conjugate(e) for e in col.entries)))
        if target in out:
            raise InvalidIsometryError(f"two columns re-index to {target} under conjugation")
        out[target] = y * conjugate(val)
    return ColumnFinVec(code.algebra, code.m, list(out.items()))
