"""Slow reference implementations, kept as oracles for the raw-payload fast paths.

The Hamming functions are the Scalar/DenseVec versions of HammingCode's
vector check, syndromes, factorizations, decode and finite and sampled
structural perfectness checks that the payload loops in hamming.py replaced;
every step goes through Scalar operators and checked vector constructors.
choice_syndrome sums Scalar-level DenseVecs, as before it ran on payloads.
weight3_generators decodes all n(n-1)/2 * (q-1)^2 weight-3 cases and drops
repeats with a set of the codewords seen, and choice_weight3 builds a
codeword of the chosen-representative code through two given entries by
normalizing a sum of DenseVecs; these are what reading each codeword off its
first column pair, and mapping plain codewords onto the chosen
representatives, replaced.
all_ambient_vectors lists the q^n vectors of a finite ambient in product
order.  The enumeration functions filter them by their syndrome
and check the minimum distance on every pair of codewords; the module-axiom
check runs over PairElement objects with a dict pair table.  These are what
systematic encoding, deletion hashing and index tables replaced.
gf_product is a schoolbook polynomial product reduced by long division,
independent of GaloisField's tables and of its reduction.
"""
import itertools
import math

from quasicode import (
    Column,
    DenseVec,
    DomainError,
    FinVec,
    InconsistencyError,
    LawCheck,
    ModuleAxiomReport,
    PerfectnessReport,
    Scalar,
    enumerate_pairs,
    is_associative,
    pair_add,
    pair_scalar_mul,
    solve_left,
    solve_right,
)
from quasicode.algebra.audit import first_failure
from quasicode.errors import check_budget


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
    import random

    rng = random.Random(seed)
    ok_a = ok_b = True
    witnesses = []
    for _ in range(trials):
        a1 = code.random_column(rng)
        y = code.algebra.random_scalar(rng, nonzero=True)
        z = a1.to_dense().scalar_mul_left(y)
        y2, a2 = normalize(code, z)
        if y2 != y or a2 != a1:
            ok_a = False
            witnesses.append(f"normalize({z}) returned ({y2},{a2}), expected ({y},{a1})")
            break
    for _ in range(trials):
        z = DenseVec([code.algebra.random_scalar(rng) for _ in range(code.m)])
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


def weight3_generators(code, budget: int = 2**20) -> list:
    """Distinct weight-3 codewords over column pairs and nonzero scalar pairs, in first-seen order."""
    columns = code.enumerate_columns(budget)
    scalars = list(code.algebra.nonzero_elements())
    n = len(columns)
    check_budget(n * (n - 1) // 2 * len(scalars) ** 2, budget, "generator enumeration needs {} decodes")
    seen = set()
    out = []
    for a1, a2 in itertools.combinations(columns, 2):
        for alpha in scalars:
            for beta in scalars:
                c = code.weight3_codeword(a1, a2, alpha, beta)
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


def module_axioms_exhaustive(code) -> ModuleAxiomReport:
    """The exhaustive module-axiom report, with pair sums in a dict keyed by PairElement pairs."""
    alg = code.algebra
    report = ModuleAxiomReport.of(
        alg, code_label=getattr(code, "label", "external code"), mode="exhaustive", trials=None, seed=None
    )
    pools = {"s": sorted(alg.elements(), key=Scalar.sort_key), "p": enumerate_pairs(code)}
    table = {(u, v): pair_add(code, u, v) for u in pools["p"] for v in pools["p"]}

    def padd(u, v):
        return table[u, v]

    def smul(a, u):
        return pair_scalar_mul(code, a, u)

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
        _, w = first_failure(law, itertools.product(*(pools[k] for k in kinds)))
        report.axioms[name] = LawCheck(w is None, None if w is None else describe(*w))
        report.counts[name] = math.prod(len(pools[k]) for k in kinds)
    return report
