"""exhaust-finite: exhaustive and structural certificates over small finite algebras.

One operation is one call: codeword enumeration, finite structural
perfectness, weight-3 generators, exhaustive module axioms and law audits,
distinguishing invariants, choice and basis isomorphisms, nonassociativity
and right-linearity witnesses, and support witnesses. Checks use closed forms
(code size, sphere packing, weight-3 count, case counts) and the benchmark's
own table arithmetic (finite.Tables).
"""
from __future__ import annotations

import itertools
from math import comb

import quasicode as qc

from common import Op, seeded_rng
from finite import Tables

NAME = "exhaust-finite"
PRESETS = ("f2", "f3", "gf4", "gf9", "gf25", "gf9-isotope")
CODES = (("f2", 2), ("f2", 3), ("f3", 2), ("f3", 3), ("gf4", 2), ("gf4", 3),
         ("gf9", 2), ("gf25", 3), ("gf9-isotope", 2), ("gf9-isotope", 3))
FIELD_LAWS = ("left_distributive", "right_distributive", "left_solvable", "right_solvable",
              "associative", "commutative", "left_unit", "right_unit", "two_sided_unit",
              "alternative")
# Seeded inputs per round: 3-column sets per support-witness code, and
# basis changes per code. With these counts the median operation falls in the
# middle of the cluster of ~2 ms calls (weight-3 generators of f2 and f3,
# right linearity over f3, distinguishing gf4) rather than at a gap in the mix.
SUPPORT_SETS = {"f3": 4, "gf9": 4, "gf9-isotope": 2}
BASIS_CHANGES = 2


def setup(seed: int) -> dict:
    algebras = {name: qc.resolve_preset(name) for name in PRESETS}
    codes = {(name, m): qc.HammingCode(algebras[name], m) for name, m in CODES}
    return {"algebras": algebras, "codes": codes}


def _n(q: int, m: int) -> int:
    return (q**m - 1) // (q - 1)


def _weight3_count(q: int, m: int) -> int:
    n = _n(q, m)
    return n * (n - 1) * (q - 1) ** 2 // 6


def _own_codewords(t: Tables, m: int, rep: dict | None = None) -> list[dict]:
    """Every codeword, by the definition over the whole ambient space."""
    cols = t.columns(m)
    out = []
    for values in itertools.product(range(t.q), repeat=len(cols)):
        word = {c: v for c, v in zip(cols, values) if v != t.zero}
        s = t.syndrome(word, m) if rep is None else t.choice_syndrome(word, m, rep)
        if all(e == t.zero for e in s):
            out.append(word)
    return out


def _image(t: Tables, iso, word: dict) -> dict | None:
    """The isometry applied to a word: x_a * alpha_a moved to pi(a); None if columns collide."""
    out = {}
    for col, v in word.items():
        lib_col = t.column(col)
        if iso.rule is not None and lib_col not in iso.pi and lib_col not in iso.alpha:
            target, mult = iso.rule(lib_col)
        else:
            target, mult = iso.pi.get(lib_col, lib_col), iso.alpha.get(lib_col)
        key = t.from_column(target)
        if key in out:
            return None
        out[key] = v if mult is None else t.mul[v][t.index[mult.value]]
    return out


def _check_enumerate(t, m):
    q, n = t.q, _n(t.q, m)

    def check(words):
        if len(words) != q ** (n - m):
            return f"|C| = {len(words)}, expected q^(n-m) = {q ** (n - m)}"
        if len(words) * (1 + n * (q - 1)) != q**n:
            return "sphere-packing identity fails"
        own = [t.from_finvec(w) for w in words]
        if len({frozenset(w.items()) for w in own}) != len(own):
            return "duplicate codewords"
        if not all(t.is_codeword(w, m) for w in own):
            return "a listed word has a nonzero syndrome"
        return None
    return check


def _check_structural(t, m):
    expected = t.q**m - 1

    def check(rep):
        if rep.mode != "structural" or rep.lines_checked != expected:
            return f"mode {rep.mode}, {rep.lines_checked} vectors checked, expected q^m-1 = {expected}"
        if not (rep.verdict and rep.property_a_ok and rep.property_b_ok):
            return "structural perfectness not certified"
        if f"nonzero vectors checked: {expected}" not in rep.lines():
            return "report lines lack the vector count"
        return None
    return check


def _check_generators(t, m):
    expected = _weight3_count(t.q, m)

    def check(gens):
        if len(gens) != expected:
            return f"{len(gens)} weight-3 generators, expected n(n-1)(q-1)^2/6 = {expected}"
        own = [t.from_finvec(g) for g in gens]
        if any(len(w) != 3 or not t.is_codeword(w, m) for w in own):
            return "a generator is not a weight-3 codeword"
        if len({frozenset(w.items()) for w in own}) != expected:
            return "duplicate generators"
        return None
    return check


def _check_module_axioms(t, m):
    q, pairs = t.q, t.q**m
    expected = {
        "add_commutative": pairs**2,
        "add_associative": pairs**3,
        "scalar_distributes_over_pairs": q * pairs**2,
        "pairs_distribute_over_scalars": q * q * pairs,
        "scalar_action_associative": q * q * pairs,
    }

    def check(rep):
        if rep.mode != "exhaustive":
            return f"mode {rep.mode}"
        for name, count in expected.items():
            if rep.axioms[name].holds is not True or rep.counts[name] != count:
                return f"{name}: holds={rep.axioms[name].holds} over {rep.counts[name]} cases, expected {count}"
        return None
    return check


def _check_field_audit(rep):
    for law in FIELD_LAWS:
        if rep.law(law).holds is not True:
            return f"law {law} does not hold in a field"
    return None


def _check_isotope_audit(t):
    def check(rep):
        if rep.law("right_unit").holds is not True or rep.law("left_unit").holds is not False:
            return "expected a right unit and no left unit"
        if rep.law("two_sided_unit").holds is not False:
            return "expected no two-sided unit"
        if rep.law("associative").holds is not False:
            return "expected associativity to fail"
        a, b, c = (t.index[s.value] for s in rep.law("associative").witness)
        if t.mul[a][t.mul[b][c]] == t.mul[t.mul[a][b]][c]:
            return "associativity witness does not witness"
        return None
    return check


def _check_distinguish(q):
    expected = comb(q + 1, 3)  # size-3 column sets of the m=2 code

    def check(rep):
        if rep.mode != "exhaustive" or rep.dependent_checked != expected:
            return f"mode {rep.mode}, {rep.dependent_checked} sets, expected C(q+1,3) = {expected}"
        if not (rep.independent_ok and rep.verdict):
            return "codes not distinguished"
        return None
    return check


def _check_isometry(t, m, source_words, rep_to=None):
    cols = t.columns(m)

    def check(iso):
        images = [_image(t, iso, w) for w in source_words]
        if any(img is None for img in images):
            return "isometry sends two columns of a word to one column"
        for img in images:
            s = t.syndrome(img, m) if rep_to is None else t.choice_syndrome(img, m, rep_to)
            if any(e != t.zero for e in s):
                return f"image {sorted(img.items())} leaves the target code"
        if iso.pi and sorted(t.from_column(c) for c in iso.pi.values()) != sorted(cols):
            return "pi does not permute the columns"
        return None
    return check


def _check_nonassoc(t, m):
    def check(rep):
        if not rep.verdict or rep.associative:
            return "no verified nonassociativity witness"
        a, b, c = (t.index[s.value] for s in rep.triple)
        if t.mul[a][t.mul[b][c]] == t.mul[t.mul[a][b]][c]:
            return "triple is associative"
        if not t.is_codeword(t.from_finvec(rep.codeword), m):
            return "witness codeword is not a codeword"
        v = t.from_finvec(rep.violation)
        if not 1 <= len(v) <= 2 or t.is_codeword(v, m):
            return f"violation {sorted(v.items())} is not a nonzero non-codeword of weight <= 2"
        return None
    return check


def _check_right_linearity(t, m):
    expected = _weight3_count(t.q, m)

    def check(rep):
        if not rep.commutative or rep.mode != "exhaustive" or rep.checked != expected:
            return f"commutative={rep.commutative} mode={rep.mode} checked={rep.checked}, expected {expected}"
        if rep.disagreement or not rep.verdict:
            return rep.disagreement or "verdict false"
        return None
    return check


def _check_support(t, m, cols):
    allowed = {t.from_column(c) for c in cols}

    def check(w):
        if w is None:
            return "no witness, yet m+1 columns are always dependent"
        own = t.from_finvec(w)
        if not own or not set(own) <= allowed:
            return f"witness support {sorted(own)} is empty or leaves the given columns"
        if not t.is_codeword(own, m):
            return "witness is not a codeword"
        return None
    return check


def _random_choice(t, rng, m):
    return {c: rng.choice(t.nonzero) for c in t.columns(m) if rng.random() < 0.75}


def _basis_ops(t, rng, m):
    ops = []
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(m), 2)
        kind = rng.choice(("swap", "shear", "scale") if t.q > 2 else ("swap", "shear"))
        if kind == "swap":
            ops.append(("swap", i, j))
        elif kind == "shear":
            ops.append(("shear", i, j, t.scalar(rng.choice(t.nonzero))))
        else:
            ops.append(("scale", i, t.scalar(rng.choice(t.nonzero))))
    return ops


def make_ops(state: dict, seed: int) -> list[Op]:
    rng = seeded_rng(NAME, seed)
    algebras, codes = state["algebras"], state["codes"]
    tables = {name: Tables(alg) for name, alg in algebras.items()}
    ops = []

    def add(label, call, check):
        ops.append(Op(label, call, check))

    for name, m in (("f2", 3), ("f3", 2), ("gf4", 2)):
        code, t = codes[(name, m)], tables[name]
        add(f"enumerate:{name}:m{m}", lambda code=code: code.enumerate_codewords(), _check_enumerate(t, m))
        add(f"generators:{name}:m{m}", lambda code=code: code.weight3_generators(), _check_generators(t, m))
        add(f"module-axioms:{name}:m{m}", lambda code=code: qc.module_axiom_check(code, mode="exhaustive"),
            _check_module_axioms(t, m))
    for name, m in (("gf25", 3), ("gf9-isotope", 3)):
        code = codes[(name, m)]
        add(f"verify:{name}:m{m}", lambda code=code: code.verify_perfect(mode="structural"),
            _check_structural(tables[name], m))
    for name in ("gf9", "gf25"):
        add(f"audit:{name}", lambda alg=algebras[name]: qc.axiom_audit(alg, mode="exhaustive"), _check_field_audit)
    add("audit:gf9-isotope", lambda alg=algebras["gf9-isotope"]: qc.axiom_audit(alg, mode="exhaustive"),
        _check_isotope_audit(tables["gf9-isotope"]))
    for name in ("f2", "f3", "gf4"):
        add(f"distinguish:{name}",
            lambda a=codes[(name, 2)], b=codes[(name, 3)]: qc.distinguish_invariant(a, b),
            _check_distinguish(tables[name].q))

    t, m, code = tables["f3"], 2, codes[("f3", 2)]
    for _ in range(2):
        rep1, rep2 = _random_choice(t, rng, m), _random_choice(t, rng, m)
        e1, e2 = (qc.ChoiceFunction(t.algebra, {t.column(c): t.scalar(v) for c, v in rep.items()})
                  for rep in (rep1, rep2))
        add("choice-iso:f3:m2", lambda code=code, e1=e1, e2=e2: qc.choice_isomorphism(code, e1, e2),
            _check_isometry(t, m, _own_codewords(t, m, rep1), rep2))
    for name, m in (("f2", 3), ("f3", 2)):
        t, code = tables[name], codes[(name, m)]
        words = _own_codewords(t, m)
        for _ in range(BASIS_CHANGES):
            change = qc.BasisChange.from_ops(t.algebra, m, _basis_ops(t, rng, m))
            add(f"basis-iso:{name}:m{m}", lambda code=code, change=change: qc.basis_change_isomorphism(code, change),
                _check_isometry(t, m, words))

    add("nonassoc:gf9-isotope:m2", lambda code=codes[("gf9-isotope", 2)]: qc.nonassoc_witness(code),
        _check_nonassoc(tables["gf9-isotope"], 2))
    for name in ("f3", "gf4"):
        add(f"right-linearity:{name}:m2", lambda code=codes[(name, 2)]: qc.right_linearity_witness(code),
            _check_right_linearity(tables[name], 2))
    for name, sets in SUPPORT_SETS.items():
        t, m, code = tables[name], 2, codes[(name, 2)]
        for _ in range(sets):
            chosen = set()
            while len(chosen) < m + 1:
                chosen.add(t.random_column(rng, m))
            cols = [t.column(c) for c in sorted(chosen)]
            add(f"support-witness:{name}:m2", lambda code=code, cols=cols: qc.support_witness(code, cols),
                _check_support(t, m, cols))
    return ops
