"""certify-infinite: sampled certificates over the rationals, quaternions and octonions.

One operation is one certificate call (20 to 600 trials or samples, sized so
that calls cost about the same) with its own derived seed. Exact Fraction
arithmetic in the algebra layer dominates.
Checks: every verdict holds, every requested trial count is in the report,
and the octonion audit shows what theory says (nonassociative, alternative).
"""
from __future__ import annotations

import quasicode as qc

from common import Op, seeded_rng

NAME = "certify-infinite"

# Criterion 2's infinite codes, as (preset, m).
CODES = (("rationals", 2), ("rationals", 3), ("rationals", 4),
         ("quaternions", 2), ("quaternions", 3), ("octonions", 2))

# One round: (kind, preset, m, trials per call, calls). Trial counts make each
# call cost about the same, so the median operation sits in a dense cluster.
PLAN = (
    ("verify", "rationals", 2, 600, 1),
    ("verify", "rationals", 3, 600, 1),
    ("verify", "rationals", 4, 600, 1),
    ("verify", "quaternions", 2, 200, 2),
    ("verify", "quaternions", 3, 150, 2),
    ("verify", "octonions", 2, 100, 2),
    ("axioms", "rationals", 2, 120, 2),
    ("axioms", "quaternions", 2, 25, 3),
    ("conjugate", "quaternions", 2, 30, 3),
    ("distinguish", "quaternions", 2, 40, 2),
    ("audit", "octonions", 0, 20, 3),
)

MODULE_AXIOMS = ("add_commutative", "add_associative", "scalar_distributes_over_pairs",
                 "pairs_distribute_over_scalars", "scalar_action_associative")

# Laws of the octonions: a nonassociative, alternative division algebra.
OCTONION_LAWS = {
    "left_distributive": True, "right_distributive": True,
    "left_solvable": True, "right_solvable": True,
    "associative": False, "commutative": False,
    "left_unit": True, "right_unit": True, "two_sided_unit": True,
    "alternative": True,
}


def setup(seed: int) -> dict:
    algebras = {name: qc.resolve_preset(name) for name in ("rationals", "quaternions", "octonions")}
    codes = {(name, m): qc.HammingCode(algebras[name], m) for name, m in CODES}
    return {"algebras": algebras, "codes": codes}


def _check_verify(trials, seed):
    def check(rep):
        if rep.mode != "structural" or rep.trials != trials or rep.seed != seed:
            return f"mode/trials/seed are {rep.mode}/{rep.trials}/{rep.seed}"
        if not (rep.verdict and rep.property_a_ok and rep.property_b_ok) or rep.witnesses:
            return "structural perfectness not certified"
        lines = rep.lines()
        if f"trials: {trials}" not in lines or "verdict: perfect" not in lines:
            return "report lines lack the trial count or the verdict"
        return None
    return check


def _check_axioms(trials, seed):
    def check(rep):
        if rep.mode != "sampled" or rep.trials != trials or rep.seed != seed:
            return f"mode/trials/seed are {rep.mode}/{rep.trials}/{rep.seed}"
        for name in MODULE_AXIOMS:
            # rationals and quaternions are associative, so all five axioms are checked
            if rep.axioms[name].holds is not True or rep.counts[name] != trials:
                return f"{name}: holds={rep.axioms[name].holds} over {rep.counts[name]} cases"
        if "verdict: module axioms hold" not in rep.lines():
            return "verdict line missing"
        return None
    return check


def _check_conjugate(samples):
    def check(rep):
        if rep.passes != samples or rep.failures or not rep.verdict:
            return f"{rep.passes}/{samples} conjugate images in the right code"
        if f"conjugate images in the right code: {samples}/{samples}" not in rep.lines():
            return "report lines lack the sample count"
        return None
    return check


def _check_distinguish(samples, seed):
    def check(rep):
        if rep.mode != "sampled" or rep.samples != samples or rep.seed != seed:
            return f"mode/samples/seed are {rep.mode}/{rep.samples}/{rep.seed}"
        if not rep.independent_ok or rep.dependent_checked != samples or rep.dependent_failures:
            return f"{rep.dependent_checked} sets checked, failures {rep.dependent_failures[:1]}"
        if not rep.verdict:
            return "codes not distinguished"
        return None
    return check


def _check_audit(trials, seed):
    def check(rep):
        if rep.mode != "sampled" or rep.trials != trials or rep.seed != seed:
            return f"mode/trials/seed are {rep.mode}/{rep.trials}/{rep.seed}"
        for law, expected in OCTONION_LAWS.items():
            got = rep.law(law).holds
            if got is not expected:
                return f"law {law}: {got}, theory says {expected}"
        a, b, c = rep.law("associative").witness
        if a * (b * c) == (a * b) * c:
            return "associativity witness does not witness"
        if f"mode: sampled (trials {trials}, seed {seed})" not in rep.lines():
            return "report lines lack the trial count"
        return None
    return check


def make_ops(state: dict, seed: int) -> list[Op]:
    rng = seeded_rng(NAME, seed)
    codes, algebras = state["codes"], state["algebras"]
    ops = []
    for kind, preset, m, trials, calls in PLAN:
        for _ in range(calls):
            s = rng.randrange(2**31)
            label = f"{kind}:{preset}" + (f":m{m}" if m else "")
            if kind == "verify":
                code = codes[(preset, m)]
                call = (lambda code=code, t=trials, s=s:
                        code.verify_perfect(mode="structural", trials=t, seed=s))
                check = _check_verify(trials, s)
            elif kind == "axioms":
                code = codes[(preset, m)]
                call = lambda code=code, t=trials, s=s: qc.module_axiom_check(code, mode="sampled", trials=t, seed=s)
                check = _check_axioms(trials, s)
            elif kind == "conjugate":
                code = codes[(preset, m)]
                call = lambda code=code, t=trials, s=s: qc.conjugate_code_check(code, samples=t, seed=s)
                check = _check_conjugate(trials)
            elif kind == "distinguish":
                small, large = codes[(preset, m)], codes[(preset, m + 1)]
                call = (lambda a=small, b=large, t=trials, s=s:
                        qc.distinguish_invariant(a, b, samples=t, seed=s))
                check = _check_distinguish(trials, s)
            else:
                alg = algebras[preset]
                call = lambda alg=alg, t=trials, s=s: qc.axiom_audit(alg, mode="sampled", trials=t, seed=s)
                check = _check_audit(trials, s)
            ops.append(Op(label, call, check))
    return ops
