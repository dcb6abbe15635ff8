"""Frozen text of every report type, run through the command line.

Each case is one CLI invocation with a small trial count and the full report
it must print, byte for byte, together with its exit code. Law checking and
report rendering may change underneath, but this text may not.
"""
import json

import pytest

from quasicode.cli import main


def z5_shift_spec(tmp_path):
    # nonzero product = shifted index addition: a commutative group that ignores
    # addition, so both distributive laws fail
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    mul = [[0] * 5 for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            mul[i][j] = ((i - 1) + (j - 1)) % 4 + 1
    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"kind": "cayley-table", "add": add, "mul": mul, "label": "z5-shift"}))
    return str(path)


def rational_columns_file(tmp_path):
    # canonical columns of the rational m=3 code with non-integer entries; four
    # columns of a code with three check rows always support a codeword
    path = tmp_path / "columns.txt"
    path.write_text("(1,1/2,-3/4)\n(1,2/3,5)\n(0,1,7/5)\n(1,-1/3,2)\n")
    return str(path)


def f3_vector_file(tmp_path):
    # a weight-3 vector of the f3 m=2 ambient one entry away from a codeword
    path = tmp_path / "vector.txt"
    path.write_text("(1,0) := 1\n(0,1) := 2\n(1,2) := 1\n")
    return str(path)


PLACEHOLDERS = {"@Z5": z5_shift_spec, "@QCOLS": rational_columns_file, "@F3VEC": f3_vector_file}


# (case id, argv with @Z5 standing for the z5-shift spec file, @QCOLS for the
# rational columns file and @F3VEC for the f3 vector file, exit code, stdout)
FROZEN = [
    (
        'audit_f3',
        ['audit', '--algebra', 'f3'],
        0,
        """\
command: audit
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
mode: exhaustive
law left_distributive: holds
law right_distributive: holds
law left_solvable: holds
law right_solvable: holds
law associative: holds
law commutative: holds
law left_unit: holds  [left unit = 1]
law right_unit: holds  [right unit = 1]
law two_sided_unit: holds  [unit = 1]
law alternative: holds
""",
    ),
    (
        'audit_gf9_isotope',
        ['audit', '--algebra', 'gf9-isotope'],
        0,
        """\
command: audit
seed: 0
budget: 1048576
algebra: gf9-isotope (digest 64ded22a20f8)
mode: exhaustive
law left_distributive: holds
law right_distributive: holds
law left_solvable: holds
law right_solvable: holds
law associative: fails witness=(1,1,t)
law commutative: fails witness=(1,t)
law left_unit: fails witness=(1,t)
law right_unit: holds  [right unit = 1]
law two_sided_unit: fails witness=(1,t)
law alternative: fails witness=(1,t)
""",
    ),
    (
        # no declared left unit: sampling leaves left_unit and two_sided_unit undetermined
        'audit_gf9_isotope_sampled',
        ['audit', '--algebra', 'gf9-isotope', '--mode', 'sampled', '--trials', '50'],
        0,
        """\
command: audit
seed: 0
budget: 1048576
algebra: gf9-isotope (digest 64ded22a20f8)
mode: sampled (trials 50, seed 0)
law left_distributive: holds  [no counterexample in 50 trials]
law right_distributive: holds  [no counterexample in 50 trials]
law left_solvable: holds  [no counterexample in 50 trials; uniqueness not sampled]
law right_solvable: holds  [no counterexample in 50 trials; uniqueness not sampled]
law associative: fails witness=(1,1,t)
law commutative: fails witness=(1,t)
law left_unit: undetermined  [existence not decidable by sampling]
law right_unit: holds  [checked declared unit 1; no counterexample in 50 trials]
law two_sided_unit: undetermined  [existence not decidable by sampling]
law alternative: fails witness=(1,t)
""",
    ),
    (
        'audit_z5_shift',
        ['audit', '--algebra', '@Z5'],
        0,
        """\
command: audit
seed: 0
budget: 1048576
algebra: z5-shift (digest 228ecf7ab671)
mode: exhaustive
law left_distributive: fails witness=(2,1,1)
law right_distributive: fails witness=(1,1,2)
law left_solvable: holds
law right_solvable: holds
law associative: holds
law commutative: holds
law left_unit: holds  [left unit = 1]
law right_unit: holds  [right unit = 1]
law two_sided_unit: holds  [unit = 1]
law alternative: holds
""",
    ),
    (
        'audit_rationals_sampled',
        ['audit', '--algebra', 'rationals', '--mode', 'sampled', '--trials', '30', '--seed', '1'],
        0,
        """\
command: audit
seed: 1
budget: 1048576
algebra: rationals (digest 54413fe7f520)
mode: sampled (trials 30, seed 1)
law left_distributive: holds  [no counterexample in 30 trials]
law right_distributive: holds  [no counterexample in 30 trials]
law left_solvable: holds  [no counterexample in 30 trials; uniqueness not sampled]
law right_solvable: holds  [no counterexample in 30 trials; uniqueness not sampled]
law associative: holds  [no counterexample in 30 trials]
law commutative: holds  [no counterexample in 30 trials]
law left_unit: holds  [checked declared unit 1; no counterexample in 30 trials]
law right_unit: holds  [checked declared unit 1; no counterexample in 30 trials]
law two_sided_unit: holds  [unit = 1]
law alternative: holds  [no counterexample in 30 trials]
""",
    ),
    (
        'audit_octonions_sampled',
        ['audit', '--algebra', 'octonions', '--mode', 'sampled', '--trials', '40', '--seed', '3'],
        0,
        """\
command: audit
seed: 3
budget: 1048576
algebra: octonions (digest b14fdf1be8b1)
mode: sampled (trials 40, seed 3)
law left_distributive: holds  [no counterexample in 40 trials]
law right_distributive: holds  [no counterexample in 40 trials]
law left_solvable: holds  [no counterexample in 40 trials; uniqueness not sampled]
law right_solvable: holds  [no counterexample in 40 trials; uniqueness not sampled]
law associative: fails witness=(0+1e1+0e2+0e3+0e4+0e5+0e6+0e7,0+0e1+1e2+0e3+0e4+0e5+0e6+0e7,0+0e1+0e2+0e3+1e4+0e5+0e6+0e7)
law commutative: fails witness=(0+1e1+0e2+0e3+0e4+0e5+0e6+0e7,0+0e1+1e2+0e3+0e4+0e5+0e6+0e7)
law left_unit: holds  [checked declared unit 1+0e1+0e2+0e3+0e4+0e5+0e6+0e7; no counterexample in 40 trials]
law right_unit: holds  [checked declared unit 1+0e1+0e2+0e3+0e4+0e5+0e6+0e7; no counterexample in 40 trials]
law two_sided_unit: holds  [unit = 1+0e1+0e2+0e3+0e4+0e5+0e6+0e7]
law alternative: holds  [no counterexample in 40 trials]
""",
    ),
    (
        'columns_f3',
        ['columns', '--algebra', 'f3', '--m', '2'],
        0,
        """\
command: columns
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
m: 2
columns: 4
(1,0)
(1,1)
(1,2)
(0,1)
""",
    ),
    (
        'syndrome_f3',
        ['syndrome', '--algebra', 'f3', '--m', '2', '--in', '@F3VEC'],
        0,
        """\
command: syndrome
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
m: 2
weight: 3
syndrome: (2,1)
in code: false
""",
    ),
    (
        'decode_f3',
        ['decode', '--algebra', 'f3', '--m', '2', '--in', '@F3VEC'],
        0,
        """\
# command: decode
# seed: 0
# budget: 1048576
# algebra: f3 (digest 938c09fb6877)
# changed: true
# codeword weight: 3
(0,1) := 2
(1,0) := 1
(1,2) := 2
""",
    ),
    (
        'membership_reduce_f3',
        ['membership-reduce', '--algebra', 'f3', '--m', '2', '--in', '@F3VEC'],
        0,
        """\
command: membership-reduce
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
m: 2
weight: 3
membership by reduction: false
membership by syndrome: false
agreement: true
""",
    ),
    (
        'reconstruct_f3_exhaustive',
        ['reconstruct-check', '--algebra', 'f3', '--m', '2', '--mode', 'exhaustive'],
        0,
        """\
command: reconstruct-check
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
code: hamming(f3, m=2)
mode: exhaustive
add_commutative: ok (81 cases)
add_associative: ok (729 cases)
scalar_distributes_over_pairs: ok (243 cases)
pairs_distribute_over_scalars: ok (81 cases)
scalar_action_associative: ok (81 cases)
verdict: module axioms hold
""",
    ),
    (
        'reconstruct_quaternions_sampled',
        ['reconstruct-check', '--algebra', 'quaternions', '--m', '2', '--trials', '15', '--seed', '5'],
        0,
        """\
command: reconstruct-check
seed: 5
budget: 1048576
algebra: quaternions (digest c22dada144f9)
code: hamming(quaternions, m=2)
mode: sampled
trials: 15
seed: 5
add_commutative: ok (15 cases)
add_associative: ok (15 cases)
scalar_distributes_over_pairs: ok (15 cases)
pairs_distribute_over_scalars: ok (15 cases)
scalar_action_associative: ok (15 cases)
verdict: module axioms hold
""",
    ),
    (
        'reconstruct_octonions_sampled',
        ['reconstruct-check', '--algebra', 'octonions', '--m', '2', '--trials', '40', '--seed', '0'],
        1,
        """\
command: reconstruct-check
seed: 0
budget: 1048576
algebra: octonions (digest b14fdf1be8b1)
code: hamming(octonions, m=2)
mode: sampled
trials: 40
seed: 0
add_commutative: ok (40 cases)
add_associative: ok (40 cases)
scalar_distributes_over_pairs: VIOLATED (1 cases) witness -1/2+1/2e1-6/5e2-5/4e3+0e4+1/9e5-3/5e6+8e7*((5/3-1/2e1+1e2-1/10e3+3/4e4-5/2e5+9/7e6-6/5e7, (1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-6/7+1e1+1/8e2+3e3-1e4+2/7e5+1/5e6-6/5e7)) + (1+1/5e1-3/8e2-4/3e3+5/8e4-9/7e5-4/9e6-1/7e7, (1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-1/5-5/3e1-4/5e2-2e3+1/4e4+4/5e5-5e6-7/3e7))) != -1/2+1/2e1-6/5e2-5/4e3+0e4+1/9e5-3/5e6+8e7*(5/3-1/2e1+1e2-1/10e3+3/4e4-5/2e5+9/7e6-6/5e7, (1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-6/7+1e1+1/8e2+3e3-1e4+2/7e5+1/5e6-6/5e7)) + -1/2+1/2e1-6/5e2-5/4e3+0e4+1/9e5-3/5e6+8e7*(1+1/5e1-3/8e2-4/3e3+5/8e4-9/7e5-4/9e6-1/7e7, (1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-1/5-5/3e1-4/5e2-2e3+1/4e4+4/5e5-5e6-7/3e7))
pairs_distribute_over_scalars: ok (40 cases)
scalar_action_associative: skipped (0 cases) [skipped: scalar multiplication is not associative]
verdict: AXIOM VIOLATED
""",
    ),
    (
        'reconstruct_rationals_sampled',
        ['reconstruct-check', '--algebra', 'rationals', '--m', '2', '--trials', '10', '--seed', '3'],
        0,
        """\
command: reconstruct-check
seed: 3
budget: 1048576
algebra: rationals (digest 54413fe7f520)
code: hamming(rationals, m=2)
mode: sampled
trials: 10
seed: 3
add_commutative: ok (10 cases)
add_associative: ok (10 cases)
scalar_distributes_over_pairs: ok (10 cases)
pairs_distribute_over_scalars: ok (10 cases)
scalar_action_associative: ok (10 cases)
verdict: module axioms hold
""",
    ),
    (
        'reconstruct_gf9_isotope_exhaustive',
        ['reconstruct-check', '--algebra', 'gf9-isotope', '--m', '2'],
        1,
        """\
command: reconstruct-check
seed: 0
budget: 1048576
algebra: gf9-isotope (digest 64ded22a20f8)
code: hamming(gf9-isotope, m=2)
mode: exhaustive
add_commutative: ok (6561 cases)
add_associative: ok (531441 cases)
scalar_distributes_over_pairs: VIOLATED (59049 cases) witness 1*((1, (1,0)) + (t, (1,1))) != 1*(1, (1,0)) + 1*(t, (1,1))
pairs_distribute_over_scalars: ok (6561 cases)
scalar_action_associative: skipped (0 cases) [skipped: scalar multiplication is not associative]
verdict: AXIOM VIOLATED
""",
    ),
    (
        'verify_f3_exhaustive',
        ['verify-perfect', '--algebra', 'f3', '--m', '2', '--mode', 'exhaustive'],
        0,
        """\
command: verify-perfect
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
mode: exhaustive
m: 2
q: 3
n: 4
budget: 1048576
code size: 9
covering identity: ok
min distance >= 3: ok
verdict: perfect
""",
    ),
    (
        'verify_z5_shift_exhaustive',
        ['verify-perfect', '--algebra', '@Z5', '--m', '2', '--mode', 'exhaustive', '--pivots', '1,1'],
        1,
        """\
command: verify-perfect
seed: 0
budget: 1048576
algebra: z5-shift (digest 228ecf7ab671)
mode: exhaustive
m: 2
q: 5
n: 6
budget: 1048576
code size: 625
covering identity: ok
min distance >= 3: VIOLATED
witness: codewords at distance < 3: FinVec[] vs FinVec[(1,2):1, (1,4):4]
verdict: NOT VERIFIED
""",
    ),
    (
        'verify_gf9_structural',
        ['verify-perfect', '--algebra', 'gf9', '--m', '2', '--mode', 'structural'],
        0,
        """\
command: verify-perfect
seed: 0
budget: 1048576
algebra: gf9 (digest 9912f22c3733)
mode: structural
m: 2
q: 9
n: 10
budget: 1048576
line disjointness: ok
factorization totality: ok
nonzero vectors checked: 80
verdict: perfect
""",
    ),
    (
        'verify_rationals_sampled',
        ['verify-perfect', '--algebra', 'rationals', '--m', '2', '--trials', '30', '--seed', '2'],
        0,
        """\
command: verify-perfect
seed: 2
budget: 1048576
algebra: rationals (digest 54413fe7f520)
mode: structural
m: 2
q: infinite
n: unbounded
budget: 1048576
trials: 30
seed: 2
line disjointness: ok
factorization totality: ok
verdict: perfect
""",
    ),
    (
        'distinguish_f2',
        ['distinguish', '--algebra', 'f2', '--m', '2', '--m2', '3'],
        0,
        """\
command: distinguish
seed: 0
budget: 1048576
algebra: f2 (digest 64f1562a5b31)
codes: m=2 vs m=3
mode: exhaustive
identity columns of the larger code support no nonzero codeword: ok
size-3 column sets of the smaller code all support a codeword: ok (1 sets)
example dependence: (0,1) := 1
(1,0) := 1
(1,1) := 1
verdict: codes distinguished
""",
    ),
    (
        'distinguish_quaternions_sampled',
        ['distinguish', '--algebra', 'quaternions', '--m', '2', '--m2', '3', '--samples', '4', '--seed', '1'],
        0,
        """\
command: distinguish
seed: 1
budget: 1048576
algebra: quaternions (digest c22dada144f9)
codes: m=2 vs m=3
mode: sampled
samples: 4
seed: 1
identity columns of the larger code support no nonzero codeword: ok
size-3 column sets of the smaller code all support a codeword: ok (4 sets)
example dependence: (0+0i+0j+0k,1+0i+0j+0k) := -39/8-3/7i-13/40j-55/28k
(1+0i+0j+0k,-7/8-10/7i+3/10j-5/4k) := -1+0i+0j+0k
(1+0i+0j+0k,4-1i+5/8j+5/7k) := 1+0i+0j+0k
verdict: codes distinguished
""",
    ),
    (
        'distinguish_rationals_sampled',
        ['distinguish', '--algebra', 'rationals', '--m', '2', '--m2', '3', '--samples', '5', '--seed', '4'],
        0,
        """\
command: distinguish
seed: 4
budget: 1048576
algebra: rationals (digest 54413fe7f520)
codes: m=2 vs m=3
mode: sampled
samples: 5
seed: 4
identity columns of the larger code support no nonzero codeword: ok
size-3 column sets of the smaller code all support a codeword: ok (5 sets)
example dependence: (0,1) := -7/2
(1,-4) := -1
(1,-1/2) := 1
verdict: codes distinguished
""",
    ),
    (
        'support_witness_rationals',
        ['support-witness', '--algebra', 'rationals', '--m', '3', '--columns-file', '@QCOLS'],
        0,
        """\
command: support-witness
seed: 0
budget: 1048576
algebra: rationals (digest 54413fe7f520)
m: 3
columns: 4
(0,1,7/5)
(1,-1/3,2)
(1,1/2,-3/4)
(1,2/3,5)
witness: FinVec[(0,1,7/5):-63/47, (1,-1/3,2):-331/235, (1,1/2,-3/4):96/235, (1,2/3,5):1]
witness weight: 4
""",
    ),
    (
        'nonassoc_gf9_isotope',
        ['nonassoc-witness', '--algebra', 'gf9-isotope', '--m', '2'],
        0,
        """\
command: nonassoc-witness
seed: 0
budget: 1048576
algebra: gf9-isotope (digest 64ded22a20f8)
scan: exhaustive over 9^3 triples
triple: a=1 b=1 c=t
a(bc)=t (ab)c=2t
codeword y: FinVec[(0,1):t, (1,0):1, (1,2t):2]
a(by) - (ab)y: FinVec[(0,1):2t]
violation weight: 1
violation in code: False
verdict: left scaling escapes the code
""",
    ),
    (
        'right_linearity_f3',
        ['right-linearity', '--algebra', 'f3', '--m', '2'],
        0,
        """\
command: right-linearity
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
commutative: True
mode: exhaustive
generators checked against right membership: 8
verdict: left and right linearity agree
""",
    ),
    (
        'right_linearity_rationals_sampled',
        ['right-linearity', '--algebra', 'rationals', '--m', '2', '--trials', '6', '--seed', '3'],
        0,
        """\
command: right-linearity
seed: 3
budget: 1048576
algebra: rationals (digest 54413fe7f520)
commutative: True
mode: sampled
trials: 6
seed: 3
generators checked against right membership: 6
verdict: left and right linearity agree
""",
    ),
    (
        'right_linearity_quaternions',
        ['right-linearity', '--algebra', 'quaternions', '--m', '2'],
        0,
        """\
command: right-linearity
seed: 0
budget: 1048576
algebra: quaternions (digest c22dada144f9)
commutative: False
mode: sampled
trials: 200
seed: 0
codeword: FinVec[(0+0i+0j+0k,1+0i+0j+0k):0+0i+1j+0k, (1+0i+0j+0k,0+0i+0j-1k):0-1i+0j+0k, (1+0i+0j+0k,0+0i+0j+0k):0+1i+0j+0k]
right multiplier: 0+1i+0j+0k
verdict: right scaling escapes the code
""",
    ),
    (
        'conjugate_quaternions',
        ['conjugate-check', '--algebra', 'quaternions', '--m', '2', '--samples', '8', '--seed', '4'],
        0,
        """\
command: conjugate-check
seed: 4
budget: 1048576
algebra: quaternions (digest c22dada144f9)
samples: 8
seed: 4
conjugate images in the right code: 8/8
verdict: conjugation lands in the right code
""",
    ),
    (
        'generators_gf4',
        ['generators', '--algebra', 'gf4', '--m', '2'],
        0,
        """\
command: generators
seed: 0
budget: 1048576
algebra: gf4 (digest 02a3280193c6)
m: 2
generators: 30
FinVec[(0,1):1, (1,0):1, (1,1):1]
FinVec[(1,0):1, (1,1):t, (1,t+1):t+1]
FinVec[(1,0):1, (1,1):t+1, (1,t):t]
FinVec[(1,0):t, (1,1):1, (1,t):t+1]
FinVec[(0,1):t, (1,0):t, (1,1):t]
FinVec[(1,0):t, (1,1):t+1, (1,t+1):1]
FinVec[(1,0):t+1, (1,1):1, (1,t+1):t]
FinVec[(1,0):t+1, (1,1):t, (1,t):1]
FinVec[(0,1):t+1, (1,0):t+1, (1,1):t+1]
FinVec[(0,1):t, (1,0):1, (1,t):1]
FinVec[(1,0):1, (1,t):t+1, (1,t+1):t]
FinVec[(1,0):t, (1,t):1, (1,t+1):t+1]
FinVec[(0,1):t+1, (1,0):t, (1,t):t]
FinVec[(1,0):t+1, (1,t):t, (1,t+1):1]
FinVec[(0,1):1, (1,0):t+1, (1,t):t+1]
FinVec[(0,1):t+1, (1,0):1, (1,t+1):1]
FinVec[(0,1):1, (1,0):t, (1,t+1):t]
FinVec[(0,1):t, (1,0):t+1, (1,t+1):t+1]
FinVec[(0,1):t+1, (1,1):1, (1,t):1]
FinVec[(1,1):1, (1,t):t, (1,t+1):t+1]
FinVec[(0,1):1, (1,1):t, (1,t):t]
FinVec[(1,1):t, (1,t):t+1, (1,t+1):1]
FinVec[(1,1):t+1, (1,t):1, (1,t+1):t]
FinVec[(0,1):t, (1,1):t+1, (1,t):t+1]
FinVec[(0,1):t, (1,1):1, (1,t+1):1]
FinVec[(0,1):t+1, (1,1):t, (1,t+1):t]
FinVec[(0,1):1, (1,1):t+1, (1,t+1):t+1]
FinVec[(0,1):1, (1,t):1, (1,t+1):1]
FinVec[(0,1):t, (1,t):t, (1,t+1):t]
FinVec[(0,1):t+1, (1,t):t+1, (1,t+1):t+1]
""",
    ),
    (
        'choice_iso_f3',
        ['choice-iso', '--algebra', 'f3', '--m', '2', '--e1', '(1,0)=2;(1,1)=2', '--e2', '(0,1)=2'],
        0,
        """\
command: choice-iso
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
m: 2
pi: identity
default multiplier: 1
alpha (0,1): 2
alpha (1,0): 2
alpha (1,1): 2
verdict: generators map into the target code
""",
    ),
    (
        'choice_iso_quaternions',
        ['choice-iso', '--algebra', 'quaternions', '--m', '2', '--e1', '(1,0)=i', '--e2', '(0,1)=j'],
        0,
        """\
command: choice-iso
seed: 0
budget: 1048576
algebra: quaternions (digest c22dada144f9)
m: 2
pi: identity
default multiplier: 1+0i+0j+0k
alpha (0+0i+0j+0k,1+0i+0j+0k): 0+0i-1j+0k
alpha (1+0i+0j+0k,0+0i+0j+0k): 0+1i+0j+0k
verdict: generators map into the target code
""",
    ),
    (
        'basis_iso_f3',
        ['basis-iso', '--algebra', 'f3', '--m', '2', '--ops', 'swap:0,1;shear:0,1,1'],
        0,
        """\
command: basis-iso
seed: 0
budget: 1048576
algebra: f3 (digest 938c09fb6877)
m: 2
matrix: [0, 1; 1, 1]
built from: swap(0,1), shear(0,1,1)
pi (1,0) -> (0,1)  alpha: 1
pi (1,1) -> (1,2)  alpha: 1
pi (1,2) -> (1,0)  alpha: 2
pi (0,1) -> (1,1)  alpha: 1
generator images checked: 8
verdict: code mapped onto itself
""",
    ),
    (
        'basis_iso_rationals_sampled',
        ['basis-iso', '--algebra', 'rationals', '--m', '2', '--ops', 'swap:0,1'],
        0,
        """\
command: basis-iso
seed: 0
budget: 1048576
algebra: rationals (digest 54413fe7f520)
m: 2
matrix: [0, 1; 1, 0]
built from: swap(0,1)
sampled codeword images checked: 50
verdict: code mapped onto itself
""",
    ),
    (
        'distinguish_octonions_sampled',
        ['distinguish', '--algebra', 'octonions', '--m', '2', '--m2', '3', '--samples', '3', '--seed', '2'],
        0,
        """\
command: distinguish
seed: 2
budget: 1048576
algebra: octonions (digest b14fdf1be8b1)
codes: m=2 vs m=3
mode: sampled
samples: 3
seed: 2
identity columns of the larger code support no nonzero codeword: ok
size-3 column sets of the smaller code all support a codeword: ok (3 sets)
example dependence: (0+0e1+0e2+0e3+0e4+0e5+0e6+0e7,1+0e1+0e2+0e3+0e4+0e5+0e6+0e7) := 7/3+1/3e1+17/35e2-1/4e3-20/3e4-41/12e5-79/21e6-1e7
(1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-5/3+2/3e1+2/7e2+2e3+7/3e4-3/4e5-10/3e6+0e7) := -1+0e1+0e2+0e3+0e4+0e5+0e6+0e7
(1+0e1+0e2+0e3+0e4+0e5+0e6+0e7,-4+1/3e1-1/5e2+9/4e3+9e4+8/3e5+3/7e6+1e7) := 1+0e1+0e2+0e3+0e4+0e5+0e6+0e7
verdict: codes distinguished
""",
    ),
    (
        'verify_octonions_sampled',
        ['verify-perfect', '--algebra', 'octonions', '--m', '2', '--trials', '20', '--seed', '5'],
        0,
        """\
command: verify-perfect
seed: 5
budget: 1048576
algebra: octonions (digest b14fdf1be8b1)
mode: structural
m: 2
q: infinite
n: unbounded
budget: 1048576
trials: 20
seed: 5
line disjointness: ok
factorization totality: ok
verdict: perfect
""",
    ),
    (
        'audit_quaternions_sampled',
        ['audit', '--algebra', 'quaternions', '--mode', 'sampled', '--trials', '25', '--seed', '4'],
        0,
        """\
command: audit
seed: 4
budget: 1048576
algebra: quaternions (digest c22dada144f9)
mode: sampled (trials 25, seed 4)
law left_distributive: holds  [no counterexample in 25 trials]
law right_distributive: holds  [no counterexample in 25 trials]
law left_solvable: holds  [no counterexample in 25 trials; uniqueness not sampled]
law right_solvable: holds  [no counterexample in 25 trials; uniqueness not sampled]
law associative: holds  [no counterexample in 25 trials]
law commutative: fails witness=(0+1i+0j+0k,0+0i+1j+0k)
law left_unit: holds  [checked declared unit 1+0i+0j+0k; no counterexample in 25 trials]
law right_unit: holds  [checked declared unit 1+0i+0j+0k; no counterexample in 25 trials]
law two_sided_unit: holds  [unit = 1+0i+0j+0k]
law alternative: holds  [no counterexample in 25 trials]
""",
    ),
]


@pytest.mark.parametrize("argv,status,expected", [c[1:] for c in FROZEN], ids=[c[0] for c in FROZEN])
def test_report_text_is_frozen(argv, status, expected, tmp_path, capsys):
    argv = [PLACEHOLDERS[a](tmp_path) if a in PLACEHOLDERS else a for a in argv]
    assert main(argv) == status
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
