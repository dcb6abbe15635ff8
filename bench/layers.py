"""Single-call timings of each layer at m=2: the per-layer metrics of a traced run.

Each timing runs a batch of calls on seeded inputs, enough for a few
milliseconds, and reports the median of several batches per call. Outputs of
the timed calls are checked once, outside the timing. Preset builds and the
CLI import are timed in fresh interpreters.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import quasicode as qc

from common import BENCH_DIR, seeded_rng

PRESETS = ("f3", "gf9", "gf9-isotope", "rationals", "quaternions", "octonions")
FRESH_PRESETS = ("gf9", "gf25", "gf9-isotope")
SUPPORT_PRESETS = ("f3", "gf9", "quaternions")
M = 2
INPUTS = 24
REPEATS = 5
MIN_BATCH_S = 0.003
FRESH_RUNS = 3
# verify_perfect trials for the infinite presets; finite ones check every vector
VERIFY_TRIALS = {"rationals": 100, "quaternions": 20, "octonions": 10}


def per_call_us(batch) -> float:
    """Median over REPEATS of the time per call of batch(), which returns its call count."""
    passes = 1
    while True:
        start = time.perf_counter()
        calls = sum(batch() for _ in range(passes))
        took = time.perf_counter() - start
        if took >= MIN_BATCH_S:
            break
        passes *= 2
    samples = [took / calls]
    for _ in range(REPEATS - 1):
        start = time.perf_counter()
        calls = sum(batch() for _ in range(passes))
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6


def _corrupted(code, rng):
    """A random codeword and the same word with one symbol changed."""
    alg = code.algebra
    c = code.random_codeword(rng)
    a = code.random_column(rng)
    v = alg.random_scalar(rng)
    while v == c.get(a):
        v = alg.random_scalar(rng)
    return c, c - qc.FinVec.single(a, c.get(a)) + qc.FinVec.single(a, v)


def _preset_metrics(name: str, rng, problems: list[str]) -> dict[str, float]:
    alg = qc.resolve_preset(name)
    code = qc.HammingCode(alg, M)
    pairs = [(alg.random_scalar(rng, nonzero=True), alg.random_scalar(rng, nonzero=True)) for _ in range(INPUTS)]
    payloads = [(x.value, y.value) for x, y in pairs]
    words = [_corrupted(code, rng) for _ in range(INPUTS)]
    received = [y for _, y in words]
    entries = [list(c.items()) for c, _ in words]
    dense = []
    while len(dense) < INPUTS:
        z = qc.DenseVec([alg.random_scalar(rng) for _ in range(M)])
        if not z.is_zero():
            dense.append(z)
    pair_args = []
    while len(pair_args) < INPUTS:
        u, v = qc.random_pair(code, rng), qc.random_pair(code, rng)
        if u.column != v.column:
            pair_args.append((u, v))

    if any(code.decode(y) != c for c, y in words):
        problems.append(f"layers: decode over {name} missed the sent codeword")
    if any(a.to_dense().scalar_mul_left(y) != z for z in dense for y, a in [code.normalize(z)]):
        problems.append(f"layers: normalize over {name} does not reproduce its input")

    mul, solve_left, FinVec = alg._mul, qc.solve_left, qc.FinVec

    def b_payload_mul():
        for x, y in payloads:
            mul(x, y)
        return len(payloads)

    def b_scalar_mul():
        for x, y in pairs:
            x * y
        return len(pairs)

    def b_solve():
        for x, y in pairs:
            solve_left(x, y)
        return len(pairs)

    def b_build():
        for e in entries:
            FinVec(alg, M, e)
        return len(entries)

    def b_syndrome():
        for y in received:
            code.syndrome(y)
        return len(received)

    def b_normalize():
        for z in dense:
            code.normalize(z)
        return len(dense)

    def b_decode():
        for y in received:
            code.decode(y)
        return len(received)

    def b_pair_add():
        for u, v in pair_args:
            qc.pair_add(code, u, v)
        return len(pair_args)

    def b_verify():
        rep = code.verify_perfect(trials=VERIFY_TRIALS.get(name, 0), seed=rng.randrange(2**31))
        if not rep.verdict:
            problems.append(f"layers: verify_perfect over {name} did not certify")
        if rep.mode == "exhaustive":
            return rep.q**rep.n  # ambient vectors enumerated
        return rep.lines_checked or rep.trials

    return {
        f"algebra.payload_mul_us.{name}": per_call_us(b_payload_mul),
        f"algebra.scalar_mul_us.{name}": per_call_us(b_scalar_mul),
        f"algebra.solve_us.{name}": per_call_us(b_solve),
        f"finvec.finvec_build_us.{name}": per_call_us(b_build),
        f"hamming.syndrome_us.{name}": per_call_us(b_syndrome),
        f"hamming.normalize_us.{name}": per_call_us(b_normalize),
        f"hamming.decode_us.{name}": per_call_us(b_decode),
        f"hamming.verify_trial_us.{name}": per_call_us(b_verify),
        f"reconstruct.pair_add_us.{name}": per_call_us(b_pair_add),
    }


def _equivalence_metrics(rng, problems: list[str]) -> dict[str, float]:
    out = {}
    for name in SUPPORT_PRESETS:
        code = qc.HammingCode(qc.resolve_preset(name), M)
        sets = []
        while len(sets) < INPUTS:
            cols = {code.random_column(rng) for _ in range(M + 1)}
            if len(cols) == M + 1:
                sets.append(sorted(cols))
        if any(qc.support_witness(code, cols) is None for cols in sets):
            problems.append(f"layers: support_witness over {name} found no dependence among m+1 columns")

        def b_support(code=code, sets=sets):
            for cols in sets:
                qc.support_witness(code, cols)
            return len(sets)

        out[f"equivalence.support_witness_us.{name}"] = per_call_us(b_support)
    code = qc.HammingCode(qc.resolve_preset("quaternions"), M)
    words = [code.random_codeword(rng) for _ in range(INPUTS)]
    if not all(code.contains_right(qc.conjugate_image(code, w)) for w in words):
        problems.append("layers: a conjugate image left the right code")

    def b_conjugate():
        for w in words:
            qc.conjugate_image(code, w)
        return len(words)

    out["equivalence.conjugate_image_us.quaternions"] = per_call_us(b_conjugate)
    return out


def _fresh_metrics(problems: list[str]) -> dict[str, float]:
    imports, builds = [], {name: [] for name in FRESH_PRESETS}
    for _ in range(FRESH_RUNS):
        for name in FRESH_PRESETS:
            out = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), "preset", name],
                                 capture_output=True, text=True, timeout=60)
            if out.returncode != 0:
                problems.append(f"layers: fresh build of {name} exited {out.returncode}")
                continue
            times = json.loads(out.stdout)
            imports.append(times["import_ms"])
            builds[name].append(times["build_ms"])
    metrics = {f"algebra.preset_build_ms.{name}": statistics.median(v) for name, v in builds.items() if v}
    if imports:
        metrics["cli.import_ms"] = statistics.median(imports)
    return metrics


def measure(seed: int, problems: list[str]) -> dict[str, tuple[float, str]]:
    """Every single-call layer metric, as name -> (value, unit)."""
    rng = seeded_rng("layers", seed)
    values = {}
    for name in PRESETS:
        values.update(_preset_metrics(name, rng, problems))
    values.update(_equivalence_metrics(rng, problems))
    out = {k: (v, "us") for k, v in values.items()}
    out.update({k: (v, "ms") for k, v in _fresh_metrics(problems).items()})
    return out
