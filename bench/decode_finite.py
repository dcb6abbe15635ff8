"""decode-finite: a stream of received words decoded over small finite algebras.

One operation is one HammingCode.decode. Seven words in eight carry one
symbol error and the eighth none. Codewords are built and confirmed with the
benchmark's own table arithmetic (finite.Tables), and every decoded word must
equal the codeword that was corrupted.
"""
from __future__ import annotations

import quasicode as qc

from common import Op, seeded_rng
from finite import Tables

NAME = "decode-finite"
PRESETS = ("f2", "f3", "gf8", "gf9", "gf25", "gf9-isotope")
MS = (2, 3, 4)
WORDS_PER_CODE = 64
CLEAN_EVERY = 8  # word i is sent uncorrupted when i % CLEAN_EVERY == 0


def setup(seed: int) -> dict:
    algebras = {name: qc.resolve_preset(name) for name in PRESETS}
    codes = {(name, m): qc.HammingCode(algebras[name], m) for name in PRESETS for m in MS}
    return {"algebras": algebras, "codes": codes}


def _check_decoded(tables, expected):
    def check(decoded):
        got = tables.from_finvec(decoded)
        if got != expected:
            return f"decoded to {sorted(got.items())}, sent {sorted(expected.items())}"
        return None
    return check


def make_ops(state: dict, seed: int) -> list[Op]:
    ops = []
    for name in PRESETS:
        tables = Tables(state["algebras"][name])
        for m in MS:
            code = state["codes"][(name, m)]
            rng = seeded_rng(NAME, seed, f"{name}/m{m}")
            for i in range(WORDS_PER_CODE):
                word = tables.random_codeword(rng, m, rng.randint(2, 5))
                received = word if i % CLEAN_EVERY == 0 else tables.corrupt(rng, word, m)
                y = tables.finvec(received, m)
                ops.append(Op(f"decode:{name}:m{m}", lambda code=code, y=y: code.decode(y),
                              _check_decoded(tables, word)))
    # interleave the codes so that a round is a mixed stream, in a seed-fixed order
    seeded_rng(NAME, seed, "order").shuffle(ops)
    return ops
