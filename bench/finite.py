"""The benchmark's own arithmetic over a finite algebra, on index tables.

Inputs and answer checks of the finite workloads use these tables, built once
from the algebra's addition and multiplication, instead of quasicode's
vectors and codes: a wrong decode or a wrong membership test cannot confirm
itself. Elements are indices into the algebra's element list, columns are
tuples of indices, and a word is a dict from column to nonzero value.
"""
from __future__ import annotations

import quasicode as qc


class Tables:
    def __init__(self, algebra):
        self.algebra = algebra
        els = list(algebra._elements())
        self.elements = els
        self.index = {x: i for i, x in enumerate(els)}
        self.q = q = len(els)
        self.zero = self.index[algebra._zero()]
        self.unit = self.index[algebra._right_unit()]
        self.nonzero = [i for i in range(q) if i != self.zero]
        self.add = [[self.index[algebra._add(x, y)] for y in els] for x in els]
        self.mul = [[self.index[algebra._mul(x, y)] for y in els] for x in els]
        self.neg = [self.index[algebra._neg(x)] for x in els]
        # ldiv[a][c]: the x with a*x = c; rdiv[b][c]: the x with x*b = c (a, b nonzero)
        self.ldiv = [[None] * q for _ in range(q)]
        self.rdiv = [[None] * q for _ in range(q)]
        for a in self.nonzero:
            for x in range(q):
                self.ldiv[a][self.mul[a][x]] = x
                self.rdiv[a][self.mul[x][a]] = x

    # -- words ---------------------------------------------------------------

    def syndrome(self, word: dict, m: int) -> tuple:
        """sum over the support of value * column, entrywise (the left action)."""
        acc = [self.zero] * m
        add, mul = self.add, self.mul
        for col, v in word.items():
            row = mul[v]
            for i in range(m):
                acc[i] = add[acc[i]][row[col[i]]]
        return tuple(acc)

    def is_codeword(self, word: dict, m: int) -> bool:
        return all(s == self.zero for s in self.syndrome(word, m))

    def choice_syndrome(self, word: dict, m: int, rep: dict) -> tuple:
        """sum of value * (rep[col] * col): the code with chosen line representatives."""
        acc = [self.zero] * m
        add, mul = self.add, self.mul
        for col, v in word.items():
            c = rep.get(col, self.unit)
            for i in range(m):
                acc[i] = add[acc[i]][mul[v][mul[c][col[i]]]]
        return tuple(acc)

    def is_canonical(self, col: tuple) -> bool:
        for e in col:
            if e != self.zero:
                return e == self.unit
        return False

    def random_column(self, rng, m: int) -> tuple:
        beta = rng.randrange(m)
        tail = tuple(rng.randrange(self.q) for _ in range(m - beta - 1))
        return (self.zero,) * beta + (self.unit,) + tail

    def columns(self, m: int) -> list[tuple]:
        """Every canonical column, built from the definition."""
        out = [()]
        for _ in range(m):
            out = [c + (e,) for c in out for e in range(self.q)]
        return [c for c in out if self.is_canonical(c)]

    def factor(self, t: tuple) -> tuple[int, tuple]:
        """The unique (y, column) with y * column = t, column canonical; t nonzero."""
        beta = next(i for i, e in enumerate(t) if e != self.zero)
        y = self.rdiv[self.unit][t[beta]]
        col = (self.zero,) * beta + (self.unit,) + tuple(self.ldiv[y][t[i]] for i in range(beta + 1, len(t)))
        return y, col

    def random_codeword(self, rng, m: int, weight_before_closing: int) -> dict:
        """Random values on distinct columns, closed by the one column that zeroes the syndrome."""
        # Past about half the columns the closing column is forced into the support
        # (over f2 with m=3, five columns always close onto one of their own).
        n = (self.q**m - 1) // (self.q - 1)
        weight_before_closing = min(weight_before_closing, max(2, (n - 1) // 2))
        while True:
            word = {}
            while len(word) < weight_before_closing:
                word[self.random_column(rng, m)] = rng.choice(self.nonzero)
            s = self.syndrome(word, m)
            if all(e == self.zero for e in s):
                continue
            y, col = self.factor(tuple(self.neg[e] for e in s))
            if col in word:
                continue
            word[col] = y
            if not self.is_codeword(word, m):
                raise RuntimeError(f"{self.algebra.label}: closing column did not zero the syndrome")
            return word

    def corrupt(self, rng, word: dict, m: int) -> dict:
        """The word with one symbol replaced by a different value."""
        col = self.random_column(rng, m)
        old = word.get(col, self.zero)
        new = rng.choice([x for x in range(self.q) if x != old])
        out = dict(word)
        if new == self.zero:
            del out[col]
        else:
            out[col] = new
        return out

    # -- conversion to and from quasicode's objects ----------------------------

    def scalar(self, i: int):
        return qc.Scalar(self.algebra, self.elements[i])

    def column(self, col: tuple):
        return qc.Column([self.scalar(i) for i in col])

    def finvec(self, word: dict, m: int):
        return qc.FinVec(self.algebra, m, [(self.column(c), self.scalar(v)) for c, v in word.items()])

    def from_column(self, col) -> tuple:
        return tuple(self.index[e.value] for e in col.entries)

    def from_finvec(self, x) -> dict:
        return {self.from_column(col): self.index[val.value] for col, val in x.items()}

    def word_text(self, word: dict) -> str:
        """A vector file for a prime field, where a value prints as its residue."""
        lines = sorted(f"({','.join(str(self.elements[i]) for i in col)}) := {self.elements[v]}"
                       for col, v in word.items())
        return "\n".join(lines) + "\n"
