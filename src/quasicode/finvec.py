"""Finite-support vectors over a coefficient algebra.

Columns are dense coordinate tuples used as vector indices; FinVec maps
columns to nonzero scalars and normalizes on construction, so the zero vector
is the empty map and equality is structural.  A FinVec keeps raw payloads,
each column's entry payload tuple mapped to its value payload, and wraps them
as Column and Scalar objects only where they leave it: items(), support(),
get(), the text forms and parse.  All iteration is sorted by the algebra's
fixed scalar ordering, which keeps reports deterministic.

Text format, one entry per line, sorted:

    (0,1) := 2
    (1,2) := 1

Columns are comma-separated scalar literals in parentheses.
"""
from __future__ import annotations

import operator

from .algebra import Algebra, Scalar, same_algebra
from .errors import DomainError, SpecFormatError


def _split_tuple_literal(text: str) -> list[str]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise SpecFormatError(f"expected a parenthesized tuple literal, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        raise SpecFormatError("empty tuple literal")
    return [p.strip() for p in inner.split(",")]


def _parse_entries(text: str, algebra: Algebra) -> tuple[Scalar, ...]:
    return tuple(algebra.parse(p) for p in _split_tuple_literal(text))


def _format_entries(algebra: Algebra, payloads: tuple) -> str:
    return "(" + ",".join(map(algebra.format_value, payloads)) + ")"


class Column:
    """A dense tuple of scalars, kept as its algebra and entry payloads: an immutable coordinate
    label, and (as DenseVec) the dense vectors that syndromes and normalization inputs live in."""

    __slots__ = ("algebra", "payloads")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise DomainError(f"a {type(self).__name__} needs at least one coordinate")
        alg = entries[0].algebra
        for e in entries[1:]:
            same_algebra(alg, e.algebra, f"{type(self).__name__} coordinates")
        self.algebra = alg
        self.payloads = tuple(e.value for e in entries)

    @classmethod
    def _wrap(cls, algebra: Algebra, payloads: tuple):
        """The instance of entry payloads that are already in algebra."""
        col = cls.__new__(cls)
        col.algebra, col.payloads = algebra, payloads
        return col

    @classmethod
    def zero(cls, algebra: Algebra, m: int):
        return cls((algebra.zero(),) * m)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        alg = self.algebra
        return tuple(Scalar(alg, v) for v in self.payloads)

    @property
    def m(self) -> int:
        return len(self.payloads)

    def is_zero(self) -> bool:
        return all(map(self.algebra._is_zero, self.payloads))

    def pivot_index(self) -> int | None:
        is_zero = self.algebra._is_zero
        return next((i for i, v in enumerate(self.payloads) if not is_zero(v)), None)

    def sort_key(self):
        return tuple(map(self.algebra.sort_key, self.payloads))

    def to_dense(self) -> "DenseVec":
        return DenseVec._wrap(self.algebra, self.payloads)

    def to_column(self) -> "Column":
        return Column._wrap(self.algebra, self.payloads)

    def _zip(self, other, op):
        if not isinstance(other, Column):
            return NotImplemented
        if self.m != other.m:
            raise DomainError("dense vectors of different lengths")
        return type(self)(map(op, self.entries, other.entries))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __neg__(self):
        return type(self)(-a for a in self.entries)

    def scalar_mul_left(self, alpha: Scalar):
        return type(self)(alpha * a for a in self.entries)

    def scalar_mul_right(self, alpha: Scalar):
        return type(self)(a * alpha for a in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return self.payloads == other.payloads and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.payloads)

    def __lt__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        same_algebra(self.algebra, other.algebra, "compared columns")
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return _format_entries(self.algebra, self.payloads)

    def __repr__(self):
        return f"{type(self).__name__}{self}"

    @classmethod
    def parse(cls, text: str, algebra: Algebra):
        return cls(_parse_entries(text, algebra))


class DenseVec(Column):
    """A dense vector of scalars; syndromes and normalization inputs live here."""

    __slots__ = ()


class FinVec:
    """A finite-support map from columns to nonzero scalars, kept as payloads.

    _map sends each column's entry payload tuple to its nonzero value payload.
    """

    __slots__ = ("algebra", "m", "_map")

    def __init__(self, algebra: Algebra, m: int, entries=()):
        self.algebra = algebra
        self.m = m
        mapping = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for col, val in items:
            if not isinstance(col, Column):
                raise DomainError("FinVec keys must be Columns")
            if col.algebra is not algebra:
                same_algebra(algebra, col.algebra, "vector ambient and column")
            if val.algebra is not algebra:
                same_algebra(algebra, val.algebra, "vector ambient and value")
            if col.m != m:
                raise DomainError(f"column has {col.m} coordinates, ambient expects {m}")
            if val.is_zero():
                continue
            if col.payloads in mapping:
                raise DomainError(f"duplicate column {col} in FinVec entries")
            mapping[col.payloads] = val.value
        self._map = mapping

    @classmethod
    def _checked(cls, algebra: Algebra, m: int, mapping: dict) -> "FinVec":
        """Wrap a map from column payload tuples to nonzero value payloads that are already validated."""
        x = cls.__new__(cls)
        x.algebra, x.m, x._map = algebra, m, mapping
        return x

    @classmethod
    def zero(cls, algebra: Algebra, m: int) -> "FinVec":
        return cls(algebra, m)

    @classmethod
    def single(cls, column: Column, value: Scalar) -> "FinVec":
        return cls(column.algebra, column.m, [(column, value)])

    def _rows(self) -> list[tuple[tuple, object]]:
        """The (column payloads, value payload) entries, sorted by column."""
        key = self.algebra.sort_key
        return sorted(self._map.items(), key=lambda kv: tuple(map(key, kv[0])))

    def items(self) -> list[tuple[Column, Scalar]]:
        alg = self.algebra
        return [(Column._wrap(alg, a), Scalar(alg, v)) for a, v in self._rows()]

    def support(self) -> tuple[Column, ...]:
        return tuple(col for col, _ in self.items())

    def get(self, column: Column) -> Scalar:
        alg = self.algebra  # a column of another algebra is not in the support
        return Scalar(alg, self._map.get(column.payloads, alg._zero()) if column.algebra == alg else alg._zero())

    def norm(self) -> int:
        return len(self._map)

    def is_zero(self) -> bool:
        return not self._map

    def _scaled(self, f) -> "FinVec":
        """The vector of f(value) at each column, zeros dropped."""
        is_zero = self.algebra._is_zero
        out = {a: w for a, v in self._map.items() if not is_zero(w := f(v))}
        return FinVec._checked(self.algebra, self.m, out)

    def __add__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        same_algebra(self.algebra, other.algebra, "added vectors")
        if self.m != other.m:
            raise DomainError(f"ambient mismatch: m={self.m} vs m={other.m}")
        alg = self.algebra
        out = dict(self._map)
        for a, v in other._map.items():
            if a in out:
                s = alg._add(out[a], v)
                if alg._is_zero(s):
                    del out[a]
                else:
                    out[a] = s
            else:
                out[a] = v
        return FinVec._checked(alg, self.m, out)

    def __neg__(self):
        return self._scaled(self.algebra._neg)

    def __sub__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        return self + (-other)

    def scalar_mul_left(self, alpha: Scalar) -> "FinVec":
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        mul, a = self.algebra._mul, alpha.value
        return self._scaled(lambda v: mul(a, v))

    def scalar_mul_right(self, alpha: Scalar) -> "FinVec":
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        mul, a = self.algebra._mul, alpha.value
        return self._scaled(lambda v: mul(v, a))

    def __eq__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        return self.algebra == other.algebra and self.m == other.m and self._map == other._map

    def __hash__(self):
        return hash((self.m, frozenset(self._map.items())))

    def __str__(self):
        return self.format()

    def _texts(self) -> list[tuple[str, str]]:
        """Each entry's column and value as text, sorted by column."""
        alg = self.algebra
        return [(_format_entries(alg, a), alg.format_value(v)) for a, v in self._rows()]

    def __repr__(self):
        return "FinVec[" + ", ".join(f"{c}:{v}" for c, v in self._texts()) + "]"

    def format(self) -> str:
        return "\n".join(f"{c} := {v}" for c, v in self._texts())

    @classmethod
    def parse(cls, text: str, algebra: Algebra, m: int) -> "FinVec":
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":=" not in line:
                raise SpecFormatError(f"line {lineno}: expected '<column> := <scalar>', got {raw!r}")
            col_text, val_text = line.split(":=", 1)
            col = Column.parse(col_text, algebra)
            if col.m != m:
                raise SpecFormatError(f"line {lineno}: column has {col.m} coordinates, expected {m}")
            entries.append((col, algebra.parse(val_text.strip())))
        return cls(algebra, m, entries)


def hamming_norm(x: FinVec) -> int:
    return x.norm()


def hamming_distance(x: FinVec, y: FinVec) -> int:
    return (x - y).norm()


def vec_add(x: FinVec, y: FinVec) -> FinVec:
    return x + y
