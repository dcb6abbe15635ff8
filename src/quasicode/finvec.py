"""Finite-support vectors over a coefficient algebra.

Columns are dense coordinate tuples used as vector indices; FinVec maps
columns to nonzero scalars and normalizes on construction, so the zero vector
is the empty map and equality is structural.  All iteration is sorted by the
algebra's fixed scalar ordering, which keeps reports deterministic.

Text format, one entry per line, sorted:

    (0,1) := 2
    (1,2) := 1

Columns are comma-separated scalar literals in parentheses.
"""
from __future__ import annotations

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


def _format_entries(entries: tuple[Scalar, ...]) -> str:
    return "(" + ",".join(str(e) for e in entries) + ")"


class Column:
    """An immutable coordinate label: a dense tuple of scalars."""

    __slots__ = ("entries", "_key", "_hash")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise DomainError("a column needs at least one coordinate")
        alg = entries[0].algebra
        for e in entries[1:]:
            same_algebra(alg, e.algebra, "column coordinates")
        self.entries = entries
        self._key = None
        self._hash = None

    @property
    def algebra(self) -> Algebra:
        return self.entries[0].algebra

    @property
    def m(self) -> int:
        return len(self.entries)

    def pivot_index(self) -> int | None:
        for i, e in enumerate(self.entries):
            if not e.is_zero():
                return i
        return None

    def sort_key(self):
        if self._key is None:
            self._key = tuple(e.sort_key() for e in self.entries)
        return self._key

    def to_dense(self) -> "DenseVec":
        return DenseVec(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        same_algebra(self.algebra, other.algebra, "compared columns")
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return _format_entries(self.entries)

    def __repr__(self):
        return f"Column{self}"

    @classmethod
    def parse(cls, text: str, algebra: Algebra) -> "Column":
        return cls(_parse_entries(text, algebra))


class DenseVec:
    """A dense vector of scalars; syndromes and normalization inputs live here."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise DomainError("a dense vector needs at least one coordinate")
        alg = entries[0].algebra
        for e in entries[1:]:
            same_algebra(alg, e.algebra, "vector coordinates")
        self.entries = entries

    @property
    def algebra(self) -> Algebra:
        return self.entries[0].algebra

    @property
    def m(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        if not isinstance(other, DenseVec):
            return NotImplemented
        if self.m != other.m:
            raise DomainError("dense vectors of different lengths")
        return DenseVec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, DenseVec):
            return NotImplemented
        if self.m != other.m:
            raise DomainError("dense vectors of different lengths")
        return DenseVec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return DenseVec(-a for a in self.entries)

    def scalar_mul_left(self, alpha: Scalar) -> "DenseVec":
        return DenseVec(alpha * a for a in self.entries)

    def scalar_mul_right(self, alpha: Scalar) -> "DenseVec":
        return DenseVec(a * alpha for a in self.entries)

    def to_column(self) -> Column:
        return Column(self.entries)

    def __eq__(self, other):
        if not isinstance(other, DenseVec):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return _format_entries(self.entries)

    def __repr__(self):
        return f"DenseVec{self}"

    @classmethod
    def zero(cls, algebra: Algebra, m: int) -> "DenseVec":
        return cls((algebra.zero(),) * m)

    @classmethod
    def parse(cls, text: str, algebra: Algebra) -> "DenseVec":
        return cls(_parse_entries(text, algebra))


class FinVec:
    """A finite-support map from columns to nonzero scalars."""

    __slots__ = ("algebra", "m", "_map", "_hash")

    def __init__(self, algebra: Algebra, m: int, entries=()):
        self.algebra = algebra
        self.m = m
        self._hash = None
        mapping: dict[Column, Scalar] = {}
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
    def _checked(cls, algebra: Algebra, m: int, mapping: dict) -> "FinVec":
        """Wrap a column-to-nonzero-scalar map whose entries are already validated."""
        x = cls.__new__(cls)
        x.algebra, x.m, x._map, x._hash = algebra, m, mapping, None
        return x

    @classmethod
    def zero(cls, algebra: Algebra, m: int) -> "FinVec":
        return cls(algebra, m)

    @classmethod
    def single(cls, column: Column, value: Scalar) -> "FinVec":
        return cls(column.algebra, column.m, [(column, value)])

    def items(self) -> list[tuple[Column, Scalar]]:
        return sorted(self._map.items(), key=lambda kv: kv[0].sort_key())

    def support(self) -> tuple[Column, ...]:
        return tuple(sorted(self._map, key=Column.sort_key))

    def get(self, column: Column) -> Scalar:
        return self._map.get(column, self.algebra.zero())

    def norm(self) -> int:
        return len(self._map)

    def is_zero(self) -> bool:
        return not self._map

    def _check_ambient(self, other: "FinVec"):
        same_algebra(self.algebra, other.algebra, "added vectors")
        if self.m != other.m:
            raise DomainError(f"ambient mismatch: m={self.m} vs m={other.m}")

    def __add__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        self._check_ambient(other)
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
        return FinVec(self.algebra, self.m, out)

    def __neg__(self):
        return FinVec(self.algebra, self.m, {c: -v for c, v in self._map.items()})

    def __sub__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        return self + (-other)

    def scalar_mul_left(self, alpha: Scalar) -> "FinVec":
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        return FinVec(self.algebra, self.m, {c: alpha * v for c, v in self._map.items()})

    def scalar_mul_right(self, alpha: Scalar) -> "FinVec":
        same_algebra(self.algebra, alpha.algebra, "vector and scalar")
        return FinVec(self.algebra, self.m, {c: v * alpha for c, v in self._map.items()})

    def __eq__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        return self.algebra == other.algebra and self.m == other.m and self._map == other._map

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.m, tuple(self.items())))
        return self._hash

    def __str__(self):
        return self.format()

    def __repr__(self):
        body = ", ".join(f"{c}:{v}" for c, v in self.items())
        return f"FinVec[{body}]"

    def format(self) -> str:
        return "\n".join(f"{col} := {val}" for col, val in self.items())

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
