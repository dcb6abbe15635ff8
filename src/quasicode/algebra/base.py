"""Scalar values, the common interface of the coefficient algebras, and reports on them.

An Algebra implements exact arithmetic on raw payloads; Scalar is the thin
public wrapper that carries the algebra reference and supports operators.
Division is deliberately absent from Scalar: in a noncommutative or
nonassociative algebra the two one-sided quotients differ, so callers must
pick solve_left (a*x = c) or solve_right (x*b = c) explicitly.

Report, whose identity line is an algebra's label and digest, is the base of
every certificate and query report, and first_failure the loop every law
check runs on (see audit); they live here, beside the algebra they report on,
so that a layer which only reports does not execute the law engine.
"""
from __future__ import annotations

import itertools
import json
from abc import ABC, abstractmethod
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator

from ..errors import DomainError, UnsupportedError, check_count


class Algebra(ABC):
    kind: str = "?"
    # Structural facts known from the construction; None means "determine by audit".
    associative: bool | None = None
    commutative: bool | None = None

    def __init__(self, label: str):
        self.label = label
        self._spec_json: str | None = None
        self._digest: str | None = None

    # -- payload-level arithmetic -------------------------------------------------

    @abstractmethod
    def _add(self, x, y): ...

    @abstractmethod
    def _neg(self, x): ...

    @abstractmethod
    def _mul(self, x, y): ...

    @abstractmethod
    def _solve_left(self, a, c):
        """Unique x with a*x = c, a nonzero."""

    @abstractmethod
    def _solve_right(self, b, c):
        """Unique x with x*b = c, b nonzero."""

    @abstractmethod
    def _zero(self): ...

    @abstractmethod
    def _is_zero(self, x) -> bool: ...

    @abstractmethod
    def _canonical(self, x):
        """Validate and canonicalize a raw payload."""

    # -- structure ----------------------------------------------------------------

    @property
    def order(self) -> int | None:
        return None

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def _elements(self) -> Iterator:
        raise UnsupportedError(f"{self.label}: cannot enumerate an infinite algebra")

    @abstractmethod
    def _right_unit(self):
        """Payload of the right unit, or None."""

    @abstractmethod
    def _left_unit(self):
        """Payload of the left unit, or None."""

    @abstractmethod
    def _random(self, rng): ...

    def _random_nonzero(self, rng):
        """The first nonzero payload of repeated _random draws."""
        while True:
            x = self._random(rng)
            if not self._is_zero(x):
                return x

    @abstractmethod
    def sort_key(self, x): ...

    @abstractmethod
    def format_value(self, x) -> str: ...

    @abstractmethod
    def parse_value(self, text: str): ...

    @abstractmethod
    def spec_dict(self) -> dict:
        """Canonical JSON-able description; the digest and equality are derived from it."""

    def probe_values(self, limit: int | None = None) -> list:
        """The payloads sampled searches probe first, at most limit of them: here the nonzero elements in order."""
        return list(itertools.islice(itertools.filterfalse(self._is_zero, self._elements()), limit))

    # -- public Scalar-level API ----------------------------------------------------

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self._canonical(value))

    def zero(self) -> "Scalar":
        return Scalar(self, self._zero())

    def right_unit(self) -> "Scalar | None":
        u = self._right_unit()
        return None if u is None else Scalar(self, u)

    def left_unit(self) -> "Scalar | None":
        u = self._left_unit()
        return None if u is None else Scalar(self, u)

    def unit(self) -> "Scalar | None":
        r, l = self._right_unit(), self._left_unit()
        if r is not None and l is not None and r == l:
            return Scalar(self, r)
        return None

    def elements(self) -> Iterator["Scalar"]:
        for x in self._elements():
            yield Scalar(self, x)

    def nonzero_elements(self) -> Iterator["Scalar"]:
        for x in self._elements():
            if not self._is_zero(x):
                yield Scalar(self, x)

    def random_scalar(self, rng, nonzero: bool = False) -> "Scalar":
        """A seeded draw from rng, a random.Random: uniform over a finite algebra, and over the rationals,
        quaternions and octonions randint(-10, 10)/randint(1, 10) in each component (hypercomplex.HEIGHT)."""
        return Scalar(self, self._random_nonzero(rng) if nonzero else self._random(rng))

    def parse(self, text: str) -> "Scalar":
        return Scalar(self, self._canonical(self.parse_value(text)))

    def probe_scalars(self) -> list["Scalar"]:
        return [Scalar(self, x) for x in self.probe_values()]

    def _canonical_spec(self) -> str:
        """spec_dict() as canonical JSON; equality, hashing and the digest derive from it."""
        if self._spec_json is None:
            self._spec_json = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
        return self._spec_json

    def digest(self) -> str:
        if self._digest is None:
            # CPython's builtin sha256 (_sha2 from 3.12, _sha256 before) gives the same digest as
            # hashlib's, which loads OpenSSL: about 3.4 MB resident and 3 ms of import per process
            for module in ("_sha2", "_sha256", "hashlib"):
                with suppress(ImportError):
                    sha256 = __import__(module).sha256
                    break
            self._digest = sha256(self._canonical_spec().encode()).hexdigest()[:12]
        return self._digest

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.kind == other.kind and self._canonical_spec() == other._canonical_spec()

    def __hash__(self) -> int:
        return hash((self.kind, self._canonical_spec()))

    def __repr__(self) -> str:
        return f"<algebra {self.label}>"


def is_exact_int(x) -> bool:
    """True for an int that is not a bool: payload components are exact integers, never floats or flags."""
    return isinstance(x, int) and not isinstance(x, bool)


def same_algebra(a: Algebra, b: Algebra, what: str = "operands") -> None:
    if a != b:
        raise DomainError(f"mixed algebras: {what} live in {a.label} and {b.label}")


class Scalar:
    __slots__ = ("algebra", "value")

    def __init__(self, algebra: Algebra, value):
        self.algebra = algebra
        self.value = value

    def is_zero(self) -> bool:
        return self.algebra._is_zero(self.value)

    def sort_key(self):
        return self.algebra.sort_key(self.value)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        same_algebra(self.algebra, other.algebra)
        return Scalar(self.algebra, self.algebra._add(self.value, other.value))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        same_algebra(self.algebra, other.algebra)
        return Scalar(self.algebra, self.algebra._add(self.value, self.algebra._neg(other.value)))

    def __neg__(self):
        return Scalar(self.algebra, self.algebra._neg(self.value))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        same_algebra(self.algebra, other.algebra)
        return Scalar(self.algebra, self.algebra._mul(self.value, other.value))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.algebra == other.algebra and self.value == other.value

    def __hash__(self):
        return hash((self.algebra, self.value))

    def __lt__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        same_algebra(self.algebra, other.algebra, "compared scalars")
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return self.algebra.format_value(self.value)

    def __repr__(self):
        return f"Scalar({self.algebra.label}, {self})"


# Module-level operation names mirroring the scalar op surface.

def add(a: Scalar, b: Scalar) -> Scalar:
    return a + b


def neg(a: Scalar) -> Scalar:
    return -a


def mul(a: Scalar, b: Scalar) -> Scalar:
    return a * b


def solve_left(a: Scalar, c: Scalar) -> Scalar:
    """The unique x with a*x = c."""
    same_algebra(a.algebra, c.algebra)
    if a.is_zero():
        raise DomainError("solve_left: left factor must be nonzero")
    return Scalar(a.algebra, a.algebra._solve_left(a.value, c.value))


def solve_right(b: Scalar, c: Scalar) -> Scalar:
    """The unique x with x*b = c."""
    same_algebra(b.algebra, c.algebra)
    if b.is_zero():
        raise DomainError("solve_right: right factor must be nonzero")
    return Scalar(b.algebra, b.algebra._solve_right(b.value, c.value))


# -- the law-check loop --------------------------------------------------------------


def first_failure(law, cases) -> tuple[int, tuple | None]:
    """Cases checked, and the first case where law(*case) is false (None if it never is)."""
    count = 0
    for count, case in enumerate(cases, 1):
        if not law(*case):
            return count, case
    return count, None


def seeded_cases(draw, trials: int, probes=()):
    """The probe cases, then trials cases made by draw(), each drawn only when needed."""
    yield from probes
    for _ in range(trials):
        yield draw()


def sorted_elements(alg: Algebra) -> list:
    """Payloads of a finite algebra in scalar order; products of it give lexicographic witnesses."""
    return sorted(alg._elements(), key=alg.sort_key)


# -- reports ---------------------------------------------------------------------------


SHOWN = 5  # a list field of failures or witnesses prints its first SHOWN items


def outcome(flag: bool | None, holds: str = "ok", fails: str = "VIOLATED") -> str | None:
    """A flag as field text; None, which leaves the field out, when the flag is None."""
    return None if flag is None else holds if flag else fails


@dataclass
class LawCheck:
    holds: bool | None
    witness: tuple | None = None
    note: str = ""
    cases: int | None = None  # cases checked through the witness, where a law is a predicate over cases


@dataclass
class Report:
    """Base of every report: the algebra's identity, then the fields a subclass lists.

    fields() lists (label, value) pairs in order.  A field prints as "label: value",
    as one such line per item when the value is a list, and bare when the label is
    None; a field whose value is None prints nothing.  lines() is the one renderer:
    it puts preamble (the run's pairs, which the command line sets) and the algebra
    line before the fields, and prefix before every line but the items of a bare
    list, which are the report's body.
    """

    algebra_label: str
    algebra_digest: str

    verdict = True  # whether the claim checked holds; a report that checks none exits 0
    preamble = ()
    prefix = ""

    @classmethod
    def of(cls, alg: Algebra, **fields):
        return cls(algebra_label=alg.label, algebra_digest=alg.digest(), **fields)

    @classmethod
    def of_run(cls, alg: Algebra, mode: str, count: int, seed: int, name: str = "trials", **fields):
        """A report of a run in mode; its count (checked) and seed are set in sampled mode only."""
        sampled = mode == "sampled"
        count, seed = (check_count(count, name), seed) if sampled else (None, None)
        return cls.of(alg, mode=mode, **{name: count}, seed=seed, **fields)

    def lines(self) -> list[str]:
        out = []
        algebra = ("algebra", f"{self.algebra_label} (digest {self.algebra_digest})")
        for label, value in [*self.preamble, algebra, *self.fields()]:
            if label is None and isinstance(value, list):
                out += map(str, value)
            elif value is not None:
                for item in value if isinstance(value, list) else [value]:
                    out.append(self.prefix + (str(item) if label is None else f"{label}: {item}"))
        return out
