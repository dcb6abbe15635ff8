"""Exception types shared across the package, and the checks that raise them: counts, draw heights,
the budget, the one rule that picks a certificate's mode, and the one reader of input files."""
from __future__ import annotations

from typing import NamedTuple


class QuasicodeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QuasicodeError, ValueError):
    """Operands outside an operation's domain (mixed algebras, zero where nonzero is required, ...)."""


class UnsupportedError(QuasicodeError, ValueError):
    """The requested mode or operation is not available for this algebra."""


class InvalidParameterError(QuasicodeError, ValueError):
    """A construction parameter violates its precondition."""


class InconsistencyError(QuasicodeError):
    """An oracle result or supplied table contradicts a structural guarantee."""


class InvalidIsometryError(QuasicodeError, ValueError):
    """A claimed isometry is not injective on the relevant support."""


class SpecFormatError(QuasicodeError, ValueError):
    """Malformed algebra spec file, vector file, or scalar literal."""


def read_text(path, what: str) -> str:
    """The text of the file at path, read as UTF-8; a file that is not UTF-8 is a SpecFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def check_count(value, name: str) -> int:
    """value when it is a positive int, else InvalidParameterError naming it; a bool is no int here."""
    if type(value) is not int or value <= 0:
        raise InvalidParameterError(f"{name} must be a positive count, got {value!r}")
    return value


def check_height(height) -> None:
    """Refuse a draw height that is not an int >= 1 with InvalidParameterError; a bool is no int here."""
    if type(height) is not int or height < 1:
        raise InvalidParameterError(f"height must be an int >= 1, got {height!r}")


# -- the budget ------------------------------------------------------------------------

# The number of cases an enumeration may run unless its caller passes another budget.
DEFAULT_BUDGET = 2**20


class Power(NamedTuple):
    """The count (base^exp - minus) / divisor, for base >= 2; exp is an int or itself a Power."""

    base: int
    exp: int | Power
    minus: int = 0
    divisor: int = 1


class Binomial(NamedTuple):
    """The count C(n, k), for k >= 0; n is an int or a Power."""

    n: int | Power
    k: int


def _at_most(size, bound: int) -> int | None:
    """The value of size when it is at most bound, else None; a larger value is never formed."""
    if isinstance(size, Power):
        base, exp, minus, divisor = size
        # size <= bound exactly when base^exp <= top; k is the largest exponent that stays there
        top, k, power = bound * divisor + minus, -1, 1
        while power <= top:
            k, power = k + 1, power * base
        e = _at_most(exp, k)
        return None if e is None else (base**e - minus) // divisor
    if isinstance(size, Binomial):
        n, k = size
        if k == 0:
            return _at_most(1, bound)
        # C(n, k) >= n once 1 <= k < n, so n above both bound and k decides
        n = _at_most(n, max(bound, k))
        if n is None:
            return None
        # C(n, i) does not decrease for i up to min(k, n - k): stop at the first partial past bound
        c = int(k <= n)
        for i in range(min(k, n - k)):
            c = c * (n - i) // (i + 1)
            if c > bound:
                return None
        return c if c <= bound else None
    return size if size <= bound else None


def size_text(size) -> str:
    """size in decimal up to 20 digits, else as its closed form; a binomial names its closed form first."""
    value = _at_most(size, 10**20 - 1)
    if isinstance(size, Binomial):
        form = f"C({size_text(size.n)}, {size.k})"
        return form if value is None else f"{form} = {value}"
    if value is not None or not isinstance(size, Power):
        return str(size if value is None else value)
    base, exp, minus, divisor = size
    e = size_text(exp)
    text = f"{base}^{e if e.isdigit() else f'({e})'}" + (f" - {minus}" if minus else "")
    return text if divisor == 1 else f"({text})/{divisor}"


def check_budget(size, budget: int, what: str) -> None:
    """Raise UnsupportedError unless size <= budget, deciding it from the closed form.

    size is an int, a Power or a Binomial; what is the message, with {} where the
    size goes.  Every enumeration calls this before it allocates anything.
    """
    if _at_most(size, budget) is None:
        raise UnsupportedError(f"{what.format(size_text(size))}, over the budget of {budget}")


def choose_mode(requested, fallback: str, size, budget: int, what: str, label: str = "") -> str:
    """The mode a certificate runs: "exhaustive", or fallback (its structural or sampled mode).

    size is the exhaustive case count as check_budget takes it, or None over an infinite
    algebra.  None asks for exhaustive over a finite algebra, else fallback; "auto" for
    exhaustive when size fits the budget, else fallback; fallback is returned as is.
    "exhaustive", and None over a finite algebra, refuse a size over the budget with
    check_budget's text (what is its message), and "exhaustive" refuses an infinite
    algebra, labelled label.  Each certificate checks its own list of modes first.
    """
    if requested == fallback or size is None and requested != "exhaustive":
        return fallback
    if size is None:
        raise UnsupportedError(f"{label}: {what.partition(' {}')[0]} a finite algebra")
    if requested == "auto" and _at_most(size, budget) is None:
        return fallback
    check_budget(size, budget, what)
    return "exhaustive"
