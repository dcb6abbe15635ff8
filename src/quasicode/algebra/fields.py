"""Prime fields, Galois fields with explicit irreducible moduli, and the rationals.

Galois field payloads are coefficient tuples (low degree first, reduced mod the
modulus); literals use the generator name t, e.g. "2t+1" or "t^2+2t".

A Galois field of order q <= TABLE_LIMIT computes on log/antilog tables built
once at construction: a primitive element g is found with the polynomial
product, every nonzero payload is mapped to its logarithm i (g^i = payload) and
back, and Zech logarithms log(1 + g^n) turn addition into a lookup as well.
Products, quotients, sums and negatives are then a few dictionary and list
lookups on the unchanged tuple payloads.  Larger fields skip the O(q) tables:
they multiply polynomials and invert x as x^(q-2) by square-and-multiply.
"""
from __future__ import annotations

import re
from fractions import Fraction

from ..errors import DomainError, InvalidParameterError, SpecFormatError
from .base import Algebra, is_exact_int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(Algebra):
    kind = "prime-field"
    associative = True
    commutative = True
    alternative = True

    def __init__(self, p: int, label: str | None = None):
        if not is_prime(p):
            raise InvalidParameterError(f"prime field order must be prime, got {p}")
        super().__init__(label or f"f{p}")
        self.p = p

    def _add(self, x, y):
        return (x + y) % self.p

    def _neg(self, x):
        return (-x) % self.p

    def _mul(self, x, y):
        return (x * y) % self.p

    def _solve_left(self, a, c):
        return (pow(a, -1, self.p) * c) % self.p

    def _solve_right(self, b, c):
        return (pow(b, -1, self.p) * c) % self.p

    def _zero(self):
        return 0

    def _is_zero(self, x):
        return x == 0

    def _canonical(self, x):
        if not is_exact_int(x):
            raise DomainError(f"{self.label}: payload must be an int, got {type(x).__name__}")
        return x % self.p

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return self.p

    def _elements(self):
        return iter(range(self.p))

    def _right_unit(self):
        return 1 % self.p

    def _left_unit(self):
        return 1 % self.p

    def _random(self, rng, height: int = 10):
        return rng.randrange(self.p)

    def sort_key(self, x):
        return x

    def format_value(self, x):
        return str(x)

    def parse_value(self, text: str):
        try:
            return int(text.strip()) % self.p
        except ValueError:
            raise SpecFormatError(f"{self.label}: bad residue literal {text!r}") from None

    def spec_dict(self):
        return {"kind": self.kind, "p": self.p}


# -- polynomial helpers over F_p (lists, low degree first) --------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while len(_poly_trim(a)) >= len(b):
        d = len(a) - len(b)
        f = (a[-1] * inv_lead) % p
        q[d] = f
        for i, bc in enumerate(b):
            a[d + i] = (a[d + i] - f * bc) % p
        _poly_trim(a)
    return _poly_trim(q), a


def _is_irreducible(modulus: list[int], p: int) -> bool:
    k = len(modulus) - 1
    # trial division by every monic polynomial of degree 1..k//2
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            div = []
            v = idx
            for _ in range(deg):
                div.append(v % p)
                v //= p
            div.append(1)
            _, rem = _poly_divmod(list(modulus), div, p)
            if not rem:
                return False
    return True


# Galois fields of at most this order get log/antilog tables at construction.
# Building them costs about q polynomial products, tens of seconds for
# GF(2^20); larger fields multiply polynomials and invert by powering instead.
TABLE_LIMIT = 2**12

_TERM_RE = re.compile(r"^([+-]?)(\d*)t(?:\^(\d+))?$")
_CONST_RE = re.compile(r"^([+-]?\d+)$")


class GaloisField(Algebra):
    kind = "galois-field"
    associative = True
    commutative = True
    alternative = True

    def __init__(self, p: int, modulus: list[int], label: str | None = None):
        if not is_prime(p):
            raise InvalidParameterError(f"galois field characteristic must be prime, got {p}")
        modulus = [c % p for c in modulus]
        if len(modulus) < 3 or modulus[-1] != 1:
            raise InvalidParameterError(
                "galois field modulus must be monic of degree >= 2 (low-degree-first coefficients)"
            )
        if not _is_irreducible(modulus, p):
            raise InvalidParameterError(
                f"modulus {modulus} is reducible over f{p}; an irreducible polynomial is required"
            )
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(modulus) - 1
        super().__init__(label or f"gf{p**self.k}")
        # t^k expressed in degrees < k; higher powers are folded down with it
        self._tk = tuple((-c) % p for c in modulus[:-1])
        self._log: dict[tuple, int] | None = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()

    # -- polynomial arithmetic: builds the tables, and serves fields above the limit --

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        p, k = self.p, self.k
        c = [v % p for v in coeffs]
        while len(c) > k:
            top = c.pop()
            if top:
                d = len(c) - k
                for i, tc in enumerate(self._tk):
                    c[d + i] = (c[d + i] + top * tc) % p
        c += [0] * (k - len(c))
        return tuple(c)

    def _poly_add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def _poly_product(self, x, y):
        out = [0] * (2 * self.k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return self._reduce(out)

    def _poly_power(self, x, e: int):
        """x^e by square-and-multiply."""
        out = self._right_unit()
        while e:
            if e & 1:
                out = self._poly_product(out, x)
            x = self._poly_product(x, x)
            e >>= 1
        return out

    def _poly_inverse(self, x):
        if self._is_zero(x):
            raise DomainError(f"{self.label}: zero has no inverse")
        return self._poly_power(x, self.order - 2)

    # -- log/antilog tables ------------------------------------------------------------

    def _build_tables(self) -> None:
        """Logarithms to a primitive element g, antilogs, and Zech logarithms.

        _exp[i] = g^i, written out twice so that a sum or difference of two
        logarithms indexes it directly (a negative index wraps by q-1);
        _zech[n] = log(1 + g^n), None where 1 + g^n = 0.
        """
        q, one = self.order, self._right_unit()
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(
            x for x in self._elements()
            if not self._is_zero(x)
            and all(self._poly_power(x, (q - 1) // r) != one for r in primes)
        )
        exp = [one]
        for _ in range(q - 2):
            exp.append(self._poly_product(exp[-1], g))
        self._log = {x: i for i, x in enumerate(exp)}
        self._exp = exp + exp
        self._zech = [self._log.get(self._poly_add(one, x)) for x in exp]
        # -1 = g^((q-1)/2) in odd characteristic, and 1 in characteristic 2
        self._log_minus_one = (q - 1) // 2 if self.p != 2 else 0

    def _add(self, x, y):
        log = self._log
        if log is None:
            return self._poly_add(x, y)
        i = log.get(x)
        if i is None:
            return y
        j = log.get(y)
        if j is None:
            return x
        # g^i + g^j = g^i * (1 + g^(j-i))
        z = self._zech[j - i]
        return self._zero() if z is None else self._exp[i + z]

    def _neg(self, x):
        log = self._log
        if log is None:
            return tuple((-a) % self.p for a in x)
        i = log.get(x)
        return x if i is None else self._exp[i + self._log_minus_one]

    def _mul(self, x, y):
        log = self._log
        if log is None:
            return self._poly_product(x, y)
        i = log.get(x)
        j = log.get(y)
        if i is None or j is None:
            return self._zero()
        return self._exp[i + j]

    def _quotient(self, c, a):
        """c / a, the one quotient of a commutative field."""
        log = self._log
        if log is None:
            return self._poly_product(c, self._poly_inverse(a))
        i = log.get(a)
        if i is None:
            raise DomainError(f"{self.label}: zero has no inverse")
        j = log.get(c)
        return self._zero() if j is None else self._exp[j - i]

    def _solve_left(self, a, c):
        return self._quotient(c, a)

    def _solve_right(self, b, c):
        return self._quotient(c, b)

    def _zero(self):
        return (0,) * self.k

    def _is_zero(self, x):
        return not any(x)

    def _canonical(self, x):
        if not isinstance(x, (tuple, list)) or len(x) != self.k or not all(map(is_exact_int, x)):
            raise DomainError(f"{self.label}: payload must be a tuple of {self.k} int coefficients")
        return tuple(c % self.p for c in x)

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return self.p**self.k

    def _elements(self):
        for v in range(self.order):
            digits = []
            n = v
            for _ in range(self.k):
                digits.append(n % self.p)
                n //= self.p
            yield tuple(digits)

    def _right_unit(self):
        return (1,) + (0,) * (self.k - 1)

    def _left_unit(self):
        return self._right_unit()

    def _random(self, rng, height: int = 10):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def sort_key(self, x):
        return tuple(reversed(x))

    def format_value(self, x):
        parts = []
        for d in range(self.k - 1, -1, -1):
            c = x[d]
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}t" if d == 1 else f"{head}t^{d}")
        return "+".join(parts) if parts else "0"

    def parse_value(self, text: str):
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise SpecFormatError(f"{self.label}: empty scalar literal")
        coeffs: dict[int, int] = {}
        for chunk in re.findall(r"[+-]?[^+-]+", s):
            m = _TERM_RE.match(chunk)
            if m:
                sign = -1 if m.group(1) == "-" else 1
                coeff = int(m.group(2)) if m.group(2) else 1
                deg = int(m.group(3)) if m.group(3) else 1
            else:
                m = _CONST_RE.match(chunk)
                if not m:
                    raise SpecFormatError(f"{self.label}: bad polynomial literal {text!r}")
                sign, coeff, deg = 1, int(m.group(1)), 0
            coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
        raw = [0] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            raw[d] = c % self.p
        return self._reduce(raw)

    def spec_dict(self):
        return {"kind": self.kind, "p": self.p, "poly": list(self.modulus)}

    # used by the subfield-structure machinery
    def prime_subfield(self) -> PrimeField:
        return PrimeField(self.p)

    def embed_prime(self, c: int):
        return ((c % self.p),) + (0,) * (self.k - 1)

    def coefficients(self, x) -> tuple[int, ...]:
        return tuple(x)


class RationalField(Algebra):
    kind = "rationals"
    associative = True
    commutative = True
    alternative = True

    def __init__(self, label: str = "rationals"):
        super().__init__(label)

    def _add(self, x, y):
        return x + y

    def _neg(self, x):
        return -x

    def _mul(self, x, y):
        return x * y

    def _solve_left(self, a, c):
        return c / a

    def _solve_right(self, b, c):
        return c / b

    def _zero(self):
        return Fraction(0)

    def _is_zero(self, x):
        return x == 0

    def _canonical(self, x):
        if is_exact_int(x):
            return Fraction(x)
        if not isinstance(x, Fraction):
            raise DomainError("rationals: payload must be a Fraction or int (no floats)")
        return x

    @property
    def is_finite(self):
        return False

    def _right_unit(self):
        return Fraction(1)

    def _left_unit(self):
        return Fraction(1)

    def _random(self, rng, height: int = 10):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def format_value(self, x):
        return str(x)

    def parse_value(self, text: str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise SpecFormatError(f"rationals: bad literal {text!r}") from None

    def spec_dict(self):
        return {"kind": self.kind}

    def probe_values(self):
        return [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)]
