"""Prime fields, Galois fields with explicit irreducible moduli, and the rationals.

Galois field payloads are coefficient tuples (low degree first, reduced mod the
modulus); literals use the generator name t, e.g. "2t+1" or "t^2+2t".
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


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _poly_trim(out)


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
        self._inv_cache: dict[tuple, tuple] = {}

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

    def _add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def _neg(self, x):
        return tuple((-a) % self.p for a in x)

    def _mul(self, x, y):
        out = [0] * (2 * self.k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return self._reduce(out)

    def _inv(self, x):
        if x in self._inv_cache:
            return self._inv_cache[x]
        # extended Euclid in f_p[x]
        a, b = list(self.modulus), _poly_trim(list(x))
        if not b:
            raise DomainError(f"{self.label}: zero has no inverse")
        s0, s1 = [], [1]
        while b:
            q, r = _poly_divmod(a, b, self.p)
            a, b = b, r
            qs1 = _poly_mul(q, s1, self.p)
            s2 = [( (s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % self.p
                  for i in range(max(len(s0), len(qs1)))]
            s0, s1 = s1, _poly_trim(s2)
        # a is now the gcd, a nonzero constant
        lead_inv = pow(a[0], -1, self.p)
        inv = self._reduce([(lead_inv * c) % self.p for c in s0])
        self._inv_cache[x] = inv
        return inv

    def _solve_left(self, a, c):
        return self._mul(self._inv(a), c)

    def _solve_right(self, b, c):
        return self._mul(c, self._inv(b))

    def _zero(self):
        return (0,) * self.k

    def _is_zero(self, x):
        return all(c == 0 for c in x)

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
