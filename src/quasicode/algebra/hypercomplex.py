"""The rationals, quaternions and octonions: rational vectors of dimension 1, 4 and 8.

A payload is dim integer numerators followed by one positive common
denominator, in lowest terms: (n_0, ..., n_{dim-1}, d) stands for the vector
(n_0/d, ..., n_{dim-1}/d), with d > 0 and gcd(n_0, ..., n_{dim-1}, d) == 1, so
every rational vector has exactly one payload and zero is (0, ..., 0, 1).
A rational is the dim-1 case (n, d): rationals.parse("1/2").value == (1, 2).
Arithmetic stays on integers and reduces each result once, in the
content/primitive-part layout of FLINT's fmpq_poly.  Fraction appears only in
components(), which literals read, and in literals and inputs; sort_key takes
each component's lowest terms by one gcd.

Quaternions and octonions share the vector kernels, the draw included, and
differ in the product on numerators, a flat bilinear form each.  The rationals
run their own kernels and draw on the 2-tuple (n, d), one gcd per result.
Both draws, of one height HEIGHT = 10, inline random.Random.randint, as
HammingCode's column draw inlines randrange.  Zero and the unit are one payload
each: the zero test compares tuples, and a vector product or quotient with the
unit is the other operand.

Octonions are Cayley-Dickson doubled quaternions:
(a,b)(c,d) = (ac - conj(d)b, da + b conj(c)); _oct_mul_int is that product
expanded into its 64 terms.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from ..errors import DomainError, SpecFormatError, UnsupportedError
from .base import Algebra, Scalar, is_exact_int


# The product kernels take two payloads and ignore their denominators.

def _quat_mul_int(x, y):
    """Components of (a0 + a1 i + a2 j + a3 k)(b0 + b1 i + b2 j + b3 k)."""
    a0, a1, a2, a3, _ = x
    b0, b1, b2, b3, _ = y
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _oct_mul_int(x, y):
    """Components of the octonion product: the Cayley-Dickson formula of the module docstring, expanded."""
    a0, a1, a2, a3, a4, a5, a6, a7, _ = x
    b0, b1, b2, b3, b4, b5, b6, b7, _ = y
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4 - a5 * b5 - a6 * b6 - a7 * b7,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2 + a4 * b5 - a5 * b4 - a6 * b7 + a7 * b6,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1 + a4 * b6 + a5 * b7 - a6 * b4 - a7 * b5,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0 + a4 * b7 - a5 * b6 + a6 * b5 - a7 * b4,
        a0 * b4 - a1 * b5 - a2 * b6 - a3 * b7 + a4 * b0 + a5 * b1 + a6 * b2 + a7 * b3,
        a0 * b5 + a1 * b4 - a2 * b7 + a3 * b6 - a4 * b1 + a5 * b0 - a6 * b3 + a7 * b2,
        a0 * b6 + a1 * b7 + a2 * b4 - a3 * b5 - a4 * b2 + a5 * b3 + a6 * b0 - a7 * b1,
        a0 * b7 - a1 * b6 + a2 * b5 + a3 * b4 - a4 * b3 - a5 * b2 + a6 * b1 + a7 * b0,
    )


def _lowest_terms(v):
    """The payload v / gcd(v), for v numerators followed by a positive denominator."""
    g = gcd(*v)
    return tuple(v) if g == 1 else tuple([a // g for a in v])


# A draw's components are Fraction(randint(-HEIGHT, HEIGHT), randint(1, HEIGHT)), each randint(a, b)
# inlined as CPython's a + _randbelow(b - a + 1): getrandbits(k) for the bit length k of the width
# b - a + 1, drawn again until it falls below the width.  _DRAW holds the two widths and their bit lengths.
HEIGHT = 10
_DRAW = (2 * HEIGHT + 1, HEIGHT, (2 * HEIGHT + 1).bit_length(), HEIGHT.bit_length())

# coefficients are integers or fractions with a nonzero denominator
_HC_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/0*[1-9]\d*)?)?([a-z])(\d?)$")
_HC_CONST_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


class _HypercomplexBase(Algebra):
    dim: int
    unit_names: tuple[str, ...]  # names of components 1..dim-1

    def __init__(self, label: str | None = None):
        super().__init__(label or self.kind)
        self._zero_payload = (0,) * self.dim + (1,)
        self._one = (1,) + self._zero_payload[1:]

    def _add(self, x, y):
        dx, dy = x[-1], y[-1]
        if dx == dy:
            v = [a + b for a, b in zip(x, y)]
            v[-1] = dx
        else:
            v = [a * dy + b * dx for a, b in zip(x, y)]
            v[-1] = dx * dy
        return _lowest_terms(v)

    def _neg(self, x):
        return (*[-a for a in x[:-1]], x[-1])

    def _conj(self, x):
        return (x[0], *[-a for a in x[1:-1]], x[-1])

    # payloads are canonical, so zero has the one payload (0, ..., 0, 1)
    def _zero(self):
        return self._zero_payload

    def _is_zero(self, x):
        return x == self._zero_payload

    def _canonical(self, x):
        if not isinstance(x, (tuple, list)) or len(x) != self.dim:
            raise DomainError(f"{self.label}: value must be a {self.dim}-tuple of Fraction or int components")
        comps = []
        for a in x:
            if is_exact_int(a):
                a = Fraction(a)
            elif not isinstance(a, Fraction):
                raise DomainError(f"{self.label}: components must be Fractions or ints (no floats)")
            comps.append(a)
        # over the lcm of reduced denominators the numerators share no factor with it
        d = lcm(*(a.denominator for a in comps))
        return (*[a.numerator * (d // a.denominator) for a in comps], d)

    def components(self, x) -> tuple[Fraction, ...]:
        """The payload as its dim Fraction components."""
        d = x[-1]
        return tuple([Fraction(a, d) for a in x[:-1]])

    # x * y = X Y / (dx dy) for payloads x = X/dx, y = Y/dy; a quotient
    # multiplies by the conjugate and divides by the norm N(A) = sum of A_i^2.
    # A product with the unit 1 on either side, or a quotient by it, is the other operand;
    # every canonical column leads with 1, so a code multiplies and divides by it at each pivot.
    def _mul(self, x, y):
        if y == self._one:
            return x
        return y if x == self._one else _lowest_terms((*self._mul_int(x, y), x[-1] * y[-1]))

    def _solve_left(self, a, c):
        # a^-1 c = conj(a) c / N(a) = conj(A) C da / (dc N(A))
        return c if a == self._one else self._over_norm(self._mul_int(self._conj(a), c), a, c)

    def _solve_right(self, b, c):
        # c b^-1 = c conj(b) / N(b) = C conj(B) db / (dc N(B))
        return c if b == self._one else self._over_norm(self._mul_int(c, self._conj(b)), b, c)

    # the payload of p da / (dc N(A)), for integer components p and payloads a = A/da, c = C/dc
    def _over_norm(self, p, a, c):
        da = a[-1]
        v = [w * da for w in p]
        v.append(c[-1] * sum([w * w for w in a[:-1]]))
        return _lowest_terms(v)

    def _right_unit(self):
        return self._one

    _left_unit = _right_unit

    def _random(self, rng):
        # per component the numerator's draw below wn, then the denominator's below wd (= HEIGHT)
        bits, (wn, wd, kn, kd) = rng.getrandbits, _DRAW
        nums, dens = [], []
        for _ in range(self.dim):
            while (n := bits(kn)) >= wn:
                pass
            while (d := bits(kd)) >= wd:
                pass
            nums.append(n - wd)
            dens.append(d + 1)
        d = lcm(*dens)
        return _lowest_terms([a * (d // b) for a, b in zip(nums, dens)] + [d])

    def sort_key(self, x):
        # (numerator, denominator) of each component in lowest terms, as Fraction(n_i, d) has them
        return tuple([(n // (g := gcd(n, x[-1])), x[-1] // g) for n in x[:-1]])

    def format_value(self, x):
        comps = self.components(x)
        try:
            return str(comps[0]) + "".join(
                f"-{-a}{name}" if a < 0 else f"+{a}{name}" for a, name in zip(comps[1:], self.unit_names))
        except ValueError:  # an integer of more digits than str() converts
            raise DomainError(f"{self.label}: a value too long to print") from None

    def parse_value(self, text: str):
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise SpecFormatError(f"{self.label}: empty scalar literal")
        comps = [Fraction(0)] * self.dim
        for chunk in re.findall(r"[+-]?[^+-]+", s):
            if _HC_CONST_RE.match(chunk):
                coeff, unit = chunk, ""
            else:
                m = _HC_TERM_RE.match(chunk)
                if not m:
                    raise SpecFormatError(f"{self.label}: bad literal {text!r}")
                coeff, unit = m.group(1) + (m.group(2) or "1"), m.group(3) + m.group(4)
                if unit not in self.unit_names:
                    raise SpecFormatError(f"{self.label}: unknown unit {unit!r} in literal {text!r}")
            try:
                comps[self.unit_names.index(unit) + 1 if unit else 0] += Fraction(coeff)
            except ValueError:  # more digits than int() converts
                raise SpecFormatError(f"{self.label}: bad literal {text!r}") from None
        return tuple(comps)

    def basis_payloads(self) -> list[tuple[int, ...]]:
        """The unit vectors, a basis over the rationals."""
        return [(0,) * i + (1,) + (0,) * (self.dim - 1 - i) + (1,) for i in range(self.dim)]

    def probe_values(self, limit: int | None = None) -> list[tuple[int, ...]]:
        return self.basis_payloads()[:limit]

    def spec_dict(self):
        return {"kind": self.kind}


class RationalField(_HypercomplexBase):
    kind = "rationals"
    associative = True
    commutative = True
    dim = 1
    unit_names = ()

    # the vector kernels on the 2-tuple (n, d): one scalar gcd each, the sign on the numerator
    def _add(self, x, y):
        (a, b), (c, d) = x, y
        n, d = (a + c, b) if b == d else (a * d + c * b, b * d)
        g = gcd(n, d)
        return (n // g, d // g)

    def _mul(self, x, y):
        n, d = x[0] * y[0], x[1] * y[1]
        g = gcd(n, d)
        return (n // g, d // g)

    def _solve_left(self, a, c):
        # c / a = (nc da) / (dc na)
        n, d = c[0] * a[1], c[1] * a[0]
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        return (n // g, d // g)

    _solve_right = _solve_left  # commutative: c / b either way

    def _random(self, rng):
        # the vector draw for dim 1: the same getrandbits calls, one gcd
        bits, (wn, wd, kn, kd) = rng.getrandbits, _DRAW
        while (n := bits(kn)) >= wn:
            pass
        while (d := bits(kd)) >= wd:
            pass
        g = gcd(n - wd, d + 1)
        return ((n - wd) // g, (d + 1) // g)

    def _canonical(self, x):
        # a bare int or Fraction is the one component
        return super()._canonical((x,) if is_exact_int(x) or isinstance(x, Fraction) else x)

    def parse_value(self, text: str):
        # Fraction's syntax, which also reads exact decimals such as 0.1 and 1e-3; an exponent of
        # 4,300 or more, whose power of ten has more digits than int() reads, is refused unbuilt
        s = text.strip()
        exponent = re.search(r"e([-+]?[\d_]+)$", s, re.IGNORECASE)
        try:
            if exponent and abs(int(exponent[1])) >= 4300:
                raise ValueError(s)
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise SpecFormatError(f"rationals: bad literal {text!r}") from None

    def probe_values(self, limit: int | None = None):
        return [(1, 1), (2, 1), (1, 2), (-1, 1), (3, 1)][:limit]


class QuaternionAlgebra(_HypercomplexBase):
    kind = "quaternions"
    associative = True
    commutative = False
    dim = 4
    unit_names = ("i", "j", "k")
    _mul_int = staticmethod(_quat_mul_int)


class OctonionAlgebra(_HypercomplexBase):
    kind = "octonions"
    associative = False
    commutative = False
    dim = 8
    unit_names = ("e1", "e2", "e3", "e4", "e5", "e6", "e7")
    _mul_int = staticmethod(_oct_mul_int)


def _conjugation(alg: Algebra):
    """The payload conjugation of alg, which must be the quaternions or the octonions."""
    if not isinstance(alg, _HypercomplexBase) or alg.dim == 1:
        raise UnsupportedError(f"conjugate is only defined over quaternions and octonions, not {alg.label}")
    return alg._conj


def conjugate(x: Scalar) -> Scalar:
    """Quaternion/octonion conjugation: negate the imaginary components."""
    return Scalar(x.algebra, _conjugation(x.algebra)(x.value))
