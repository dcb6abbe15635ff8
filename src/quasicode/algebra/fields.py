"""Prime fields and Galois fields with explicit irreducible moduli.

A prime field's payload is its residue.  A Galois field GF(p^k) is built on
an explicit irreducible modulus, and its payload is an element's base-p
ordinal: the coefficients c_0..c_{k-1} of c_0 + c_1 t + ... (low degree
first, reduced by the modulus) are the digits of c_0 + c_1 p + ... +
c_{k-1} p^(k-1).  coefficients() gives the tuple back, and a tuple of k int
coefficients is still accepted as input, next to an ordinal in [0, q).
Literals use the generator name t, e.g. "2t+1" or "t^2+2t".

Each field hands its four operations on payloads (add, neg, mul and the
quotient c / a) to the index-table backend of the finite algebras
(tables.IndexTableAlgebra._arithmetic), which decides tables.FLAT_LIMIT: a
field of at most that order is tabulated there, and every operation,
division included, becomes a table read; a larger one computes on the
operations themselves.  This module builds no table.  A prime field reduces
residues mod p and inverts by pow.  A Galois field of order at most
TABLE_LIMIT uses logarithms to a primitive element g, antilogs and Zech
logarithms, lists indexed by ordinal and by exponent; beyond that it
multiplies polynomials and inverts by the extended Euclidean algorithm over
F_p[t].

Every field, of order at most ORDER_LIMIT, is built in bounded time: primes
by deterministic Miller-Rabin, irreducible moduli by Rabin's test.

The rationals live beside the quaternions and octonions in hypercomplex, as
the dim-1 algebra of integer numerators over a positive denominator.
"""
from __future__ import annotations

import re

from ..errors import DomainError, InvalidParameterError, SpecFormatError
from .base import is_exact_int
from .tables import IndexTableAlgebra


# Miller-Rabin on the first 13 primes as bases proves primality below the least strong pseudoprime
# to all 13, 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017); a field's order
# is at most ORDER_LIMIT, one less, which also bounds the work of the irreducibility test.
ORDER_LIMIT = 3_317_044_064_679_887_385_961_980
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _check_order(q: int, shown) -> None:
    """Refuse a field order q, shown as given, above ORDER_LIMIT."""
    if q > ORDER_LIMIT:
        raise InvalidParameterError(f"field order {shown} exceeds the limit {ORDER_LIMIT}")


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n above ORDER_LIMIT is refused."""
    _check_order(n, n)
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    # every base b has b^d = 1, or b^(d 2^r) = -1 for some r < s
    return all(pow(b, (n - 1) >> s, n) == 1 or n - 1 in (pow(b, (n - 1) >> (s - r), n) for r in range(s))
               for b in _BASES)


class PrimeField(IndexTableAlgebra):
    kind = "prime-field"
    associative = True
    commutative = True

    def __init__(self, p: int, label: str | None = None):
        if not is_prime(p):
            raise InvalidParameterError(f"prime field order must be prime, got {p}")
        super().__init__(label or f"f{p}", p)
        self.p = p
        self._arithmetic(self._residue_add, self._residue_neg, self._residue_mul, self._residue_quotient)

    def _residue_add(self, x, y):
        return (x + y) % self.p

    def _residue_neg(self, x):
        return (-x) % self.p

    def _residue_mul(self, x, y):
        return (x * y) % self.p

    def _residue_quotient(self, a, c):
        """c / a, the one quotient of a commutative field."""
        if a == 0:
            raise DomainError(f"{self.label}: zero has no inverse")
        return (pow(a, -1, self.p) * c) % self.p

    def _canonical(self, x):
        if not is_exact_int(x):
            raise DomainError(f"{self.label}: payload must be an int, got {type(x).__name__}")
        return x % self.p

    def _right_unit(self):
        return 1

    def _left_unit(self):
        return 1

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


# Galois fields of at most this order get logarithm tables at construction.
# Building them costs about q polynomial products, tens of seconds for
# GF(2^20); larger fields multiply polynomials and invert by extended Euclid instead.
TABLE_LIMIT = 2**12

_TERM_RE = re.compile(r"^([+-]?)(\d*)t(?:\^(\d+))?$")
_CONST_RE = re.compile(r"^([+-]?\d+)$")


class GaloisField(IndexTableAlgebra):
    kind = "galois-field"
    associative = True
    commutative = True

    def __init__(self, p: int, modulus: list[int], label: str | None = None):
        if not is_prime(p):
            raise InvalidParameterError(f"galois field characteristic must be prime, got {p}")
        modulus = [c % p for c in modulus]
        if len(modulus) < 3 or modulus[-1] != 1:
            raise InvalidParameterError(
                "galois field modulus must be monic of degree >= 2 (low-degree-first coefficients)"
            )
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(modulus) - 1
        _check_order(p ** min(self.k, ORDER_LIMIT.bit_length()), f"{p}^{self.k}")
        # t^k expressed in degrees < k; higher powers are folded down with it
        self._tk = tuple((-c) % p for c in modulus[:-1])
        self._one = (1,) + (0,) * (self.k - 1)
        if not self._irreducible():
            raise InvalidParameterError(
                f"modulus {modulus} is reducible over f{p}; an irreducible polynomial is required"
            )
        q = p**self.k
        super().__init__(label or f"gf{q}", q)
        self._literals: dict[int, str] = {}
        if q > TABLE_LIMIT:
            self._arithmetic(self._digit_add, self._digit_neg, self._poly_mul, self._poly_quotient)
        else:
            self._build_logarithms()
            self._arithmetic(self._zech_add, self._log_neg, self._log_mul, self._log_quotient)

    # -- coefficients and ordinals -----------------------------------------------------

    def coefficients(self, x) -> tuple[int, ...]:
        """The coefficients of payload x, low degree first: its base-p digits."""
        p, out = self.p, []
        for _ in range(self.k):
            x, c = divmod(x, p)
            out.append(c)
        return tuple(out)

    def _ordinal(self, coeffs) -> int:
        """The payload with these coefficients (low degree first), each reduced mod p."""
        p, x = self.p, 0
        for c in reversed(coeffs):
            x = x * p + c % p
        return x

    # -- polynomial arithmetic on coefficient tuples, modulo any monic modulus: decides
    #    irreducibility, finds the logarithms, and serves fields above TABLE_LIMIT ----------

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

    def _poly_product(self, x, y):
        out = [0] * (2 * self.k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return self._reduce(out)

    def _poly_power(self, x, e: int):
        """x^e by square-and-multiply."""
        out = self._one
        while e:
            if e & 1:
                out = self._poly_product(out, x)
            x = self._poly_product(x, x)
            e >>= 1
        return out

    def _digit_add(self, x, y):
        return self._ordinal([a + b for a, b in zip(self.coefficients(x), self.coefficients(y))])

    def _digit_neg(self, x):
        return self._ordinal([-a for a in self.coefficients(x)])

    def _poly_mul(self, x, y):
        return self._ordinal(self._poly_product(self.coefficients(x), self.coefficients(y)))

    def _poly_inverse(self, a: tuple[int, ...]) -> tuple[int, ...] | None:
        """1/a for coefficients a, by the extended Euclidean algorithm over F_p[t]; None when a
        shares a factor with the modulus.

        Each remainder r_i keeps a Bezout coefficient s_i with s_i * a = r_i modulo the
        modulus, reduced as it goes; the last nonzero remainder is the gcd.
        """
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = (0,) * self.k, self._one
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1, p)
            qs1 = self._poly_product(self._reduce(q), s1)
            r0, r1, s0, s1 = r1, r, s1, tuple((x - y) % p for x, y in zip(s0, qs1))
        if not r1:
            return None
        inv = pow(r1[0], -1, p)
        return tuple(c * inv % p for c in s1)

    def _irreducible(self) -> bool:
        """Rabin's test of the modulus f, of degree k: f divides t^(p^k) - t, and t^(p^(k/r)) - t
        is a unit mod f for every prime r dividing k."""
        p, k, t = self.p, self.k, self.coefficients(self.p)  # ordinal p is the generator t
        frobenius = [t]  # t^(p^i) for i = 0..k
        for _ in range(k):
            frobenius.append(self._poly_power(frobenius[-1], p))
        return frobenius[k] == t and all(
            self._poly_inverse(tuple((c - d) % p for c, d in zip(frobenius[k // r], t))) is not None
            for r in range(2, k + 1) if k % r == 0 and is_prime(r)
        )

    def _poly_quotient(self, a, c):
        """c / a, the one quotient of a commutative field."""
        if a == 0:
            raise DomainError(f"{self.label}: zero has no inverse")
        inverse = self._poly_inverse(self.coefficients(a))
        return self._ordinal(self._poly_product(self.coefficients(c), inverse))

    # -- logarithms: fields up to TABLE_LIMIT ----------------------------------------

    def _build_logarithms(self) -> None:
        """Logarithms to a primitive element g, antilogs, and Zech logarithms.

        _log[x] = i with g^i = x, None at zero; _exp[i] = g^i, written out
        twice so that a sum or difference of two logarithms indexes it
        directly (a negative index wraps by q-1); _zech[n] = log(1 + g^n),
        None where 1 + g^n = 0.
        """
        q, p, one = self.n, self.p, self._one
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(
            x for x in map(self.coefficients, range(1, q))
            if all(self._poly_power(x, (q - 1) // r) != one for r in primes)
        )
        powers = [one]
        for _ in range(q - 2):
            powers.append(self._poly_product(powers[-1], g))
        exp = [self._ordinal(x) for x in powers]
        log = [None] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._log = log
        self._exp = exp + exp
        # 1 + x changes only the constant digit of x
        self._zech = [log[x - x % p + (x + 1) % p] for x in exp]
        # -1 = g^((q-1)/2) in odd characteristic, and 1 in characteristic 2
        self._log_minus_one = (q - 1) // 2 if p != 2 else 0

    def _zech_add(self, x, y):
        log = self._log
        i = log[x]
        if i is None:
            return y
        j = log[y]
        if j is None:
            return x
        # g^i + g^j = g^i * (1 + g^(j-i))
        z = self._zech[j - i]
        return 0 if z is None else self._exp[i + z]

    def _log_neg(self, x):
        i = self._log[x]
        return x if i is None else self._exp[i + self._log_minus_one]

    def _log_mul(self, x, y):
        log = self._log
        i = log[x]
        j = log[y]
        if i is None or j is None:
            return 0
        return self._exp[i + j]

    def _log_quotient(self, a, c):
        """c / a, the one quotient of a commutative field."""
        log = self._log
        i = log[a]
        if i is None:
            raise DomainError(f"{self.label}: zero has no inverse")
        j = log[c]
        return 0 if j is None else self._exp[j - i]

    # -- payloads and literals ------------------------------------------------------

    def _canonical(self, x):
        if isinstance(x, (tuple, list)):
            if len(x) == self.k and all(map(is_exact_int, x)):
                return self._ordinal(x)
        elif is_exact_int(x) and 0 <= x < self.n:
            return x
        raise DomainError(
            f"{self.label}: payload must be an ordinal in [0,{self.n}) or a tuple of {self.k} int coefficients"
        )

    def _right_unit(self):
        return 1

    def _left_unit(self):
        return 1

    def _random(self, rng, height: int = 10):
        # k digits, low degree first, as the coefficient tuples were drawn
        return self._ordinal([rng.randrange(self.p) for _ in range(self.k)])

    def format_value(self, x):
        # each payload's literal is built once: a report names the same few payloads many times
        if x not in self._literals:
            self._literals[x] = self._literal(x)
        return self._literals[x]

    def _literal(self, x):
        coeffs = self.coefficients(x)
        parts = []
        for d in range(self.k - 1, -1, -1):
            c = coeffs[d]
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
        p, t = self.p, self.coefficients(self.p)  # ordinal p is the generator t
        total = [0] * self.k
        for chunk in re.findall(r"[+-]?[^+-]+", s):
            m = _TERM_RE.match(chunk)
            if m:
                sign, coeff, deg = m.group(1), m.group(2) or "1", m.group(3) or "1"
            else:
                m = _CONST_RE.match(chunk)
                if not m:
                    raise SpecFormatError(f"{self.label}: bad polynomial literal {text!r}")
                sign, coeff, deg = "", m.group(1), "0"
            try:
                coeff, deg = int(sign + coeff), int(deg)
            except ValueError:  # more digits than int() converts
                raise SpecFormatError(f"{self.label}: bad polynomial literal {text!r}") from None
            # t^(q-1) = 1, so the exponent is reduced first and the power taken by squaring
            term = self._poly_power(t, deg % (self.n - 1))
            total = [(a + coeff * b) % p for a, b in zip(total, term)]
        return self._ordinal(total)

    def spec_dict(self):
        return {"kind": self.kind, "p": self.p, "poly": list(self.modulus)}

