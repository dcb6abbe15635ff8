"""The former Galois field arithmetic on coefficient tuples, kept as an oracle.

GaloisField payloads were coefficient tuples (low degree first, reduced mod
the modulus).  A field of order at most TABLE_LIMIT computed on a
tuple-keyed logarithm dict, an antilog list and Zech logarithms; a larger
one multiplied polynomials and inverted x as x^(q-2).  TupleGaloisField
reproduces both paths from p and the modulus alone, so the ordinal payloads
and index tables of GaloisField can be checked against it through
coefficients().
"""
from quasicode.algebra.fields import TABLE_LIMIT
from quasicode.algebra.tables import is_prime


class TupleGaloisField:
    def __init__(self, p: int, modulus):
        self.p = p
        self.k = len(modulus) - 1
        self.order = p**self.k
        # t^k expressed in degrees < k
        self._tk = tuple((-c) % p for c in modulus[:-1])
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)
        self._log = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()

    def elements(self):
        for v in range(self.order):
            digits = []
            for _ in range(self.k):
                v, d = divmod(v, self.p)
                digits.append(d)
            yield tuple(digits)

    # -- polynomial arithmetic ------------------------------------------------------

    def _reduce(self, coeffs):
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

    def _poly_power(self, x, e):
        out = self.one
        while e:
            if e & 1:
                out = self._poly_product(out, x)
            x = self._poly_product(x, x)
            e >>= 1
        return out

    # -- log/antilog/Zech tables keyed on tuples -------------------------------------

    def _build_tables(self):
        q, one = self.order, self.one
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(
            x for x in self.elements()
            if any(x) and all(self._poly_power(x, (q - 1) // r) != one for r in primes)
        )
        exp = [one]
        for _ in range(q - 2):
            exp.append(self._poly_product(exp[-1], g))
        self._log = {x: i for i, x in enumerate(exp)}
        self._exp = exp + exp
        self._zech = [self._log.get(self._poly_add(one, x)) for x in exp]
        self._log_minus_one = (q - 1) // 2 if self.p != 2 else 0

    def add(self, x, y):
        log = self._log
        if log is None:
            return self._poly_add(x, y)
        i = log.get(x)
        if i is None:
            return y
        j = log.get(y)
        if j is None:
            return x
        z = self._zech[j - i]
        return self.zero if z is None else self._exp[i + z]

    def neg(self, x):
        log = self._log
        if log is None:
            return tuple((-a) % self.p for a in x)
        i = log.get(x)
        return x if i is None else self._exp[i + self._log_minus_one]

    def mul(self, x, y):
        log = self._log
        if log is None:
            return self._poly_product(x, y)
        i = log.get(x)
        j = log.get(y)
        if i is None or j is None:
            return self.zero
        return self._exp[i + j]

    def quotient(self, c, a):
        """c / a for a nonzero a."""
        log = self._log
        if log is None:
            return self._poly_product(c, self._poly_power(a, self.order - 2))
        i = log[a]
        j = log.get(c)
        return self.zero if j is None else self._exp[j - i]

    # -- literals ----------------------------------------------------------------------

    def literal(self, x):
        """The literal of coefficient tuple x, built from its digits on every call."""
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
