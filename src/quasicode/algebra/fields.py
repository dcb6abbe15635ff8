"""Galois fields with explicit irreducible moduli, Cayley tables, and isotopes of Galois fields.

A Galois field GF(p^k) is built on an explicit irreducible modulus, and its
payload is an element's base-p ordinal: the coefficients c_0..c_{k-1} of
c_0 + c_1 t + ... (low degree first, reduced by the modulus) are the digits
of c_0 + c_1 p + ... + c_{k-1} p^(k-1).  coefficients() gives the tuple
back, and a tuple of k int coefficients is still accepted as input, next to
an ordinal in [0, q).  Literals use the generator name t, e.g. "2t+1" or
"t^2+2t".

A Galois field hands its four operations on payloads (add, neg, mul and the
quotient c / a) to the index-table backend of the finite algebras
(tables.IndexTableAlgebra._arithmetic), which tabulates a field of order at
most tables.FLAT_LIMIT; this module builds no field table.  A field of order
at most TABLE_LIMIT uses logarithms to a primitive element g, antilogs and
Zech logarithms, lists indexed by ordinal and by exponent; beyond that it
multiplies polynomials and inverts by the extended Euclidean algorithm over
F_p[t].  Every field is built in bounded time: its order is at most
tables.ORDER_LIMIT, its characteristic is proved prime by tables.is_prime,
and its modulus irreducible by Rabin's test.

CayleyTableAlgebra, of any order, takes its two tables as given, validates
them (its addition on the audit's row laws), compiles them on the backend
and reads its units off them.  make_isotope twists a Galois field's
multiplication into such a table.

Prime fields live in tables, so a command over one leaves this module
unexecuted; the rationals live beside the quaternions and octonions in
hypercomplex, as the dim-1 algebra of integer numerators over a positive
denominator.
"""
from __future__ import annotations

import itertools
import re

# lazy modules read at call time: only a Cayley table executes audit, and only an isotope given a V linalg
from .. import linalg
from ..errors import DomainError, InvalidParameterError, SpecFormatError
from . import audit
from .base import Scalar, is_exact_int
from .tables import ORDER_LIMIT, IndexTableAlgebra, _check_order, is_prime


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

    def _random(self, rng):
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


class CayleyTableAlgebra(IndexTableAlgebra):
    kind = "cayley-table"

    def __init__(
        self,
        add_table: list[list[int]],
        mul_table: list[list[int]],
        label: str = "cayley",
        element_names: list[str] | None = None,
        provenance: dict | None = None,
    ):
        n = len(add_table)
        if n < 2:  # a quasifield has 0 != 1
            raise SpecFormatError(f"{label}: a Cayley table needs at least 2 elements, got {n}")
        super().__init__(label, n)
        self._provenance = provenance
        self._names = list(element_names) if element_names else None
        for tname, table in (("add", add_table), ("mul", mul_table)):
            if len(table) != n:
                raise SpecFormatError(f"{label}: {tname} table must be {n}x{n}")
            for i, row in enumerate(table):
                if len(row) != n or any(not is_exact_int(v) or not 0 <= v < n for v in row):
                    raise SpecFormatError(f"{label}: {tname} table row {i} is not a valid index row")
        self.add_table = tuple(tuple(r) for r in add_table)
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self._validate_addition()
        self._validate_multiplication()
        self._compile(self.add_table, self.mul_table)
        # a left unit's row, and a right unit's column, lists the indices in order
        ident = tuple(range(n))
        self._left_unit_idx = next((e for e, row in enumerate(self.mul_table) if row == ident), None)
        self._right_unit_idx = next((e for e, col in enumerate(zip(*self.mul_table)) if col == ident), None)

    # -- construction-time table validation ---------------------------------------

    def _validate_addition(self):
        add, n, els = self.add_table, self.n, range(self.n)
        zero = next((e for e, row in enumerate(add) if row == tuple(els)), None)
        if zero is None:
            raise SpecFormatError(f"{self.label}: addition table has no identity element")
        self.zero_index = zero
        laws = audit.row_laws(add, add, add, add, tuple(zip(*add)))
        # the first failing pair (i, j) has i < j: row j would fail at i first
        _, w = audit.row_scan(laws["commutative"], itertools.product(els, repeat=1), n)
        if w is not None:
            raise SpecFormatError(f"{self.label}: addition is not commutative at ({w[0]},{w[1]})")
        for x in els:
            if zero not in add[x]:
                raise SpecFormatError(f"{self.label}: element {x} has no additive inverse")
        # Light's test proves associativity on the rows of the generators; the scan of every
        # triple only names the first failing one
        if not audit._proved(laws["associative"], els, audit._generators(els, add)):
            _, w = audit.row_scan(laws["associative"], itertools.product(els, repeat=2), n)
            raise SpecFormatError(f"{self.label}: addition is not associative at ({w[0]},{w[1]},{w[2]})")

    def _validate_multiplication(self):
        mul, n, zero = self.mul_table, self.n, self.zero_index
        for x in range(n):
            if mul[zero][x] != zero or mul[x][zero] != zero:
                raise SpecFormatError(
                    f"{self.label}: zero does not annihilate in multiplication at element {x}"
                )
        nonzero = frozenset(x for x in range(n) if x != zero)
        for a in nonzero:
            row = {mul[a][x] for x in nonzero}
            if row != nonzero:
                raise SpecFormatError(
                    f"{self.label}: multiplication row {a} is not a permutation of the nonzero elements"
                )
            col = {mul[x][a] for x in nonzero}
            if col != nonzero:
                raise SpecFormatError(
                    f"{self.label}: multiplication column {a} is not a permutation of the nonzero elements"
                )

    # -- algebra interface ----------------------------------------------------------

    def _right_unit(self):
        return self._right_unit_idx

    def _left_unit(self):
        return self._left_unit_idx

    def format_value(self, x):
        return self._names[x] if self._names else str(x)

    def parse_value(self, text: str):
        s = text.strip()
        if self._names and s in self._names:
            return self._names.index(s)
        try:
            v = int(s)
        except ValueError:
            raise SpecFormatError(f"{self.label}: unknown element literal {s!r}") from None
        if not (0 <= v < self.n):
            raise SpecFormatError(f"{self.label}: element index {v} out of range [0,{self.n})")
        return v

    def spec_dict(self):
        if self._provenance is not None:
            return self._provenance
        return {
            "kind": self.kind,
            "add": [list(r) for r in self.add_table],
            "mul": [list(r) for r in self.mul_table],
        }


def make_isotope(
    base,
    a: Scalar,
    v_matrix: list[list[int]] | None = None,
    label: str | None = None,
) -> CayleyTableAlgebra:
    """Twist a Galois field's multiplication into x*y = U^-1(U(x) V(y)).

    U is the prime-linear map that swaps 1 and a and fixes each t^i, 0 < i < k,
    but the top degree of a, so U^-1 = U; V defaults to the identity.  The result keeps the field's
    addition, has right unit 1 and no left unit, and is nonassociative.
    Element i of the result is the field element with payload i.
    """
    if not isinstance(base, GaloisField):
        raise InvalidParameterError("isotope base must be a galois field")
    if a.algebra != base:
        raise InvalidParameterError("isotope element a must belong to the base field")
    coeffs_a = list(base.coefficients(a.value))
    if all(c == 0 for c in coeffs_a[1:]):
        raise InvalidParameterError(
            f"isotope element a={base.format_value(a.value)} lies in the prime subfield"
        )
    # a^2 = 1 would degenerate the twist, but in a field it makes a = 1 or -1, refused above
    one = base._right_unit()
    p, k = base.p, base.k
    coeffs_one = list(base.coefficients(one))
    values = range(base.order)
    if v_matrix is None:
        v = list(values)
        v_rows = [[int(i == j) for j in range(k)] for i in range(k)]
    else:
        if len(v_matrix) != k or any(len(r) != k or not all(map(is_exact_int, r)) for r in v_matrix):
            raise InvalidParameterError(f"V must be a {k}x{k} matrix over f{p}")
        v_rows = [[c % p for c in row] for row in v_matrix]
        if linalg.invert_matrix(v_rows, p) is None:
            raise InvalidParameterError("V must be invertible over the prime subfield")
        if linalg.mat_vec(v_rows, coeffs_one, p) != coeffs_one:
            raise InvalidParameterError("V must fix 1")
        if linalg.mat_vec(v_rows, coeffs_a, p) != coeffs_a:
            raise InvalidParameterError("V must fix a")
        # V's image of each element, by payload
        v = [base._canonical(tuple(linalg.mat_vec(v_rows, list(base.coefficients(x)), p))) for x in values]

    # 1, a and t^i for 0 < i < k but the top degree d of a form a basis; U swaps 1 and a and fixes
    # each t^i, so U is its own inverse: x = alpha + beta a + (the t^i terms) goes to x + (alpha - beta)(a - 1)
    d = max(i for i, c in enumerate(coeffs_a) if c)
    inverse = pow(coeffs_a[d], -1, p)
    a_minus_one = base._add(a.value, base._neg(one))

    def swap(x: int) -> int:
        c = base.coefficients(x)
        beta = c[d] * inverse % p
        return base._add(x, base._mul((c[0] - beta * coeffs_a[0] - beta) % p, a_minus_one))

    u = list(map(swap, values))
    assert u[one] == a.value and u[a.value] == one
    add, mul = base._add, base._mul
    add_table = [[add(x, y) for y in values] for x in values]
    mul_table = [[u[mul(u[x], v[y])] for y in values] for x in values]
    names = [base.format_value(x) for x in values]
    a_lit = base.format_value(a.value)
    provenance = {
        "kind": "isotope",
        "base": base.spec_dict(),
        "a": a_lit,
        "V": [list(r) for r in v_rows],
    }
    alg = CayleyTableAlgebra(
        add_table,
        mul_table,
        label=label or f"isotope({base.label},a={a_lit})",
        element_names=names,
        provenance=provenance,
    )
    assert alg._right_unit() == one
    return alg
