"""Quaternions and octonions over the rationals, with exact arithmetic.

Payloads are 4- and 8-tuples of Fractions.  The octonion basis products are
fixed by Cayley-Dickson doubling of the quaternions, (a,b)(c,d) = (ac - conj(d)b,
da + b conj(c)); the sign table is generated once from that formula.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from ..errors import DomainError, SpecFormatError, UnsupportedError
from .base import Algebra, Scalar, is_exact_int


def _quat_mul_int(x, y):
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _quat_conj_int(x):
    return (x[0], -x[1], -x[2], -x[3])


def _build_octonion_table():
    """table[p][q] = (sign, r) with e_p * e_q = sign * e_r."""
    basis = []
    for p in range(8):
        a = tuple(1 if i == p else 0 for i in range(4)) if p < 4 else (0, 0, 0, 0)
        b = (0, 0, 0, 0) if p < 4 else tuple(1 if i == p - 4 else 0 for i in range(4))
        basis.append((a, b))
    table = []
    for p in range(8):
        row = []
        a, b = basis[p]
        for q in range(8):
            c, d = basis[q]
            first = tuple(
                u - v for u, v in zip(_quat_mul_int(a, c), _quat_mul_int(_quat_conj_int(d), b))
            )
            second = tuple(
                u + v for u, v in zip(_quat_mul_int(d, a), _quat_mul_int(b, _quat_conj_int(c)))
            )
            comps = first + second
            nz = [(i, v) for i, v in enumerate(comps) if v != 0]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            row.append((nz[0][1], nz[0][0]))
        table.append(tuple(row))
    return tuple(table)


_OCT_TABLE = _build_octonion_table()


def _oct_mul_int(x, y):
    out = [0] * 8
    for p, xp in enumerate(x):
        if xp == 0:
            continue
        row = _OCT_TABLE[p]
        for q, yq in enumerate(y):
            if yq == 0:
                continue
            sign, r = row[q]
            out[r] += xp * yq if sign > 0 else -(xp * yq)
    return out


def _over_common_denominator(x):
    """(nums, d) with x[i] == nums[i] / d, d the lcm of the denominators."""
    d = lcm(*(a.denominator for a in x))
    return [a.numerator * (d // a.denominator) for a in x], d


# coefficients are integers or fractions with a nonzero denominator
_HC_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/0*[1-9]\d*)?)?([a-z])(\d?)$")
_HC_CONST_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


class _HypercomplexBase(Algebra):
    dim: int
    unit_names: tuple[str, ...]  # names of components 1..dim-1

    def _add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def _neg(self, x):
        return tuple(-a for a in x)

    def _conj(self, x):
        return (x[0],) + tuple(-a for a in x[1:])

    def _zero(self):
        return (Fraction(0),) * self.dim

    def _is_zero(self, x):
        return all(a == 0 for a in x)

    def _canonical(self, x):
        if not isinstance(x, (tuple, list)) or len(x) != self.dim:
            raise DomainError(f"{self.label}: payload must be a {self.dim}-tuple of Fractions")
        out = []
        for a in x:
            if is_exact_int(a):
                a = Fraction(a)
            elif not isinstance(a, Fraction):
                raise DomainError(f"{self.label}: components must be Fractions or ints (no floats)")
            out.append(a)
        return tuple(out)

    # Products and quotients run on integer numerators over a common
    # denominator, so each result component is normalized once instead of
    # after every Fraction multiply and add.  Subclasses set _mul_int, the
    # basis-product kernel on integer tuples.
    def _mul(self, x, y):
        xs, dx = _over_common_denominator(x)
        ys, dy = _over_common_denominator(y)
        d = dx * dy
        return tuple(Fraction(v, d) for v in self._mul_int(xs, ys))

    def _solve_left(self, a, c):
        # a^-1 c = conj(a) c / N(a); with a = A/da, c = C/dc that is conj(A) C da / (dc N(A))
        A, da = _over_common_denominator(a)
        C, dc = _over_common_denominator(c)
        n = dc * sum(v * v for v in A)
        conj = [A[0]] + [-v for v in A[1:]]
        return tuple(Fraction(v * da, n) for v in self._mul_int(conj, C))

    def _solve_right(self, b, c):
        # c b^-1 = c conj(b) / N(b) = C conj(B) db / (dc N(B))
        B, db = _over_common_denominator(b)
        C, dc = _over_common_denominator(c)
        n = dc * sum(v * v for v in B)
        conj = [B[0]] + [-v for v in B[1:]]
        return tuple(Fraction(v * db, n) for v in self._mul_int(C, conj))

    @property
    def is_finite(self):
        return False

    def _right_unit(self):
        return (Fraction(1),) + (Fraction(0),) * (self.dim - 1)

    def _left_unit(self):
        return self._right_unit()

    def _random(self, rng, height: int = 10):
        return tuple(
            Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(self.dim)
        )

    def sort_key(self, x):
        return tuple((a.numerator, a.denominator) for a in x)

    def format_value(self, x):
        parts = [str(x[0])]
        for a, name in zip(x[1:], self.unit_names):
            if a < 0:
                parts.append(f"-{-a}{name}")
            else:
                parts.append(f"+{a}{name}")
        return "".join(parts)

    def parse_value(self, text: str):
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise SpecFormatError(f"{self.label}: empty scalar literal")
        comps = [Fraction(0)] * self.dim
        for chunk in re.findall(r"[+-]?[^+-]+", s):
            if _HC_CONST_RE.match(chunk):
                comps[0] += Fraction(chunk)
                continue
            m = _HC_TERM_RE.match(chunk)
            if not m:
                raise SpecFormatError(f"{self.label}: bad literal {text!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            unit = m.group(3) + m.group(4)
            try:
                idx = self.unit_names.index(unit) + 1
            except ValueError:
                raise SpecFormatError(
                    f"{self.label}: unknown unit {unit!r} in literal {text!r}"
                ) from None
            comps[idx] += sign * coeff
        return tuple(comps)

    def probe_values(self):
        out = []
        for i in range(self.dim):
            out.append(tuple(Fraction(1 if j == i else 0) for j in range(self.dim)))
        return out

    def basis_scalars(self) -> list[Scalar]:
        return [Scalar(self, v) for v in self.probe_values()]


class QuaternionAlgebra(_HypercomplexBase):
    kind = "quaternions"
    associative = True
    commutative = False
    alternative = True
    dim = 4
    unit_names = ("i", "j", "k")
    _mul_int = staticmethod(_quat_mul_int)

    def __init__(self, label: str = "quaternions"):
        super().__init__(label)

    def spec_dict(self):
        return {"kind": self.kind}


class OctonionAlgebra(_HypercomplexBase):
    kind = "octonions"
    associative = False
    commutative = False
    alternative = True
    dim = 8
    unit_names = ("e1", "e2", "e3", "e4", "e5", "e6", "e7")
    _mul_int = staticmethod(_oct_mul_int)

    def __init__(self, label: str = "octonions"):
        super().__init__(label)

    def spec_dict(self):
        return {"kind": self.kind}


def conjugate(x: Scalar) -> Scalar:
    """Quaternion/octonion conjugation: negate the imaginary components."""
    alg = x.algebra
    if not isinstance(alg, _HypercomplexBase):
        raise UnsupportedError(f"conjugate is only defined over quaternions and octonions, not {alg.label}")
    return Scalar(alg, alg._conj(x.value))
