"""Finite-dimensional structure of an algebra over a central subfield.

A SubfieldStructure fixes a basis i_1..i_s over the prime subfield (or the
rationals), i_1 the unit, and keeps one integer form: a coefficient vector is
integer numerators over one positive denominator, residues mod p over 1 when
the subfield is GF(p).  Its structure constants c[r][q][w], with
i_r * i_q = sum_w c[r][q][w] i_w, are integers, so linear conditions over the
algebra become exact integer linear systems over the subfield (see linalg).
Scalars of the subfield appear only at expand and recombine.
"""
from __future__ import annotations

import operator
import random
from math import lcm

from ..errors import InconsistencyError, UnsupportedError
# lazy modules read at call time, each only for an algebra of its own kind (is_finite tells which):
# a prime field's structure leaves fields and hypercomplex unexecuted, and a hypercomplex one tables and fields
from . import fields, hypercomplex, tables
from .base import Algebra, Scalar


class SubfieldStructure:
    """A basis over the coefficient field with its integer structure constants.

    expand_int(payload) gives (numerators, denominator): the coefficients are
    the first `dimension` numerators over the positive denominator.
    recombine_int(numerators, denominator) is its inverse, reducing mod p or to
    lowest terms.  modulus is that p, or None over the rationals.  terms[w][r]
    lists the (q, c) with c, coordinate w of i_r * i_q, nonzero; every basis
    product has denominator 1, which the self-check confirms.
    """

    def __init__(self, algebra: Algebra, coeff_field: Algebra, basis_payloads, expand_int, recombine_int):
        if coeff_field.is_finite and isinstance(coeff_field, tables.PrimeField):
            self.modulus = coeff_field.p
        elif not coeff_field.is_finite and isinstance(coeff_field, hypercomplex.RationalField):
            self.modulus = None
        else:
            raise UnsupportedError(f"no exact solver adapter for {coeff_field.label}")
        self.algebra = algebra
        self.coeff_field = coeff_field
        self.basis = tuple(Scalar(algebra, b) for b in basis_payloads)
        self.dimension = s = len(basis_payloads)
        self.expand_int, self.recombine_int = expand_int, recombine_int
        products = [[expand_int(algebra._mul(br, bq))[0] for bq in basis_payloads] for br in basis_payloads]
        self.terms = tuple(
            tuple(tuple((q, nums[w]) for q, nums in enumerate(products[r]) if nums[w]) for r in range(s))
            for w in range(s)
        )
        self._verify()

    def right_action(self, nums) -> list[list[int]]:
        """The integer matrix of x -> x * y, for y the numerators nums over 1: entry [w][r] is
        coordinate w of i_r * y."""
        return [[sum([nums[q] * c for q, c in row]) for row in rows] for rows in self.terms]

    def expand(self, x: Scalar) -> tuple[Scalar, ...]:
        if x.algebra != self.algebra:
            raise UnsupportedError("expand: scalar does not belong to the structured algebra")
        nums, d = self.expand_int(x.value)
        nums = nums[: self.dimension]
        coeffs = nums if self.modulus else [hypercomplex._lowest_terms((n, d)) for n in nums]
        return tuple(Scalar(self.coeff_field, c) for c in coeffs)

    def recombine(self, coeffs) -> Scalar:
        return Scalar(self.algebra, self._recombine([c.value if isinstance(c, Scalar) else c for c in coeffs]))

    def _recombine(self, coeffs):
        """The payload whose coefficients are these payloads of the coefficient field: residues,
        or rational (n, d) pairs, brought over their lcm."""
        if self.modulus:
            return self.recombine_int(coeffs, 1)
        d = lcm(*(e for _, e in coeffs))
        return self.recombine_int([n * (d // e) for n, e in coeffs], d)

    def _verify(self):
        alg, s = self.algebra, self.dimension
        units = [[int(q == r) for q in range(s)] for r in range(s)]
        # every basis product must recombine from terms to the direct product
        for q, bq in enumerate(self.basis):
            act = self.right_action(units[q])
            for r, br in enumerate(self.basis):
                if self.recombine_int([row[r] for row in act], 1) != alg._mul(br.value, bq.value):
                    raise InconsistencyError(
                        f"{alg.label}: structure constants disagree with multiplication at basis pair ({r},{q})"
                    )
        # subfield coefficients c * i_1 must be central and bilinearity must hold on samples
        rng = random.Random(1729)
        for _ in range(32):
            c = self.coeff_field._random(rng)
            b = self.basis[rng.randrange(s)].value
            n, d = (c, 1) if self.modulus else c
            e = self.recombine_int([n] + [0] * (s - 1), d)
            if alg._mul(e, b) != alg._mul(b, e):
                raise InconsistencyError(f"{alg.label}: subfield coefficient is not central")
            x, y = alg._random(rng), alg._random(rng)
            (xn, xd), (yn, yd) = self.expand_int(x), self.expand_int(y)
            via = [sum(map(operator.mul, row, xn)) for row in self.right_action(yn)]
            if self.recombine_int(via, xd * yd) != alg._mul(x, y):
                raise InconsistencyError(
                    f"{alg.label}: bilinear expansion through structure constants disagrees with multiplication"
                )


def subfield_structure(alg: Algebra) -> SubfieldStructure | None:
    """The default structure over the prime subfield / rationals, or None."""
    cached = getattr(alg, "_structure_cache", False)
    if cached is not False:
        return cached
    st: SubfieldStructure | None
    if alg.is_finite and isinstance(alg, tables.PrimeField):
        p = alg.p
        st = SubfieldStructure(alg, alg, [1 % p], lambda x: ((x,), 1), lambda nums, d: nums[0] % p)
    elif alg.is_finite and isinstance(alg, fields.GaloisField):
        cf = tables.PrimeField(alg.p)
        basis = [alg._canonical(tuple(1 if j == i else 0 for j in range(alg.k))) for i in range(alg.k)]
        st = SubfieldStructure(alg, cf, basis, lambda x: (alg.coefficients(x), 1), lambda nums, d: alg._ordinal(nums))
    elif not alg.is_finite and isinstance(alg, hypercomplex._HypercomplexBase):
        # a payload is already its numerators followed by their common denominator
        st = SubfieldStructure(
            alg, hypercomplex.RationalField(), alg.basis_payloads(), lambda x: (x, x[-1]),
            lambda nums, d: hypercomplex._lowest_terms([*nums, d]),
        )
    else:
        st = None
    alg._structure_cache = st
    return st


def expand_scalar(x: Scalar, structure: SubfieldStructure | None = None) -> tuple[Scalar, ...]:
    """Coefficient vector of x over the structure's subfield."""
    st = structure or subfield_structure(x.algebra)
    if st is None:
        raise UnsupportedError(f"{x.algebra.label}: no subfield structure registered")
    return st.expand(x)
