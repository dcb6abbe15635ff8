"""Finite-dimensional structure of an algebra over a central subfield.

A SubfieldStructure fixes a basis i_1..i_s over the prime subfield (or the
rationals) together with structure constants c[p][q][r] satisfying
i_p * i_q = sum_r c[p][q][r] i_r.  Expansion and recombination move scalars
between the algebra and coefficient vectors; the constants let linear
conditions over the algebra be rewritten as exact linear systems over the
subfield.
"""
from __future__ import annotations

import random
from math import lcm

from ..errors import InconsistencyError, UnsupportedError
# lazy modules read at call time, each only for an algebra of its own kind (is_finite tells which):
# a finite field's structure leaves hypercomplex unexecuted, and a hypercomplex one fields
from . import fields, hypercomplex
from .base import Algebra, Scalar


class SubfieldStructure:
    """A basis over the coefficient field with its structure constants.

    expand_int(payload) gives (numerators, denominator): the coefficients are
    the first `dimension` numerators over the positive denominator, residues
    mod p over denominator 1 when the coefficient field is GF(p).  modulus is
    that p, or None over the rationals; linear systems are solved on these
    integers (see linalg).  Coefficients are payloads of the coefficient
    field: residues, or rational (n, d) pairs.
    """

    def __init__(self, algebra: Algebra, coeff_field: Algebra, basis_payloads, expand_int, embed_raw):
        if coeff_field.is_finite and isinstance(coeff_field, fields.PrimeField):
            self.modulus = coeff_field.p
        elif not coeff_field.is_finite and isinstance(coeff_field, hypercomplex.RationalField):
            self.modulus = None
        else:
            raise UnsupportedError(f"no exact solver adapter for {coeff_field.label}")
        self.algebra = algebra
        self.coeff_field = coeff_field
        self.basis = tuple(Scalar(algebra, b) for b in basis_payloads)
        self.dimension = len(basis_payloads)
        self.expand_int = expand_int
        self._embed_raw = embed_raw
        products = [[expand_int(algebra._mul(bp, bq)) for bq in basis_payloads] for bp in basis_payloads]
        self.constants_raw = tuple(tuple(tuple(self._coefficients(*e)) for e in row) for row in products)
        # terms[w][r]: the (q, c) with constants_raw[r][q][w] nonzero, c its numerator over the
        # products' common denominator; that factor scales every linearized equation alike
        s = range(self.dimension)
        den = lcm(*(d for row in products for _, d in row))
        self.terms = tuple(
            tuple(tuple((q, nums[w] * (den // d)) for q, (nums, d) in enumerate(products[r]) if nums[w]) for r in s)
            for w in s
        )
        self._verify()

    # -- raw (payload-level) operations ---------------------------------------------

    def _coefficients(self, nums, d) -> list:
        nums = nums[: self.dimension]
        return list(nums) if self.modulus else [hypercomplex._lowest_terms((n, d)) for n in nums]

    def expand_raw(self, payload) -> list:
        return self._coefficients(*self.expand_int(payload))

    def recombine_raw(self, coeffs):
        alg = self.algebra
        acc = alg._zero()
        for c, b in zip(coeffs, self.basis):
            if not self.coeff_field._is_zero(c):
                acc = alg._add(acc, alg._mul(self._embed_raw(c), b.value))
        return acc

    # -- Scalar-level operations ------------------------------------------------------

    def expand(self, x: Scalar) -> tuple[Scalar, ...]:
        if x.algebra != self.algebra:
            raise UnsupportedError("expand: scalar does not belong to the structured algebra")
        return tuple(Scalar(self.coeff_field, c) for c in self.expand_raw(x.value))

    def recombine(self, coeffs) -> Scalar:
        raw = [c.value if isinstance(c, Scalar) else c for c in coeffs]
        return Scalar(self.algebra, self.recombine_raw(raw))

    def _verify(self):
        alg, cf = self.algebra, self.coeff_field
        # every basis product must recombine to the direct product
        for p, bp in enumerate(self.basis):
            for q, bq in enumerate(self.basis):
                direct = alg._mul(bp.value, bq.value)
                if self.recombine_raw(self.constants_raw[p][q]) != direct:
                    raise InconsistencyError(
                        f"{alg.label}: structure constants disagree with multiplication at basis pair ({p},{q})"
                    )
        # subfield coefficients must be central and bilinearity must hold on samples
        rng = random.Random(1729)
        for _ in range(32):
            c = cf._random(rng)
            b = self.basis[rng.randrange(self.dimension)].value
            e = self._embed_raw(c)
            if alg._mul(e, b) != alg._mul(b, e):
                raise InconsistencyError(f"{alg.label}: subfield coefficient is not central")
            x, y = alg._random(rng), alg._random(rng)
            xc, yc = self.expand_raw(x), self.expand_raw(y)
            via = [cf._zero()] * self.dimension
            for p in range(self.dimension):
                if cf._is_zero(xc[p]):
                    continue
                for q in range(self.dimension):
                    if cf._is_zero(yc[q]):
                        continue
                    f = cf._mul(xc[p], yc[q])
                    row = self.constants_raw[p][q]
                    for r in range(self.dimension):
                        if not cf._is_zero(row[r]):
                            via[r] = cf._add(via[r], cf._mul(f, row[r]))
            if self.recombine_raw(via) != alg._mul(x, y):
                raise InconsistencyError(
                    f"{alg.label}: bilinear expansion through structure constants disagrees with multiplication"
                )


def subfield_structure(alg: Algebra) -> SubfieldStructure | None:
    """The default structure over the prime subfield / rationals, or None."""
    cached = getattr(alg, "_structure_cache", False)
    if cached is not False:
        return cached
    st: SubfieldStructure | None
    if alg.is_finite and isinstance(alg, fields.PrimeField):
        st = SubfieldStructure(alg, alg, [1 % alg.p], lambda x: ((x,), 1), lambda c: c)
    elif alg.is_finite and isinstance(alg, fields.GaloisField):
        cf = fields.PrimeField(alg.p)
        basis = [alg._canonical(tuple(1 if j == i else 0 for j in range(alg.k))) for i in range(alg.k)]
        st = SubfieldStructure(alg, cf, basis, lambda x: (alg.coefficients(x), 1), alg.embed_prime)
    elif not alg.is_finite and isinstance(alg, hypercomplex._HypercomplexBase):
        # a payload is already its numerators followed by their common denominator, and
        # the rational (n, d) is (n, 0, ..., 0, d), in lowest terms as it is
        zeros = (0,) * (alg.dim - 1)
        rationals = hypercomplex.RationalField()
        st = SubfieldStructure(
            alg, rationals, alg.basis_payloads(), lambda x: (x, x[-1]), lambda c: (c[0], *zeros, c[1])
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
