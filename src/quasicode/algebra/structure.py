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

from ..errors import InconsistencyError, UnsupportedError
from .. import linalg
from .base import Algebra, Scalar
from .fields import GaloisField, PrimeField, RationalField
from .hypercomplex import OctonionAlgebra, QuaternionAlgebra


class SubfieldStructure:
    def __init__(self, algebra: Algebra, coeff_field: Algebra, basis_payloads, expand_raw, embed_raw):
        self.algebra = algebra
        self.coeff_field = coeff_field
        self.basis = tuple(Scalar(algebra, b) for b in basis_payloads)
        self.dimension = len(basis_payloads)
        self._expand_raw = expand_raw
        self._embed_raw = embed_raw
        self.constants_raw = tuple(
            tuple(tuple(expand_raw(algebra._mul(bp, bq))) for bq in basis_payloads)
            for bp in basis_payloads
        )
        self._verify()

    # -- raw (payload-level) operations ---------------------------------------------

    def expand_raw(self, payload) -> list:
        return list(self._expand_raw(payload))

    def recombine_raw(self, coeffs):
        alg = self.algebra
        acc = alg._zero()
        for c, b in zip(coeffs, self.basis):
            if not self.coeff_field._is_zero(c):
                acc = alg._add(acc, alg._mul(self._embed_raw(c), b.value))
        return acc

    def field_ops(self) -> linalg.FieldOps:
        if isinstance(self.coeff_field, PrimeField):
            return linalg.prime_field_ops(self.coeff_field.p)
        if isinstance(self.coeff_field, RationalField):
            return linalg.fraction_ops()
        raise UnsupportedError(f"no exact solver adapter for {self.coeff_field.label}")

    # -- Scalar-level operations ------------------------------------------------------

    def expand(self, x: Scalar) -> tuple[Scalar, ...]:
        if x.algebra != self.algebra:
            raise UnsupportedError("expand: scalar does not belong to the structured algebra")
        return tuple(Scalar(self.coeff_field, c) for c in self._expand_raw(x.value))

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
            via = [self.field_ops().zero] * self.dimension
            ops = self.field_ops()
            for p in range(self.dimension):
                if ops.is_zero(xc[p]):
                    continue
                for q in range(self.dimension):
                    if ops.is_zero(yc[q]):
                        continue
                    f = ops.mul(xc[p], yc[q])
                    row = self.constants_raw[p][q]
                    for r in range(self.dimension):
                        if not ops.is_zero(row[r]):
                            via[r] = ops.add(via[r], ops.mul(f, row[r]))
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
    if isinstance(alg, PrimeField):
        st = SubfieldStructure(alg, alg, [1 % alg.p], lambda x: [x], lambda c: c)
    elif isinstance(alg, RationalField):
        one = alg._canonical(1)
        st = SubfieldStructure(alg, alg, [one], lambda x: [x], lambda c: c)
    elif isinstance(alg, GaloisField):
        cf = PrimeField(alg.p)
        basis = []
        for i in range(alg.k):
            basis.append(tuple(1 if j == i else 0 for j in range(alg.k)))
        st = SubfieldStructure(alg, cf, basis, lambda x: list(x), alg.embed_prime)
    elif isinstance(alg, (QuaternionAlgebra, OctonionAlgebra)):
        cf = RationalField()
        basis = alg.probe_values()
        zeros = (0,) * (alg.dim - 1)
        st = SubfieldStructure(alg, cf, basis, alg.components, lambda c: alg._canonical((c,) + zeros))
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
