"""The former subfield structure, kept as the oracle for the integer form.

OracleStructure is SubfieldStructure as it was before the integer form became
its only one: coefficients are payloads of the coefficient field (residues, or
rational (n, d) pairs), the structure constants constants_raw[p][q] are the
coefficient payloads of i_p * i_q, and recombination embeds each coefficient
into the algebra and multiplies it by its basis element.  Its self-check runs
on those payloads.  oracle_structure(alg) builds it over the same bases as
subfield_structure, with the embedding of each kind of subfield.
"""
import random

from quasicode import InconsistencyError, Scalar
from quasicode.algebra import fields, hypercomplex, tables


class OracleStructure:
    def __init__(self, algebra, coeff_field, basis_payloads, expand_int, embed_raw):
        self.modulus = coeff_field.p if coeff_field.is_finite else None
        self.algebra = algebra
        self.coeff_field = coeff_field
        self.basis = tuple(Scalar(algebra, b) for b in basis_payloads)
        self.dimension = len(basis_payloads)
        self.expand_int = expand_int
        self._embed_raw = embed_raw
        self.constants_raw = tuple(
            tuple(tuple(self.expand_raw(algebra._mul(bp, bq))) for bq in basis_payloads) for bp in basis_payloads
        )
        self._verify()

    def expand_raw(self, payload) -> list:
        nums, d = self.expand_int(payload)
        nums = nums[: self.dimension]
        return list(nums) if self.modulus else [hypercomplex._lowest_terms((n, d)) for n in nums]

    def recombine_raw(self, coeffs):
        alg = self.algebra
        acc = alg._zero()
        for c, b in zip(coeffs, self.basis):
            if not self.coeff_field._is_zero(c):
                acc = alg._add(acc, alg._mul(self._embed_raw(c), b.value))
        return acc

    def expand(self, x):
        return tuple(Scalar(self.coeff_field, c) for c in self.expand_raw(x.value))

    def recombine(self, coeffs):
        raw = [c.value if isinstance(c, Scalar) else c for c in coeffs]
        return Scalar(self.algebra, self.recombine_raw(raw))

    def _verify(self):
        alg, cf = self.algebra, self.coeff_field
        for p, bp in enumerate(self.basis):
            for q, bq in enumerate(self.basis):
                if self.recombine_raw(self.constants_raw[p][q]) != alg._mul(bp.value, bq.value):
                    raise InconsistencyError(
                        f"{alg.label}: structure constants disagree with multiplication at basis pair ({p},{q})"
                    )
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
                for q in range(self.dimension):
                    f = cf._mul(xc[p], yc[q])
                    for r, c in enumerate(self.constants_raw[p][q]):
                        via[r] = cf._add(via[r], cf._mul(f, c))
            if self.recombine_raw(via) != alg._mul(x, y):
                raise InconsistencyError(
                    f"{alg.label}: bilinear expansion through structure constants disagrees with multiplication"
                )


def oracle_structure(alg) -> OracleStructure:
    """The oracle over the prime subfield or the rationals, for the kinds subfield_structure serves."""
    if isinstance(alg, tables.PrimeField):
        return OracleStructure(alg, alg, [1 % alg.p], lambda x: ((x,), 1), lambda c: c)
    if isinstance(alg, fields.GaloisField):
        basis = [alg._canonical(tuple(1 if j == i else 0 for j in range(alg.k))) for i in range(alg.k)]
        return OracleStructure(alg, tables.PrimeField(alg.p), basis, lambda x: (alg.coefficients(x), 1),
                               lambda c: c % alg.p)
    # the rational (n, d) is (n, 0, ..., 0, d), in lowest terms as it is
    zeros = (0,) * (alg.dim - 1)
    return OracleStructure(alg, hypercomplex.RationalField(), alg.basis_payloads(), lambda x: (x, x[-1]),
                           lambda c: (c[0], *zeros, c[1]))
