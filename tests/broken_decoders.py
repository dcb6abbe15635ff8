"""Codes and algebras whose kernels are deliberately wrong, shared by the tests that check how the
library refuses them or reports them failing.

DoublingDecoder doubles the value of the entry decode adds to a word, so pair addition is no longer
associative.  ScaledNewColumn moves that entry to its column scaled by 2, which is not canonical.
ScaledFactor factors a vector onto its column scaled by 2, which is not canonical.  NoCodewords
finds no word in the code, and ContainsEverything every word.  OneSidedQuaternions divides on the
right for either side, so its factorizations, and the codewords built on them, go wrong.
"""
from quasicode import FinVec, HammingCode, QuaternionAlgebra


class DoublingDecoder(HammingCode):
    """A code whose decoder doubles the value of the entry it adds to a word."""

    def decode(self, y: FinVec) -> FinVec:
        c = super().decode(y)
        return c + FinVec(c.algebra, c.m, [(col, v) for col, v in c.items() if y.get(col).is_zero()])


class ScaledNewColumn(HammingCode):
    """Moves the entry decode adds to its column scaled by 2, which is not canonical."""

    def decode(self, y: FinVec) -> FinVec:
        c = super().decode(y)
        two = self.algebra.parse("2")
        (new,) = set(c.support()) - set(y.support())
        moved = type(new)([two * e for e in new.entries])
        return c - FinVec.single(new, c.get(new)) + FinVec.single(moved, c.get(new))


class ScaledFactor(HammingCode):
    """Factors a nonzero vector z = y * a onto 2a, which is not canonical."""

    def _factor(self, z, right: bool):
        factors = super()._factor(z, right)
        if factors is None:
            return None
        alg, (y, a) = self.algebra, factors
        return y, [alg._mul(alg._canonical(2), e) for e in a]


class NoCodewords(HammingCode):
    """A code whose membership test refuses every word."""

    def _in_code(self, terms, right: bool = False) -> bool:
        return False


class ContainsEverything(HammingCode):
    """A code whose membership test accepts every word."""

    def contains(self, x: FinVec) -> bool:
        return True


class OneSidedQuaternions(QuaternionAlgebra):
    """Quaternions whose left quotient is the right one: factorizations go wrong."""

    def _solve_left(self, a, c):
        return self._solve_right(a, c)
