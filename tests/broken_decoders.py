"""Codes whose decode is deliberately wrong, shared by the tests that check how the library refuses them.

DoublingDecoder doubles the value of the entry decode adds to a word, so pair addition is no longer
associative.  ScaledNewColumn moves that entry to its column scaled by 2, which is not canonical.
"""
from quasicode import FinVec, HammingCode


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
