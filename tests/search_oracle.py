"""The former full-product searches, kept as oracles for the solved and halved ones.

witness_product is the dependence search as it ran before it solved the last
coefficient: it walks every tuple of values on the columns in product order
over sorted_elements and returns the first nonzero one whose vector the code
contains.  pair_sum_table is the exhaustive pair sum table as it was before
it mirrored the cells of unordered pairs: it reads every ordered pair's sum
off _pair_sum, in row-major order, and refuses the first sum that is not a
pair element of the code.  pair_associativity_scan is the scan of every
triple that Light's test now runs only when its proof fails.
"""
import itertools

from quasicode import FinVec, InconsistencyError
from quasicode.algebra import audit
from quasicode.algebra.base import sorted_elements
from quasicode.errors import Power, UnsupportedError, check_budget
from quasicode.reconstruct import _pair_element, _pair_keys, _pair_sum


def witness_product(code, cols, budget: int = 2**20):
    """The first nonzero codeword with values on cols, over all q^k tuples in product order."""
    alg = code.algebra
    if alg.order is None:
        raise UnsupportedError(
            f"{alg.label}: no subfield structure and the algebra is infinite; "
            "dependence search is not possible"
        )
    check_budget(Power(alg.order, len(cols)), budget, "brute-force dependence search needs {} tuples")
    els, is_zero = sorted_elements(alg), alg._is_zero
    keys = [c.payloads for c in cols]
    for values in itertools.product(els, repeat=len(cols)):
        x = FinVec._checked(alg, code.m, {a: v for a, v in zip(keys, values) if not is_zero(v)})
        if not x.is_zero() and code.contains(x):
            return x
    return None


def pair_sum_table(code) -> tuple:
    """Rows of pair key indices: cell (i, j) is the index of _pair_sum of keys i and j, decoded
    for every ordered pair on distinct columns."""
    alg = code.algebra
    keys = _pair_keys(code)
    index = {p: k for k, p in enumerate(keys)}

    def sum_index(i, j):
        s = _pair_sum(code, keys[i], keys[j])
        if s not in index:
            u, v, shown = (_pair_element(alg, key) for key in (keys[i], keys[j], s))
            raise InconsistencyError(
                f"the pair sum {u!r} + {v!r} = {shown!r} is not a pair element of the code; "
                "the code is not a perfect group code"
            )
        return index[s]

    ids = range(len(keys))
    return tuple(tuple(sum_index(i, j) for j in ids) for i in ids)


def pair_associativity_scan(psum) -> tuple:
    """(cases checked, first failing (u, v, w) as key indices) of (u+v)+w = u+(v+w) over every triple."""
    law = audit.row_laws(psum, psum, psum, psum, None)["associative"]
    return audit.row_scan(law, itertools.product(range(len(psum)), repeat=2), len(psum))
