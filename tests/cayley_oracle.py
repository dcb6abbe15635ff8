"""The former loops that validated a Cayley table's addition, kept as an oracle.

CayleyTableAlgebra refused an addition table with no identity row, then
named the first pair (i, j), i < j, where addition does not commute, then
the first element with no inverse, then the first triple (i, j, k), in
product order, where addition does not associate.  addition_refusal gives
that text, or None for a table it accepts.
"""
import itertools


def addition_refusal(add, label="cayley"):
    n = len(add)
    zero = next((e for e, row in enumerate(add) if list(row) == list(range(n))), None)
    if zero is None:
        return f"{label}: addition table has no identity element"
    for i in range(n):
        for j in range(i + 1, n):
            if add[i][j] != add[j][i]:
                return f"{label}: addition is not commutative at ({i},{j})"
    for x in range(n):
        if zero not in add[x]:
            return f"{label}: element {x} has no additive inverse"
    for i, j, k in itertools.product(range(n), repeat=3):
        if add[add[i][j]][k] != add[i][add[j][k]]:
            return f"{label}: addition is not associative at ({i},{j},{k})"
    return None
