"""The former primality and irreducibility tests of the fields, kept as oracles.

is_prime divided by every d up to sqrt(n), and a Galois modulus was
irreducible when no monic polynomial of degree 1..k//2 over F_p divided it.
Both are exact and slow: tables.py now decides primality by deterministic
Miller-Rabin and fields.py irreducibility by Rabin's test, which are compared with
these over small ranges.
"""


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod the monic b over F_p, coefficients low degree first."""
    a = list(a)
    while len(a) >= len(b):
        top, shift = a.pop(), len(a) - len(b) + 1
        for i, c in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - top * c) % p
    return a


def trial_is_irreducible(modulus: list[int], p: int) -> bool:
    """Whether no monic polynomial of degree 1..k//2 divides the monic modulus of degree k."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            divisor = [idx // p**i % p for i in range(deg)] + [1]
            if not any(_remainder(modulus, divisor, p)):
                return False
    return True
