"""Integer arithmetic modulo the group order.

The Peeters–Hermans tag computes ``s = d + x + e*r`` modulo the curve
order (Figure 2) — the "one modular multiplication" of Section 4.
:class:`ScalarRing` packages that arithmetic, scalar sampling and
primality validation of the order.
"""

from __future__ import annotations

__all__ = ["ScalarRing", "is_probable_prime"]

# Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24;
# for larger moduli (all our curve orders) we add fixed extra rounds,
# which keeps the check deterministic and reproducible.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller–Rabin primality test with fixed witnesses."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarRing:
    """The ring of integers modulo a (prime) group order ``n``.

    Examples
    --------
    >>> ring = ScalarRing(13)
    >>> ring.mul(ring.add(5, 11), 7)
    8
    """

    def __init__(self, n: int, require_prime: bool = False):
        if n < 2:
            raise ValueError("the modulus must be >= 2")
        if require_prime and not is_probable_prime(n):
            raise ValueError("the modulus is not prime")
        self.n = n

    def reduce(self, a: int) -> int:
        """Canonical representative in [0, n)."""
        return a % self.n

    def add(self, a: int, b: int) -> int:
        """(a + b) mod n."""
        return (a + b) % self.n

    def sub(self, a: int, b: int) -> int:
        """(a - b) mod n."""
        return (a - b) % self.n

    def mul(self, a: int, b: int) -> int:
        """(a * b) mod n."""
        return (a * b) % self.n

    def inverse(self, a: int) -> int:
        """Multiplicative inverse mod n; raises for non-invertible a."""
        a %= self.n
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        g, x = self._egcd(a, self.n)
        if g != 1:
            raise ArithmeticError(f"{a} is not invertible modulo {self.n}")
        return x % self.n

    @staticmethod
    def _egcd(a: int, n: int) -> tuple[int, int]:
        old_r, r = a, n
        old_s, s = 1, 0
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
        return old_r, old_s

    def pow(self, a: int, e: int) -> int:
        """a**e mod n (negative exponents via the inverse)."""
        if e < 0:
            return pow(self.inverse(a), -e, self.n)
        return pow(a, e, self.n)

    def random_scalar(self, rng) -> int:
        """Uniform scalar in [1, n-1] (rejection sampling)."""
        bits = self.n.bit_length()
        while True:
            k = rng.getrandbits(bits)
            if 1 <= k < self.n:
                return k

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarRing) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("ScalarRing", self.n))

    def __repr__(self) -> str:
        return f"ScalarRing(n={hex(self.n)})"
