"""Bit-level polynomial arithmetic over GF(2).

Polynomials over GF(2) are represented as Python integers: bit ``i`` of
the integer is the coefficient of ``x**i``.  This module provides the
raw polynomial operations (carry-less multiplication, division,
reduction, gcd, irreducibility testing) that :mod:`repro.gf2m.field`
builds finite fields from.

All functions are pure and operate on non-negative integers.
"""

from __future__ import annotations

__all__ = [
    "clmul",
    "poly_degree",
    "poly_mod",
    "poly_divmod",
    "poly_mulmod",
    "poly_gcd",
    "poly_egcd",
    "is_irreducible",
    "poly_to_string",
    "poly_from_coefficients",
    "poly_coefficients",
]

# Window size (in bits) used by the carry-less multiplier.  Each call
# builds a 2**_WINDOW entry table of small multiples of one operand and
# then scans the other operand _WINDOW bits at a time.
_WINDOW = 4


def poly_degree(a: int) -> int:
    """Return the degree of polynomial ``a``, or -1 for the zero polynomial."""
    if a < 0:
        raise ValueError("polynomials are represented by non-negative integers")
    return a.bit_length() - 1


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)) product of polynomials ``a`` and ``b``.

    This is schoolbook multiplication with XOR accumulation, windowed
    four bits at a time for speed on large operands.
    """
    if a < 0 or b < 0:
        raise ValueError("polynomials are represented by non-negative integers")
    if a == 0 or b == 0:
        return 0
    # Build the table from the longer operand and scan the shorter one.
    if a.bit_length() < b.bit_length():
        a, b = b, a
    table = [0] * (1 << _WINDOW)
    for i in range(1, 1 << _WINDOW):
        low_bit = i & -i
        table[i] = table[i ^ low_bit] ^ (a << (low_bit.bit_length() - 1))
    result = 0
    shift = 0
    mask = (1 << _WINDOW) - 1
    while b:
        digit = b & mask
        if digit:
            result ^= table[digit] << shift
        b >>= _WINDOW
        shift += _WINDOW
    return result


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Return ``(q, r)`` with ``a = q*b + r`` over GF(2) and deg(r) < deg(b)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = poly_degree(b)
    q = 0
    r = a
    deg_r = poly_degree(r)
    while deg_r >= deg_b:
        shift = deg_r - deg_b
        q ^= 1 << shift
        r ^= b << shift
        deg_r = poly_degree(r)
    return q, r


def poly_mod(a: int, b: int) -> int:
    """Return ``a mod b`` over GF(2)."""
    return poly_divmod(a, b)[1]


def poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Return ``a * b mod modulus`` over GF(2)."""
    return poly_mod(clmul(a, b), modulus)


def poly_gcd(a: int, b: int) -> int:
    """Return the greatest common divisor of two GF(2) polynomials."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, s, t)`` with ``s*a + t*b = g = gcd(a, b)``.

    Each division step cancels the leading term of the remainder with
    ``r << shift``, one quotient term ``x^shift`` at a time, and applies
    the same shift to the cofactors: ``q*s`` is the XOR of ``s << shift``
    over the terms of ``q``, so no quotient or product is ever formed.
    """
    if a < 0 or b < 0:
        raise ValueError("polynomials are represented by non-negative integers")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        length = r.bit_length()
        shift = old_r.bit_length() - length
        while shift >= 0:
            old_r ^= r << shift
            old_s ^= s << shift
            old_t ^= t << shift
            shift = old_r.bit_length() - length
        old_r, r = r, old_r
        old_s, s = s, old_s
        old_t, t = t, old_t
    return old_r, old_s, old_t


def _distinct_prime_factors(n: int) -> list[int]:
    """Return the distinct prime factors of ``n`` by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial ``f``.

    ``f`` of degree ``m`` is irreducible iff ``x**(2**m) == x (mod f)``
    and ``gcd(x**(2**(m/p)) - x, f) == 1`` for every prime ``p | m``.
    """
    m = poly_degree(f)
    if m <= 0:
        return False
    if m == 1:
        return True
    if not (f & 1):  # divisible by x
        return False
    x = 2
    # x**(2**m) mod f via repeated squaring of x.
    t = x
    for _ in range(m):
        t = poly_mulmod(t, t, f)
    if t != x:
        return False
    for p in _distinct_prime_factors(m):
        t = x
        for _ in range(m // p):
            t = poly_mulmod(t, t, f)
        if poly_gcd(t ^ x, f) != 1:
            return False
    return True


def poly_coefficients(a: int) -> list[int]:
    """Return the exponents with non-zero coefficients, highest first."""
    return [i for i in range(poly_degree(a), -1, -1) if (a >> i) & 1]


def poly_from_coefficients(exponents: list[int]) -> int:
    """Build a polynomial from a list of exponents with coefficient 1."""
    value = 0
    for e in exponents:
        if e < 0:
            raise ValueError("exponents must be non-negative")
        value |= 1 << e
    return value


def poly_to_string(a: int) -> str:
    """Render a polynomial as e.g. ``x^163 + x^7 + x^6 + x^3 + 1``."""
    if a == 0:
        return "0"
    terms = []
    for e in poly_coefficients(a):
        if e == 0:
            terms.append("1")
        elif e == 1:
            terms.append("x")
        else:
            terms.append(f"x^{e}")
    return " + ".join(terms)
