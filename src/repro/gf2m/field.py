"""Binary extension fields GF(2^m) in polynomial basis.

This is the arithmetic substrate underneath everything else in the
library: the elliptic-curve layer (:mod:`repro.ec`), the coprocessor's
MALU (:mod:`repro.arch`) and the side-channel experiments all compute
in the field defined here.  The paper's chip uses GF(2^163); this
implementation is generic over ``m`` and the reduction polynomial.

Elements are stored as Python integers (bit ``i`` = coefficient of
``x**i``) and wrapped in :class:`FieldElement` for operator syntax.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .polynomial import (
    clmul,
    is_irreducible,
    poly_degree,
    poly_egcd,
    poly_to_string,
)

__all__ = ["BinaryField", "FieldElement"]

# 8-bit squaring spread table: interleave a zero bit after every input
# bit, so squaring a polynomial is a table-driven byte expansion.
_SQUARE_SPREAD = []
for _byte in range(256):
    _spread = 0
    for _i in range(8):
        if (_byte >> _i) & 1:
            _spread |= 1 << (2 * _i)
    _SQUARE_SPREAD.append(_spread)


def _byte_tables(images: list) -> list:
    """Byte tables of the GF(2)-linear map with ``images[i]`` = L(x^i).

    Table k maps a byte b to L(b x^(8k)), so L(a) is one lookup per byte
    of ``a`` (:func:`_apply_linear`).
    """
    tables = []
    for low in range(0, len(images), 8):
        table = [0]
        for image in images[low:low + 8]:
            table += [entry ^ image for entry in table]
        tables.append(table)
    return tables


def _apply_linear(tables: list, a: int) -> int:
    """The linear map tabulated by :func:`_byte_tables`, applied to ``a``."""
    acc = 0
    for table in tables:
        acc ^= table[a & 0xFF]
        a >>= 8
    return acc


class BinaryField:
    """The finite field GF(2^m) with a chosen irreducible polynomial.

    Parameters
    ----------
    m:
        Extension degree.
    modulus:
        The irreducible reduction polynomial, as an integer of degree
        ``m``.  Checked for degree and irreducibility at construction.

    Examples
    --------
    >>> from repro.gf2m import BinaryField, reduction_polynomial
    >>> k163 = BinaryField(163, reduction_polynomial(163))
    >>> a = k163(0b1011)
    >>> (a * a.inverse()).value
    1
    """

    def __init__(self, m: int, modulus: int, check_irreducible: bool = True):
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        if poly_degree(modulus) != m:
            raise ValueError(
                f"modulus has degree {poly_degree(modulus)}, expected {m}"
            )
        if check_irreducible and not is_irreducible(modulus):
            raise ValueError("modulus is not irreducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self._mask = (1 << m) - 1
        # Tail of the modulus: modulus = x^m + tail, deg(tail) < m.
        # Reduction folds the high part against the tail's terms.
        tail = modulus ^ (1 << m)
        self._tail_exponents = tuple(e for e in range(m) if tail >> e & 1)
        self._trace_mask = self._build_trace_mask()
        # Byte tables of the half-trace images, built on first use.
        self._half_trace_tables: Optional[list] = None
        # reduce(h << m) for every byte h, built on first use.
        self._overflow_table: Optional[list] = None

    # ------------------------------------------------------------------
    # element construction
    # ------------------------------------------------------------------

    def __call__(self, value: int) -> "FieldElement":
        """Wrap an integer as a field element (reduced mod the modulus)."""
        return FieldElement(self, self.reduce(value))

    def zero(self) -> "FieldElement":
        """The additive identity."""
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        """The multiplicative identity."""
        return FieldElement(self, 1)

    def random_element(self, rng) -> "FieldElement":
        """A uniformly random element, drawn from ``rng.getrandbits``."""
        return FieldElement(self, rng.getrandbits(self.m) & self._mask)

    def elements(self) -> Iterator["FieldElement"]:
        """Iterate over all field elements (only sensible for tiny m)."""
        if self.m > 20:
            raise ValueError("refusing to enumerate a field with 2^m > 2^20")
        for v in range(1 << self.m):
            yield FieldElement(self, v)

    # ------------------------------------------------------------------
    # raw (integer) arithmetic
    # ------------------------------------------------------------------

    def reduce(self, value: int) -> int:
        """Reduce an arbitrary-degree polynomial modulo the field modulus.

        Tail-folding: while ``value`` has degree >= m, split it as
        ``low + x^m * high`` and replace ``x^m * high`` by
        ``tail * high``, which is ``high << e`` XORed over the exponents
        ``e`` of the tail.  Each fold strictly lowers the degree, since
        deg(tail) < m, so the loop ends for any modulus; for the sparse
        NIST polynomials a product of two field elements takes two.
        """
        if value < 0:
            raise ValueError("polynomials are represented by non-negative integers")
        m = self.m
        high = value >> m
        while high:
            value &= self._mask
            for e in self._tail_exponents:
                value ^= high << e
            high = value >> m
        return value

    def add_raw(self, a: int, b: int) -> int:
        """Field addition of raw values (XOR)."""
        return a ^ b

    def mul_raw(self, a: int, b: int) -> int:
        """Field multiplication of raw values."""
        return self.reduce(clmul(a, b))

    def square_raw(self, a: int) -> int:
        """Field squaring of a raw value (linear over GF(2), table-driven)."""
        spread = 0
        shift = 0
        while a:
            spread |= _SQUARE_SPREAD[a & 0xFF] << shift
            a >>= 8
            shift += 16
        return self.reduce(spread)

    def sqrt_raw(self, a: int) -> int:
        """Field square root of a raw value.

        Squaring is a bijection in characteristic 2, and
        ``a**(2**(m-1))`` inverts it.
        """
        for _ in range(self.m - 1):
            a = self.square_raw(a)
        return a

    def inverse_raw(self, a: int) -> int:
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        g, s, _ = poly_egcd(a, self.modulus)
        if g != 1:
            raise ArithmeticError("gcd(a, modulus) != 1; modulus not irreducible?")
        return self.reduce(s)

    def inverse_itoh_tsujii_raw(self, a: int) -> int:
        """Multiplicative inverse via the Itoh-Tsujii addition chain.

        ``a**-1 = (a**(2**(m-1) - 1))**2``.  This is the inversion the
        paper's coprocessor microcodes (it only needs squarings and
        multiplications, which the MALU provides), so it is exposed
        separately from the Euclidean inverse.
        """
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        # Build a**(2**k - 1) following the binary expansion of m-1.
        exponent_bits = []
        k = self.m - 1
        while k:
            exponent_bits.append(k & 1)
            k >>= 1
        exponent_bits.reverse()
        result = a        # a**(2**1 - 1)
        chain_len = 1
        for bit in exponent_bits[1:]:
            # result = a**(2**chain_len - 1); double the chain.
            t = result
            for _ in range(chain_len):
                t = self.square_raw(t)
            result = self.mul_raw(t, result)
            chain_len *= 2
            if bit:
                result = self.mul_raw(self.square_raw(result), a)
                chain_len += 1
        return self.square_raw(result)

    def pow_raw(self, a: int, exponent: int) -> int:
        """Raise a raw value to an integer power (negative allowed)."""
        if exponent < 0:
            a = self.inverse_raw(a)
            exponent = -exponent
        result = 1
        while exponent:
            if exponent & 1:
                result = self.mul_raw(result, a)
            a = self.square_raw(a)
            exponent >>= 1
        return result

    def trace_raw(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^2 + ... + a^(2^(m-1)), in {0, 1}.

        The trace is GF(2)-linear, so Tr(a) is the parity of the bits
        ``a`` shares with a per-field mask whose bit i is Tr(x^i).
        """
        return (a & self._trace_mask).bit_count() & 1

    def _build_trace_mask(self) -> int:
        """The mask of Tr(x^i), i < m, by Newton's identities.

        Tr(x^k) is the k-th power sum p_k of the modulus's roots (its
        conjugates).  Over GF(2), with ``modulus = x^m + sum c_j x^j``
        and e_j = c_(m-j), p_0 = m mod 2 and, for 1 <= k < m,
        p_k = sum_(j<k) e_j p_(k-j) + (k mod 2) e_k.  Only the tail's
        terms have e_j = 1, so the cost is O(m x tail weight).
        """
        m = self.m
        steps = sorted(m - e for e in self._tail_exponents)  # j with e_j = 1
        powers = [m & 1]
        for k in range(1, m):
            p = k & 1 if k in steps else 0
            for j in steps:
                if j >= k:
                    break
                p ^= powers[k - j]
            powers.append(p)
        return sum(p << i for i, p in enumerate(powers))

    def half_trace_raw(self, a: int) -> int:
        """Half-trace H(a) = sum a^(4^i), solving z^2 + z = a for odd m.

        The half-trace is GF(2)-linear, so H(a) is the XOR of the images
        H(x^i) over the set bits of ``a``, read a byte at a time from
        tables built on the field's first call.
        """
        if self.m % 2 == 0:
            raise ValueError("half-trace requires odd extension degree")
        tables = self._half_trace_tables
        if tables is None:
            tables = self._half_trace_tables = self._build_half_trace_tables()
        return _apply_linear(tables, a)

    def _build_half_trace_tables(self) -> list:
        """Byte tables of H, from its images H(x^i).

        H(1) and the odd-index images come from the chain of fourth
        powers, itself a linear map and tabulated the same way.  Since
        H(a)^2 = H(a) + a + Tr(a) and H(a^2) = H(a)^2, an even-index
        image is H(x^(2i)) = H(x^i) + x^i + Tr(x^i).
        """
        m = self.m
        fourth = _byte_tables([self.square_raw(self.square_raw(1 << i))
                               for i in range(m)])
        images = []
        for i in range(m):
            if i and i % 2 == 0:
                half = 1 << i // 2
                image = images[i // 2] ^ half ^ self.trace_raw(half)
            else:
                image = t = 1 << i
                for _ in range((m - 1) // 2):
                    t = _apply_linear(fourth, t)
                    image ^= t
            images.append(image)
        return _byte_tables(images)

    def x_powers(self, count: int) -> list:
        """``x^i mod modulus`` for ``i < count``, by shift and subtract."""
        powers, value = [], 1
        for _ in range(count):
            powers.append(value)
            value <<= 1
            if value >> self.m:
                value ^= self.modulus
        return powers

    def overflow_table(self) -> list:
        """``reduce(h << m)`` for every byte ``h``, built on first call.

        A shift of a reduced value by at most 8 bits overflows degree m
        by a byte at most, which one lookup here folds back; reduction
        is linear, so the table XORs the images of ``x^(m+i)``.
        """
        if self._overflow_table is None:
            images = self.x_powers(self.m + 8)[self.m:]
            self._overflow_table = _byte_tables(images)[0]
        return self._overflow_table

    def solve_quadratic_raw(self, c: int) -> Optional[int]:
        """Solve ``z**2 + z = c``; return one solution or None.

        A solution exists iff Tr(c) == 0; the other solution is z + 1.
        Used for recovering point y-coordinates from compressed form.
        """
        if c == 0:
            return 0
        if self.trace_raw(c) != 0:
            return None
        if self.m % 2 == 1:
            z = self.half_trace_raw(c)
        else:
            # Generic method: find delta with Tr(delta) = 1 and build z.
            delta = self._element_of_trace_one()
            z = 0
            w = c
            t = delta
            for _ in range(self.m - 1):
                w = self.square_raw(w)
                t = self.square_raw(t)
                z = self.square_raw(z) ^ self.mul_raw(w, t)
        if self.add_raw(self.square_raw(z), z) != c:
            raise ArithmeticError("quadratic solver produced a non-solution")
        return z

    def _element_of_trace_one(self) -> int:
        """Find any element with trace 1 (deterministic scan)."""
        for v in range(1, 1 << min(self.m, 24)):
            if self.trace_raw(v) == 1:
                return v
        raise ArithmeticError("no trace-one element found in the scan range")

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of elements, 2^m."""
        return 1 << self.m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryField)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"BinaryField(2^{self.m}, modulus={poly_to_string(self.modulus)})"


class FieldElement:
    """An element of a :class:`BinaryField`, with operator overloading.

    Instances are immutable.  Mixed-field operations raise ``ValueError``
    rather than guessing a coercion.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: BinaryField, value: int):
        if not 0 <= value < (1 << field.m):
            raise ValueError("element value out of range for the field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("operands belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        return FieldElement(self.field, self.value ^ other.value)

    __sub__ = __add__  # characteristic 2: subtraction is addition

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        return FieldElement(self.field, self.field.mul_raw(self.value, other.value))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow_raw(self.value, exponent))

    def __neg__(self) -> "FieldElement":
        return self  # characteristic 2

    def square(self) -> "FieldElement":
        """Return self**2 (cheaper than ``self * self``)."""
        return FieldElement(self.field, self.field.square_raw(self.value))

    def sqrt(self) -> "FieldElement":
        """Return the unique square root."""
        return FieldElement(self.field, self.field.sqrt_raw(self.value))

    def inverse(self) -> "FieldElement":
        """Return the multiplicative inverse (Euclidean algorithm)."""
        return FieldElement(self.field, self.field.inverse_raw(self.value))

    def trace(self) -> int:
        """Absolute trace, as an integer in {0, 1}."""
        return self.field.trace_raw(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return f"FieldElement(GF(2^{self.field.m}), {hex(self.value)})"
