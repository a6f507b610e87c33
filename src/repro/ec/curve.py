"""Binary Weierstrass elliptic curves y^2 + xy = x^3 + a*x^2 + b.

This is the group the paper's coprocessor computes in (Section 4,
equation (1)).  The class implements the textbook affine group law —
the *reference* arithmetic every other layer (ladder, coprocessor
microcode, protocol) is validated against — the energy-rich reader's
scalar multiplication over cached doubling chains, plus point
(de)compression and random point sampling.
"""

from __future__ import annotations

from typing import Optional

from ..gf2m.field import BinaryField
from .point import AffinePoint

__all__ = ["BinaryEllipticCurve"]

#: Base points whose doubling chains :meth:`BinaryEllipticCurve.multiply`
#: keeps; the least recently used one goes first.  A Peeters–Hermans
#: session multiplies three bases (G, the reader's key, the commitment).
CHAIN_CACHE_SIZE = 8


class BinaryEllipticCurve:
    """The curve ``y^2 + x*y = x^3 + a*x^2 + b`` over GF(2^m).

    Parameters
    ----------
    field:
        The underlying :class:`~repro.gf2m.field.BinaryField`.
    a, b:
        Curve coefficients as raw field values.  ``b`` must be non-zero
        (otherwise the curve is singular).

    Examples
    --------
    >>> from repro.ec import NIST_K163
    >>> curve, G, n = NIST_K163.curve, NIST_K163.generator, NIST_K163.order
    >>> curve.is_on_curve(G)
    True
    """

    def __init__(self, field: BinaryField, a: int, b: int):
        if not 0 <= a < field.order or not 0 <= b < field.order:
            raise ValueError("curve coefficients must be reduced field values")
        if b == 0:
            raise ValueError("b = 0 gives a singular curve")
        self.field = field
        self.a = a
        self.b = b
        self._sqrt_b = field.sqrt_raw(b)
        #: base point -> [P, 2P, 4P, ...], in least-recently-used order
        self._chains: dict = {}

    # ------------------------------------------------------------------
    # membership and structure
    # ------------------------------------------------------------------

    def is_on_curve(self, point: AffinePoint) -> bool:
        """True iff the point satisfies the curve equation (or is infinity)."""
        if point.is_infinity:
            return True
        f = self.field
        x, y = point.x, point.y
        if x >= f.order or y >= f.order:
            return False
        lhs = f.square_raw(y) ^ f.mul_raw(x, y)
        rhs = f.mul_raw(f.square_raw(x), x ^ self.a) ^ self.b
        return lhs == rhs

    # ------------------------------------------------------------------
    # group law
    # ------------------------------------------------------------------

    def negate(self, point: AffinePoint) -> AffinePoint:
        """Return -P; for binary curves -(x, y) = (x, x + y)."""
        if point.is_infinity:
            return point
        return AffinePoint(point.x, point.x ^ point.y)

    def add(self, p: AffinePoint, q: AffinePoint) -> AffinePoint:
        """Affine point addition (handles all special cases)."""
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        f = self.field
        if p.x == q.x:
            if p.y ^ q.y == p.x or (p.x == 0 and p.y == q.y):
                # q == -p (note -P = (x, x+y); x == 0 makes P self-inverse)
                return AffinePoint.infinity()
            return self.double(p)
        # lambda = (y1 + y2) / (x1 + x2)
        lam = f.mul_raw(p.y ^ q.y, f.inverse_raw(p.x ^ q.x))
        x3 = f.square_raw(lam) ^ lam ^ p.x ^ q.x ^ self.a
        y3 = f.mul_raw(lam, p.x ^ x3) ^ x3 ^ p.y
        return AffinePoint(x3, y3)

    def double(self, p: AffinePoint) -> AffinePoint:
        """Affine point doubling."""
        if p.is_infinity:
            return p
        if p.x == 0:
            # The (unique) point with x = 0 is 2-torsion: (0, sqrt(b)).
            return AffinePoint.infinity()
        f = self.field
        lam = p.x ^ f.mul_raw(p.y, f.inverse_raw(p.x))
        x3 = f.square_raw(lam) ^ lam ^ self.a
        y3 = f.square_raw(p.x) ^ f.mul_raw(lam, x3) ^ x3
        return AffinePoint(x3, y3)

    def subtract(self, p: AffinePoint, q: AffinePoint) -> AffinePoint:
        """Return p - q."""
        return self.add(p, self.negate(q))

    def multiply_naive(self, k: int, p: AffinePoint) -> AffinePoint:
        """Reference scalar multiplication (left-to-right double-and-add).

        Not side-channel safe; used as the correctness oracle.  For the
        hardened algorithm see :mod:`repro.ec.ladder`.
        """
        if k < 0:
            return self.multiply_naive(-k, self.negate(p))
        result = AffinePoint.infinity()
        addend = p
        while k:
            if k & 1:
                result = self.add(result, addend)
            addend = self.double(addend)
            k >>= 1
        return result

    def multiply(self, k: int, p: AffinePoint) -> AffinePoint:
        """``k * p``: the NAF digits of ``|k|`` summed over p's doubling
        chain ``[p, 2p, 4p, ...]``, negated for ``k < 0``.

        The energy-rich reader's arithmetic (Section 4 puts no
        countermeasure on it): not constant-time, and it keeps the
        chains of the :data:`CHAIN_CACHE_SIZE` most recently used base
        points, so a base point multiplied again costs only the adds.
        A chain is built on first use and extended when a longer scalar
        arrives; it is keyed by the base point and holds only its
        multiples by powers of two, never anything of the scalar.  Any
        ``k`` is taken exactly (no reduction mod n), so the result
        equals :meth:`multiply_naive` on every input.
        """
        if k < 0:
            return self.negate(self.multiply(-k, p))
        if k == 0 or p.is_infinity:
            return AffinePoint.infinity()
        # NAF(k) has (3k).bit_length() - 1 digits, one per chain entry.
        chain = self._chain(p, (3 * k).bit_length() - 1)
        result = AffinePoint.infinity()
        i = 0
        while k:
            if k & 1:
                if k & 2:  # NAF digit -1: k ≡ 3 (mod 4)
                    result = self.add(result, self.negate(chain[i]))
                    k += 1
                else:      # NAF digit +1
                    result = self.add(result, chain[i])
            k >>= 1
            i += 1
        return result

    def _chain(self, p: AffinePoint, length: int) -> list:
        """p's doubling chain, at least ``length`` long, now most
        recently used; the least recently used one beyond the bound is
        dropped."""
        chains = self._chains
        chain = chains.pop(p, None) or [p]
        while len(chain) < length:
            chain.append(self.double(chain[-1]))
        chains[p] = chain
        if len(chains) > CHAIN_CACHE_SIZE:
            del chains[next(iter(chains))]
        return chain

    # ------------------------------------------------------------------
    # compression / decompression / sampling
    # ------------------------------------------------------------------

    def lift_x(self, x: int, y_bit: int = 0) -> Optional[AffinePoint]:
        """Find a point with the given x-coordinate, or None.

        For ``x != 0`` solves ``z^2 + z = x + a + b/x^2`` (substituting
        ``y = x*z``); the ``y_bit`` selects between the two solutions by
        the least significant bit of ``y/x`` (SEC 1 convention).
        """
        f = self.field
        if x == 0:
            return AffinePoint(0, self._sqrt_b)
        x_inv_sq = f.square_raw(f.inverse_raw(x))
        c = x ^ self.a ^ f.mul_raw(self.b, x_inv_sq)
        z = f.solve_quadratic_raw(c)
        if z is None:
            return None
        if (z & 1) != (y_bit & 1):
            z ^= 1
        return AffinePoint(x, f.mul_raw(x, z))

    def compress(self, point: AffinePoint) -> tuple[int, int]:
        """Compress to ``(x, y_bit)``; inverse of :meth:`lift_x`."""
        if point.is_infinity:
            raise ValueError("cannot compress the point at infinity")
        if point.x == 0:
            return 0, 0
        f = self.field
        z = f.mul_raw(point.y, f.inverse_raw(point.x))
        return point.x, z & 1

    def random_point(self, rng) -> AffinePoint:
        """Sample a uniformly random finite point by repeated lift_x."""
        f = self.field
        while True:
            x = rng.getrandbits(f.m) & (f.order - 1)
            point = self.lift_x(x, rng.getrandbits(1))
            if point is not None:
                return point

    # ------------------------------------------------------------------
    # coordinate conversion
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryEllipticCurve)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.b))

    def __repr__(self) -> str:
        return (
            f"BinaryEllipticCurve(GF(2^{self.field.m}), "
            f"a={hex(self.a)}, b={hex(self.b)})"
        )
