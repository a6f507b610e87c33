"""The affine point representation for binary elliptic curves.

:class:`AffinePoint` is the external representation (protocol
messages, databases, test vectors).  The Montgomery ladder carries
López–Dahab ``(X : Z)`` pairs as plain integers (see
:mod:`repro.ec.ladder`); a random non-zero ``Z`` is exactly the
paper's randomized-projective-coordinates DPA countermeasure
(Section 4/7).

Points are plain immutable data; the arithmetic lives on
:class:`repro.ec.curve.BinaryEllipticCurve`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AffinePoint"]


@dataclass(frozen=True)
class AffinePoint:
    """An affine point ``(x, y)`` or the point at infinity.

    Coordinates are raw field values (integers in polynomial basis);
    the owning curve interprets them.  The point at infinity is the
    canonical ``AffinePoint.infinity()`` with both coordinates zero and
    the flag set.
    """

    x: int
    y: int
    is_infinity: bool = False

    @classmethod
    def infinity(cls) -> "AffinePoint":
        """The group identity."""
        return cls(0, 0, True)

    def __post_init__(self):
        if self.is_infinity and (self.x or self.y):
            raise ValueError("the point at infinity carries no coordinates")
        if self.x < 0 or self.y < 0:
            raise ValueError("coordinates are non-negative raw field values")

    def __repr__(self) -> str:
        if self.is_infinity:
            return "AffinePoint(infinity)"
        return f"AffinePoint(x={hex(self.x)}, y={hex(self.y)})"
