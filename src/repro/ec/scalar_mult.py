"""The textbook scalar multiplication and its side-channel profile.

The algorithm level of the security pyramid (Section 3/4): the choice
of point-multiplication algorithm determines performance, temporary
storage *and* side-channel resistance.  The paper's choice, the
Montgomery ladder, lives in :mod:`repro.ec.ladder`; this module keeps
the baseline it is compared against, :func:`double_and_add`, whose
operation sequence depends on the key (the timing and SPA leak of
bench E3).

The function can record its operation sequence — the abstract "power
signature" an SPA adversary observes at the algorithm level.
"""

from __future__ import annotations

from typing import Optional

from .curve import BinaryEllipticCurve
from .point import AffinePoint

__all__ = ["double_and_add"]

#: Operation labels used in recorded sequences.
OP_DOUBLE = "D"
OP_ADD = "A"


def double_and_add(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    operations: Optional[list] = None,
) -> AffinePoint:
    """Left-to-right double-and-add (NOT side-channel safe).

    When ``operations`` is a list, the executed operation sequence is
    appended to it: a ``D`` for every doubling and an ``A`` for every
    addition.  The number of ``A`` entries equals the key's Hamming
    weight — the leak that timing attacks and SPA exploit.
    """
    if k < 0:
        return double_and_add(curve, -k, curve.negate(point), operations)
    if k == 0 or point.is_infinity:
        return AffinePoint.infinity()
    result = point
    for i in range(k.bit_length() - 2, -1, -1):
        result = curve.double(result)
        if operations is not None:
            operations.append(OP_DOUBLE)
        if (k >> i) & 1:
            result = curve.add(result, point)
            if operations is not None:
                operations.append(OP_ADD)
    return result
