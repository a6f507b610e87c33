"""Scalar and base-point blinding: the other classic DPA countermeasures.

The paper's chip randomizes the projective representation (Algorithm
1); the literature it builds on (Coron, CHES 1999) offers two more
randomizations at the same abstraction level, included here so the
countermeasure ablation benches can compare all three:

* **scalar blinding** — compute with ``k' = k + r*n`` for a fresh
  random ``r``; since ``n*P`` is the identity, the result is unchanged
  but the bit pattern the ladder consumes differs every run;
* **point blinding** — compute ``k*(P + R) - k*R`` for a secret random
  point ``R``; every intermediate depends on ``R``.

Both cost extra work (longer scalar / second multiplication); the
paper's choice of randomized projective coordinates is the cheapest of
the three, which is exactly the kind of trade-off the benches surface.
"""

from __future__ import annotations

from .curve import BinaryEllipticCurve
from .ladder import montgomery_ladder
from .point import AffinePoint

__all__ = ["blind_scalar", "point_blinded_multiply"]


def blind_scalar(k: int, order: int, rng, blinding_bits: int = 32) -> int:
    """Return ``k + r*n`` for a fresh ``r`` of ``blinding_bits`` bits.

    The blinded scalar is congruent to ``k`` modulo the group order,
    so it computes the same point, but its binary expansion — the
    sequence of ladder decisions — changes every invocation.
    """
    if not 1 <= k < order:
        raise ValueError("scalar must be in [1, order - 1]")
    if blinding_bits < 1:
        raise ValueError("need at least one blinding bit")
    r = 0
    while r == 0:
        r = rng.getrandbits(blinding_bits)
    return k + r * order


def point_blinded_multiply(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    rng,
) -> AffinePoint:
    """Scalar multiplication under base-point blinding.

    Computes ``k*(P + R) - k*R`` with a fresh uniformly random ``R``:
    every ladder intermediate is a function of ``R``, unpredictable to
    a DPA adversary, at the cost of a second full multiplication.
    """
    if k < 0:
        raise ValueError("the blinded ladder expects a non-negative scalar")
    while True:
        mask_point = curve.random_point(rng)
        blinded_base = curve.add(point, mask_point)
        # Degenerate sums (identity / 2-torsion) would hit the ladder's
        # excluded inputs; resample, which leaks nothing about P or k.
        if not blinded_base.is_infinity and blinded_base.x != 0 \
                and mask_point.x != 0:
            break
    masked = montgomery_ladder(curve, k, blinded_base, rng=rng)
    correction = montgomery_ladder(curve, k, mask_point, rng=rng)
    return curve.subtract(masked, correction)
