"""Fault countermeasures: input/output validation and verified execution.

The paper's design rule (Sections 4–5): the secure zone must defend
against "side-channel attacks and fault attacks".  The standard
algorithm-level defences for a point multiplier:

* validate the input point (kills invalid-curve/invalid-point attacks),
* validate that the *output* is on the curve (catches most transient
  datapath faults — a random corruption almost never lands on the
  curve),
* optionally re-verify by a second computation path (catches the rest,
  including safe-error-style faults, at 2x cost).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ec.curve import BinaryEllipticCurve
from ..ec.ladder import montgomery_ladder
from ..ec.point import AffinePoint

__all__ = ["FaultDetectedError", "validate_input_point", "HardenedMultiplier"]


class FaultDetectedError(Exception):
    """Raised when a validation check fails; the device must abort
    without releasing any output (a faulty result is key material)."""


def validate_input_point(
    curve: BinaryEllipticCurve,
    point: AffinePoint,
    order: Optional[int] = None,
) -> None:
    """Reject points that are off-curve, degenerate, or out of subgroup.

    Raises :class:`FaultDetectedError` on any violation.  When
    ``order`` is given, membership of the prime-order subgroup is also
    checked (kills small-subgroup residues even for on-curve inputs).
    """
    if point.is_infinity:
        raise FaultDetectedError("input point is the identity")
    if point.x == 0:
        raise FaultDetectedError("input point is the 2-torsion point")
    if not curve.is_on_curve(point):
        raise FaultDetectedError("input point is not on the curve")
    if order is not None:
        if not montgomery_ladder(curve, order, point, randomize_z=False
                                 ).is_infinity:
            raise FaultDetectedError("input point is outside the subgroup")


class HardenedMultiplier:
    """A point multiplier wrapped in fault countermeasures.

    Parameters
    ----------
    curve:
        The curve to operate on.
    order:
        Prime subgroup order (enables the subgroup check).
    verify_by_recomputation:
        Re-run the multiplication with an independent algorithm and
        compare — the strongest (and most expensive) check.
    multiplier:
        The underlying scalar multiplication; defaults to the
        randomized Montgomery ladder.
    """

    def __init__(
        self,
        curve: BinaryEllipticCurve,
        order: Optional[int] = None,
        verify_by_recomputation: bool = False,
        multiplier: Optional[Callable] = None,
    ):
        self.curve = curve
        self.order = order
        self.verify_by_recomputation = verify_by_recomputation
        self._multiplier = multiplier

    def _run(self, k: int, point: AffinePoint, rng) -> AffinePoint:
        if self._multiplier is not None:
            return self._multiplier(k, point)
        return montgomery_ladder(self.curve, k, point, rng=rng)

    def multiply(self, k: int, point: AffinePoint, rng) -> AffinePoint:
        """Validated scalar multiplication; raises on any detected fault."""
        if self.order is not None and not 1 <= k < self.order:
            raise FaultDetectedError("scalar out of range")
        validate_input_point(self.curve, point, self.order)
        result = self._run(k, point, rng)
        if not result.is_infinity and not self.curve.is_on_curve(result):
            raise FaultDetectedError("output point failed the curve check")
        if self.verify_by_recomputation:
            reference = self.curve.multiply(k, point)
            if reference != result:
                raise FaultDetectedError("recomputation mismatch")
        return result
