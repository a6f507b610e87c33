"""Fault injection into point-multiplication executions.

The paper requires the co-processor operations to be "protected
against side-channel attacks and fault attacks" (Section 4).  The
active-adversary half of that sentence: a glitch or laser pulse flips
state bits mid-computation.  This module injects such faults into the
algorithm-level ladder and into double-and-add-always, producing the
(possibly invalid) outputs that :mod:`repro.fault.attacks` exploits
and :mod:`repro.fault.countermeasures` must catch.

The faulty ladder runs the suspendable ladder of :mod:`repro.ec.ladder`
— the loop every other ladder caller runs — and faults its frozen
:class:`~repro.ec.ladder.LadderState` between two steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from ..ec.curve import BinaryEllipticCurve
from ..ec.ladder import ladder_suspend_advance, ladder_suspend_init
from ..ec.point import AffinePoint

__all__ = ["FaultKind", "FaultSpec", "flip_bit", "faulty_montgomery_ladder",
           "faulty_double_and_add_always"]


class FaultKind(enum.Enum):
    """Supported physical fault models."""

    BIT_FLIP = "bit_flip"          # transient single-bit upset
    STUCK_AT_ZERO = "stuck_zero"   # register cleared
    SKIP = "skip"                  # operation not executed


@dataclass(frozen=True)
class FaultSpec:
    """Where and what to inject.

    ``iteration`` indexes ladder iterations (0-based); ``target`` names
    the ladder register ("X1", "Z1", "X2", "Z2"); ``bit`` selects the
    flipped bit for BIT_FLIP.
    """

    iteration: int
    target: str = "X1"
    bit: int = 0
    kind: FaultKind = FaultKind.BIT_FLIP

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        if self.target not in ("X1", "Z1", "X2", "Z2"):
            raise ValueError("target must be one of X1, Z1, X2, Z2")
        if self.bit < 0:
            raise ValueError("bit index must be non-negative")


def flip_bit(value: int, bit: int) -> int:
    """Flip one bit of a value."""
    return value ^ (1 << bit)


def faulty_montgomery_ladder(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    fault: Optional[FaultSpec] = None,
) -> AffinePoint:
    """Montgomery ladder (x-only, Z = 1) with an optional injected fault.

    Returns whatever the corrupted datapath produces — typically a
    point that is NOT on the curve or not the correct multiple.  Runs
    without the Z-randomization so fault effects are repeatable (the
    attacker triggers at a fixed cycle).  A register fault lands right
    after iteration ``fault.iteration``; a skip drops that iteration's
    step and moves on to the next key bit.  A fault past the last
    iteration never lands.
    """
    state = ladder_suspend_init(curve, k, point, 1)
    if fault is not None:
        state = ladder_suspend_advance(curve, state, fault.iteration)
    if fault is not None and not state.finished:
        if fault.kind is FaultKind.SKIP:
            state = replace(state, bit_index=state.bit_index - 1)
        else:
            state = ladder_suspend_advance(curve, state, 1)
            register = fault.target.lower()
            value = (0 if fault.kind is FaultKind.STUCK_AT_ZERO
                     else flip_bit(getattr(state, register), fault.bit))
            state = replace(state, **{register: value})
    state = ladder_suspend_advance(curve, state, state.bit_index + 1)
    f = curve.field
    if state.z1 == 0:
        return AffinePoint.infinity()
    # x-only output lifted with an arbitrary y-bit: faults corrupt x,
    # which is what the attacks inspect.
    x_out = f.mul_raw(state.x1, f.inverse_raw(state.z1))
    lifted = curve.lift_x(x_out)
    if lifted is None:
        # The corrupted x has no point on the curve at all; surface it
        # as a raw (off-curve) coordinate pair.
        return AffinePoint(x_out, 0)
    return lifted


def faulty_double_and_add_always(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    fault_iteration: Optional[int] = None,
    kind: FaultKind = FaultKind.BIT_FLIP,
) -> AffinePoint:
    """Double-and-add-always with a fault in one iteration's *addition*.

    The C safe-error model: the addition of iteration
    ``fault_iteration`` is disturbed according to ``kind`` —
    ``BIT_FLIP`` corrupts the adder's output register,
    ``STUCK_AT_ZERO`` clears it, ``SKIP`` suppresses the addition
    entirely (the dummy-add slot executes a no-op).  If that addition
    was the dummy (key bit 0), the fault vanishes from the output —
    the attacker learns the key bit by checking whether the result
    changed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    result = point
    for index, i in enumerate(range(k.bit_length() - 2, -1, -1)):
        result = curve.double(result)
        if (fault_iteration is not None and index == fault_iteration
                and kind is FaultKind.SKIP):
            real = result  # the addition never executed
        else:
            real = curve.add(result, point)
            if fault_iteration is not None and index == fault_iteration:
                if kind is FaultKind.STUCK_AT_ZERO:
                    real = AffinePoint(0, real.y if not real.is_infinity
                                       else 0)
                elif not real.is_infinity:
                    real = AffinePoint(flip_bit(real.x, 0), real.y)
        if (k >> i) & 1:
            result = real
    return result
