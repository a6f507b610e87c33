"""The Modular Arithmetic Logic Unit (MALU).

The datapath of the coprocessor: a digit-serial GF(2^m) multiplier
(:class:`~repro.gf2m.digit_serial.DigitSerialMultiplier`) plus a
bitwise field adder.  Squaring either runs on the multiplier (the
paper's minimal-area configuration, following the MALU of Lee et al.
[10] / Sakiyama et al. [16]) or on a dedicated single-cycle squarer
(larger, faster — an ablation point for the digit-size bench).

Every operation returns the result together with its per-cycle
switching activity, which the coprocessor assembles into the
execution trace.
"""

from __future__ import annotations

from ..gf2m.digit_serial import DigitSerialMultiplier
from ..gf2m.field import BinaryField

__all__ = ["Malu"]


class Malu:
    """Digit-serial multiplier + adder (+ optional dedicated squarer)."""

    def __init__(self, field: BinaryField, digit_size: int,
                 dedicated_squarer: bool = False):
        self.field = field
        self.digit_size = digit_size
        self.dedicated_squarer = dedicated_squarer
        self._multiplier = DigitSerialMultiplier(field, digit_size)

    @property
    def mul_cycles(self) -> int:
        """Datapath cycles of one multiplication."""
        return self._multiplier.cycles_per_multiplication

    def multiply(self, a: int, b: int) -> tuple[int, list]:
        """Field multiplication: (product, per-cycle toggle counts).

        Per-cycle activity combines the accumulator update toggles and
        the partial-product-array toggles (the latter scale with the
        digit size — see :class:`~repro.gf2m.digit_serial
        .MultiplicationTrace`).
        """
        product, trace = self._multiplier.multiply(a, b)
        combined = [
            hd + arr
            for hd, arr in zip(trace.hamming_distances, trace.array_activity)
        ]
        return product, combined

    def square(self, a: int) -> tuple[int, list]:
        """Field squaring: on the multiplier, or in one cycle if dedicated.

        The dedicated squarer is a combinational bit-spread + reduce;
        its single-cycle activity is the Hamming distance between input
        and output on the result bus.
        """
        if self.dedicated_squarer:
            result = self.field.square_raw(a)
            return result, [(a ^ result).bit_count()]
        return self.multiply(a, a)

    def add(self, a: int, b: int) -> tuple[int, list]:
        """Field addition (XOR): one cycle; activity = result bus toggles."""
        result = a ^ b
        return result, [result.bit_count()]

    def __repr__(self) -> str:
        squarer = "dedicated" if self.dedicated_squarer else "on-multiplier"
        return (
            f"Malu(m={self.field.m}, d={self.digit_size}, squarer={squarer})"
        )
