"""The coprocessor register file, with switching-activity tracking.

The paper's chip "uses six 163-bit registers for the whole point
multiplication" (Section 4).  Every write is recorded with its Hamming
distance — the quantity a CMOS power model turns into current — and
with which register was written, which the clock-gating model uses
(Section 6: "if different registers are enabled depending on the secret
key, different parts of the clock tree will be activated").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RegisterFile", "RegisterWrite"]


@dataclass(frozen=True)
class RegisterWrite:
    """One register update event."""

    cycle: int
    register: int
    old_value: int
    new_value: int

    @property
    def hamming_distance(self) -> int:
        """Bit toggles caused by this write."""
        return (self.old_value ^ self.new_value).bit_count()


class RegisterFile:
    """``count`` registers of ``width`` bits each.

    Reads are unrecorded (a read drives the operand bus; its activity
    is charged to the consuming datapath).  Writes are logged.
    """

    def __init__(self, count: int, width: int):
        if count < 1 or width < 1:
            raise ValueError("register file needs positive count and width")
        self.count = count
        self.width = width
        self._mask = (1 << width) - 1
        self._values = [0] * count
        self.writes: list = []

    def read(self, index: int) -> int:
        """Current value of a register."""
        self._check(index)
        return self._values[index]

    def write(self, index: int, value: int, cycle: int) -> RegisterWrite:
        """Write a register, logging the transition."""
        self._check(index)
        if not 0 <= value <= self._mask:
            raise ValueError("value exceeds the register width")
        event = RegisterWrite(
            cycle=cycle,
            register=index,
            old_value=self._values[index],
            new_value=value,
        )
        self._values[index] = value
        self.writes.append(event)
        return event

    def _check(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise IndexError(f"register index {index} out of range 0..{self.count - 1}")

    def snapshot(self) -> list:
        """Copy of all register values (see :meth:`restore`)."""
        return list(self._values)

    def restore(self, values: list) -> None:
        """Load values saved by :meth:`snapshot` and clear the write log.

        Needs one value per register, each within the register width.
        """
        if len(values) != self.count:
            raise ValueError(
                f"expected {self.count} register values, got {len(values)}"
            )
        if any(not 0 <= value <= self._mask for value in values):
            raise ValueError("value exceeds the register width")
        self._values = list(values)
        self.writes = []

    def reset(self) -> None:
        """Zero all registers and clear the write log."""
        self._values = [0] * self.count
        self.writes = []

    def __repr__(self) -> str:
        return f"RegisterFile({self.count} x {self.width} bits)"
