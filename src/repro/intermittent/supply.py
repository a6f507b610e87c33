"""Power-on windows with brownout crossings.

The paper's tag is wirelessly powered or battery-backed; either way
its supply comes and goes.  This module models the supply as a
sequence of power-on windows measured in core-clock cycles: the device
runs, and at the exact cycle a window closes a
:class:`~.errors.PowerLossError` fires.  The cut schedules of
:mod:`~.chaos` derive window lengths from ``(seed, session, window)``
with the same SHA-256 labelled-tuple discipline as
:func:`repro.channel.model.derive_channel_seed`, so a schedule is a
pure function of its inputs: two runs brown out at the same cycles on
any machine.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

from ..power.technology import UMC_130NM
from .errors import PowerLossError, SupplySpecError

__all__ = ["PowerSupply", "derive_supply_value"]


def derive_supply_value(seed: int, stream: str, session: int,
                        index: int) -> int:
    """A 64-bit child value for one supply decision stream.

    SHA-256 over the labelled tuple, mirroring
    :func:`repro.channel.model.derive_channel_seed` — stdlib-only,
    process- and platform-stable.
    """
    message = f"repro.intermittent/{seed}/{stream}/{session}/{index}".encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


class PowerSupply:
    """The runtime supply: a cycle meter that browns out on schedule.

    ``windows`` is the finite list of power-on lengths (cycles); once
    it is exhausted power stays up.  :meth:`spend` advances the meter
    and raises :class:`~.errors.PowerLossError` at the *exact* cycle a
    window ends — partially completed work inside the losing ``spend``
    is the caller's problem, which is the whole point.
    """

    #: The voltage a window closes at: 70% of the 0.13 µm node's nominal.
    brownout_vdd = 0.7 * UMC_130NM.nominal_vdd

    def __init__(self, windows: Sequence[int]):
        for w in windows:
            if w < 1:
                raise SupplySpecError("every window needs at least 1 cycle")
        self.windows: Tuple[int, ...] = tuple(int(w) for w in windows)
        self.cycle = 0              # global cycles ever powered
        self.window_index = 0       # current power-on window
        self.window_used = 0        # cycles consumed in this window

    @property
    def power_cycles(self) -> int:
        """Completed brownouts so far."""
        return self.window_index

    @property
    def exhausted(self) -> bool:
        """True once the schedule is spent and power is stable."""
        return self.window_index >= len(self.windows)

    def remaining_in_window(self) -> Optional[int]:
        """Cycles left before the next brownout, None when stable."""
        if self.exhausted:
            return None
        return self.windows[self.window_index] - self.window_used

    def spend(self, cycles: int) -> None:
        """Advance the meter; brown out exactly at a window boundary."""
        if cycles < 0:
            raise ValueError("cannot spend negative cycles")
        remaining = self.remaining_in_window()
        if remaining is not None and cycles >= remaining:
            self.cycle += remaining
            self.window_used += remaining
            raise PowerLossError(
                "supply crossed the brownout threshold",
                cycle=self.cycle, vdd=self.brownout_vdd,
                window_index=self.window_index)
        self.cycle += cycles
        self.window_used += cycles

    def survivable(self, cycles: int) -> int:
        """How many of ``cycles`` fit before the next brownout."""
        remaining = self.remaining_in_window()
        if remaining is None:
            return cycles
        return min(cycles, max(0, remaining - 1))

    def restart(self) -> None:
        """Begin the next power-on window (the engine's resume hook)."""
        self.window_index += 1
        self.window_used = 0
