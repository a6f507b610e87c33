"""Seeded supply-voltage trajectories with brownout crossings.

The paper's tag is wirelessly powered or battery-backed; either way
the supply is a *trajectory*, not a constant.  This module models it
as a sequence of power-on windows measured in core-clock cycles: the
device runs, Vdd sags from the technology's nominal voltage toward
the brownout threshold along the window, and at the exact crossing
cycle a :class:`~.errors.PowerLossError` fires.  Window lengths are
derived from ``(seed, session, window)`` with the same SHA-256
labelled-tuple discipline as :func:`repro.channel.model.derive_channel_seed`,
so a supply trajectory is a pure function of its spec — two runs of
one spec brown out at the same cycles on any machine.

Profiles (:data:`SUPPLY_PROFILES`):

* ``stable`` — mains/bench power, no cuts;
* ``battery`` — discharge: windows *shrink* geometrically as the
  battery sags (each recovery buys less on-time than the last);
* ``harvested`` — coil/field power: i.i.d. jittered windows around the
  mean (field alignment comes and goes, it does not trend).

Voltage shares the existing energy model through
:class:`~repro.power.technology.TechnologyParams`: the trajectory
starts at ``nominal_vdd`` and :meth:`SupplyModel.vdd_at` follows the
linear sag to ``brownout_vdd``, so the dynamic-energy scale at any
point of a window is ``technology.dynamic_scale`` of that voltage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..power.technology import TechnologyParams, UMC_130NM
from .errors import PowerLossError, SupplySpecError

__all__ = ["SUPPLY_PROFILES", "SupplySpec", "SupplyModel", "PowerSupply",
           "derive_supply_value"]

#: The supply shapes the engine and the CLI know.
SUPPLY_PROFILES: Tuple[str, ...] = ("stable", "battery", "harvested")


def derive_supply_value(seed: int, stream: str, session: int,
                        index: int) -> int:
    """A 64-bit child value for one supply decision stream.

    SHA-256 over the labelled tuple, mirroring
    :func:`repro.channel.model.derive_channel_seed` — stdlib-only,
    process- and platform-stable.
    """
    message = f"repro.intermittent/{seed}/{stream}/{session}/{index}".encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


@dataclass(frozen=True)
class SupplySpec:
    """Everything a supply trajectory depends on (and nothing else)."""

    profile: str = "stable"
    technology: TechnologyParams = UMC_130NM
    brownout_fraction: float = 0.7
    mean_on_cycles: int = 60_000
    jitter: float = 0.5
    battery_decay: float = 0.9
    cuts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.profile not in SUPPLY_PROFILES:
            known = ", ".join(SUPPLY_PROFILES)
            raise SupplySpecError(
                f"unknown supply profile {self.profile!r}; known: {known}")
        if not 0.0 < self.brownout_fraction < 1.0:
            raise SupplySpecError("brownout fraction must be in (0, 1)")
        if self.mean_on_cycles < 1:
            raise SupplySpecError("mean on-window must be at least 1 cycle")
        if not 0.0 <= self.jitter < 1.0:
            raise SupplySpecError("jitter must be in [0, 1)")
        if not 0.0 < self.battery_decay <= 1.0:
            raise SupplySpecError("battery decay must be in (0, 1]")
        if self.cuts < 0:
            raise SupplySpecError("cut count must be non-negative")

    @property
    def nominal_vdd(self) -> float:
        return self.technology.nominal_vdd

    @property
    def brownout_vdd(self) -> float:
        return self.brownout_fraction * self.technology.nominal_vdd


class SupplyModel:
    """One tag's deterministic supply trajectory under a spec."""

    def __init__(self, spec: SupplySpec, session_index: int = 0):
        self.spec = spec
        self.session_index = session_index

    def window_cycles(self, window_index: int) -> int:
        """On-time (cycles) of one power-on window, >= 1."""
        spec = self.spec
        unit = derive_supply_value(spec.seed, f"window/{spec.profile}",
                                   self.session_index,
                                   window_index) / 2.0 ** 64
        mean = spec.mean_on_cycles
        if spec.profile == "battery":
            mean = mean * (spec.battery_decay ** window_index)
        scale = 1.0 + spec.jitter * (2.0 * unit - 1.0)
        return max(1, int(round(mean * scale)))

    def windows(self) -> Tuple[int, ...]:
        """The finite cut schedule: ``spec.cuts`` brownout windows.

        After the schedule is exhausted the supply is treated as
        stable, so every session has a terminating final window — the
        model's analogue of the clinician re-seating the programming
        head until the exchange completes.
        """
        if self.spec.profile == "stable":
            return ()
        return tuple(self.window_cycles(i) for i in range(self.spec.cuts))

    def power_supply(self) -> "PowerSupply":
        return PowerSupply(self.windows(),
                           nominal_vdd=self.spec.nominal_vdd,
                           brownout_vdd=self.spec.brownout_vdd,
                           technology=self.spec.technology)


class PowerSupply:
    """The runtime supply: a cycle meter that browns out on schedule.

    ``windows`` is the finite list of power-on lengths (cycles); once
    it is exhausted power stays up.  :meth:`spend` advances the meter
    and raises :class:`~.errors.PowerLossError` at the *exact* cycle a
    window ends — partially completed work inside the losing ``spend``
    is the caller's problem, which is the whole point.
    """

    def __init__(self, windows: Sequence[int],
                 nominal_vdd: float = UMC_130NM.nominal_vdd,
                 brownout_vdd: float = 0.7 * UMC_130NM.nominal_vdd,
                 technology: TechnologyParams = UMC_130NM):
        for w in windows:
            if w < 1:
                raise SupplySpecError("every window needs at least 1 cycle")
        if not brownout_vdd < nominal_vdd:
            raise SupplySpecError("brownout voltage must be below nominal")
        self.windows: Tuple[int, ...] = tuple(int(w) for w in windows)
        self.nominal_vdd = nominal_vdd
        self.brownout_vdd = brownout_vdd
        self.technology = technology
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

    def vdd(self) -> float:
        """Supply voltage now: linear sag from nominal to brownout."""
        remaining = self.remaining_in_window()
        if remaining is None:
            return self.nominal_vdd
        window = self.windows[self.window_index]
        frac = self.window_used / window
        return self.nominal_vdd - frac * (self.nominal_vdd
                                          - self.brownout_vdd)

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
