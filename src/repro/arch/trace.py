"""Execution traces: the coprocessor's per-cycle activity record.

An :class:`ExecutionTrace` is what the oscilloscope of Figure 4 would
see *before* the electrical layer: four per-cycle switching-activity
channels (datapath, register writes, control network, clock tree) that
the power simulator (:mod:`repro.power`) combines into a noisy current
trace.  It also carries the ground-truth annotations (key bits,
iteration boundaries) that the *evaluation harness* — not the modelled
attacker — uses to verify attack results.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from ..ec.point import AffinePoint

__all__ = ["ExecutionTrace", "IterationSpan"]


@dataclass(frozen=True)
class IterationSpan:
    """Cycle range [start, end) of one ladder iteration and its key bit."""

    start: int
    end: int
    key_bit: int


@dataclass
class ExecutionTrace:
    """Per-cycle switching activity of one coprocessor run.

    The four channels have one float per clock cycle:

    * ``datapath`` — MALU toggles (plus glitch and isolation effects),
    * ``register`` — register-file write toggles,
    * ``control`` — mux-select network toggles (Figure 3),
    * ``clock`` — clock-tree toggles under the configured gating policy.
    """

    datapath: list = dataclass_field(default_factory=list)
    register: list = dataclass_field(default_factory=list)
    control: list = dataclass_field(default_factory=list)
    clock: list = dataclass_field(default_factory=list)
    iterations: list = dataclass_field(default_factory=list)
    key_bits: list = dataclass_field(default_factory=list)
    instructions: list = dataclass_field(default_factory=list)
    result: Optional[AffinePoint] = None
    result_x_only: Optional[int] = None

    @property
    def cycles(self) -> int:
        """Total clock cycles of the run."""
        return len(self.datapath)

    def check_consistency(self) -> None:
        """Raise if the four channels disagree on the cycle count."""
        n = len(self.datapath)
        if not (len(self.register) == len(self.control) == len(self.clock) == n):
            raise AssertionError("activity channels have inconsistent lengths")
        for span in self.iterations:
            if not (0 <= span.start < span.end <= n):
                raise AssertionError("iteration span outside the trace")

    def iteration_slices(self) -> list:
        """(start, end) cycle ranges of the ladder iterations."""
        return [(s.start, s.end) for s in self.iterations]
