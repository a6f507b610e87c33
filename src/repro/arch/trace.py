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

__all__ = ["BatchTrace", "ExecutionTrace", "IterationSpan"]


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


@dataclass
class BatchTrace(ExecutionTrace):
    """The activity of N runs of one instruction stream
    (:class:`~repro.arch.batch.BatchCoprocessor`).

    ``datapath`` and ``register`` are ``(N, cycles)`` float64 arrays, row
    i equal to run i's :class:`ExecutionTrace` channel.  ``control`` and
    ``clock`` depend only on the key bits and the written registers, so
    every run has the same ones: they are ``(1, cycles)`` rows, which
    broadcast.  ``result_x_only`` holds one x per run; the iteration
    spans, key bits and instructions are shared.
    """

    @property
    def cycles(self) -> int:
        """Clock cycles of every run."""
        return self.datapath.shape[1]

    @property
    def n_traces(self) -> int:
        """Number of runs."""
        return self.datapath.shape[0]

    def check_consistency(self) -> None:
        """Raise if the channels disagree on the cycle count."""
        n, cycles = self.datapath.shape
        if (self.register.shape != (n, cycles)
                or self.control.shape != (1, cycles)
                or self.clock.shape != (1, cycles)):
            raise AssertionError("activity channels have inconsistent shapes")
        for span in self.iterations:
            if not (0 <= span.start < span.end <= cycles):
                raise AssertionError("iteration span outside the trace")
