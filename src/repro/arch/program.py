"""Microcode inspection: listings, histograms and occupancy analysis.

The EDA view of an execution trace: what did the sequencer actually
run?  Used by the docs (the ladder-step listing), by the constant-time
tests (identical listings for different keys) and by the design-space
analysis (MALU occupancy tells you whether a faster multiplier would
even help).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .isa import Opcode

__all__ = ["ProgramStatistics", "analyze_program", "format_listing",
           "REGISTER_NAMES"]

#: Symbolic names of the coprocessor registers (core + host buffers).
REGISTER_NAMES = ("X1", "Z1", "X2", "Z2", "XB", "T", "SB", "IO0", "IO1")


def _reg(index: int) -> str:
    if 0 <= index < len(REGISTER_NAMES):
        return REGISTER_NAMES[index]
    return f"r{index}"


@dataclass(frozen=True)
class ProgramStatistics:
    """Aggregate view of one executed microprogram."""

    instruction_count: int
    total_cycles: int
    opcode_histogram: dict
    opcode_cycles: dict
    malu_busy_cycles: int

    @property
    def malu_occupancy(self) -> float:
        """Fraction of cycles the MALU datapath is busy."""
        if self.total_cycles == 0:
            return 0.0
        return self.malu_busy_cycles / self.total_cycles

    def __str__(self) -> str:
        lines = [
            f"{self.instruction_count} instructions, "
            f"{self.total_cycles} cycles, "
            f"MALU occupancy {self.malu_occupancy:.0%}"
        ]
        for opcode, count in sorted(self.opcode_histogram.items(),
                                    key=lambda kv: -kv[1]):
            cycles = self.opcode_cycles[opcode]
            share = cycles / self.total_cycles if self.total_cycles else 0
            lines.append(
                f"  {opcode:<4} x{count:>5}  {cycles:>7} cycles ({share:.0%})"
            )
        return "\n".join(lines)


def analyze_program(instructions: list,
                    fetch_overhead: int = 0) -> ProgramStatistics:
    """Summarize an instruction log (e.g. ``ExecutionTrace.instructions``).

    ``fetch_overhead`` is subtracted per instruction when computing the
    MALU-busy share (fetch cycles keep the datapath idle).
    """
    histogram = Counter()
    cycles = Counter()
    total = 0
    busy = 0
    for instr in instructions:
        histogram[instr.opcode.value] += 1
        cycles[instr.opcode.value] += instr.cycles
        total += instr.cycles
        if instr.opcode in (Opcode.MUL, Opcode.SQR, Opcode.ADD):
            busy += max(0, instr.cycles - fetch_overhead)
    return ProgramStatistics(
        instruction_count=len(instructions),
        total_cycles=total,
        opcode_histogram=dict(histogram),
        opcode_cycles=dict(cycles),
        malu_busy_cycles=busy,
    )


def format_listing(instructions: list, limit: int = None) -> str:
    """Assembly-style listing with symbolic register names.

    ::

        0000  mul   T, X1, Z2      ; 49 cyc @ 112
        0001  add   Z1, T, X1     ;  9 cyc @ 161
    """
    rows = []
    for index, instr in enumerate(instructions):
        if limit is not None and index >= limit:
            rows.append(f"... ({len(instructions) - limit} more)")
            break
        operands = [_reg(instr.rd)]
        if instr.ra >= 0:
            operands.append(_reg(instr.ra))
        if instr.rb >= 0:
            operands.append(_reg(instr.rb))
        location = f" @ {instr.start_cycle}" if instr.start_cycle >= 0 else ""
        rows.append(
            f"{index:04d}  {instr.opcode.value:<4} "
            f"{', '.join(operands):<14} ; {instr.cycles:>3} cyc{location}"
        )
    return "\n".join(rows)
