"""Instruction set of the ECC coprocessor.

Architecture-level security rule of Section 5: "all instructions should
execute with a constant number of cycles" (the timing-attack
countermeasure), and "sensitive data should appear only on the internal
data-bus" — there is deliberately no instruction that moves a register
to the output port; only the designated result registers are readable
after a point multiplication completes.

Instruction timing is parameterized by the digit size ``d`` of the
MALU: a field multiplication (and a squaring, when no dedicated
squarer is configured) occupies the MALU for ``ceil(m/d)`` datapath
cycles, and ADD, MOV and LDI for one.  Every instruction additionally
pays a constant fetch/decode overhead
(:attr:`~repro.arch.coprocessor.CoprocessorConfig.fetch_overhead`),
which is the knob the energy model calibrates against the paper's
measured 9.8 point multiplications per second.  The coprocessor
counts each instruction's cycles from its datapath activity, and
records them in the instruction log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Opcode", "Instruction"]


class Opcode(enum.Enum):
    """Coprocessor operations (register-to-register, constant cycles)."""

    MUL = "mul"      # rd <- ra * rb           (digit-serial MALU)
    SQR = "sqr"      # rd <- ra^2              (MALU or dedicated squarer)
    ADD = "add"      # rd <- ra ^ rb           (bitwise field addition)
    MOV = "mov"      # rd <- ra
    LDI = "ldi"      # rd <- immediate         (operand load from host bus)


@dataclass(frozen=True)
class Instruction:
    """One executed instruction, as recorded in the instruction log.

    ``start_cycle`` is the cycle at which the instruction's fetch
    began; together with ``cycles`` it gives the instruction's cycle
    span inside the execution trace (used by white-box evaluators to
    map trace samples back to operations).
    """

    opcode: Opcode
    rd: int
    ra: int = -1
    rb: int = -1
    cycles: int = 0
    start_cycle: int = -1

    def __repr__(self) -> str:
        operands = [f"r{self.rd}"]
        if self.ra >= 0:
            operands.append(f"r{self.ra}")
        if self.rb >= 0:
            operands.append(f"r{self.rb}")
        return f"{self.opcode.value} {', '.join(operands)} ; {self.cycles}cyc"
