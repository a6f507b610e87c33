"""Tests for the instruction set and its constant-time timing.

Cycle counts are read off the coprocessor's live instruction log, so
each check holds on the code that runs: a K-163 point multiplication
truncated to one ladder iteration, or a full one where the check needs
the x-only epilogue's MOVs.
"""

import random

import pytest

from repro.arch import (CoprocessorConfig, EccCoprocessor, Instruction,
                        Opcode)


def run_trace(max_iterations=1, key=0x1234, double_base=False, **config):
    """One K-163 point multiplication's execution trace."""
    coprocessor = EccCoprocessor(CoprocessorConfig(**config))
    domain = coprocessor.domain
    point = domain.generator
    if double_base:
        point = domain.curve.double(point)
    return coprocessor.point_multiply(
        key, point, rng=random.Random(key), max_iterations=max_iterations,
        recover_y=False)


def cycles_by_opcode(max_iterations=1, **config):
    """``(fetch overhead, {opcode: cycles})``; every instance of an
    opcode must take the same count."""
    fetch = CoprocessorConfig(**config).fetch_overhead
    counts = {}
    for instruction in run_trace(max_iterations, **config).instructions:
        counts.setdefault(instruction.opcode, set()).add(instruction.cycles)
    assert all(len(seen) == 1 for seen in counts.values())
    return fetch, {opcode: seen.pop() for opcode, seen in counts.items()}


class TestTimingTable:
    def test_paper_design_point(self):
        fetch, cycles = cycles_by_opcode(digit_size=4)
        assert cycles[Opcode.MUL] == 41 + fetch

    def test_squaring_on_multiplier(self):
        _, cycles = cycles_by_opcode(digit_size=4, dedicated_squarer=False)
        assert cycles[Opcode.SQR] == cycles[Opcode.MUL]

    def test_dedicated_squarer(self):
        fetch, cycles = cycles_by_opcode(digit_size=4,
                                         dedicated_squarer=True)
        assert cycles[Opcode.SQR] == 1 + fetch
        assert cycles[Opcode.SQR] < cycles[Opcode.MUL]

    def test_single_cycle_ops(self):
        fetch, cycles = cycles_by_opcode(max_iterations=None)
        for op in (Opcode.ADD, Opcode.MOV, Opcode.LDI):
            assert cycles[op] == 1 + fetch

    @pytest.mark.parametrize("d,expected", [(1, 163), (2, 82), (4, 41), (8, 21)])
    def test_digit_size_scaling(self, d, expected):
        fetch, cycles = cycles_by_opcode(digit_size=d)
        assert cycles[Opcode.MUL] == expected + fetch

    def test_timing_is_data_independent(self):
        """Another key, base point and Z leave every instruction's
        opcode and cycle count in place — the architecture-level
        constant-time property."""
        a = run_trace(max_iterations=8, key=0x1234 << 140)
        b = run_trace(max_iterations=8, key=0x7BEEF << 138,
                      double_base=True)
        assert a.key_bits != b.key_bits
        assert [(i.opcode, i.cycles, i.start_cycle)
                for i in a.instructions] == \
            [(i.opcode, i.cycles, i.start_cycle) for i in b.instructions]

    def test_invalid_parameters(self):
        """A negative fetch overhead is refused with the config; the
        digit-size checks are ``test_coprocessor.py``'s."""
        with pytest.raises(ValueError, match="fetch overhead"):
            CoprocessorConfig(fetch_overhead=-1)


class TestInstruction:
    def test_repr(self):
        instr = Instruction(Opcode.MUL, rd=0, ra=1, rb=2, cycles=49)
        assert "mul" in repr(instr)
        assert "r0" in repr(instr)
        assert "49" in repr(instr)

    def test_repr_without_operands(self):
        instr = Instruction(Opcode.LDI, rd=4, cycles=9)
        assert "r4" in repr(instr)
        assert "r-1" not in repr(instr)
