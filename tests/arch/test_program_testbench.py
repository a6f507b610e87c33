"""Tests for microcode analysis and listings."""

import pytest

from repro.arch import (
    CoprocessorConfig,
    EccCoprocessor,
    analyze_program,
    format_listing,
)


@pytest.fixture(scope="module")
def short_trace():
    coprocessor = EccCoprocessor(CoprocessorConfig())
    return coprocessor, coprocessor.point_multiply(
        0x1357, coprocessor.domain.generator, initial_z=1, max_iterations=3
    )


class TestProgramAnalysis:
    def test_statistics_totals(self, short_trace):
        coprocessor, trace = short_trace
        stats = analyze_program(trace.instructions,
                                coprocessor.config.fetch_overhead)
        assert stats.instruction_count == len(trace.instructions)
        assert stats.total_cycles == trace.cycles
        assert sum(stats.opcode_histogram.values()) == stats.instruction_count
        assert sum(stats.opcode_cycles.values()) == stats.total_cycles

    def test_malu_occupancy_in_range(self, short_trace):
        coprocessor, trace = short_trace
        stats = analyze_program(trace.instructions,
                                coprocessor.config.fetch_overhead)
        # MUL/SQR dominate a ladder iteration (9 of 12 instructions).
        assert 0.5 < stats.malu_occupancy < 1.0

    def test_ladder_opcode_mix(self, short_trace):
        __, trace = short_trace
        stats = analyze_program(trace.instructions)
        assert stats.opcode_histogram["mul"] >= 3 * 5  # 5 MULs/iteration
        assert stats.opcode_histogram["sqr"] >= 3 * 4
        assert "ldi" in stats.opcode_histogram  # prologue loads

    def test_str_rendering(self, short_trace):
        coprocessor, trace = short_trace
        text = str(analyze_program(trace.instructions,
                                   coprocessor.config.fetch_overhead))
        assert "MALU occupancy" in text
        assert "mul" in text

    def test_listing_symbolic_names(self, short_trace):
        __, trace = short_trace
        listing = format_listing(trace.instructions, limit=10)
        assert "XB" in listing
        assert "mul" in listing or "ldi" in listing
        assert "... (" in listing  # truncation marker

    def test_listing_full(self, short_trace):
        __, trace = short_trace
        listing = format_listing(trace.instructions)
        assert len(listing.splitlines()) == len(trace.instructions)

    def test_listing_identical_for_different_keys(self):
        """The constant-time property at the listing level: opcode and
        cycle columns match for any key (operands differ via the mux)."""
        coprocessor = EccCoprocessor(CoprocessorConfig())

        def opcode_cycle_columns(k):
            trace = coprocessor.point_multiply(
                k, coprocessor.domain.generator, initial_z=1,
                max_iterations=4,
            )
            return [(i.opcode, i.cycles, i.start_cycle)
                    for i in trace.instructions]

        assert opcode_cycle_columns(0x3A7) == opcode_cycle_columns(0x155)
